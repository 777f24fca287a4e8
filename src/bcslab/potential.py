"""Effective potential: block matrices and their log-determinants.

The full potential is V = sum_q |phi_q|^2 - log det of the 2N x 2N block
matrix [[Id, C (ig/sqrt(kappa)) phi*], [Cbar (ig/sqrt(kappa)) phi, Id]]
with (phi)_{k,p} = phi_{k-p} and C = diag(1/a_k), a_k = i k0 - e_k.  Its
N x N Schur complement Id + (lambda/kappa) Cbar phi C phi* has the same
determinant: the routes agree in the real part, and their per-pivot imaginary
parts may differ by 2 pi k.  This module computes V only, as a plain
complex.  The mean-field closed forms V_BCS live in `gap`; U_r, V with an
external pairing field (its zero-mode shift and tilt, `model.ExternalField`),
and the propagators are test oracles and live with the tests.

The reduced route serves Re V, the bound chain, the cubic remainder probe and
finite differencing, where its imaginary part is smooth near the minimum; the
full route serves eval and is the oracle in the checks.  Both read phi by
`TransferSet.gather` alone: the full route's block is built Fortran-ordered
and factored in place, and the reduced matrix is built, Fortran-ordered, in
the calling thread's two scratch buffers (`TransferSet.scratch`) and
factored in place there; Re V is `potential_reduced`'s real part.
Every determinant is one LAPACK LU from scipy's f2py LAPACK extension
(`_flapack`), zgetrf for a dense matrix and zgbtrf for a band.  It is loaded
from its file on the first `logdet` (`_lapack`), so scipy's package init
never runs, and it releases the GIL, so threads factor at once.  Finite
differencing goes through `DisplacedPotential`, which writes its reduced
matrices in LAPACK band storage (`Banded`, kl, ku < (max |n0_t - n0_s| + 1) S
over the step set, S spatial vectors) for a banded LU in O(N kl (kl + ku)),
from band patterns built once per ordered pair of transfers.  The remainder
probe goes through `potential_ray`, which gives V at every point of a ray
from a zero-mode field along xi from one N x N product and one dense LU per t.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .model import FieldConfig, ModelSpec, MomentumSet


class SingularMatrixError(ValueError):
    """Raised when the block matrix is exactly singular (Re V = +inf)."""


@dataclass
class Banded:
    """A square complex matrix in LAPACK band storage: its kl sub- and ku
    superdiagonals, A[i, j] at ab[kl + ku + i - j, j] of a Fortran-ordered
    (2 kl + ku + 1) x N array whose first kl rows are the LU's fill-in space."""

    ab: np.ndarray
    kl: int
    ku: int


_LAPACK_LOCK = threading.Lock()


def _lapack():
    """scipy's f2py LAPACK extension, loaded once (`_load_flapack`).  The lock
    keeps threads that take their first determinant at once from loading it
    twice."""
    with _LAPACK_LOCK:
        return _load_flapack()


@functools.cache
def _load_flapack():
    """scipy/linalg/_flapack, loaded from its file in the directory that
    find_spec("scipy") reports, and kept out of sys.modules.  It imports only
    numpy, while scipy.linalg's package init costs ~0.2 s and ~25 MB."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("no LAPACK extension _flapack: scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    paths = [os.path.join(directory, "_flapack" + suffix) for suffix in suffixes]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no LAPACK extension _flapack in {directory}")
    name = "bcslab._flapack"  # its last component picks the init function
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(name) is module:  # CPython files a single-phase extension there
        del sys.modules[name]
    return module


def _pivots(matrix, overwrite: bool) -> tuple:
    """U's diagonal and the row swaps of LAPACK's partial-pivoting LU: getrf
    for a dense matrix, gbtrf for a `Banded` one, which picks the dense LU's
    pivots.  With `overwrite` a Fortran-ordered complex matrix (or band
    array) is factored in place.  A matrix that is not square (band storage
    without 2 kl + ku + 1 rows) or not finite raises ValueError."""
    lapack = _lapack()
    if not isinstance(matrix, Banded):
        a = np.asarray(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix must be finite")
        lu, piv, _ = lapack.zgetrf(a, overwrite_a=overwrite)
        return np.diag(lu), piv
    ab, kl, ku = np.asarray(matrix.ab, dtype=complex), matrix.kl, matrix.ku
    if ab.ndim != 2 or len(ab) != 2 * kl + ku + 1 or min(kl, ku) < 0:
        raise ValueError("band storage must have 2 kl + ku + 1 rows")
    if not np.all(np.isfinite(ab)):
        raise ValueError("matrix must be finite")
    lu, piv, _ = lapack.zgbtrf(ab, kl, ku, overwrite_ab=overwrite)
    return lu[kl + ku], piv


def logdet(matrix, overwrite: bool = False) -> complex:
    """log det with exact real part and per-pivot principal-branch imaginary part.

    A dense array is factored by LAPACK's LU, a `Banded` matrix by its banded
    LU; both pivot by rows within each column, so they pick the same pivots.
    The real part is the pairwise sum (np.sum) of log|U_ii| and the imaginary
    part is sum arg U_ii, plus pi when the row swaps are odd.  The caller's
    matrix is left intact unless `overwrite` is set: then a Fortran-ordered
    complex matrix (or band array) is factored in place and holds its LU
    factors afterwards.  An exactly zero pivot raises SingularMatrixError.
    """
    diag, piv = _pivots(matrix, overwrite)
    if np.any(diag == 0):
        raise SingularMatrixError("singular")
    odd = np.count_nonzero(piv != np.arange(len(piv))) % 2
    re = float(np.sum(np.log(np.abs(diag))))
    im = float(np.sum(np.angle(diag))) + (math.pi if odd else 0.0)
    return complex(re, im)


def phi_matrix(M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """(phi)_{k,p} = phi_{k-p} over the momentum-set ordering."""
    return phi.transfer.gather(phi.values)


def assemble_block(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """2N x 2N block matrix of the quadratic fermion form, Fortran-ordered,
    so `logdet(overwrite=True)` factors it in place.  Its quadrants' transposes
    gather (phi^H)^T = conj(phi) and phi^T, phi in the reversed Q order."""
    n = len(M)
    pref = 1j * spec.g / math.sqrt(spec.kappa)
    block = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
    np.fill_diagonal(block, 1.0)
    upper, lower = block[:n, n:], block[n:, :n]
    phi.transfer.gather(np.conj(phi.values), out=upper.T)
    phi.transfer.gather(phi.values[::-1], out=lower.T)
    # the left operand first: numpy's complex multiply is not bitwise symmetric
    np.multiply(pref, upper, out=upper)
    np.multiply((1.0 / M.a)[:, None], upper, out=upper)
    np.multiply(pref, lower, out=lower)
    np.multiply((1.0 / np.conj(M.a))[:, None], lower, out=lower)
    return block


def _field_sum(phi: FieldConfig) -> float:
    """sum_q |phi_q|^2."""
    return float(np.sum(np.abs(phi.values) ** 2))


def potential_full(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> complex:
    """V = sum_q |phi_q|^2 - log det of the full block matrix.

    The imaginary part of log det is summed per LU pivot on the principal
    branch, so Im V is defined only mod 2 pi globally.  The block is built
    for this call alone and factored in place."""
    return _field_sum(phi) - logdet(assemble_block(spec, M, phi), overwrite=True)


def reduced_matrix(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """Id + (lambda/kappa) Cbar phi C phi^H  (N x N), Fortran-ordered, built in
    the calling thread's two scratch buffers of the lattice
    (`TransferSet.scratch`) and overwritten by that thread's next field on
    that lattice.

    Cbar phi is gathered (`TransferSet.gather`) into the first buffer and
    (C phi^H)^T = conj(phi) C into the second, which then receives
    R^T = (C phi^H)^T (Cbar phi)^T, so R itself is Fortran-ordered and LAPACK
    factors it in place.  The product is taken a quarter of its rows at a
    time into a temporary and copied back over the rows it read, bit for bit
    the rows of one whole product.  A field allocates no N x N array, only
    that N^2/4 block.
    """
    Q = phi.transfer
    left, rt = Q.scratch
    Q.gather(phi.values, out=left)
    left *= (1.0 / np.conj(M.a))[:, None]
    Q.gather(np.conj(phi.values), out=rt)
    rt *= 1.0 / M.a
    n = len(M)
    # four blocks of two rows or more: numpy's matmul takes one row by gemv,
    # whose sums would round differently from the whole product's gemm
    parts = max(1, min(4, n // 2))
    bounds = [n * i // parts for i in range(parts + 1)]
    block = np.empty((-(-n // parts), n), dtype=complex)
    for lo, hi in zip(bounds, bounds[1:]):
        rt[lo:hi] = np.matmul(rt[lo:hi], left.T, out=block[: hi - lo])
    rt *= spec.lam / spec.kappa
    rt.reshape(-1)[:: len(rt) + 1] += 1.0
    return rt.T


def potential_reduced(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> complex:
    """Same value as potential_full via the N x N reduced determinant,
    factored in place in the scratch buffers."""
    return _field_sum(phi) - logdet(reduced_matrix(spec, M, phi), overwrite=True)


def potential_ray(spec: ModelSpec, M: MomentumSet, z0: complex, xi: FieldConfig, ts) -> list:
    """Reduced-route V at phi_q = z0 delta_{q,0} + t xi_q for each t of `ts`,
    in that order: a ray from a field on the zero mode alone, as the
    mean-field minimum (`model.bcs_config`) is.

    With Xi = `Q.gather(xi.values)` the field's matrix is z0 Id + t Xi, so
    R^T = Id + (lam/kappa) (|z0|^2 C + t S + t^2 G) Cbar with
    G = conj(Xi) C Xi^T and S = z0 conj(Xi) C + conj(z0) C Xi^T, where Xi^T
    gathers xi's values in reversed Q order.  G is one N x N product, taken
    once for every t.  conj(Xi) C and Xi^T are gathered into the calling
    thread's two scratch buffers (`TransferSet.scratch`), S replaces the
    second, G fills one N x N array that lives until this call returns, and
    each t builds R^T in the first buffer, where LAPACK factors R in place.
    """
    Q = xi.transfer
    ratio = spec.lam / spec.kappa
    C, rc = 1.0 / M.a, ratio / np.conj(M.a)
    mat, s_mat = Q.scratch
    Q.gather(np.conj(xi.values), out=mat)
    mat *= C
    Q.gather(xi.values[::-1], out=s_mat)
    g_mat = np.matmul(mat, s_mat)
    mat *= z0
    s_mat *= (np.conj(z0) * C)[:, None]
    s_mat += mat
    diag = 1.0 + ratio * abs(z0) ** 2 * np.abs(C) ** 2
    out = []
    for t in ts:
        np.multiply(g_mat, t, out=mat)
        mat += s_mat
        mat *= t * rc
        mat.reshape(-1)[:: len(mat) + 1] += diag
        values = t * xi.values
        values[Q.zero_index] += z0
        out.append(_field_sum(FieldConfig(Q, values)) - logdet(mat.T, overwrite=True))
    return out


class DisplacedPotential:
    """Reduced-route V at base + steps, for finite differencing.

    The base carries only the zero mode, as the mean-field minimum does, so a
    displaced field is phi = sum_t phi_t E_t over the zero mode and the
    stepped transfers, where E_t is the 0/1 matrix of k - p = t.  Row k
    of E_t has its one entry in column k - t (none if k - t is not in M),
    read off `TransferSet.shift`, so the reduced matrix
    Id + (lam/kappa) Cbar phi C phi^H has, for each pair t, s, the entry

        (lam/kappa) Cbar_k phi_t conj(phi_s) C_{k-t}   at (k, k - t + s).

    With one or two stepped transfers that is at most nine entries per row,
    written in O(N) into LAPACK band storage (`Banded`) that `logdet` factors
    by banded LU in O(N kl (kl + ku)).  M is frequency-major with S spatial
    vectors per frequency, so an entry's row and column differ by less than
    (|n0_t - n0_s| + 1) S: kl, ku < (max |n0_t - n0_s| + 1) S over the step
    set and the zero mode.  Each ordered pair's pattern (rows minus columns,
    columns, weights and its own kl, ku) does not depend on the step, so it
    is built once (`_pair`) and a call only scales its weights, in a band
    buffer of the evaluator's own, grown to the widest band seen: one thread
    at a time calls an evaluator.  A base with any other nonzero transfer
    raises ValueError.  Rays from such a base go through `potential_ray`.
    """

    def __init__(self, spec: ModelSpec, M: MomentumSet, base: FieldConfig):
        Q = base.transfer
        if np.any(np.flatnonzero(base.values) != Q.zero_index):
            raise ValueError("base field must carry only the zero mode")
        self.base = base
        self.rc = (spec.lam / spec.kappa) / np.conj(M.a)
        self.C = 1.0 / M.a
        self.pairs: dict = {}
        self.band = np.empty(0, dtype=complex)

    def _pair(self, t: int, s: int):
        """The entries of the ordered pair (t, s) before phi_t conj(phi_s):
        rows minus columns, columns, weights, and the pair's kl and ku."""
        if (t, s) not in self.pairs:
            Q = self.base.transfer
            j = Q.shift(Q.neg_index[t])
            cols = np.where(j >= 0, Q.shift(s)[j], -1)
            k = np.flatnonzero(cols >= 0)
            j, cols = j[k], cols[k]
            below = k - cols
            kl, ku = int(below.max(initial=0)), int(-below.min(initial=0))
            self.pairs[t, s] = (below, cols, self.rc[k] * self.C[j], kl, ku)
        return self.pairs[t, s]

    def __call__(self, steps=()) -> complex:
        """V at base + delta on each (transfer, complex delta) pair of `steps`;
        u and v steps on one transfer are merged."""
        Q = self.base.transfer
        values = self.base.values.copy()
        for t, delta in steps:
            values[int(t)] += delta
        sum_term = _field_sum(FieldConfig(Q, values))  # refuses a non-finite field
        # the stepped transfers, then the zero mode: the band's summation order
        phi = {int(t): values[t] for t, _ in steps}
        phi[Q.zero_index] = values[Q.zero_index]
        pairs = [(self._pair(t, s), phi_t * np.conj(phi_s))
                 for t, phi_t in phi.items() for s, phi_s in phi.items()]
        kl = max(pair[3] for pair, _ in pairs)
        ku = max(pair[4] for pair, _ in pairs)
        rows, n = 2 * kl + ku + 1, len(self.C)
        if self.band.size < rows * n:
            self.band = np.empty(rows * n, dtype=complex)
        ab = self.band[: rows * n].reshape((rows, n), order="F")
        ab[...] = 0.0
        ab[kl + ku] = 1.0
        for (below, cols, weight, _, _), factor in pairs:
            # one pair's rows are distinct; entries that pairs share, as the
            # diagonal where t = s, are summed
            ab[kl + ku + below, cols] += factor * weight
        return sum_term - logdet(Banded(ab, kl, ku), overwrite=True)

