"""Effective potential: block matrices and their log-determinants.

The full potential is V = sum_q |phi_q|^2 - log det of the 2N x 2N block
matrix [[Id, C (ig/sqrt(kappa)) phi*], [Cbar (ig/sqrt(kappa)) phi, Id]]
with (phi)_{k,p} = phi_{k-p} and C = diag(1/a_k), a_k = i k0 - e_k.  Its
N x N Schur complement Id + (lambda/kappa) Cbar phi C phi* has the same
determinant: the routes agree in the real part, and their per-pivot imaginary
parts may differ by 2 pi k.  This module computes V only, as a plain
complex (a float for `potential_real`).  The mean-field closed forms V_BCS
live in `gap`; U_r, V with an external pairing field (its zero-mode shift
and tilt, `model.ExternalField`), and the propagators are test oracles and
live with the tests.

The reduced route serves Re V, the bound chain, the cubic remainder probe and
finite differencing, where its imaginary part is smooth near the minimum; the
full route serves eval and is the oracle in the checks.  The full route's
block is built Fortran-ordered and factored in place; the reduced matrix is
built in the calling thread's scratch buffers (`TransferSet.scratch`) by two
gathers and one gemm with out=.  Re V is branch-free, so `potential_real`
takes log|det| alone from numpy's slogdet (`logdet`'s real route), which
factors a copy of its own; the phased routes factor in place by LAPACK's
LU, zgetrf for a dense matrix and zgbtrf for a band, from scipy.linalg.lapack.
Finite differencing goes through `DisplacedPotential`, which writes its
reduced matrices in LAPACK band storage (`Banded`, kl, ku < (max |n0_t -
n0_s| + 1) S over the step set, S spatial vectors) for a banded LU in
O(N kl (kl + ku)).  scipy.linalg is imported inside `logdet`'s phased route
only: a process that takes no phased determinant loads no scipy.
"""

from __future__ import annotations

import math
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


def _square_finite(matrix) -> np.ndarray:
    """The matrix as a complex array, or a ValueError unless it is square and finite."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    return matrix


def _pivots(matrix, overwrite: bool) -> tuple:
    """U's diagonal and the row swaps of LAPACK's partial-pivoting LU: getrf
    for a dense matrix, gbtrf for a `Banded` one, which picks the dense LU's
    pivots.  With `overwrite` a Fortran-ordered complex matrix (or band
    array) is factored in place."""
    # imported here, not at module level: scipy.linalg is most of the
    # package's import time, and the subcommands that take no phased
    # determinant need not pay for it
    from scipy.linalg.lapack import zgbtrf, zgetrf

    if not isinstance(matrix, Banded):
        lu, piv, _ = zgetrf(_square_finite(matrix), overwrite_a=overwrite)
        return np.diag(lu), piv
    ab, kl, ku = np.asarray(matrix.ab, dtype=complex), matrix.kl, matrix.ku
    if ab.ndim != 2 or len(ab) != 2 * kl + ku + 1 or min(kl, ku) < 0:
        raise ValueError("band storage must have 2 kl + ku + 1 rows")
    if not np.all(np.isfinite(ab)):
        raise ValueError("matrix must be finite")
    lu, piv, _ = zgbtrf(ab, kl, ku, overwrite_ab=overwrite)
    return lu[kl + ku], piv


def logdet(matrix, overwrite: bool = False, real: bool = False):
    """log det with exact real part and per-pivot principal-branch imaginary part.

    A dense array is factored by LAPACK's LU, a `Banded` matrix by its banded
    LU; both pivot by rows within each column, so they pick the same pivots.
    The real part is sum log|U_ii| and the imaginary part is sum arg U_ii,
    plus pi when the row swaps are odd.  The caller's matrix is left intact
    unless `overwrite` is set: then a Fortran-ordered complex matrix (or band
    array) is factored in place and holds its LU factors afterwards.

    With `real`, a dense matrix gives log|det| alone, as a float, from
    numpy's `slogdet`: no phases, no scipy, and numpy factors a copy of its
    own, so `overwrite` does not apply.  Either way an exactly zero pivot
    raises SingularMatrixError.
    """
    if real:
        sign, value = np.linalg.slogdet(_square_finite(matrix))
        if sign == 0:
            raise SingularMatrixError("singular")
        return float(value)
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
    the calling thread's scratch buffers of the lattice (`TransferSet.scratch`)
    and overwritten by that thread's next field on that lattice.

    Cbar phi and C phi^H are gathered (`TransferSet.gather`) into the first
    two buffers, and the third receives R^T = (C phi^H)^T (Cbar phi)^T by one
    matmul with out=, so R itself is Fortran-ordered and LAPACK factors it in
    place.  (phi^H)_{k,p} = conj(phi_{p-k}), and -q has index |Q| - 1 - q, so
    phi^H is the gather of conj(phi) in the reversed Q order: no transpose
    copy.  A field allocates no N x N array.
    """
    Q = phi.transfer
    left, right, rt = Q.scratch
    Q.gather(phi.values, out=left)
    left *= (1.0 / np.conj(M.a))[:, None]
    Q.gather(np.conj(phi.values[::-1]), out=right)
    right *= (1.0 / M.a)[:, None]
    np.matmul(right.T, left.T, out=rt)
    rt *= spec.lam / spec.kappa
    rt.reshape(-1)[:: len(rt) + 1] += 1.0
    return rt.T


def potential_reduced(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> complex:
    """Same value as potential_full via the N x N reduced determinant,
    factored in place in the scratch buffers."""
    return _field_sum(phi) - logdet(reduced_matrix(spec, M, phi), overwrite=True)


class DisplacedPotential:
    """Reduced-route V at base + steps, for finite differencing.

    The base carries only the zero mode, as the mean-field minimum does, so a
    displaced field is phi = sum_t phi_t E_t over the zero mode and the
    stepped transfers, where E_t is the 0/1 matrix of k - p = t.  Row k
    of E_t has its one entry in column k - t (none if k - t is not in M), so
    the reduced matrix Id + (lam/kappa) Cbar phi C phi^H has, for each pair
    t, s, the entry

        (lam/kappa) Cbar_k phi_t conj(phi_s) C_{k-t}   at (k, k - t + s).

    With one or two stepped transfers that is at most nine entries per row,
    written in O(N) into LAPACK band storage (`Banded`) that `logdet` factors
    by banded LU in O(N kl (kl + ku)).  M is frequency-major with S spatial
    vectors per frequency, so an entry's row and column differ by less than
    (|n0_t - n0_s| + 1) S: kl, ku < (max |n0_t - n0_s| + 1) S over the step
    set and the zero mode.  A base with any other nonzero transfer raises
    ValueError.
    """

    def __init__(self, spec: ModelSpec, M: MomentumSet, base: FieldConfig):
        Q = base.transfer
        if np.any(np.flatnonzero(base.values) != Q.zero_index):
            raise ValueError("base field must carry only the zero mode")
        self.spec = spec
        self.base = base
        self.rc = (spec.lam / spec.kappa) / np.conj(M.a)
        self.C = 1.0 / M.a
        self.maps: dict = {}

    def _map(self, t: int):
        """E_t's nonzeros (k, j = k - t), their weights (lam/kappa) Cbar_k C_j,
        and dst[j] = k, the index of j + t (-1 where it is not in M)."""
        if t not in self.maps:
            Q = self.base.transfer
            k, j = np.nonzero(Q.gather(np.arange(len(Q)) == t))
            dst = np.full(len(self.C), -1, dtype=np.intp)
            dst[j] = k
            self.maps[t] = (k, j, self.rc[k] * self.C[j], dst)
        return self.maps[t]

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
        pairs, kl, ku = [], 0, 0
        for t, phi_t in phi.items():
            k, j, weight = self._map(t)[:3]
            for s, phi_s in phi.items():
                l = self._map(s)[3][j]
                keep = l >= 0
                cols = l[keep]
                below = k[keep] - cols  # row minus column
                pairs.append((below, cols, (phi_t * np.conj(phi_s)) * weight[keep]))
                kl, ku = max(kl, below.max(initial=0)), max(ku, -below.min(initial=0))
        ab = np.zeros((2 * kl + ku + 1, len(self.C)), dtype=complex, order="F")
        ab[kl + ku] = 1.0
        for below, cols, entries in pairs:
            # one pair's rows are distinct; entries that pairs share, as the
            # diagonal where t = s, are summed
            ab[kl + ku + below, cols] += entries
        return sum_term - logdet(Banded(ab, kl, ku), overwrite=True)


def potential_real(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> float:
    """Re V = sum |phi_q|^2 - log|det| by the reduced route, the determinant by
    `logdet`'s real route; +inf if singular."""
    try:
        return _field_sum(phi) - logdet(reduced_matrix(spec, M, phi), real=True)
    except SingularMatrixError:
        return math.inf
