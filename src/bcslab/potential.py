"""Effective potential: block matrices and their log-determinants.

The full potential is V = sum_q |phi_q|^2 - log det of the 2N x 2N block
matrix [[Id, C (ig/sqrt(kappa)) phi*], [Cbar (ig/sqrt(kappa)) phi, Id]]
with (phi)_{k,p} = phi_{k-p} and C = diag(1/a_k), a_k = i k0 - e_k.  Its
N x N Schur complement Id + (lambda/kappa) Cbar phi C phi* has the same
determinant: the routes agree in the real part, and their per-pivot imaginary
parts may differ by 2 pi k.  An external field r (`model.ExternalField`)
enters U_r only through its `ratio`, which shifts the zero mode's imaginary
part in the sum term, and its `tilt`, which rotates the zero mode in the
determinant; the zero field gives V.  The mean-field closed forms V_BCS live
in `gap`; the reduced-route U_r and the propagators, test oracles only, live
with the tests.

The reduced route serves Re V, the bound chain, the cubic remainder probe and
finite differencing, where its imaginary part is smooth near the minimum; the
full route serves eval and the external-field route, and is the oracle in the
checks.  Both are factored in place: the full route's block is built
Fortran-ordered, and the reduced matrix in the lattice's scratch buffers
(`TransferSet.scratch`) by two gathers and one gemm with out=, so a bound
field allocates no N x N array.  Finite differencing goes through
`DisplacedPotential`, whose sparse reduced matrices `logdet` factors by
sparse LU.  scipy.linalg and scipy.sparse are imported inside `logdet`'s two
branches, and the N x N `diff_index` is built on the first call that needs
it, so a process that takes no determinant pays for neither.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ExternalField, FieldConfig, ModelSpec, MomentumSet


class SingularMatrixError(ValueError):
    """Raised when the block matrix is exactly singular (Re V = +inf)."""


@dataclass
class PotentialValue:
    """V split into its field-sum and log-determinant parts.

    total = sum_term - logdet_term holds as a complex identity; the imaginary
    part of logdet_term is accumulated per LU pivot on the principal branch
    and is therefore only defined mod 2 pi globally.
    """

    total: complex
    sum_term: float
    logdet_term: complex


def _parity(perm: np.ndarray) -> int:
    """Parity of a permutation, (n - its number of cycles) mod 2.

    Pointer doubling labels each index with the smallest index on its cycle:
    after step i, low[k] is the minimum over perm^j(k), j < 2^i.
    """
    n = len(perm)
    low, jump = np.arange(n), np.asarray(perm)
    for _ in range(n.bit_length()):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    return (n - int(np.count_nonzero(low == np.arange(n)))) % 2


def _dense_pivots(matrix, overwrite: bool) -> tuple:
    """U's diagonal and the row-swap parity of LAPACK's partial-pivoting LU;
    with `overwrite` a Fortran-ordered complex matrix is factored in place."""
    # imported here, not at module level: it is most of the package's import
    # time, and the subcommands that take no determinant need not pay for it
    import scipy.linalg

    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    with warnings.catch_warnings():
        # an exactly zero pivot is handled by the caller's check
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix, overwrite_a=overwrite, check_finite=False)
    return np.diag(lu), int(np.sum(piv != np.arange(len(piv)))) % 2


def _sparse_pivots(matrix) -> tuple:
    """U's diagonal and the parity of the row and column permutations of
    SuperLU's Pr A Pc = L U (L has a unit diagonal)."""
    # imported here, not at module level: only finite differencing builds
    # sparse matrices, and the other subcommands need not pay for the import
    import scipy.sparse.linalg

    matrix = matrix.tocsc().astype(complex, copy=False)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix.data)):
        raise ValueError("matrix must be finite")
    try:
        lu = scipy.sparse.linalg.splu(matrix)
    except RuntimeError as exc:  # SuperLU's report of an exactly zero pivot
        if "singular" not in str(exc):
            raise
        raise SingularMatrixError("singular") from None
    return lu.U.diagonal(), (_parity(lu.perm_r) + _parity(lu.perm_c)) % 2


def logdet(matrix, overwrite: bool = False) -> complex:
    """log det with exact real part and per-pivot principal-branch imaginary part.

    A dense array is factored by LAPACK, a scipy.sparse matrix by SuperLU.
    Either way the real part is sum log|U_ii| and the imaginary part is
    sum arg U_ii, plus pi when the pivoting permutations are odd.  The
    caller's matrix is left intact unless `overwrite` is set: then a dense
    Fortran-ordered complex matrix is factored in place and holds its LU
    factors afterwards.
    """
    # a sparse matrix exists only once scipy.sparse is loaded
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(matrix):
        diag, odd = _sparse_pivots(matrix)
    else:
        diag, odd = _dense_pivots(matrix, overwrite)
    if np.any(diag == 0):
        raise SingularMatrixError("singular")
    re = float(np.sum(np.log(np.abs(diag))))
    im = float(np.sum(np.angle(diag))) + (math.pi if odd else 0.0)
    return complex(re, im)


def phi_matrix(M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """(phi)_{k,p} = phi_{k-p} over the momentum-set ordering."""
    return phi.values[phi.transfer.diff_index]


def assemble_block(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """2N x 2N block matrix of the quadratic fermion form at r = 0; a field
    enters only as `potential_external`'s zero-mode shift and tilt.
    Fortran-ordered, so `logdet(overwrite=True)` factors it in place."""
    n = len(M)
    pref = 1j * spec.g / math.sqrt(spec.kappa)
    Phi = phi_matrix(M, phi)
    C = 1.0 / M.a
    Cbar = 1.0 / np.conj(M.a)
    block = np.empty((2 * n, 2 * n), dtype=complex, order="F")
    block[:n, :n] = np.eye(n)
    block[n:, n:] = np.eye(n)
    block[:n, n:] = C[:, None] * (pref * Phi.conj().T)
    block[n:, :n] = Cbar[:, None] * (pref * Phi)
    return block


def _field_sum(phi: FieldConfig, spec=None, r=None) -> float:
    """sum_q |phi_q|^2; with a field, U_r's sum term, where the zero mode's
    imaginary part is shifted by sqrt(kappa)|r|/g."""
    total = float(np.sum(np.abs(phi.values) ** 2))
    if not r:  # None or the zero field
        return total
    z0 = phi.values[phi.transfer.zero_index]
    shift = r.ratio(spec, math.sqrt(spec.kappa))
    return z0.real**2 + (z0.imag + shift) ** 2 + (total - abs(z0) ** 2)


def _potential(sum_term: float, matrix) -> PotentialValue:
    """V from a matrix built for this call alone, which LAPACK may overwrite."""
    ld = logdet(matrix, overwrite=True)
    return PotentialValue(total=sum_term - ld, sum_term=sum_term, logdet_term=ld)


def potential_full(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> PotentialValue:
    """V = sum_q |phi_q|^2 - log det of the full block matrix."""
    return _potential(_field_sum(phi), assemble_block(spec, M, phi))


def reduced_matrix(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """Id + (lambda/kappa) Cbar phi C phi^H  (N x N), Fortran-ordered, built in
    the lattice's scratch buffers (`TransferSet.scratch`) and overwritten by
    the next field on that lattice.

    Cbar phi and C phi^H are gathered through diff_index into the first two
    buffers, and the third receives R^T = (C phi^H)^T (Cbar phi)^T by one
    matmul with out=, so R itself is Fortran-ordered and LAPACK factors it in
    place.  (phi^H)_{k,p} = conj(phi_{p-k}), and -q has index |Q| - 1 - q, so
    phi^H is conj(phi) in the reversed Q order gathered through diff_index:
    no transpose copy.  A field allocates no N x N array.
    """
    Q = phi.transfer
    left, right, rt = Q.scratch
    np.take(phi.values, Q.diff_index, out=left, mode="clip")
    left *= (1.0 / np.conj(M.a))[:, None]
    np.take(np.conj(phi.values[::-1]), Q.diff_index, out=right, mode="clip")
    right *= (1.0 / M.a)[:, None]
    np.matmul(right.T, left.T, out=rt)
    rt *= spec.lam / spec.kappa
    rt.reshape(-1)[:: len(rt) + 1] += 1.0
    return rt.T


def potential_reduced(
    spec: ModelSpec, M: MomentumSet, phi: FieldConfig
) -> PotentialValue:
    """Same value as potential_full via the N x N reduced determinant."""
    return _potential(_field_sum(phi), reduced_matrix(spec, M, phi))


class DisplacedPotential:
    """Reduced-route V (U_r with a field) at base + steps, for finite differencing.

    The base carries only the zero mode, as the mean-field minimum does, so a
    displaced field is phi = sum_t phi_t E_t over the zero mode z and the
    stepped transfers, where E_t is the 0/1 matrix of diff_index == t and
    phi_z is the zero mode tilted by the field phase.  Row k of E_t has its one
    entry in column k - t (none if k - t is not in M), so the reduced matrix
    Id + (lam/kappa) Cbar phi C phi^H has, for each pair t, s, the entry

        (lam/kappa) Cbar_k phi_t conj(phi_s) C_{k-t}   at (k, k - t + s).

    With one or two stepped transfers that is at most nine entries per row,
    assembled in O(N) as a sparse matrix that `logdet` factors by sparse LU.
    With a field the sum term is U_r's; the zero field is no field.  A base
    with any other nonzero transfer raises ValueError.
    """

    def __init__(self, spec: ModelSpec, M: MomentumSet, base: FieldConfig, r=None):
        Q = base.transfer
        if np.any(np.flatnonzero(base.values) != Q.zero_index):
            raise ValueError("base field must carry only the zero mode")
        self.spec = spec
        self.base = base
        self.r = r or ExternalField()  # None is the zero field: no field
        self.diff = Q.diff_index
        self.rc = (spec.lam / spec.kappa) / np.conj(M.a)
        self.C = 1.0 / M.a
        self.maps: dict = {}

    def _map(self, t: int):
        """E_t's nonzeros (k, j = k - t), their weights (lam/kappa) Cbar_k C_j,
        and dst[j] = k, the index of j + t (-1 where it is not in M)."""
        if t not in self.maps:
            n = len(self.diff)
            k, j = np.nonzero(self.diff == t)
            dst = np.full(n, -1, dtype=np.intp)
            dst[j] = k
            self.maps[t] = (k, j, self.rc[k] * self.C[j], dst)
        return self.maps[t]

    def __call__(self, steps=()) -> PotentialValue:
        """V at base + delta on each (transfer, complex delta) pair of `steps`;
        u and v steps on one transfer are merged."""
        import scipy.sparse  # here, not at module level, as in logdet

        Q = self.base.transfer
        values = self.base.values.copy()
        for t, delta in steps:
            values[int(t)] += delta
        sum_term = _field_sum(FieldConfig(Q, values), self.spec, self.r)
        z = Q.zero_index
        phi = {int(t): values[t] for t, _ in steps}
        phi[z] = values[z] * self.r.tilt
        n = len(self.diff)
        rows, cols, entries = [np.arange(n)], [np.arange(n)], [np.ones(n, dtype=complex)]
        for t, phi_t in phi.items():
            k, j, weight = self._map(t)[:3]
            for s, phi_s in phi.items():
                l = self._map(s)[3][j]
                keep = l >= 0
                rows.append(k[keep])
                cols.append(l[keep])
                entries.append((phi_t * np.conj(phi_s)) * weight[keep])
        # duplicate (k, l) pairs, as on the diagonal where t = s, are summed
        R = scipy.sparse.csc_matrix(
            (np.concatenate(entries), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        return _potential(sum_term, R)


def potential_real(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> float:
    """Re V = sum |phi_q|^2 - log|det| by the reduced route; +inf if singular."""
    try:
        return potential_reduced(spec, M, phi).total.real
    except SingularMatrixError:
        return math.inf


def tilted_field(phi: FieldConfig, r: ExternalField) -> FieldConfig:
    """phi with the zero mode rotated by the field's `tilt`."""
    out = phi.copy()
    out.values[phi.transfer.zero_index] *= r.tilt
    return out


def potential_external(
    spec: ModelSpec, M: MomentumSet, phi: FieldConfig, r: ExternalField
) -> PotentialValue:
    """U_r after the shift/rotation of the zero mode; V for the zero field."""
    # r is absorbed into the zero-mode shift; the determinant sees the tilted field
    return _potential(
        _field_sum(phi, spec, r), assemble_block(spec, M, tilted_field(phi, r))
    )
