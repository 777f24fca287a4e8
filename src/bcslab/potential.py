"""Effective potential: block matrices, log-determinants, BCS closed forms.

The full potential is V = sum_q |phi_q|^2 - log det of the 2N x 2N block
matrix [[Id, C((ig/sqrt(kappa)) phi* - rbar Id)],
        [Cbar((ig/sqrt(kappa)) phi + r Id), Id]]
with (phi)_{k,p} = phi_{k-p} and C = diag(1/a_k), a_k = i k0 - e_k.  At r = 0
its N x N Schur complement Id + (lambda/kappa) Cbar phi C phi* has the same
determinant: the routes agree in the real part, and their per-pivot imaginary
parts may differ by 2 pi k.  The reduced route serves Re V, the bound chain,
the cubic remainder probe and finite differencing, where its imaginary part
is smooth near the minimum; the full route serves eval and the external-field
route, and is the oracle in the checks.  Finite differencing goes through
`DisplacedPotential`: it forms the base field's phi C phi^H once, and each
displaced field, which differs from the base on one or two transfers, updates
it in O(N^2) before the order-N LU.  The reduced-route U_r and the propagators
serve only as test oracles and live with the tests.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import FieldConfig, ModelSpec, MomentumSet


class SingularMatrixError(ValueError):
    """Raised when the block matrix is exactly singular (Re V = +inf)."""


@dataclass(frozen=True)
class ExternalField:
    """U(1)-breaking pairing field r = magnitude * e^{i phase}."""

    magnitude: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("external field magnitude must be nonnegative")

    @property
    def value(self) -> complex:
        return self.magnitude * cmath.exp(1j * self.phase)


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


def logdet(matrix: np.ndarray) -> complex:
    """log det with exact real part and per-pivot principal-branch imaginary part."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    with warnings.catch_warnings():
        # an exactly zero pivot is handled by the explicit check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    diag = np.diag(lu)
    if np.any(diag == 0):
        raise SingularMatrixError("singular")
    # row swaps contribute the permutation sign
    nswaps = int(np.sum(piv != np.arange(len(piv))))
    re = float(np.sum(np.log(np.abs(diag))))
    im = float(np.sum(np.angle(diag))) + (math.pi if nswaps % 2 else 0.0)
    return complex(re, im)


def phi_matrix(M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """(phi)_{k,p} = phi_{k-p} over the momentum-set ordering."""
    return phi.values[phi.transfer.diff_index]


def assemble_block(
    spec: ModelSpec,
    M: MomentumSet,
    phi: FieldConfig,
    r: ExternalField | None = None,
) -> np.ndarray:
    """2N x 2N block matrix of the quadratic fermion form (r = 0 gives V)."""
    n = len(M)
    rval = 0.0 + 0.0j if r is None else r.value
    pref = 1j * spec.g / math.sqrt(spec.kappa)
    Phi = phi_matrix(M, phi)
    upper = pref * Phi.conj().T - np.conj(rval) * np.eye(n)
    lower = pref * Phi + rval * np.eye(n)
    C = 1.0 / M.a
    Cbar = 1.0 / np.conj(M.a)
    block = np.empty((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = np.eye(n)
    block[n:, n:] = np.eye(n)
    block[:n, n:] = C[:, None] * upper
    block[n:, :n] = Cbar[:, None] * lower
    return block


def _field_sum(phi: FieldConfig) -> float:
    return float(np.sum(np.abs(phi.values) ** 2))


def _shifted_field_sum(spec: ModelSpec, phi: FieldConfig, r: ExternalField) -> float:
    """Sum term of U_r: the zero mode's imaginary part shifted by sqrt(kappa)|r|/g."""
    if spec.lam == 0.0:
        raise ValueError("external field requires lambda > 0")
    z0 = phi.values[phi.transfer.zero_index]
    shift = math.sqrt(spec.kappa) * r.magnitude / spec.g
    return z0.real**2 + (z0.imag + shift) ** 2 + (_field_sum(phi) - abs(z0) ** 2)


def _potential(sum_term: float, matrix: np.ndarray) -> PotentialValue:
    ld = logdet(matrix)
    return PotentialValue(total=sum_term - ld, sum_term=sum_term, logdet_term=ld)


def potential_full(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> PotentialValue:
    """V = sum_q |phi_q|^2 - log det of the full block matrix."""
    return _potential(_field_sum(phi), assemble_block(spec, M, phi))


def reduced_matrix(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> np.ndarray:
    """Id + (lambda/kappa) Cbar phi C phi*  (N x N)."""
    Phi = phi_matrix(M, phi)
    Cbar = 1.0 / np.conj(M.a)
    C = 1.0 / M.a
    core = (Cbar[:, None] * Phi) @ (C[:, None] * Phi.conj().T)
    return np.eye(len(M)) + (spec.lam / spec.kappa) * core


def potential_reduced(
    spec: ModelSpec, M: MomentumSet, phi: FieldConfig
) -> PotentialValue:
    """Same value as potential_full via the N x N reduced determinant."""
    return _potential(_field_sum(phi), reduced_matrix(spec, M, phi))


class DisplacedPotential:
    """Reduced-route V (U_r with a field) at base + steps, for finite differencing.

    A step delta_t on transfer t adds delta_t E_t to phi, where E_t is the 0/1
    matrix of diff_index == t.  With core0 = phi C phi^H, W = C phi^H and
    phi C formed once for the base, the displaced reduced matrix is
    Id + (lam/kappa) Cbar core with

        core = core0 + sum_t delta_t E_t W + sum_t conj(delta_t) (phi C) E_t^T
               + D C D^H,                               D = sum_t delta_t E_t.

    Row k of E_t W is row k - t of W and column k of (phi C) E_t^T is column
    k - t of phi C (zero if k - t is not in M), so each stepped transfer costs
    two gathers into reused buffers and two axpys, and D C D^H (with the
    cross terms between any two stepped transfers, q and -q included) has at
    most one entry per row and pair: an evaluation is O(N^2) besides the LU.
    With a field the matrix sees the tilted field, so a zero-mode step is
    rotated by e^{i phase}; the sum term is U_r's.
    """

    def __init__(
        self,
        spec: ModelSpec,
        M: MomentumSet,
        base: FieldConfig,
        r: ExternalField | None = None,
    ):
        self.spec = spec
        self.base = base
        self.r = None if r is None or r.magnitude == 0.0 else r
        tilted = base if self.r is None else tilted_field(base, self.r)
        self.tilt = 1.0 if self.r is None else cmath.exp(1j * self.r.phase)
        self.diff = base.transfer.diff_index
        n = len(M)
        self.C = 1.0 / M.a
        self.rc = (spec.lam / spec.kappa) / np.conj(M.a)
        Phi = phi_matrix(M, tilted)
        # one zero row (column) past the end: the gather target where k - t
        # is not in M
        self.W = np.zeros((n + 1, n), dtype=complex)
        self.W[:n] = self.C[:, None] * Phi.conj().T
        self.PC = np.zeros((n, n + 1), dtype=complex)
        self.PC[:, :n] = Phi * self.C[None, :]
        self.core0 = Phi @ self.W[:n]
        self.buf = np.empty((n, n), dtype=complex)
        self.R = np.empty((n, n), dtype=complex)
        self.axpy = scipy.linalg.blas.get_blas_funcs("axpy", (self.R,))
        self.maps: dict = {}

    def _map(self, t: int):
        """E_t's nonzeros (k, j = k - t), the gather index src[k] = j (n where
        k - t is not in M) and its inverse dst[j] = k (-1 where j + t is not)."""
        if t not in self.maps:
            n = len(self.diff)
            k, j = np.nonzero(self.diff == t)
            src = np.full(n, n, dtype=np.intp)
            src[k] = j
            dst = np.full(n, -1, dtype=np.intp)
            dst[j] = k
            self.maps[t] = (k, j, src, dst)
        return self.maps[t]

    def __call__(self, steps=()) -> PotentialValue:
        """V at base + delta on each (transfer, complex delta) pair of `steps`;
        u and v steps on one transfer are merged."""
        merged: dict = {}
        for t, delta in steps:
            merged[int(t)] = merged.get(int(t), 0.0) + delta
        values = self.base.values.copy()
        for t, delta in merged.items():
            values[t] += delta
        field = FieldConfig(self.base.transfer, values)
        if self.r is None:
            sum_term = _field_sum(field)
        else:
            sum_term = _shifted_field_sum(self.spec, field, self.r)
        z = self.base.transfer.zero_index
        shifts = {t: d * self.tilt if t == z else d for t, d in merged.items()}
        R, buf = self.R, self.buf
        np.copyto(R, self.core0)
        flat = R.reshape(-1)
        for t, delta in shifts.items():
            src = self._map(t)[2]
            # mode="clip" gathers straight into buf; "raise" would buffer
            np.take(self.W, src, axis=0, out=buf, mode="clip")
            flat = self.axpy(buf.reshape(-1), flat, a=delta)
            np.take(self.PC, src, axis=1, out=buf, mode="clip")
            flat = self.axpy(buf.reshape(-1), flat, a=np.conj(delta))
        R = flat.reshape(R.shape)  # axpy works in place; this holds if it copied
        for t, dt in shifts.items():
            k, j = self._map(t)[:2]
            for s, ds in shifts.items():
                p = self._map(s)[3][j]
                keep = p >= 0
                R[k[keep], p[keep]] += (dt * np.conj(ds)) * self.C[j[keep]]
        R *= self.rc[:, None]
        R.flat[:: len(R) + 1] += 1.0
        return _potential(sum_term, R)


def potential_real(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> float:
    """Re V = sum |phi_q|^2 - log|det| by the reduced route; +inf if singular."""
    try:
        return potential_reduced(spec, M, phi).total.real
    except SingularMatrixError:
        return math.inf


def vbcs_sum(spec: ModelSpec, M: MomentumSet, rho: float) -> float:
    """Cutoff BCS potential: kappa rho^2 - sum_k log[1 + lam rho^2/(k0^2+e_k^2)]."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    absa2 = M.k0**2 + M.e**2
    return float(spec.kappa * rho**2 - np.sum(np.log1p(spec.lam * rho**2 / absa2)))


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh(x) without overflow: |x| + log1p(e^{-2|x|}) - log 2."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _log_cosh_sum(spec: ModelSpec, M: MomentumSet, y: float) -> float:
    """sum over the spatial momenta of M of log cosh(beta E/2) - log cosh(beta |e|/2),
    with E^2 = e^2 + lam y^2."""
    e = M.spatial_e
    arg_gap = 0.5 * spec.beta * np.sqrt(e**2 + spec.lam * y**2)
    arg_free = 0.5 * spec.beta * np.abs(e)
    return np.sum(_log_cosh(arg_gap) - _log_cosh(arg_free))


def vbcs_cosh(spec: ModelSpec, M: MomentumSet, rho: float) -> float:
    """Closed-form (full Matsubara sum) BCS potential over the spatial momenta of M."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    # full frequency product per spatial momentum: cosh^2(beta E/2)/cosh^2(beta e/2)
    return float(spec.kappa * rho**2 - 2.0 * _log_cosh_sum(spec, M, rho))


def tilted_field(phi: FieldConfig, r: ExternalField) -> FieldConfig:
    """phi with the zero mode rotated by the external-field phase."""
    out = phi.copy()
    out.values[phi.transfer.zero_index] *= cmath.exp(1j * r.phase)
    return out


def potential_external(
    spec: ModelSpec, M: MomentumSet, phi: FieldConfig, r: ExternalField
) -> PotentialValue:
    """U_r after the shift/rotation of the zero mode; reduces to V at r = 0."""
    if r.magnitude == 0.0:
        return potential_full(spec, M, phi)
    # r is absorbed into the zero-mode shift; the determinant sees the tilted field
    return _potential(
        _shifted_field_sum(spec, phi, r), assemble_block(spec, M, tilted_field(phi, r))
    )
