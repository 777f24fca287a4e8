"""Effective potential: block matrices, log-determinants, BCS closed forms.

The full potential is V = sum_q |phi_q|^2 - log det of the 2N x 2N block
matrix [[Id, C((ig/sqrt(kappa)) phi* - rbar Id)],
        [Cbar((ig/sqrt(kappa)) phi + r Id), Id]]
with (phi)_{k,p} = phi_{k-p} and C = diag(1/a_k), a_k = i k0 - e_k.  At r = 0
its N x N Schur complement Id + (lambda/kappa) Cbar phi C phi* has the same
determinant: the routes agree in the real part, and their per-pivot imaginary
parts may differ by 2 pi k.  The reduced route serves Re V, the bound chain and
finite differencing (its imaginary part is smooth); the full route serves eval,
the remainder and the external-field route, and is the oracle in the checks.
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


def vbcs_cosh(spec: ModelSpec, M: MomentumSet, rho: float) -> float:
    """Closed-form (full Matsubara sum) BCS potential over the spatial momenta of M."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    e = M.spatial_e
    arg_gap = 0.5 * spec.beta * np.sqrt(e**2 + spec.lam * rho**2)
    arg_free = 0.5 * spec.beta * np.abs(e)
    # full frequency product per spatial momentum: cosh^2(beta E/2)/cosh^2(beta e/2)
    return float(
        spec.kappa * rho**2 - 2.0 * np.sum(_log_cosh(arg_gap) - _log_cosh(arg_free))
    )


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


def potential_external_reduced(
    spec: ModelSpec, M: MomentumSet, phi: FieldConfig, r: ExternalField
) -> PotentialValue:
    """U_r via the N x N reduced determinant.

    Near the mean-field minimum the reduced matrix is a perturbation of a
    positive diagonal, so the per-pivot imaginary part varies smoothly; this
    is the route used for finite differencing.
    """
    if r.magnitude == 0.0:
        return potential_reduced(spec, M, phi)
    return _potential(
        _shifted_field_sum(spec, phi, r), reduced_matrix(spec, M, tilted_field(phi, r))
    )


def propagators(
    spec: ModelSpec,
    M: MomentumSet,
    phi: FieldConfig,
    r: ExternalField | None = None,
) -> dict:
    """Map k -> (F(k), G(k)) from one factorization of the unnormalized block.

    F(k) is the (k up, k up) entry and G(k) the (k down, k up) entry of the
    inverse of [[diag(a), ig phibar/sqrt(kappa) - rbar Id],
                [ig phi/sqrt(kappa) + r Id, diag(abar)]].
    """
    n = len(M)
    rval = 0.0 + 0.0j if r is None else r.value
    pref = 1j * spec.g / math.sqrt(spec.kappa)
    Phi = phi_matrix(M, phi)
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = np.diag(M.a)
    A[n:, n:] = np.diag(np.conj(M.a))
    A[:n, n:] = pref * Phi.conj().T - np.conj(rval) * np.eye(n)
    A[n:, :n] = pref * Phi + rval * np.eye(n)
    try:
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularMatrixError("singular") from exc
    if np.any(np.diag(lu) == 0):
        raise SingularMatrixError("singular")
    rhs = np.zeros((2 * n, n), dtype=complex)
    rhs[:n, :] = np.eye(n)
    cols = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return {
        mom: (complex(cols[i, i]), complex(cols[n + i, i]))
        for i, mom in enumerate(M.momenta)
    }
