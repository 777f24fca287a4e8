"""BCS gap equation and its external-field variant.

The gap equation (lambda/kappa) sum_k 1/(k0^2 + e_k^2 + Delta^2) = 1 is
solved by bisection in Delta^2, where the left-hand side is smooth and
strictly decreasing.  With an external field the minimizer y0 < 0 of
V_BCS,r is found from the stationarity condition by bracketing and brentq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import ModelSpec, MomentumSet
from .potential import ExternalField, _log_cosh, vbcs_cosh, vbcs_sum


class GapConvergenceError(RuntimeError):
    pass


@dataclass
class GapSolution:
    """Mean-field amplitude, residual and minimum value of the BCS potential."""

    r0: float
    delta_sq: float
    residual: float
    v_min_sum: float
    v_min_cosh: float
    iterations: int
    trivial: bool = False
    y0: float | None = None


def gap_lhs(spec: ModelSpec, M: MomentumSet, delta_sq: float) -> float:
    """(lambda/kappa) sum_k 1/(k0^2 + e_k^2 + Delta^2); decreasing in Delta^2."""
    if delta_sq < 0:
        raise ValueError("Delta^2 must be nonnegative")
    denom = M.k0**2 + M.e**2 + delta_sq
    return float(spec.lam / spec.kappa * np.sum(1.0 / denom))


def critical_coupling(spec: ModelSpec, M: MomentumSet) -> float:
    """lambda_c = kappa / sum_k 1/(k0^2 + e_k^2): threshold for a nontrivial gap."""
    return float(spec.kappa / np.sum(1.0 / (M.k0**2 + M.e**2)))


def solve_gap(
    spec: ModelSpec, M: MomentumSet, tol: float = 1e-12, max_iter: int = 400
) -> GapSolution:
    """Bisection on Delta^2; trivial solution r0 = 0 when lambda <= lambda_c."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    f0 = gap_lhs(spec, M, 0.0)
    if f0 < 1.0:
        return GapSolution(
            r0=0.0,
            delta_sq=0.0,
            residual=abs(f0 - 1.0),
            v_min_sum=vbcs_sum(spec, M, 0.0),
            v_min_cosh=vbcs_cosh(spec, M, 0.0),
            iterations=0,
            trivial=True,
        )
    lo, hi = 0.0, 1.0
    it = 0
    while gap_lhs(spec, M, hi) >= 1.0:
        hi *= 2.0
        it += 1
        if it > 200:
            raise GapConvergenceError("could not bracket the gap equation")
    res = math.inf
    mid = 0.5 * (lo + hi)
    while it < max_iter:
        mid = 0.5 * (lo + hi)
        val = gap_lhs(spec, M, mid)
        res = abs(val - 1.0)
        if res <= tol:
            break
        if val > 1.0:
            lo = mid
        else:
            hi = mid
        it += 1
    else:
        raise GapConvergenceError(
            f"gap bisection did not converge: residual {res:.3e} after {it} iterations"
        )
    delta_sq = mid
    r0 = math.sqrt(delta_sq / spec.lam)
    delta_sq = spec.lam * r0**2  # exact identity with the returned r0
    return GapSolution(
        r0=r0,
        delta_sq=delta_sq,
        residual=res,
        v_min_sum=vbcs_sum(spec, M, r0),
        v_min_cosh=vbcs_cosh(spec, M, r0),
        iterations=it,
    )


def vbcs_r(spec: ModelSpec, M: MomentumSet, y: float, r: ExternalField) -> float:
    """kappa[(y + |r|/g)^2 - (1/kappa) sum_k log(1 + lam y^2/(k0^2+e_k^2))]."""
    ratio = r.magnitude / spec.g if r.magnitude > 0 else 0.0
    absa2 = M.k0**2 + M.e**2
    return float(
        spec.kappa * (y + ratio) ** 2 - np.sum(np.log1p(spec.lam * y**2 / absa2))
    )


def _stationarity(spec: ModelSpec, M: MomentumSet, y: float, ratio: float) -> float:
    """(y + |r|/g) - y (lambda/kappa) sum 1/E^2; zero at the minimizer."""
    return (y + ratio) - y * gap_lhs(spec, M, spec.lam * y**2)


def solve_gap_external(
    spec: ModelSpec, M: MomentumSet, r: ExternalField, tol: float = 1e-12
) -> GapSolution:
    """Unique global minimizer y0 < 0 of vbcs_r, with Eq-of-state residual check."""
    if r.magnitude <= 0:
        raise ValueError("external field magnitude must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.lam == 0.0:
        raise ValueError("external field solve requires lambda > 0")
    ratio = r.magnitude / spec.g
    # stationarity is positive at y -> 0^- and negative for large |y|
    hi = -1e-14
    lo = -max(1.0, ratio)
    it = 0
    while _stationarity(spec, M, lo, ratio) >= 0.0:
        lo *= 2.0
        it += 1
        if it > 200:
            raise GapConvergenceError("could not bracket external-field minimizer")
    y0 = brentq(
        lambda y: _stationarity(spec, M, y, ratio), lo, hi, xtol=1e-15, rtol=8.9e-16
    )
    residual = abs(gap_lhs(spec, M, spec.lam * y0**2) - 1.0 + ratio / abs(y0))
    if residual > tol:
        raise GapConvergenceError(
            f"external gap residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    e = M.spatial_e
    arg_gap = 0.5 * spec.beta * np.sqrt(e**2 + spec.lam * y0**2)
    arg_free = 0.5 * spec.beta * np.abs(e)
    v_cosh = float(
        spec.kappa * (y0 + ratio) ** 2
        - 2.0 * np.sum(_log_cosh(arg_gap) - _log_cosh(arg_free))
    )
    return GapSolution(
        r0=abs(y0),
        delta_sq=spec.lam * y0**2,
        residual=residual,
        v_min_sum=vbcs_r(spec, M, y0, r),
        v_min_cosh=v_cosh,
        iterations=it,
        y0=float(y0),
    )
