"""Mean-field BCS potential, the gap equation and its external-field variant.

V_BCS has two closed forms, the cutoff Matsubara sum and the full-frequency
log-cosh product, each with one body that takes the field as the shift
|r|/g of the amplitude term (0 without a field).  The gap equation
(lambda/kappa) sum_k 1/(k0^2 + e_k^2 + Delta^2) = 1 is solved in Delta^2,
where the left-hand side is smooth and strictly decreasing.  With an external
field the minimizer y0 < 0 of V_BCS,r solves the equation of state
(lambda/kappa) sum_k 1/E_k^2 = 1 - |r|/(g|y|), E_k^2 = k0^2 + e_k^2 + lam y^2,
whose two sides differ monotonically in |y|.  Both are solved by one
bracket-and-bisect loop.  Each k0^2 + e_k^2 is read from
`MomentumSet.abs_a_sq`, the one place it is formed.  The field's |r|/g is
`model.ExternalField.ratio`: 0 for the zero field, refused at lambda = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExternalField, ModelSpec, MomentumSet

# bisection steps, bracket doublings included, before a solver gives up
MAX_ITER = 400


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


def _sum_form(spec: ModelSpec, M: MomentumSet, y: float, ratio: float) -> float:
    """kappa (y + ratio)^2 - sum_k log(1 + lam y^2/(k0^2 + e_k^2)); ratio = |r|/g."""
    return float(
        spec.kappa * (y + ratio) ** 2 - np.sum(np.log1p(spec.lam * y**2 / M.abs_a_sq))
    )


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh(x) without overflow: |x| + log1p(e^{-2|x|}) - log 2."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _cosh_form(spec: ModelSpec, M: MomentumSet, y: float, ratio: float) -> float:
    """kappa (y + ratio)^2 minus, over the spatial momenta of M, the log of the
    full frequency product cosh^2(beta E/2)/cosh^2(beta e/2), E^2 = e^2 + lam y^2."""
    e = M.spatial_e
    arg_gap = 0.5 * spec.beta * np.sqrt(e**2 + spec.lam * y**2)
    arg_free = 0.5 * spec.beta * np.abs(e)
    log_cosh_sum = np.sum(_log_cosh(arg_gap) - _log_cosh(arg_free))
    return float(spec.kappa * (y + ratio) ** 2 - 2.0 * log_cosh_sum)


def vbcs_sum(spec: ModelSpec, M: MomentumSet, rho: float) -> float:
    """Cutoff BCS potential: kappa rho^2 - sum_k log[1 + lam rho^2/(k0^2+e_k^2)]."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return _sum_form(spec, M, rho, 0.0)


def vbcs_cosh(spec: ModelSpec, M: MomentumSet, rho: float) -> float:
    """Closed-form (full Matsubara sum) BCS potential over the spatial momenta of M."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return _cosh_form(spec, M, rho, 0.0)


def vbcs_r(spec: ModelSpec, M: MomentumSet, y: float, r: ExternalField) -> float:
    """kappa[(y + |r|/g)^2 - (1/kappa) sum_k log(1 + lam y^2/(k0^2+e_k^2))]."""
    return _sum_form(spec, M, y, r.ratio(spec))


def gap_lhs(spec: ModelSpec, M: MomentumSet, delta_sq: float) -> float:
    """(lambda/kappa) sum_k 1/(k0^2 + e_k^2 + Delta^2); decreasing in Delta^2."""
    if delta_sq < 0:
        raise ValueError("Delta^2 must be nonnegative")
    return float(spec.lam / spec.kappa * np.sum(1.0 / (M.abs_a_sq + delta_sq)))


def critical_coupling(spec: ModelSpec, M: MomentumSet) -> float:
    """lambda_c = kappa / sum_k 1/(k0^2 + e_k^2): threshold for a nontrivial gap."""
    return float(spec.kappa / np.sum(1.0 / M.abs_a_sq))


def _bisect(f, inner: float, outer: float, tol: float, what: str) -> tuple:
    """Root of f, which is >= 0 at `inner` and decreases away from it: double
    `outer` while f(outer) >= 0, then bisect until |f| <= tol.  Returns the
    root, |f| there and the steps taken, doublings included."""
    it = 0
    while f(outer) >= 0.0:
        outer *= 2.0
        it += 1
        if it > 200:
            raise GapConvergenceError(f"could not bracket {what}")
    while it < MAX_ITER:  # runs: the bracket takes at most 201 of the steps
        mid = 0.5 * (inner + outer)
        val = f(mid)
        if abs(val) <= tol:
            return mid, abs(val), it
        if val > 0.0:
            inner = mid
        else:
            outer = mid
        it += 1
    raise GapConvergenceError(
        f"gap bisection did not converge: residual {abs(val):.3e} after {it} iterations"
    )


def solve_gap(spec: ModelSpec, M: MomentumSet, tol: float = 1e-12) -> GapSolution:
    """Bisection on Delta^2; trivial solution r0 = 0 when lambda <= lambda_c."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    # not gap_lhs(0) < 1, which rounds either way at lambda = lambda_c
    trivial = spec.lam <= critical_coupling(spec, M)
    if trivial:
        r0, res, it = 0.0, abs(gap_lhs(spec, M, 0.0) - 1.0), 0
    else:
        delta_sq, res, it = _bisect(
            lambda d: gap_lhs(spec, M, d) - 1.0, 0.0, 1.0, tol, "the gap equation"
        )
        r0 = math.sqrt(delta_sq / spec.lam)
    return GapSolution(
        r0=r0,
        delta_sq=spec.lam * r0**2,  # exact identity with the returned r0
        residual=res,
        v_min_sum=vbcs_sum(spec, M, r0),
        v_min_cosh=vbcs_cosh(spec, M, r0),
        iterations=it,
        trivial=trivial,
    )


def solve_gap_external(
    spec: ModelSpec, M: MomentumSet, r: ExternalField, tol: float = 1e-12
) -> GapSolution:
    """Unique global minimizer y0 < 0 of vbcs_r: the root of the equation of state."""
    if not r:
        raise ValueError("external field magnitude must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ratio = r.ratio(spec)
    # the equation of state strictly decreases in |y| and at y = -|r|/g equals
    # gap_lhs > 0: the root has |y0| > |r|/g.  In the ordered phase it is
    # also positive at |y| = r0, the zero-field gap, so |y0| > r0: the outer
    # end starts at 2 max(|r|/g, r0), near the root however small the field
    r0 = solve_gap(spec, M).r0
    try:
        y0, residual, it = _bisect(
            lambda y: gap_lhs(spec, M, spec.lam * y**2) - 1.0 + ratio / abs(y),
            -ratio, -2.0 * max(ratio, r0), tol, "the external-field minimizer",
        )
    except OverflowError:  # y^2 left the float range
        raise GapConvergenceError(f"external field {r.magnitude:g} too large") from None
    return GapSolution(
        r0=abs(y0),
        delta_sq=spec.lam * y0**2,
        residual=residual,
        v_min_sum=_sum_form(spec, M, y0, ratio),
        v_min_cosh=_cosh_form(spec, M, y0, ratio),
        iterations=it,
        y0=y0,
    )
