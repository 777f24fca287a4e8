"""Second-order Taylor data of the potential around the mean-field minimum.

Coefficients (with E_k^2 = k0^2 + e_k^2 + lam r0^2, sums over k with both
k and k - q in the cutoff set):

    alpha_q = 1 - (lam/kappa) sum_k (1/2)(1/E_k^2 + 1/E_{k-q}^2)
                + (1/2)(lam/kappa) sum_k [q0^2 + (e_k - e_{k-q})^2] / (E_k^2 E_{k-q}^2)
    beta_q  = (lam/kappa) sum_k lam r0^2 / (E_k^2 E_{k-q}^2)
    gamma_q = (lam/kappa) sum_k [k0 e_{k-q} - (k0 - q0) e_k] / (E_k^2 E_{k-q}^2)

alpha_q absorbs the unit coefficient of the |phi_q|^2 field term; the gap
equation makes the half-sum piece cancel it at q = 0, so alpha(0) equals the
gap residual.  The decomposition

    1 - (lam/kappa) sum_k a_k abar_{k-q} / (E_k^2 E_{k-q}^2)
      = alpha_q + i gamma_q + beta_q

then holds exactly per k and is exposed for verification.  As lam -> 0,
beta_q -> 0 and alpha_q + i gamma_q -> 1, matching V = sum |phi_q|^2.

A QuadraticForm records its expansion point: r0, theta0 and the field, None
from `coefficients` and r from `coefficients_external` (theta0 = r's phase),
which `analytic_hessian` and `u2_external` read from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    ExternalField, FieldConfig, ModelSpec, MomentumSet, TransferSet, bcs_config
)
from .gap import vbcs_r, vbcs_sum
from .potential import DisplacedPotential, potential_ray


@dataclass
class QuadraticForm:
    """Expansion coefficients aligned to Q, and the field expanded with (or None)."""

    transfer: TransferSet
    alpha: np.ndarray
    beta_coef: np.ndarray
    gamma: np.ndarray
    beta0: float
    r0: float
    theta0: float
    v_min: float
    shift: float = 0.0
    field: ExternalField | None = None


def _quadratic_form(spec, M, Q, r0, theta0, v_min, shift=0.0, field=None):
    """Coefficients with E_k^2 = k0^2 + e_k^2 + lam r0^2 and stiffness `shift`."""
    delta_sq = spec.lam * r0**2
    ratio = spec.lam / spec.kappa
    k0, e = M.k0, M.e
    e_sq = M.abs_a_sq + delta_sq
    if np.max(e_sq) > math.sqrt(sys.float_info.max):
        raise OverflowError(f"E_k^2 E_p^2 overflows at lam r0^2 = {delta_sq:g}")

    def over_e_sq(num):
        return Q.pair_sum(lambda k, p: num(k, p) / (e_sq[k] * e_sq[p]))

    inv_sum = over_e_sq(lambda k, p: 1.0)
    alpha_num = over_e_sq(lambda k, p: (k0[k] - k0[p]) ** 2 + (e[k] - e[p]) ** 2)
    gamma_num = over_e_sq(lambda k, p: k0[k] * e[p] - k0[p] * e[k])
    half_sum = over_e_sq(lambda k, p: 0.5 * (e_sq[k] + e_sq[p]))
    # the external equation of state gives (lam/kappa) sum 1/E^2 = 1 - shift,
    # so separating the shift keeps alpha(0) at the solver residual
    alpha = (1.0 - shift) - ratio * half_sum + 0.5 * ratio * alpha_num
    beta_coef = ratio * delta_sq * inv_sum
    return QuadraticForm(
        transfer=Q, alpha=alpha, beta_coef=beta_coef, gamma=ratio * gamma_num,
        beta0=float(beta_coef[Q.zero_index]), r0=r0, theta0=theta0, v_min=v_min,
        shift=shift, field=field,
    )


def coefficients(
    spec: ModelSpec, M: MomentumSet, Q: TransferSet, r0: float, theta0: float
) -> QuadraticForm:
    """Quadratic-form coefficients around the mean-field configuration."""
    return _quadratic_form(spec, M, Q, r0, theta0, vbcs_sum(spec, M, r0))


def coefficients_external(
    spec: ModelSpec, M: MomentumSet, Q: TransferSet, y0: float, r: ExternalField
) -> QuadraticForm:
    """Same coefficients with E_k^2 = k0^2 + e_k^2 + lam y0^2, the
    field-induced extra stiffness shift = |r|/(g |y0|) and theta0 = r's phase."""
    if y0 == 0.0 or not r:  # the zero field is no field: use `coefficients`
        raise ValueError("external-field stiffness needs y0 != 0 and a nonzero field")
    shift = r.ratio(spec, y=abs(y0))
    return _quadratic_form(spec, M, Q, y0, r.phase, vbcs_r(spec, M, y0, r), shift, r)


def decomposition_lhs(
    spec: ModelSpec, M: MomentumSet, Q: TransferSet, delta_sq: float
) -> np.ndarray:
    """1 - (lam/kappa) sum_k a_k abar_{k-q} / (E_k^2 E_{k-q}^2), per q.

    Equals alpha_q + i gamma_q + beta_q exactly; computed here directly from
    the a_k products, so it shares only the summation primitive
    `TransferSet.pair_sum` with the coefficient code.
    """
    a, e_sq = M.a, M.abs_a_sq + delta_sq

    def part(f):  # real or imaginary part of a_k abar_p / (E_k^2 E_p^2)
        return Q.pair_sum(lambda k, p: f(a[k] * np.conj(a[p]) / (e_sq[k] * e_sq[p])))

    return 1.0 - (spec.lam / spec.kappa) * (part(np.real) + 1j * part(np.imag))


def _second_order(qf: QuadraticForm, phi: FieldConfig, rad, phase: float, sign: float):
    """v_min + the condensate term `rad` + the q != 0 terms, added in that order:
    sum (alpha_q + i gamma_q)|phi_q|^2, then (1/2) sum beta_q |w_q|^2 with
    w_q = e^{-i phase} phi_q + sign e^{i phase} conj(phi_{-q})."""
    Q = qf.transfer
    nz = Q.nonzero
    vals = phi.values
    diag = np.sum((qf.alpha[nz] + 1j * qf.gamma[nz]) * np.abs(vals[nz]) ** 2)
    ph = np.exp(-1j * phase)
    w = ph * vals + (sign * np.conj(ph)) * np.conj(vals[Q.neg_index])
    anom = 0.5 * np.sum(qf.beta_coef[nz] * np.abs(w[nz]) ** 2)
    return qf.v_min + rad + diag + anom


def v2(spec: ModelSpec, qf: QuadraticForm, phi: FieldConfig) -> complex:
    """Second-order approximation of V at the field configuration."""
    rho0 = abs(phi.values[qf.transfer.zero_index])
    rad = 2.0 * qf.beta0 * (rho0 - math.sqrt(spec.kappa) * qf.r0) ** 2
    return complex(_second_order(qf, phi, rad, qf.theta0, 1.0))


def u2_external(spec: ModelSpec, qf: QuadraticForm, phi: FieldConfig) -> complex:
    """Second-order approximation of U_r around phi_0 = i sqrt(kappa) y0."""
    if qf.field is None:
        raise ValueError("u2_external needs a form from coefficients_external")
    Q = qf.transfer
    z0 = phi.values[Q.zero_index]
    dv = z0.imag - math.sqrt(spec.kappa) * qf.r0
    total = _second_order(qf, phi, 2.0 * qf.beta0 * dv**2, qf.theta0, -1.0)
    rest = float(np.sum(np.abs(phi.values[Q.nonzero]) ** 2))
    return complex(total + qf.shift * (z0.real**2 + dv**2 + rest))


def _coordinates(Q: TransferSet, coords) -> np.ndarray:
    """`coords` as an index array into the 2|Q| real coordinates (None: all)."""
    n = 2 * len(Q)
    if coords is None:
        return np.arange(n)
    c = np.asarray(coords, dtype=int)
    if c.ndim != 1 or np.any((c < 0) | (c >= n)):
        raise ValueError(f"coords must be a list of indices in [0, {n})")
    return c


def analytic_hessian(spec: ModelSpec, qf: QuadraticForm, coords=None):
    """Hessian of the quadratic form in the real coordinates (u_q, v_q).

    Coordinate 2 i is u of transfer index i, coordinate 2 i + 1 is v; `coords`
    selects coordinates as in `fd_hessian` (None: all 2|Q|) and only that
    submatrix is built.  Returns (real part, imaginary part).  Transfer i
    couples with itself only on the diagonal, 2 alpha + 2 beta (+ 2 shift) and
    2 gamma, and with -i = `Q.neg_index[i]` through 2 beta cos 2 theta (u u),
    -2 beta cos 2 theta (v v) and 2 beta sin 2 theta (u v), theta = theta0,
    signs flipped with a field and beta read at the orbit's lower index.  With
    the form's external field the condensate block is 2*shift on u_0 and
    4*beta0 + 2*shift on v_0; without it the block is 4*beta0 along
    e^{i theta0} and flat tangentially.
    """
    Q = qf.transfer
    z = Q.zero_index
    c = _coordinates(Q, coords)
    t, p = c // 2, c % 2  # transfer index; 0 for u, 1 for v
    lo = np.minimum(t, Q.neg_index[t])
    two_phase, two_shift = 2.0 * qf.theta0, 2.0 * qf.shift  # shift is 0 without a field
    if qf.field is not None:
        block, sign = np.diag([two_shift, 4.0 * qf.beta0 + two_shift]), -1.0
    else:
        er = np.array([math.cos(qf.theta0), math.sin(qf.theta0)])
        block, sign = 4.0 * qf.beta0 * np.outer(er, er), 1.0
    c2, s2 = sign * math.cos(two_phase), sign * math.sin(two_phase)
    two_a, two_b = 2.0 * qf.alpha[t], 2.0 * qf.beta_coef[lo]
    # summed as the reference loop in the tests sums them (an orbit's lower
    # index: alpha, shift, beta; its upper: beta, alpha, shift), bit for bit
    diag = np.where(t == lo, two_a + two_shift + two_b, two_b + two_a + two_shift)
    hre, him = np.zeros((len(c), len(c))), np.zeros((len(c), len(c)))
    a, b = np.nonzero(c[:, None] == c[None, :])
    hre[a, b], him[a, b] = diag[a], 2.0 * qf.gamma[t[a]]
    a, b = np.nonzero(Q.neg_index[t][:, None] == t[None, :])
    hre[a, b] = two_b[a] * np.where(p[a] == p[b], np.where(p[a] == 0, c2, -c2), s2)
    # q = 0 is its own partner: the condensate block replaces both rules there
    zc = np.flatnonzero(t == z)
    hre[np.ix_(zc, zc)] = block[np.ix_(p[zc], p[zc])]
    him[np.ix_(zc, zc)] = 0.0
    return hre, him


def fd_hessian(spec: ModelSpec, M: MomentumSet, base: FieldConfig, h: float, coords=None):
    """Central-difference Hessian of V in real field coordinates.

    `coords` restricts to a coordinate subset (indices into the 2|Q| real
    coordinates, u before v per transfer index); the result is the exact
    Hessian submatrix.  Returns (real part, imaginary part), each exactly
    symmetric: one mixed difference fills both (a, b) and (b, a).  Every
    displaced value comes from one `DisplacedPotential` on `base`, which must
    carry only the zero mode, as the mean-field minimum does: the reduced
    route, whose pivots stay near the positive axis around the minimum, so
    the per-pivot imaginary part differences smoothly.  Each value is one
    banded LU in O(N bw^2), bw < (max |n0_t - n0_s| + 1) S (`DisplacedPotential`).
    It differences V only; U_r's FD Hessian is a test oracle.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be positive and finite")
    coords = _coordinates(base.transfer, coords)
    t = coords // 2
    step = np.where(coords % 2 == 0, h, 1j * h)  # u or v step as a shift of phi_t
    V = DisplacedPotential(spec, M, base)
    f0 = V()
    m = len(coords)
    out = np.zeros((m, m), dtype=complex)
    for a in range(m):
        ta, sa = t[a], step[a]
        fp = V([(ta, sa)])
        fm = V([(ta, -sa)])
        out[a, a] = (fp + fm - 2.0 * f0) / h**2
        for b in range(a + 1, m):
            tb, sb = t[b], step[b]
            fpp = V([(ta, sa), (tb, sb)])
            fmm = V([(ta, -sa), (tb, -sb)])
            fpm = V([(ta, sa), (tb, -sb)])
            fmp = V([(ta, -sa), (tb, sb)])
            val = (fpp + fmm - fpm - fmp) / (4.0 * h**2)
            out[a, b] = val
            out[b, a] = val
    return out.real.copy(), out.imag.copy()


def default_fd_step(spec: ModelSpec, r0: float) -> float:
    """FD step balancing truncation against rounding at the log-det scale."""
    return 1e-3 * math.sqrt(spec.kappa) * max(r0, 1.0)


def remainder(
    spec: ModelSpec,
    M: MomentumSet,
    qf: QuadraticForm,
    xi: FieldConfig,
    ts,
) -> list:
    """|V(phi_min + t xi) - V_2(phi_min + t xi)| for each t of `ts`, the
    cubic remainder probe.

    Branch rule: Im V, a sum of per-pivot logs, is defined only mod 2 pi, so
    Im(V - V_2) is reduced to (-pi, pi] before |.|, which keeps a difference
    already there bit for bit (at large coupling the reduced route's Im V can
    step by 2 pi at the probe's t).  One `potential_ray` from the minimum's
    zero mode gives every t's V from one N x N product, and one LU per t.
    """
    ts = [float(t) for t in ts]
    if not all(t >= 0 for t in ts):
        raise ValueError("t must be nonnegative")
    Q = qf.transfer
    base = bcs_config(spec, Q, qf.r0, qf.theta0)
    values = potential_ray(spec, M, base.values[Q.zero_index], xi, ts)
    out = []
    for t, v in zip(ts, values):
        dv = v - v2(spec, qf, FieldConfig(Q, base.values + t * xi.values))
        # n = 0, which leaves dv's bits, where Im dv is in (-pi, pi] or not finite
        n = math.ceil((dv.imag - math.pi) / math.tau) if math.isfinite(dv.imag) else 0
        out.append(abs(dv - 1j * (math.tau * n)))
    return out
