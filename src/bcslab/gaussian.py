"""Gaussian-approximation quantities built from the quadratic form.

Replacing the potential by its second-order approximation makes the mode
integrals Gaussian: each {q, -q} pair contributes 1/(alpha^2 + gamma^2 +
2 alpha beta), the condensate modulus contributes a one-dimensional radial
integral, and the pair correlation becomes
Lambda_2(q) = (1/lambda)[(alpha + i gamma + beta)/(alpha^2 + gamma^2 +
2 alpha beta) - 1].  Quadrature oracles validate the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expansion import QuadraticForm
from .model import Momentum, ModelSpec, MomentumSet
from .potential import ExternalField  # noqa: F401  (re-exported for CLI use)


class FlatGaussianMode(ValueError):
    """A pair quadratic form is degenerate; the Gaussian integral diverges."""


class QuadratureError(RuntimeError):
    pass


@dataclass
class GaussianReport:
    z2: float
    log_z2: float
    lambda2: dict
    eps_int2: float
    pair_factors: dict
    q0_zero_handling: str
    exponent_note: str = (
        "radial weight exp(-2*beta0*(rho0 - sqrt(kappa) r0)^2), coefficient "
        "2*beta0 taken from the quadratic form"
    )


def pair_denominator(alpha: float, beta_coef: float, gamma: float) -> float:
    return alpha**2 + gamma**2 + 2.0 * alpha * beta_coef


def pair_factor_coeffs(alpha: float, beta_coef: float, gamma: float) -> float:
    den = pair_denominator(alpha, beta_coef, gamma)
    if den <= 0.0:
        raise FlatGaussianMode("flat Gaussian mode")
    return 1.0 / den


def pair_factor(qf: QuadraticForm, q: Momentum | int) -> float:
    """1/(alpha_q^2 + gamma_q^2 + 2 alpha_q beta_q) for a nonzero transfer."""
    Q = qf.transfer
    iq = q if isinstance(q, (int, np.integer)) else Q.index[(q.n0, q.m)]
    if iq == Q.zero_index:
        raise ValueError("pair_factor is undefined at q = 0")
    return pair_factor_coeffs(qf.alpha[iq], qf.beta_coef[iq], qf.gamma[iq])


def _gauss_block(B: np.ndarray, order: int) -> complex:
    """(1/pi) * integral of exp(-x^T B x) over R^2, complex symmetric B.

    Whitened by the (positive definite) real part, then tensorized
    Gauss-Hermite on the residual oscillatory factor.
    """
    BR = B.real
    evals, Qrot = np.linalg.eigh(BR)
    if np.min(evals) <= 0.0:
        raise FlatGaussianMode("pair form has non-positive-definite real part")
    W = Qrot / np.sqrt(evals)[None, :]
    S = W.T @ B.imag @ W
    t, w = np.polynomial.hermite.hermgauss(order)
    phase = np.exp(
        -1j
        * (
            S[0, 0] * t[:, None] ** 2
            + 2.0 * S[0, 1] * t[:, None] * t[None, :]
            + S[1, 1] * t[None, :] ** 2
        )
    )
    total = (w[:, None] * w[None, :] * phase).sum()
    return complex(total / (math.pi * math.sqrt(np.prod(evals))))


def pair_oracle(
    alpha: float,
    beta_coef: float,
    gamma: float,
    theta0: float = 0.0,
    order: int = 64,
    check_tol: float = 1e-8,
) -> float:
    """Quadrature value of the pair Gaussian integral over its 4 real coordinates.

    The rotation (x2, y2) -> (cos 2theta x2 + sin 2theta y2, ...) absorbs the
    condensate phase exactly and splits the integral into two 2-d blocks,
    which are evaluated by Gauss-Hermite quadrature; the order is doubled as
    a convergence check.
    """
    del theta0  # absorbed by an orthogonal rotation, Jacobian 1
    a_plus = complex(alpha + beta_coef, gamma)
    a_minus = complex(alpha + beta_coef, -gamma)
    bx = np.array([[a_plus, beta_coef], [beta_coef, a_minus]])
    by = np.array([[a_plus, -beta_coef], [-beta_coef, a_minus]])

    def value(n: int) -> complex:
        return _gauss_block(bx, n) * _gauss_block(by, n)

    v1 = value(order)
    v2_ = value(2 * order)
    if abs(v1 - v2_) > check_tol * max(1.0, abs(v2_)):
        raise QuadratureError(
            f"pair quadrature not converged: {abs(v1 - v2_):.3e} at order {order}"
        )
    if abs(v2_.imag) > 1e-8 * max(1.0, abs(v2_.real)):
        raise QuadratureError("pair quadrature returned a non-real value")
    return float(v2_.real)


def radial_integral(beta0: float, center: float) -> float:
    """int_0^inf exp(-2 beta0 (rho - center)^2) 2 rho drho, in closed form."""
    if beta0 <= 0:
        raise FlatGaussianMode("flat radial mode")
    a = 2.0 * beta0
    return center * math.sqrt(math.pi / a) * (1.0 + math.erf(math.sqrt(a) * center)) + math.exp(
        -a * center**2
    ) / a


def representatives(qf: QuadraticForm) -> list:
    """One transfer index per {q, -q} orbit: q0 > 0, or q0 = 0 and the first
    nonzero spatial component positive.  In Q's lexicographic order these are
    exactly the indices after zero_index."""
    Q = qf.transfer
    return list(range(Q.zero_index + 1, len(Q)))


def z2(spec: ModelSpec, qf: QuadraticForm):
    """(z2, log_z2): radial integral times the pair factors, in log space."""
    center = math.sqrt(spec.kappa) * qf.r0
    log_val = -qf.v_min + math.log(radial_integral(qf.beta0, center))
    for i in representatives(qf):
        log_val += math.log(pair_factor(qf, i))
    return math.exp(log_val) if log_val < 700 else math.inf, log_val


def lambda2(spec: ModelSpec, qf: QuadraticForm, q: Momentum | int) -> complex:
    """(1/lambda)[(alpha + i gamma + beta)/(alpha^2 + gamma^2 + 2 alpha beta) - 1]."""
    if spec.lam == 0.0:
        raise ValueError("use free_bubble")
    Q = qf.transfer
    iq = q if isinstance(q, (int, np.integer)) else Q.index[(q.n0, q.m)]
    if iq == Q.zero_index:
        raise ValueError("use lambda2_zero")
    num = complex(qf.alpha[iq] + qf.beta_coef[iq], qf.gamma[iq])
    den = pair_denominator(qf.alpha[iq], qf.beta_coef[iq], qf.gamma[iq])
    if den <= 0.0:
        raise FlatGaussianMode("flat Gaussian mode")
    return (num / den - 1.0) / spec.lam


def lambda2_zero(
    spec: ModelSpec, qf: QuadraticForm, order: int = 400, check_tol: float = 1e-8
) -> float:
    """<|phi_0|^2 - 1>/lambda under the radial weight, by 1-d quadrature."""
    if spec.lam == 0.0:
        raise ValueError("use free_bubble")
    if qf.beta0 <= 0.0:
        raise FlatGaussianMode("flat radial mode")
    center = math.sqrt(spec.kappa) * abs(qf.r0)
    sigma = 0.5 / math.sqrt(qf.beta0)
    lo = max(0.0, center - 12.0 * sigma)
    hi = center + 12.0 * sigma

    def moment(n: int) -> float:
        x, w = np.polynomial.legendre.leggauss(n)
        rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        weight = np.exp(-2.0 * qf.beta0 * (rho - center) ** 2) * 2.0 * rho
        norm = float(np.sum(w * weight))
        return float(np.sum(w * weight * rho**2)) / norm

    m1 = moment(order)
    m2 = moment(2 * order)
    if abs(m1 - m2) > check_tol * max(1.0, abs(m2)):
        raise QuadratureError("radial quadrature not converged")
    return (m2 - 1.0) / spec.lam


def eps_int2(
    spec: ModelSpec, qf: QuadraticForm, include_zero_mode: bool = True
) -> float:
    """(1/kappa) sum_q Lambda_2(q); the q = 0 moment enters via lambda2_zero."""
    Q = qf.transfer
    total = 0.0 + 0.0j
    for i in range(len(Q)):
        if i == Q.zero_index:
            continue
        total += lambda2(spec, qf, i)
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise ValueError(
            f"imaginary residue {total.imag:.3e} of the transfer sum did not cancel"
        )
    result = total.real
    if include_zero_mode:
        result += lambda2_zero(spec, qf)
    return result / spec.kappa


def free_bubble(spec: ModelSpec, M: MomentumSet, q: Momentum) -> complex:
    """Free particle-particle bubble (1/kappa) sum_{k, q-k in M} C_k C_{q-k}."""
    acc = 0.0 + 0.0j
    for i, k in enumerate(M.momenta):
        key = (q.n0 - k.n0 - 1, tuple(a - b for a, b in zip(q.m, k.m)))
        j = M.index.get(key)
        if j is not None:
            acc += (1.0 / M.a[i]) * (1.0 / M.a[j])
    return complex(acc / spec.kappa)


def gaussian_report(
    spec: ModelSpec, qf: QuadraticForm, include_zero_mode: bool = True
) -> GaussianReport:
    Q = qf.transfer
    lam2 = {
        Q.momenta[i]: lambda2(spec, qf, i)
        for i in range(len(Q))
        if i != Q.zero_index
    }
    factors = {Q.momenta[i]: pair_factor(qf, i) for i in representatives(qf)}
    zval, logz = z2(spec, qf)
    return GaussianReport(
        z2=zval,
        log_z2=logz,
        lambda2=lam2,
        eps_int2=eps_int2(spec, qf, include_zero_mode),
        pair_factors=factors,
        q0_zero_handling=(
            "zero-mode moment computed by radial quadrature; "
            + ("included" if include_zero_mode else "excluded")
        ),
    )
