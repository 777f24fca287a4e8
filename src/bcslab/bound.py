"""Hadamard lower bound on Re V and the bound-chain verifier.

For a reference momentum t the Gram columns of the block matrix give
Re V >= V_BCS(||phi||) - sum_{q != 0} (1/2)[log(1 - |(e_{t-q}, e_t)|^2)
                                         + log(1 - |(e'_{t-q}, e_t)|^2)]
and the best (largest) right-hand side over t is reported.  Since every
log factor is <= 1 the chain Re V >= rhs >= V_BCS(||phi||) follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FieldConfig, ModelSpec, MomentumSet, autocorrelation_all, field_norm
from .gap import vbcs_sum
from .potential import potential_real

# floor on (1 - overlap) before the log; an exactly parallel column pair means
# det = 0 and Re V = +inf, so the clamped bound stays valid
EPS_CLAMP = 1e-300


def _denominators(spec: ModelSpec, M: MomentumSet, norm_sq: float) -> np.ndarray:
    return M.k0**2 + M.e**2 + spec.lam * norm_sq


def _overlap_matrices(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Normalized Gram overlaps O1[k, t] = |(e_k, e_t)|^2 and
    O2[k, t] = |(e'_k, e_t)|^2 for all index pairs, clipped into [0, 1]."""
    Q = phi.transfer
    norm_sq = field_norm(phi)
    den = _denominators(spec, M, norm_sq)
    ac = autocorrelation_all(phi)
    ratio = spec.lam / spec.kappa
    # diff_index[t, k] is the transfer index of t - k
    tk = Q.diff_index.T
    num1 = np.abs(ratio * ac[tk]) ** 2
    num2 = ratio * np.abs(phi.values[tk]) ** 2 * np.abs(M.a[None, :] - M.a[:, None]) ** 2
    dd = den[:, None] * den[None, :]
    return np.clip(num1 / dd, 0.0, 1.0), np.clip(num2 / dd, 0.0, 1.0)


def hadamard_rhs(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Best lower bound on Re V over the reference momentum t.

    Returns (rhs, t): V_BCS(||phi||) minus the smallest log-product deficit,
    and the index into M of the reference momentum that attains it.
    """
    o1, o2 = _overlap_matrices(spec, M, phi)
    with np.errstate(divide="ignore"):
        logs = 0.5 * (
            np.log(np.maximum(1.0 - o1, EPS_CLAMP))
            + np.log(np.maximum(1.0 - o2, EPS_CLAMP))
        )
    np.fill_diagonal(logs, 0.0)  # q = 0 excluded
    deficits = logs.sum(axis=0)  # sum over k = t - q, per column t; each <= 0
    best = int(np.argmin(deficits))  # most negative deficit gives the largest bound
    rhs = vbcs_sum(spec, M, math.sqrt(field_norm(phi))) - float(deficits[best])
    return rhs, best


@dataclass
class BoundReport:
    re_v: float
    rhs26: float
    vbcs_at_norm: float
    argmax_t: int
    chain_ok: bool
    slack: float


def bound_report(spec: ModelSpec, M: MomentumSet, phi: FieldConfig) -> BoundReport:
    """Re V, the Hadamard bound and V_BCS(||phi||), the chain checked to 1e-9 kappa."""
    slack = 1e-9 * spec.kappa
    re_v = potential_real(spec, M, phi)
    rhs, t = hadamard_rhs(spec, M, phi)
    vb = vbcs_sum(spec, M, math.sqrt(field_norm(phi)))
    ok = (re_v >= rhs - slack) and (rhs >= vb - slack)
    return BoundReport(
        re_v=re_v, rhs26=rhs, vbcs_at_norm=vb, argmax_t=t, chain_ok=ok, slack=slack
    )
