"""Hadamard lower bound on Re V and the bound-chain verifier.

For a reference momentum t the Gram columns of the block matrix give
Re V >= V_BCS(||phi||) - sum_{q != 0} (1/2)[log(1 - |(e_{t-q}, e_t)|^2)
                                         + log(1 - |(e'_{t-q}, e_t)|^2)]
and the best (largest) right-hand side over t is reported.  Since every
log factor is <= 1 the chain Re V >= rhs >= V_BCS(||phi||) follows.

bound_report runs once per field on its lattice's scratch buffers
(`TransferSet.scratch`): Re V takes one gemm and one in-place LU there, and
the overlaps are built, clamped, logged and summed in row blocks that reuse
the same memory, so no N x N array is allocated per field.  With one BLAS
thread the Hadamard side takes ~1.75 ms of a ~5.8 ms field at d = 1 L = 16
(autocorrelation_all 0.6 ms of it) and ~46 of ~350 ms at d = 2 L = 8.
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


# entries per row block of the overlap arrays.  The size hardly matters: at
# d = 2 L = 8 a field's Hadamard side takes 43 ms with this one and 48 ms with
# the largest blocks, 4N/5 rows, that let its five arrays share two buffers
BLOCK_ENTRIES = 1 << 15


def _overlap_blocks(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Yield (k0, o1, o2) per block of rows k: o1[j, t] = |(e_k, e_t)|^2 and
    o2[j, t] = |(e'_k, e_t)|^2 for k = k0 + j, clipped into [0, 1].

    Entry (k, t) reads the transfer t - k, whose index is |Q| - 1 -
    diff_index[k, t], so the per-transfer numerators are reversed once and
    gathered through contiguous rows of diff_index.  The blocks live in the
    first two of the lattice's scratch buffers and are overwritten by the
    next block; so is |a_k - a_t|^2, rebuilt per block rather than kept as
    an N x N table.
    """
    Q = phi.transfer
    n = len(M)
    den = _denominators(spec, M, field_norm(phi))
    ratio = spec.lam / spec.kappa
    num1 = (np.abs(ratio * autocorrelation_all(phi)) ** 2)[::-1]
    num2 = (ratio * np.abs(phi.values) ** 2)[::-1]
    w = max(1, min(4 * n // 5, BLOCK_ENTRIES // n))  # 5 w n floats fit in 2 n^2 complex
    flat = Q.scratch[:2].reshape(-1).view(np.float64)
    o1, o2, dd, gathered = (flat[i * w * n : (i + 1) * w * n].reshape(w, n) for i in range(4))
    da = flat[3 * w * n : 5 * w * n].view(complex).reshape(w, n)  # gathered aliases it
    for k0 in range(0, n, w):
        rows = slice(k0, min(k0 + w, n))
        h = rows.stop - k0
        idx = Q.diff_index[rows]
        np.multiply(den[rows, None], den[None, :], out=dd[:h])
        x = np.take(num1, idx, out=o1[:h], mode="clip")
        np.divide(x, dd[:h], out=x)
        np.clip(x, 0.0, 1.0, out=x)
        y = o2[:h]
        np.subtract(M.a[None, :], M.a[rows, None], out=da[:h])
        np.abs(da[:h], out=y)
        np.square(y, out=y)
        np.multiply(np.take(num2, idx, out=gathered[:h], mode="clip"), y, out=y)
        np.divide(y, dd[:h], out=y)
        np.clip(y, 0.0, 1.0, out=y)
        yield k0, x, y


def hadamard_rhs(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Best lower bound on Re V over the reference momentum t.

    Returns (rhs, t): V_BCS(||phi||) minus the smallest log-product deficit,
    and the index into M of the reference momentum that attains it.  The
    clamp, the logs and the column sums run in place on each block of
    `_overlap_blocks`.
    """
    n = len(M)
    deficits = np.zeros(n)  # sum over k = t - q, per column t; each <= 0
    for k0, o1, o2 in _overlap_blocks(spec, M, phi):
        for o in (o1, o2):
            np.subtract(1.0, o, out=o)
            np.maximum(o, EPS_CLAMP, out=o)
            np.log(o, out=o)
        o1 += o2
        o1 *= 0.5
        o1.reshape(-1)[k0 :: n + 1] = 0.0  # q = 0 excluded: entries k = t
        deficits += o1.sum(axis=0)
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
