"""Hadamard lower bound on Re V and the bound-chain verifier.

For a reference momentum t the Gram columns of the block matrix give
Re V >= V_BCS(||phi||) - sum_{q != 0} (1/2)[log(1 - |(e_{t-q}, e_t)|^2)
                                         + log(1 - |(e'_{t-q}, e_t)|^2)]
and the best (largest) right-hand side over t is reported.  Since every
log factor is <= 1 the chain Re V >= rhs >= V_BCS(||phi||) follows.

bound_report runs once per field on the calling thread's scratch buffers of
its lattice (`TransferSet.scratch`), so threads can check fields of one
lattice at once: Re V takes one gemm there and one LU of numpy's own copy
of R (numpy's slogdet: no scipy), and the overlaps are built, clamped,
logged and summed in row blocks that reuse the same buffers, so no other
N x N array is allocated per field.  Measured with one BLAS thread and one
thread checking fields on a 2-vCPU host (whose speed drifts by up to 2x from
one minute to the next), a field takes ~14 ms at d = 1 L = 16 (the gemm
~6, the LU ~4 and the Hadamard side ~2.3, autocorrelation_all 0.4 of it)
and ~0.83 s at d = 2 L = 8 (~0.53 s, ~0.17 s and ~60 ms, ~17 ms).
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


# entries per row block of the overlap arrays, rounded down to whole
# frequencies of k (one frequency at least)
BLOCK_ENTRIES = 1 << 15


def _overlap_blocks(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Yield (k0, o1, o2) per block of rows k: o1[j, t] = |(e_k, e_t)|^2 and
    o2[j, t] = |(e'_k, e_t)|^2 for k = k0 + j, clipped into [0, 1].

    Entry (k, t) reads the transfer t - k, whose index is |Q| - 1 -
    diff_index[k, t], so the per-transfer numerators are reversed once and
    gathered through contiguous rows of diff_index.  Both are multiplied by
    one outer product of the inverse denominators.  A block holds whole
    Matsubara frequencies of k, so |a_k - a_t|^2 = (k0_k - k0_t)^2 + (e_k -
    e_t)^2 is one broadcast sum of a frequency table and a spatial table.
    The blocks live in the first two of the lattice's scratch buffers and
    are overwritten by the next block.
    """
    Q = phi.transfer
    n, nf, ns = len(M), len(M.freq_n0), len(M.spatial_m)
    inv = 1.0 / _denominators(spec, M, field_norm(phi))
    ratio = spec.lam / spec.kappa
    num1 = (np.abs(ratio * autocorrelation_all(phi)) ** 2)[::-1]
    num2 = (ratio * np.abs(phi.values) ** 2)[::-1]
    # |a_k - a_t|^2 at k = (a, s), t = (b, u) is dk0_sq[a, t] + de_sq[s, t]
    freq, e = M.k0[::ns], M.e[:ns]
    dk0_sq = np.repeat((freq[:, None] - freq[None, :]) ** 2, ns, axis=1)
    de_sq = np.tile((e[:, None] - e[None, :]) ** 2, nf)
    wf = max(1, min(nf, BLOCK_ENTRIES // (ns * n)))  # frequencies per block
    size = wf * ns * n  # 3 blocks fit in 2 n^2 complex
    flat = Q.scratch[:2].reshape(-1).view(np.float64)
    o1, o2, buf = (flat[i * size : (i + 1) * size] for i in range(3))
    for f0 in range(0, nf, wf):
        f1 = min(f0 + wf, nf)
        rows = slice(f0 * ns, f1 * ns)
        x, y, z = (b[: (f1 - f0) * ns * n].reshape(-1, n) for b in (o1, o2, buf))
        idx = Q.diff_index[rows]
        np.multiply(inv[rows, None], inv[None, :], out=z)
        np.take(num1, idx, out=x, mode="clip")
        x *= z
        np.take(num2, idx, out=y, mode="clip")
        y *= z
        np.add(dk0_sq[f0:f1, None, :], de_sq[None, :, :], out=z.reshape(f1 - f0, ns, n))
        y *= z
        # both are products of nonnegative factors
        np.minimum(x, 1.0, out=x)
        np.minimum(y, 1.0, out=y)
        yield rows.start, x, y


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
        o1.reshape(-1)[k0 :: n + 1] = 0.0  # q = 0 excluded: entries k = t
        deficits += o1.sum(axis=0)
    deficits *= 0.5
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
