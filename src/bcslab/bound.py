"""Hadamard lower bound on Re V and the bound-chain verifier.

For a reference momentum t the Gram columns of the block matrix give
Re V >= V_BCS(||phi||) - sum_{q != 0} (1/2)[log(1 - |(e_{t-q}, e_t)|^2)
                                         + log(1 - |(e'_{t-q}, e_t)|^2)]
and the best (largest) right-hand side over t is reported.  Since every
log factor is <= 1 the chain Re V >= rhs >= V_BCS(||phi||) follows.  The
overlaps' denominators are E_k^2 = |a_k|^2 + lam ||phi||^2, with |a_k|^2 read
from `MomentumSet.abs_a_sq`.

bound_report runs once per field on the calling thread's two scratch buffers
of its lattice (`TransferSet.scratch`), so threads can check fields of one
lattice at once: Re V gathers R's two factors there and multiplies them a
quarter of the rows at a time, and LAPACK factors R in place with the GIL
released, and the overlaps are built, clamped, logged and summed in place
as N x N float views of the same buffers, so no other N x N array is
allocated per field.  Measured with one BLAS thread and one thread checking
fields on a 2-vCPU host (whose speed drifts by up to 2x from one minute to
the next), a field takes ~15 ms at d = 1 L = 16 (R ~7.6, the LU ~4 and the
Hadamard side ~3.3, autocorrelation_all ~0.6 of it) and ~0.74 s at d = 2
L = 8 (~0.45 s, ~0.17 s and ~71 ms, ~20 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FieldConfig, ModelSpec, MomentumSet, autocorrelation_all, field_norm
from .gap import vbcs_sum
from .potential import SingularMatrixError, potential_reduced

# floor on (1 - overlap) before the log: an exactly parallel column pair means
# det = 0 and Re V = +inf, so the bound stays valid.  An overlap below 1 that rounds
# to 1 is clamped too, lifting rhs26 by ~345: chain_ok False there is no counterexample
EPS_CLAMP = 1e-300


def _overlaps(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """(o1, o2): o1[k, t] = |(e_k, e_t)|^2 and o2[k, t] = |(e'_k, e_t)|^2,
    clipped into [0, 1], as N x N float views of the lattice's two scratch
    buffers, overwritten by the next field.

    Entry (k, t) reads the transfer t - k, the negation of k - t, so the
    per-transfer numerators are reversed once and gathered.  Both are
    multiplied by one outer product of the inverse denominators, and o2 by
    |a_k - a_t|^2 = (k0_k - k0_t)^2 + (e_k - e_t)^2, a broadcast sum of an
    nf x nf frequency table and an S x S spatial one.  The two complex
    buffers hold four float arrays; o1, o2 and the products use three.
    """
    Q = phi.transfer
    n, ns = len(M), len(M.spatial_m)
    inv = 1.0 / (M.abs_a_sq + spec.lam * field_norm(phi))
    ratio = spec.lam / spec.kappa
    num1 = (np.abs(ratio * autocorrelation_all(phi)) ** 2)[::-1]
    num2 = (ratio * np.abs(phi.values) ** 2)[::-1]
    o1, o2, z = Q.scratch.view(np.float64).reshape(4, n, n)[:3]
    np.multiply(inv[:, None], inv[None, :], out=z)
    Q.gather(num1, out=o1)
    o1 *= z
    Q.gather(num2, out=o2)
    o2 *= z
    k0, e = M.k0[::ns], M.spatial_e  # k0 per frequency, e per spatial vector
    dk0, de = (k0[:, None] - k0) ** 2, (e[:, None] - e) ** 2
    np.add(dk0[:, None, :, None], de[:, None], out=z.reshape(len(k0), ns, len(k0), ns))
    o2 *= z
    # both are products of nonnegative factors
    np.minimum(o1, 1.0, out=o1)
    np.minimum(o2, 1.0, out=o2)
    return o1, o2


def hadamard_rhs(spec: ModelSpec, M: MomentumSet, phi: FieldConfig):
    """Best lower bound on Re V over the reference momentum t.

    Returns (rhs, t): V_BCS(||phi||) minus the smallest log-product deficit,
    and the index into M of the reference momentum that attains it.  The
    clamp, the logs and the column sums run in place on `_overlaps`.
    """
    o1, o2 = _overlaps(spec, M, phi)
    for o in (o1, o2):
        np.subtract(1.0, o, out=o)
        np.maximum(o, EPS_CLAMP, out=o)
        np.log(o, out=o)
    o1 += o2
    np.fill_diagonal(o1, 0.0)  # q = 0 excluded: entries k = t
    deficits = o1.sum(axis=0)  # sum over k = t - q, per column t; each <= 0
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
    try:
        re_v = potential_reduced(spec, M, phi).real
    except SingularMatrixError:  # det R = 0, so Re V = +inf (see EPS_CLAMP)
        re_v = math.inf
    rhs, t = hadamard_rhs(spec, M, phi)
    vb = vbcs_sum(spec, M, math.sqrt(field_norm(phi)))
    ok = (re_v >= rhs - slack) and (rhs >= vb - slack)
    return BoundReport(
        re_v=re_v, rhs26=rhs, vbcs_at_norm=vb, argmax_t=t, chain_ok=ok, slack=slack
    )
