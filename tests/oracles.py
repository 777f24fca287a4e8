"""Reference implementations that exist only to check the package.

Each one is the direct, loop-based or quadrature form of a quantity the
package computes in closed or vectorized form.  Momenta and transfers are
indices into M and Q, or (n0, m) tuples where a label outside the set is
meaningful.
"""

import cmath
import math

import numpy as np
import scipy.linalg

import bcslab as bl
from bcslab.bound import _overlaps
from bcslab.gaussian import FlatGaussianMode


class QuadratureError(RuntimeError):
    pass


def labels(S):
    """(n0, m) tuples of a MomentumSet or TransferSet, in index order."""
    return [(int(n), tuple(int(x) for x in m)) for n, m in zip(S.n0, S.mvec)]


def index_of(S) -> dict:
    """(n0, m) -> index for a MomentumSet or TransferSet."""
    return {label: i for i, label in enumerate(labels(S))}


def difference(M, Q, k: int, p: int) -> int:
    """Index in Q of the difference of momenta k and p of M, by label lookup."""
    (kn, km), (pn, pm) = ((int(M.n0[i]), M.mvec[i].tolist()) for i in (k, p))
    return index_of(Q)[(kn - pn, tuple(a - b for a, b in zip(km, pm)))]


def dispersion(spec, m) -> float:
    """Single-particle energy e_k = eps_k - mu at spatial index vector m, its
    per-axis terms summed in sorted order like dispersion_array's."""
    m = tuple(m)
    if len(m) != spec.d:
        raise ValueError("spatial index has wrong dimension")
    if spec.dispersion == "tight_binding":
        eps = -2.0 * spec.t * sum(sorted(math.cos(2.0 * math.pi * mi / spec.L) for mi in m))
    else:
        k2 = sum(sorted((2.0 * math.pi * mi / spec.L) ** 2 for mi in m))
        eps = 0.5 * k2
    return eps - spec.mu


def autocorrelation(phi, q) -> complex:
    """sum_p phi_p conj(phi_{p+q}) over p with p and p+q in Q; q an index or (n0, m)."""
    Q = phi.transfer
    labs = labels(Q)
    index = index_of(Q)
    qn, qm = labs[q] if isinstance(q, (int, np.integer)) else (q[0], tuple(q[1]))
    if (qn, qm) not in index:
        raise ValueError("q not in transfer set")
    acc = 0.0 + 0.0j
    for i, (n0, m) in enumerate(labs):
        j = index.get((n0 + qn, tuple(a + b for a, b in zip(m, qm))))
        if j is not None:
            acc += phi.values[i] * np.conj(phi.values[j])
    return complex(acc)


def gram_denominator(spec, M, phi, k: int) -> float:
    """k0^2 + e_k^2 + lambda ||phi||^2 at momentum k, from its label and the
    scalar dispersion."""
    k0 = math.pi / spec.beta * (2 * int(M.n0[k]) + 1)
    return k0**2 + dispersion(spec, M.mvec[k]) ** 2 + spec.lam * bl.field_norm(phi)


def overlap_sq(spec, M, phi, k: int, t: int) -> float:
    """|(e_k, e_t)|^2: normalized Gram overlap of two unprimed columns."""
    q = difference(M, phi.transfer, t, k)
    num = abs(spec.lam / spec.kappa * autocorrelation(phi, q)) ** 2
    return float(num / (gram_denominator(spec, M, phi, k) * gram_denominator(spec, M, phi, t)))


def overlap_prime_sq(spec, M, phi, k: int, t: int) -> float:
    """|(e'_k, e_t)|^2: primed-against-unprimed Gram overlap."""
    phi_tk = phi.values[difference(M, phi.transfer, t, k)]
    num = spec.lam / spec.kappa * abs(phi_tk) ** 2 * abs(M.a[t] - M.a[k]) ** 2
    return float(num / (gram_denominator(spec, M, phi, k) * gram_denominator(spec, M, phi, t)))


def overlap_matrices(spec, M, phi):
    """O1[k, t] = |(e_k, e_t)|^2 and O2[k, t] = |(e'_k, e_t)|^2 for all index
    pairs, copied out of the scratch views that hadamard_rhs reduces in place."""
    return tuple(o.copy() for o in _overlaps(spec, M, phi))


def translation(Q, x) -> np.ndarray:
    """Phases e^{i q.x} on Q: phi_q e^{i q.x} is phi moved by the spatial
    vector x (in lattice units)."""
    return np.exp(1j * (Q.qvec @ np.asarray(x, dtype=float)))


def time_shift(Q, tau: float) -> np.ndarray:
    """Phases e^{i q0 tau} on Q: phi_q e^{i q0 tau} is phi moved by tau in
    imaginary time."""
    return np.exp(1j * Q.q0 * tau)


def global_phase(Q, theta: float) -> np.ndarray:
    """The constant phase e^{i theta} on Q, a global U(1) rotation of phi."""
    return np.full(len(Q), cmath.exp(1j * theta))


def field_value(r) -> complex:
    """The external field's complex value, magnitude * e^{i phase}."""
    return r.magnitude * cmath.exp(1j * r.phase)


def field_tilt(r) -> complex:
    """e^{i phase}, by which U_r rotates the zero mode; 1 for the zero field,
    whatever its phase."""
    return cmath.exp(1j * r.phase) if r else 1.0


def tilted_field(phi, r):
    """phi with the zero mode rotated by the field's tilt."""
    out = phi.copy()
    out.values[phi.transfer.zero_index] *= field_tilt(r)
    return out


def external_sum(spec, phi, r) -> float:
    """U_r's sum term: sum_q |phi_q|^2 with the zero mode's imaginary part
    shifted by sqrt(kappa)|r|/g; the plain sum for the zero field."""
    total = float(np.sum(np.abs(phi.values) ** 2))
    if not r:
        return total
    z0 = phi.values[phi.transfer.zero_index]
    shift = math.sqrt(spec.kappa) * r.ratio(spec)
    return z0.real**2 + (z0.imag + shift) ** 2 + (total - abs(z0) ** 2)


def potential_external(spec, M, phi, r):
    """U_r via the full 2N x 2N block of the tilted field; V for the zero
    field: the field's shift enters the sum term, its tilt the determinant."""
    block = bl.assemble_block(spec, M, tilted_field(phi, r))
    return external_sum(spec, phi, r) - bl.logdet(block, overwrite=True)


def potential_external_reduced(spec, M, phi, r):
    """U_r via the N x N reduced determinant of the tilted field; V for the
    zero field."""
    matrix = bl.reduced_matrix(spec, M, tilted_field(phi, r))
    return external_sum(spec, phi, r) - bl.logdet(matrix, overwrite=True)


def remainder_at(spec, M, qf, xi, t: float) -> float:
    """|V - V_2| at phi_min + t xi, V from a fresh reduced matrix: the
    reference for `remainder`, one t at a time."""
    Q = qf.transfer
    base = bl.bcs_config(spec, Q, qf.r0, qf.theta0)
    cfg = bl.FieldConfig(Q, base.values + t * xi.values)
    return abs(bl.potential_reduced(spec, M, cfg) - bl.v2(spec, qf, cfg))


def loop_fd_hessian(spec, M, base, h, r=None, coords=None):
    """Central differences with a fresh FieldConfig and a fresh reduced-route
    potential per displaced field, U_r's with a field: the reference for
    `fd_hessian`, and the FD Hessian of U_r."""
    Q = base.transfer
    coords = np.arange(2 * len(Q)) if coords is None else np.asarray(coords, dtype=int)

    def evaluate(values):
        cfg = bl.FieldConfig(Q, values)
        if r is None or r.magnitude == 0.0:
            return bl.potential_reduced(spec, M, cfg)
        return potential_external_reduced(spec, M, cfg, r)

    def displaced(steps):
        vals = base.values.copy()
        for c, s in steps:
            vals[c // 2] += s * h if c % 2 == 0 else 1j * s * h
        return evaluate(vals)

    f0 = evaluate(base.values.copy())
    m = len(coords)
    out = np.zeros((m, m), dtype=complex)
    for a in range(m):
        ca = int(coords[a])
        out[a, a] = (displaced([(ca, +1)]) + displaced([(ca, -1)]) - 2.0 * f0) / h**2
        for b in range(a + 1, m):
            cb = int(coords[b])
            val = (
                displaced([(ca, +1), (cb, +1)]) + displaced([(ca, -1), (cb, -1)])
                - displaced([(ca, +1), (cb, -1)]) - displaced([(ca, -1), (cb, +1)])
            ) / (4.0 * h**2)
            out[a, b] = val
            out[b, a] = val
    out = 0.5 * (out + out.T)
    return out.real, out.imag


def jacobi_hessian(spec, M, base, coords=None):
    """Exact Hessian of V in the real coordinates (u_q, v_q) at a base on the
    zero mode alone, from Jacobi's formula, with no LU and no step:

        d_a d_b log det R = tr(R0^-1 d_a d_b R) - tr(R0^-1 d_a R R0^-1 d_b R).

    With phi = sum_q phi_q E_q (E_q the 0/1 matrix of k - p = q, built here
    from the labels) and c_a = 1 for u, i for v, coordinate a of transfer t
    has d_a phi = c_a E_a, E_a = E_t.  At the base phi = z0 Id, so R0 is the
    diagonal 1 + (lam/kappa) |z0|^2 |C|^2, and with r = lam/kappa

        d_a R     = r (c_a conj(z0) Cbar E_a C + conj(c_a) z0 |C|^2 E_a^T),
        d_a d_b R = r (c_a conj(c_b) Cbar E_a C E_b^T + (a <-> b)).

    V's field sum adds 2 on the diagonal.  Returns (real part, imaginary
    part) over `coords` (None: all 2|Q|), the reference for
    `analytic_hessian` at the mean-field minimum.  It holds one dense N x N
    matrix per coordinate, so it suits a few coordinates or a small N."""
    Q = base.transfer
    if np.any(np.delete(base.values, Q.zero_index)):
        raise ValueError("base field must carry only the zero mode")
    z0 = base.values[Q.zero_index]
    coords = np.arange(2 * len(Q)) if coords is None else np.asarray(coords, dtype=int)
    index, q_labels, m_labels = index_of(M), labels(Q), labels(M)

    def unit(t):
        (tn, tm), out = q_labels[t], np.zeros((len(M), len(M)))
        for k, (kn, km) in enumerate(m_labels):
            p = index.get((kn - tn, tuple(a - b for a, b in zip(km, tm))))
            if p is not None:
                out[k, p] = 1.0
        return out

    m = len(coords)
    E = np.array([unit(t) for t in coords // 2])
    c = np.where(coords % 2 == 0, 1.0 + 0j, 1j)
    r, C = spec.lam / spec.kappa, 1.0 / M.a
    d_inv = 1.0 / (1.0 + r * abs(z0) ** 2 * np.abs(C) ** 2)
    d_r = r * (c[:, None, None] * np.conj(z0) * (np.conj(C)[:, None] * E * C)
               + np.conj(c)[:, None, None] * z0 * (np.abs(C) ** 2)[:, None]
               * E.transpose(0, 2, 1))
    d_r *= d_inv[:, None]  # R0^-1 d_a R
    second = d_r.reshape(m, -1) @ d_r.transpose(0, 2, 1).reshape(m, -1).T
    # tr(R0^-1 Cbar E_a C E_b^T) = sum over (k, p) of weight E_a E_b
    weight = (d_inv * np.conj(C))[:, None] * C
    F = (E * weight).reshape(m, -1) @ E.reshape(m, -1).T
    first = r * (np.outer(c, np.conj(c)) * F + np.outer(np.conj(c), c) * F.T)
    H = 2.0 * (coords[:, None] == coords[None, :]) - first + second
    return H.real, H.imag


def propagators(spec, M, phi, r=None) -> dict:
    """Map index k -> (F(k), G(k)) from one factorization of the unnormalized block.

    F(k) is the (k up, k up) entry and G(k) the (k down, k up) entry of the
    inverse of [[diag(a), ig phibar/sqrt(kappa) - rbar Id],
                [ig phi/sqrt(kappa) + r Id, diag(abar)]].
    """
    n = len(M)
    rval = 0.0 + 0.0j if r is None else field_value(r)
    pref = 1j * spec.g / math.sqrt(spec.kappa)
    Phi = bl.phi_matrix(M, phi)
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = np.diag(M.a)
    A[n:, n:] = np.diag(np.conj(M.a))
    A[:n, n:] = pref * Phi.conj().T - np.conj(rval) * np.eye(n)
    A[n:, :n] = pref * Phi + rval * np.eye(n)
    try:
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise bl.SingularMatrixError("singular") from exc
    if np.any(np.diag(lu) == 0):
        raise bl.SingularMatrixError("singular")
    rhs = np.zeros((2 * n, n), dtype=complex)
    rhs[:n, :] = np.eye(n)
    cols = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return {i: (complex(cols[i, i]), complex(cols[n + i, i])) for i in range(n)}


# quadrature nodes per chunk of a stack of pair blocks: a chunk's complex
# grids stay near 16 MB (one desk lattice at order 128 would be ~390 MB)
GRID_CHUNK = 2**20


def _gauss_block(B: np.ndarray, order: int):
    """(1/pi) * integral of exp(-x^T B x) over R^2 for a complex symmetric 2 x 2
    B, or for each B of a stack along the leading axes.

    Whitened by the (positive definite) real part, then tensorized
    Gauss-Hermite on the residual oscillatory factor, a chunk of the stack
    at a time.
    """
    B = np.asarray(B)
    evals, Qrot = np.linalg.eigh(B.real)
    if np.min(evals) <= 0.0:
        raise FlatGaussianMode("pair form has non-positive-definite real part")
    W = Qrot / np.sqrt(evals)[..., None, :]
    S = (np.swapaxes(W, -1, -2) @ B.imag @ W).reshape(-1, 2, 2, 1, 1)
    t, w = np.polynomial.hermite.hermgauss(order)
    ww = w[:, None] * w[None, :]
    total = np.empty(len(S), dtype=complex)
    step = max(1, GRID_CHUNK // order**2)
    for lo in range(0, len(S), step):
        s = S[lo : lo + step]
        phase = np.exp(
            -1j
            * (
                s[:, 0, 0] * t[:, None] ** 2
                + 2.0 * s[:, 0, 1] * t[:, None] * t[None, :]
                + s[:, 1, 1] * t[None, :] ** 2
            )
        )
        total[lo : lo + step] = (ww * phase).sum(axis=(1, 2))
    return total.reshape(B.shape[:-2]) / (math.pi * np.sqrt(np.prod(evals, axis=-1)))


def pair_oracle(
    alpha,
    beta_coef,
    gamma,
    theta0: float = 0.0,
    order: int = 64,
    check_tol: float = 1e-8,
):
    """Quadrature value of the pair Gaussian integral over its 4 real coordinates.

    The rotation (x2, y2) -> (cos 2theta x2 + sin 2theta y2, ...) absorbs the
    condensate phase exactly and splits the integral into two 2-d blocks,
    which are evaluated by Gauss-Hermite quadrature; the order is doubled as
    a convergence check.  The coefficients may be arrays of one shape, and the
    values come back as an array of that shape; scalars give a float.
    """
    del theta0  # absorbed by an orthogonal rotation, Jacobian 1
    alpha, beta_coef, gamma = np.broadcast_arrays(alpha, beta_coef, gamma)
    a = alpha + beta_coef
    bx = np.empty(a.shape + (2, 2), dtype=complex)
    bx[..., 0, 0] = a + 1j * gamma
    bx[..., 1, 1] = a - 1j * gamma
    bx[..., 0, 1] = bx[..., 1, 0] = beta_coef
    by = bx.copy()
    by[..., 0, 1] = by[..., 1, 0] = -beta_coef

    def value(n: int):
        return _gauss_block(bx, n) * _gauss_block(by, n)

    v1 = value(order)
    v2_ = value(2 * order)
    err = np.abs(v1 - v2_)
    if np.any(err > check_tol * np.maximum(1.0, np.abs(v2_))):
        raise QuadratureError(
            f"pair quadrature not converged: {np.max(err):.3e} at order {order}"
        )
    if np.any(np.abs(v2_.imag) > 1e-8 * np.maximum(1.0, np.abs(v2_.real))):
        raise QuadratureError("pair quadrature returned a non-real value")
    return float(v2_.real) if v2_.ndim == 0 else v2_.real


def lambda2_zero_quadrature(spec, qf, order: int = 400, check_tol: float = 1e-8) -> float:
    """<|phi_0|^2 - 1>/lambda under the radial weight, by Gauss-Legendre quadrature
    at `order` and 2 `order` nodes over center +- 12 sigma."""
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


def free_bubble(spec, M, q) -> complex:
    """Free particle-particle bubble (1/kappa) sum_{k, q-k in M} C_k C_{q-k}, q = (n0, m)."""
    qn, qm = q
    index = index_of(M)
    acc = 0.0 + 0.0j
    for i, (n0, m) in enumerate(labels(M)):
        j = index.get((qn - n0 - 1, tuple(a - b for a, b in zip(qm, m))))
        if j is not None:
            acc += (1.0 / M.a[i]) * (1.0 / M.a[j])
    return complex(acc / spec.kappa)


def nondegenerate(spec, Q) -> bool:
    """Scalar-loop nondegeneracy: every spatial transfer q != 0 of Q changes
    the dispersion at some point of the spatial grid."""
    grid = [tuple(m) for m in bl.model.spatial_grid(spec).tolist()]
    zero = (0,) * spec.d
    for q in {tuple(m) for m in Q.mvec.tolist()}:
        if q == zero:
            continue
        if all(
            dispersion(spec, m) == dispersion(spec, tuple(a + b for a, b in zip(m, q)))
            for m in grid
        ):
            return False
    return True


def pair_sums_loop(spec, M, Q, delta_sq):
    """Per-q sums 1/(E^2 E'^2), the alpha numerator, the gamma numerator, the
    complex a_k abar_{k-q} sum and the half-sum, by a loop over Q's product
    structure.

    Q = dn x dm frequency-major, so transfer jn * |dm| + jm is (dn[jn], dm[jm]):
    the spatial pairs of each dm[jm] are found once and serve every dn[jn].
    """
    beta_f = math.pi / spec.beta
    n_lo = int(M.freq_n0.min())
    n_hi = int(M.freq_n0.max())
    n_dm = int(np.count_nonzero(Q.n0 == Q.n0[0]))
    # spatial transfer index of m - m' for m, m' in spatial_m, by lookup
    spatial_index = {tuple(m): j for j, m in enumerate(Q.mvec[:n_dm].tolist())}
    spatial = M.spatial_m.tolist()
    sdiff = np.array(
        [[spatial_index[tuple(np.subtract(m, u).tolist())] for u in spatial] for m in spatial]
    )
    e_s = M.spatial_e
    freq = []
    for nq in Q.n0[::n_dm].tolist():
        lo = max(n_lo, n_lo + nq)
        hi = min(n_hi, n_hi + nq)
        n0 = np.arange(lo, hi + 1)
        k0 = beta_f * (2 * n0 + 1)
        freq.append((nq, k0, k0 - 2.0 * math.pi * nq / spec.beta))

    inv_sum = np.zeros(len(Q))
    alpha_num = np.zeros(len(Q))
    gamma_num = np.zeros(len(Q))
    cross = np.zeros(len(Q), dtype=complex)
    half_sum = np.zeros(len(Q))

    for jm in range(n_dm):
        keep, partner = np.nonzero(sdiff == jm)  # m_keep - dm[jm] = m_partner
        e1 = e_s[keep]
        e2 = e_s[partner]
        for jn, (nq, k0, k0q) in enumerate(freq):
            iq = jn * n_dm + jm
            E1 = k0[:, None] ** 2 + e1[None, :] ** 2 + delta_sq
            E2 = k0q[:, None] ** 2 + e2[None, :] ** 2 + delta_sq
            inv = 1.0 / (E1 * E2)
            inv_sum[iq] = inv.sum()
            de = e1[None, :] - e2[None, :]
            q0 = 2.0 * math.pi * nq / spec.beta
            alpha_num[iq] = ((q0**2 + de**2) * inv).sum()
            gamma_num[iq] = ((k0[:, None] * e2[None, :] - k0q[:, None] * e1[None, :]) * inv).sum()
            ak = 1j * k0[:, None] - e1[None, :]
            akq_bar = -1j * k0q[:, None] - e2[None, :]
            cross[iq] = (ak * akq_bar * inv).sum()
            half_sum[iq] = (0.5 * (E1 + E2) * inv).sum()
    return inv_sum, alpha_num, gamma_num, cross, half_sum
