"""Quadratic expansion around the minimum: coefficients, Hessians, remainder."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import bcslab as bl
from bcslab.cli import _hessian_coords
from bcslab.expansion import default_fd_step
from oracles import (
    index_of, jacobi_hessian, labels, loop_fd_hessian, pair_sums_loop,
    potential_external_reduced, remainder_at,
)


def _lattice(d, L, beta, nu):
    probe = bl.ModelSpec(d=d, L=L, beta=beta, nu=nu, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=d, L=L, beta=beta, nu=nu, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    return spec, M, bl.build_transfer_set(M)


def brute_coefficients(spec, M, Q, delta_sq):
    """Direct per-k loops for alpha, beta, gamma; independent of the
    vectorized implementation."""
    nq = len(Q)
    alpha = np.zeros(nq)
    beta = np.zeros(nq)
    gamma = np.zeros(nq)
    index = index_of(M)
    for iq, (qn, qm) in enumerate(labels(Q)):
        s_inv = s_alpha = s_gamma = s_half = 0.0
        for ik, (kn, km) in enumerate(labels(M)):
            key = (kn - qn, tuple(a - b for a, b in zip(km, qm)))
            jk = index.get(key)
            if jk is None:
                continue
            k0 = M.k0[ik]
            k0q = M.k0[jk]
            e1, e2 = M.e[ik], M.e[jk]
            E1 = k0**2 + e1**2 + delta_sq
            E2 = k0q**2 + e2**2 + delta_sq
            q0 = 2.0 * math.pi * qn / spec.beta
            s_inv += 1.0 / (E1 * E2)
            s_alpha += (q0**2 + (e1 - e2) ** 2) / (E1 * E2)
            s_gamma += (k0 * e2 - k0q * e1) / (E1 * E2)
            s_half += 0.5 * (1.0 / E1 + 1.0 / E2)
        ratio = spec.lam / spec.kappa
        alpha[iq] = 1.0 - ratio * s_half + 0.5 * ratio * s_alpha
        beta[iq] = ratio * delta_sq * s_inv
        gamma[iq] = ratio * s_gamma
    return alpha, beta, gamma


# the small lattice (4 momenta, 9 transfers) and d=2 L=4 (16 momenta, 75)
@pytest.mark.parametrize("d", [1, 2], ids=["small", "d2-L4"])
def test_coefficients_brute(d):
    spec, M, Q = _lattice(d, 4.0, 2.0, 4.0)
    sol = bl.solve_gap(spec, M)
    qf = bl.coefficients(spec, M, Q, sol.r0, 0.0)
    alpha, beta, gamma = brute_coefficients(spec, M, Q, sol.delta_sq)
    assert np.allclose(qf.alpha, alpha, rtol=1e-12, atol=1e-14)
    assert np.allclose(qf.beta_coef, beta, rtol=1e-12, atol=1e-14)
    assert np.allclose(qf.gamma, gamma, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "shape",
    [(1, 4.0, 2.0, 4.0), (2, 4.0, 2.0, 4.0), (1, 16.0, 8.0, 20.0), (2, 8.0, 8.0, 20.0)],
    ids=["small", "d2-L4", "desk", "d2-L8"],
)
def test_pair_sums_match_loop_oracle(shape):
    # the pair sums change summation order against the loop over Q's product
    # structure; gamma cancels to ~1e-18 at some q, so the bound is relative
    # to each array's largest entry
    spec, M, Q = _lattice(*shape)
    ratio = spec.lam / spec.kappa

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def check(qf, delta_sq, shift):
        inv, alpha_num, gamma_num, cross, half = pair_sums_loop(spec, M, Q, delta_sq)
        close(qf.alpha, (1.0 - shift) - ratio * half + 0.5 * ratio * alpha_num)
        close(qf.beta_coef, ratio * delta_sq * inv)
        close(qf.gamma, ratio * gamma_num)
        return 1.0 - ratio * cross

    sol = bl.solve_gap(spec, M)
    want = check(bl.coefficients(spec, M, Q, sol.r0, 0.0), sol.delta_sq, 0.0)
    close(bl.decomposition_lhs(spec, M, Q, sol.delta_sq), want)
    r = bl.ExternalField(1e-2, 0.4)
    ext = bl.solve_gap_external(spec, M, r)
    qf = bl.coefficients_external(spec, M, Q, ext.y0, r)
    check(qf, ext.delta_sq, qf.shift)


def test_decomposition_identity(desk_spec, desk_M, desk_Q, desk_sol, desk_qf):
    lhs = bl.decomposition_lhs(desk_spec, desk_M, desk_Q, desk_sol.delta_sq)
    rhs = desk_qf.alpha + 1j * desk_qf.gamma + desk_qf.beta_coef
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_coefficient_symmetries(desk_Q, desk_qf):
    neg = desk_Q.neg_index
    assert np.max(np.abs(desk_qf.alpha - desk_qf.alpha[neg])) <= 1e-12
    assert np.max(np.abs(desk_qf.beta_coef - desk_qf.beta_coef[neg])) <= 1e-12
    assert np.max(np.abs(desk_qf.gamma + desk_qf.gamma[neg])) <= 1e-12
    assert np.min(desk_qf.alpha) >= -1e-12


def test_alpha_zero_at_origin(desk_Q, desk_qf, desk_sol):
    # the gap equation cancels the unit field coefficient at q = 0
    assert abs(desk_qf.alpha[desk_Q.zero_index]) <= 10 * desk_sol.residual + 1e-12
    assert desk_qf.gamma[desk_Q.zero_index] == pytest.approx(0.0, abs=1e-12)
    assert desk_qf.beta0 == desk_qf.beta_coef[desk_Q.zero_index]


def test_lambda_zero_coefficients(desk_M, desk_Q):
    spec0 = bl.ModelSpec(lam=0.0)
    qf = bl.coefficients(spec0, desk_M, desk_Q, 0.0, 0.0)
    assert np.all(qf.beta_coef == 0.0)
    assert np.all(qf.gamma == 0.0)
    assert np.all(qf.alpha == 1.0)


def test_v2_matches_manual_form(desk_spec, desk_Q, desk_qf):
    phi = bl.random_config(desk_spec, desk_Q, 1e-2, seed=17)
    base = bl.bcs_config(desk_spec, desk_Q, desk_qf.r0, 0.0)
    cfg = bl.FieldConfig(desk_Q, base.values + phi.values)
    got = bl.v2(desk_spec, desk_qf, cfg)
    sk = math.sqrt(desk_spec.kappa)
    acc = desk_qf.v_min + 2.0 * desk_qf.beta0 * (
        abs(cfg.values[desk_Q.zero_index]) - sk * desk_qf.r0
    ) ** 2
    for i in range(len(desk_Q)):
        if i == desk_Q.zero_index:
            continue
        z = cfg.values[i]
        zbar_neg = np.conj(cfg.values[desk_Q.neg_index[i]])
        acc += (desk_qf.alpha[i] + 1j * desk_qf.gamma[i]) * abs(z) ** 2
        acc += 0.5 * desk_qf.beta_coef[i] * abs(z + zbar_neg) ** 2
    assert got == pytest.approx(acc, rel=1e-12)


def test_fd_hessian_on_quadratic(small_Q, monkeypatch):
    # a synthetic quadratic gives the exact Hessian up to rounding
    n = 2 * len(small_Q)
    rng = np.random.default_rng(4)
    H = rng.standard_normal((n, n))
    H = 0.5 * (H + H.T)

    def to_real(values):
        out = np.empty(n)
        out[0::2] = values.real
        out[1::2] = values.imag
        return out

    class Quadratic:
        """Stands in for the displaced-field evaluator fd_hessian builds."""

        def __init__(self, spec, M, base):
            self.base = base

        def __call__(self, steps=()):
            values = self.base.values.copy()
            for t, delta in steps:
                values[t] += delta
            x = to_real(values)
            return complex(0.5 * x @ H @ x)

    import bcslab.expansion as expansion

    monkeypatch.setattr(expansion, "DisplacedPotential", Quadratic)
    base = bl.FieldConfig(small_Q, np.zeros(len(small_Q), dtype=complex))
    fre, fim = bl.fd_hessian(None, None, base, 1e-3)
    assert np.max(np.abs(fre - H)) < 1e-9
    assert np.max(np.abs(fim)) < 1e-12


@pytest.fixture(scope="module", params=["small-d1", "small-d2", "desk"])
def lattice(request, small_spec, small_M, small_Q, desk_spec, desk_M, desk_Q):
    """(spec, M, Q, gap solution)."""
    spec, M, Q = {
        "small-d1": lambda: (small_spec, small_M, small_Q),
        "small-d2": lambda: _lattice(2, 4.0, 2.0, 4.0),
        "desk": lambda: (desk_spec, desk_M, desk_Q),
    }[request.param]()
    return spec, M, Q, bl.solve_gap(spec, M)


def _step_cases(Q, h):
    """Named (transfer, complex step) lists: the shapes fd_hessian asks for."""
    z = Q.zero_index
    q = int(np.argsort(Q.qnorm)[1])  # a smallest nonzero transfer
    nq = int(Q.neg_index[q])
    return {
        "none": [],
        "u": [(q, h)],
        "v": [(q, -1j * h)],
        "u+v": [(q, h), (q, 1j * h)],
        "q,-q": [(q, -h), (nq, 1j * h)],
        "q,-q v": [(q, 1j * h), (nq, -1j * h)],
        "zero u": [(z, h)],
        "zero v": [(z, -1j * h)],
        "zero u+v": [(z, h), (z, 1j * h)],
        "zero,q": [(z, 1j * h), (q, -h)],
        # index 0 has the largest |n0|: its band spans almost all of M
        "far u": [(0, h)],
        "far,q": [(0, -1j * h), (q, h)],
    }


@pytest.mark.parametrize("case", ["none", "lambda0"])
def test_displaced_potential_matches_fresh_route(lattice, case):
    spec, M, Q, sol = lattice
    # the bases finite differencing uses: the condensate, here at phase 0.3,
    # and the zero field at lambda = 0
    if case == "lambda0":
        spec = dataclasses.replace(spec, lam=0.0)
        base = bl.FieldConfig(Q, np.zeros(len(Q), dtype=complex))
    else:
        base = bl.bcs_config(spec, Q, sol.r0, 0.3)
    V = bl.DisplacedPotential(spec, M, base)
    for name, steps in _step_cases(Q, 1e-2 * math.sqrt(spec.kappa)).items():
        values = base.values.copy()
        for t, delta in steps:
            values[t] += delta
        ref = bl.potential_reduced(spec, M, bl.FieldConfig(Q, values))
        got = V(steps)
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), name


def _unit_directions(Q, count, seed):
    """`count` random complex directions of unit norm on Q."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xi = bl.FieldConfig(Q, rng.standard_normal(len(Q)) + 1j * rng.standard_normal(len(Q)))
        xi.values /= math.sqrt(float(np.sum(np.abs(xi.values) ** 2)))
        yield xi


def test_ray_matches_reduced_route(lattice):
    # V along base + t xi from the shared product G = conj(Xi) C Xi^T against
    # a fresh reduced matrix per t, from t = 0 out to sqrt(kappa), where the
    # t^2 G term dominates R
    spec, M, Q, sol = lattice
    base = bl.bcs_config(spec, Q, sol.r0, 0.0)
    root = math.sqrt(spec.kappa)
    ts = [0.0, 5e-3 * root, 1e-2 * root, 0.3 * root, root]
    for xi in _unit_directions(Q, 5, seed=11):
        got = bl.potential_ray(spec, M, base.values[Q.zero_index], xi, ts)
        assert len(got) == len(ts)
        for t, v in zip(ts, got):
            ref = bl.potential_reduced(spec, M, bl.FieldConfig(Q, base.values + t * xi.values))
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), t


def test_ray_at_zero_is_base(lattice):
    # at t = 0 the ray's matrix is z0 Id whatever xi is: V of the base itself,
    # at the condensate (phase 0.3) and at the zero field
    spec, M, Q, sol = lattice
    for base in (bl.bcs_config(spec, Q, sol.r0, 0.3), bl.bcs_config(spec, Q, 0.0, 0.0)):
        ref = bl.potential_reduced(spec, M, base)
        for xi in _unit_directions(Q, 2, seed=12):
            (got,) = bl.potential_ray(spec, M, base.values[Q.zero_index], xi, [0.0])
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_remainder_builds_no_fd_evaluator(small_spec, small_M, small_Q, small_qf, monkeypatch):
    # the remainder probe runs on potential_ray alone: the finite-difference
    # evaluator, with its zero-mode check and pattern caches, is never built
    import bcslab.expansion as expansion

    def refuse(*args, **kwargs):
        raise AssertionError("remainder built a DisplacedPotential")

    monkeypatch.setattr(expansion, "DisplacedPotential", refuse)
    (xi,) = _unit_directions(small_Q, 1, seed=13)
    t = 1e-2 * math.sqrt(small_spec.kappa)
    r1, r2 = bl.remainder(small_spec, small_M, small_qf, xi, (t, t / 2.0))
    assert math.isfinite(r1) and math.isfinite(r2)


def test_displaced_potential_rejects_generic_base(small_spec, small_M, small_Q, small_sol):
    # only a base on the zero mode gives the displaced matrices their few
    # entries per row; any other nonzero transfer is refused.  A ray
    # (potential_ray) starts from its zero mode z0 alone, so needs no check
    base = bl.bcs_config(small_spec, small_Q, small_sol.r0, 0.0)
    q = int(np.argsort(small_Q.qnorm)[1])
    base.values[q] = 1e-3
    with pytest.raises(ValueError, match="only the zero mode"):
        bl.DisplacedPotential(small_spec, small_M, base)
    with pytest.raises(ValueError, match="only the zero mode"):
        bl.fd_hessian(small_spec, small_M, base, 1e-3, coords=[0])


@pytest.fixture(scope="module", params=["small", "desk-block"])
def fd_case(request, small_spec, small_M, small_Q, small_sol, desk_spec, desk_M,
            desk_Q, desk_sol):
    """(spec, M, base, h, coords) as criterion 4 and hessian-check use them."""
    if request.param == "small":
        base = bl.bcs_config(small_spec, small_Q, small_sol.r0, 0.0)
        return small_spec, small_M, base, default_fd_step(small_spec, small_sol.r0), None
    base = bl.bcs_config(desk_spec, desk_Q, desk_sol.r0, 0.0)
    h = default_fd_step(desk_spec, desk_sol.r0)
    return desk_spec, desk_M, base, h, _hessian_coords(desk_Q, 3)


def test_fd_hessian_matches_loop_oracle(fd_case):
    spec, M, base, h, coords = fd_case
    ref_re, ref_im = loop_fd_hessian(spec, M, base, h, coords=coords)
    got_re, got_im = bl.fd_hessian(spec, M, base, h, coords=coords)
    m = 2 * len(base.transfer) if coords is None else len(coords)
    assert got_re.shape == got_im.shape == (m, m)
    assert np.max(np.abs(got_re - ref_re)) <= 1e-8
    assert np.max(np.abs(got_im - ref_im)) <= 1e-8


def test_fd_hessian_gathers_no_square_array(desk_spec, desk_M, desk_Q, desk_sol, monkeypatch):
    # the band patterns come from TransferSet.shift, so fd_hessian builds no
    # N x N index: with gather refused it returns the same matrices
    base = bl.bcs_config(desk_spec, desk_Q, desk_sol.r0, 0.0)
    h = default_fd_step(desk_spec, desk_sol.r0)
    coords = _hessian_coords(desk_Q, 3)
    assert len(coords) == 14
    want = bl.fd_hessian(desk_spec, desk_M, base, h, coords=coords)

    def refuse(self, values, out=None):
        raise AssertionError("fd_hessian gathered an N x N array")

    monkeypatch.setattr(bl.model.TransferSet, "gather", refuse)
    got = bl.fd_hessian(desk_spec, desk_M, base, h, coords=coords)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_analytic_hessian_matches_jacobi_oracle(lattice):
    # the exact Hessian at the minimum, from Jacobi's formula with no step and
    # no LU: analytic_hessian within 1e-10 under hessian-check's normalisation,
    # max(largest |entry|, 1), and the loop FD oracle within criterion 4's 1e-4.
    # Orbit counts (None: every coordinate) for the two comparisons, keyed by
    # N; the FD oracle's ~400 LUs for 14 coordinates take ~3 s at N = 300
    spec, M, Q, sol = lattice
    orbits, fd_orbits = {4: (None, None), 16: (None, 3), 300: (3, 1)}[len(M)]
    qf = bl.coefficients(spec, M, Q, sol.r0, 0.0)
    base = bl.bcs_config(spec, Q, sol.r0, 0.0)
    coords = None if orbits is None else _hessian_coords(Q, orbits)
    analytic = bl.analytic_hessian(spec, qf, coords)
    scale = max(np.max(np.abs(analytic[0])), 1.0)
    for got, ref in zip(analytic, jacobi_hessian(spec, M, base, coords)):
        assert np.max(np.abs(got - ref)) <= 1e-10 * scale
    coords = None if fd_orbits is None else _hessian_coords(Q, fd_orbits)
    fd = loop_fd_hessian(spec, M, base, default_fd_step(spec, sol.r0), coords=coords)
    for got, ref in zip(fd, jacobi_hessian(spec, M, base, coords)):
        assert np.max(np.abs(got - ref)) <= 1e-4 * scale


def test_jacobi_oracle_away_from_half_filling():
    # at mu = 0 every gamma_q vanishes, so the imaginary parts above compare
    # zeros; at mu = 0.3 and condensate phase 0.7 they carry 2 gamma_q
    probe = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, mu=0.3, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = dataclasses.replace(probe, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    Q = bl.build_transfer_set(M)
    sol = bl.solve_gap(spec, M)
    analytic = bl.analytic_hessian(spec, bl.coefficients(spec, M, Q, sol.r0, 0.7))
    exact = jacobi_hessian(spec, M, bl.bcs_config(spec, Q, sol.r0, 0.7))
    assert np.max(np.abs(analytic[1])) > 0.1
    scale = max(np.max(np.abs(analytic[0])), 1.0)
    for got, ref in zip(analytic, exact):
        assert np.max(np.abs(got - ref)) <= 1e-10 * scale


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_fd_hessian_rejects_bad_step(small_spec, small_M, small_Q, h):
    base = bl.bcs_config(small_spec, small_Q, 0.5, 0.0)
    with pytest.raises(ValueError, match="h must be"):
        bl.fd_hessian(small_spec, small_M, base, h, coords=[0])


@pytest.mark.parametrize("coords", [[-1], [18], [0, 2, 19], [[0, 1]]])
def test_hessians_reject_bad_coords(small_spec, small_M, small_Q, small_qf, coords):
    # 2|Q| = 18 real coordinates on the small lattice; -1 must not alias 17
    base = bl.bcs_config(small_spec, small_Q, small_qf.r0, 0.0)
    with pytest.raises(ValueError, match="coords"):
        bl.fd_hessian(small_spec, small_M, base, 1e-3, coords=coords)
    with pytest.raises(ValueError, match="coords"):
        bl.analytic_hessian(small_spec, small_qf, coords=coords)


def loop_analytic_hessian(spec, qf, r=None):
    """Dense 2|Q| x 2|Q| Hessian filled by a loop over the {q, -q} orbits:
    the reference that `analytic_hessian` reproduces entry for entry."""
    Q = qf.transfer
    n = len(Q)
    hre = np.zeros((2 * n, 2 * n))
    him = np.zeros((2 * n, 2 * n))
    z = Q.zero_index
    external = r is not None
    if external:
        hre[2 * z, 2 * z] = 2.0 * qf.shift
        hre[2 * z + 1, 2 * z + 1] = 4.0 * qf.beta0 + 2.0 * qf.shift
        two_phase = 2.0 * r.phase
        sign = -1.0
    else:
        er = np.array([math.cos(qf.theta0), math.sin(qf.theta0)])
        hre[2 * z : 2 * z + 2, 2 * z : 2 * z + 2] = 4.0 * qf.beta0 * np.outer(er, er)
        two_phase = 2.0 * qf.theta0
        sign = 1.0
    c2, s2 = math.cos(two_phase), math.sin(two_phase)
    seen = set()
    for i in range(n):
        if i == z:
            continue
        ui, vi = 2 * i, 2 * i + 1
        hre[ui, ui] += 2.0 * qf.alpha[i]
        hre[vi, vi] += 2.0 * qf.alpha[i]
        him[ui, ui] += 2.0 * qf.gamma[i]
        him[vi, vi] += 2.0 * qf.gamma[i]
        if external:
            hre[ui, ui] += 2.0 * qf.shift
            hre[vi, vi] += 2.0 * qf.shift
        j = int(Q.neg_index[i])
        pair = (min(i, j), max(i, j))
        if pair in seen:
            continue
        seen.add(pair)
        b = qf.beta_coef[i]
        uj, vj = 2 * j, 2 * j + 1
        for c in (ui, vi, uj, vj):
            hre[c, c] += 2.0 * b
        hre[ui, uj] += sign * 2.0 * b * c2
        hre[uj, ui] += sign * 2.0 * b * c2
        hre[vi, vj] -= sign * 2.0 * b * c2
        hre[vj, vi] -= sign * 2.0 * b * c2
        hre[ui, vj] += sign * 2.0 * b * s2
        hre[vj, ui] += sign * 2.0 * b * s2
        hre[vi, uj] += sign * 2.0 * b * s2
        hre[uj, vi] += sign * 2.0 * b * s2
    return hre, him


def _small_d2_case():
    spec, M, Q = _lattice(2, 4.0, 2.0, 4.0)
    sol = bl.solve_gap(spec, M)
    return spec, bl.coefficients(spec, M, Q, sol.r0, 0.0), None


def _external_case(spec, M, Q):
    r = bl.ExternalField(1e-2, 0.4)
    sol = bl.solve_gap_external(spec, M, r)
    return spec, bl.coefficients_external(spec, M, Q, sol.y0, r), r


@pytest.fixture(
    scope="module",
    params=["small-d1", "small-d2", "desk-theta0", "desk-theta1.3", "external"],
)
def hessian_case(
    request, desk_spec, desk_M, desk_Q, desk_sol, desk_qf, small_spec, small_qf
):
    """(spec, quadratic form, external field or None)."""
    return {
        "small-d1": lambda: (small_spec, small_qf, None),
        "small-d2": _small_d2_case,
        "desk-theta0": lambda: (desk_spec, desk_qf, None),
        "desk-theta1.3": lambda: (
            desk_spec, bl.coefficients(desk_spec, desk_M, desk_Q, desk_sol.r0, 1.3), None
        ),
        "external": lambda: _external_case(desk_spec, desk_M, desk_Q),
    }[request.param]()


@pytest.mark.parametrize("block", [False, True], ids=["all", "orbits3"])
def test_analytic_hessian_matches_loop_oracle(hessian_case, block):
    spec, qf, r = hessian_case
    ref_re, ref_im = loop_analytic_hessian(spec, qf, r=r)
    if block:
        coords = _hessian_coords(qf.transfer, 3)
        got_re, got_im = bl.analytic_hessian(spec, qf, coords=coords)
        ref_re, ref_im = ref_re[np.ix_(coords, coords)], ref_im[np.ix_(coords, coords)]
    else:
        got_re, got_im = bl.analytic_hessian(spec, qf)
    assert np.array_equal(got_re, ref_re)
    assert np.array_equal(got_im, ref_im)


def test_analytic_hessian_block_memory(desk_spec, desk_Q, desk_qf):
    # the 14-coordinate block allocates nothing of size 2|Q| x 2|Q| (70.6 MB here)
    coords = _hessian_coords(desk_Q, 3)
    tracemalloc.start()
    try:
        hre, him = bl.analytic_hessian(desk_spec, desk_qf, coords=coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hre.shape == him.shape == (14, 14)
    assert peak < 1_000_000


def test_full_hessian_small_lattice(small_spec, small_M, small_Q, small_sol, small_qf):
    are, aim = bl.analytic_hessian(small_spec, small_qf)
    base = bl.bcs_config(small_spec, small_Q, small_sol.r0, 0.0)
    h = default_fd_step(small_spec, small_sol.r0)
    fre, fim = bl.fd_hessian(small_spec, small_M, base, h)
    scale = max(np.max(np.abs(are)), 1.0)
    assert np.max(np.abs(fre - are)) / scale < 1e-4
    assert np.max(np.abs(fim - aim)) / scale < 1e-4


def test_phase_direction_is_flat(desk_spec, desk_Q, desk_qf):
    # tangential direction of the condensate phase: analytic Hessian is zero
    are, aim = bl.analytic_hessian(desk_spec, desk_qf)
    z = desk_qf.transfer.zero_index
    tang = np.zeros(2 * len(desk_qf.transfer))
    tang[2 * z] = -math.sin(desk_qf.theta0)
    tang[2 * z + 1] = math.cos(desk_qf.theta0)
    assert abs(tang @ are @ tang) < 1e-12
    assert abs(tang @ aim @ tang) < 1e-12


def test_hessian_theta_covariance(desk_spec, desk_M, desk_Q, desk_sol):
    # the radial direction carries 4 beta0 for any condensate phase
    for theta in (0.0, 1.3):
        qf = bl.coefficients(desk_spec, desk_M, desk_Q, desk_sol.r0, theta)
        are, _ = bl.analytic_hessian(desk_spec, qf)
        z = desk_Q.zero_index
        er = np.zeros(2 * len(desk_Q))
        er[2 * z] = math.cos(theta)
        er[2 * z + 1] = math.sin(theta)
        assert er @ are @ er == pytest.approx(4.0 * qf.beta0, rel=1e-12)


def test_remainder_cubic(desk_spec, desk_M, desk_Q, desk_qf):
    rng = np.random.default_rng(2)
    t = 1e-2 * math.sqrt(desk_spec.kappa)
    for _ in range(3):
        xi = bl.FieldConfig(
            desk_Q, rng.standard_normal(len(desk_Q)) + 1j * rng.standard_normal(len(desk_Q))
        )
        xi.values /= math.sqrt(float(np.sum(np.abs(xi.values) ** 2)))
        r1, r2 = bl.remainder(desk_spec, desk_M, desk_qf, xi, (t, t / 2.0))
        assert 6.0 <= r1 / r2 <= 10.0
    with pytest.raises(ValueError):
        bl.remainder(desk_spec, desk_M, desk_qf, xi, (-1.0,))


def test_remainder_matches_per_t_oracle(lattice):
    # one shared product per direction against a fresh reduced matrix per t
    spec, M, Q, sol = lattice
    qf = bl.coefficients(spec, M, Q, sol.r0, 0.0)
    base = bl.bcs_config(spec, Q, qf.r0, qf.theta0)
    t = 1e-2 * math.sqrt(spec.kappa)
    for xi in _unit_directions(Q, 3, seed=4):
        got = bl.remainder(spec, M, qf, xi, (t, t / 2.0))
        assert len(got) == 2
        for ti, r in zip((t, t / 2.0), got):
            v = bl.potential_reduced(spec, M, bl.FieldConfig(Q, base.values + ti * xi.values))
            assert abs(r - remainder_at(spec, M, qf, xi, ti)) <= 1e-12 * max(1.0, abs(v))


def test_remainder_refuses_negative_t(small_spec, small_M, small_Q, small_qf):
    xi = bl.FieldConfig(small_Q, np.ones(len(small_Q), dtype=complex))
    for ts in ((-1.0,), (1e-3, -1e-3), (math.nan,)):
        with pytest.raises(ValueError, match="nonnegative"):
            bl.remainder(small_spec, small_M, small_qf, xi, ts)


def test_external_coefficients(desk_spec, desk_M, desk_Q):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    qf = bl.coefficients_external(desk_spec, desk_M, desk_Q, sol.y0, r)
    assert qf.shift == pytest.approx(r.magnitude / (desk_spec.g * abs(sol.y0)))
    # the external equation of state keeps alpha(0) at the solver residual
    assert abs(qf.alpha[desk_Q.zero_index]) <= 1e-10
    with pytest.raises(ValueError):
        bl.coefficients_external(desk_spec, desk_M, desk_Q, 0.0, r)


def test_coefficients_external_needs_lambda(desk_spec, desk_M, desk_Q):
    spec0 = dataclasses.replace(desk_spec, lam=0.0)
    with pytest.raises(ValueError, match="lambda > 0"):
        bl.coefficients_external(spec0, desk_M, desk_Q, -0.3, bl.ExternalField(1e-2, 0.4))


def test_coefficients_external_needs_a_field(desk_spec, desk_M, desk_Q, desk_sol):
    # the zero field neither shifts nor tilts the potential, so an external
    # form at theta0 = its phase would rotate the Hessian's pair blocks
    with pytest.raises(ValueError, match="nonzero field"):
        r = bl.ExternalField(0.0, 0.7)
        bl.coefficients_external(desk_spec, desk_M, desk_Q, -desk_sol.r0, r)


@pytest.mark.parametrize("which", ["desk", "small"])
def test_v2_reads_the_forms_field(request, which):
    # a form from coefficients_external expands U_r: at U_r's minimum
    # phi_0 = i sqrt(kappa) y0 every term but v_min vanishes, so v2 is U_2 there
    spec, M, Q = (request.getfixturevalue(f"{which}_{x}") for x in ("spec", "M", "Q"))
    r = bl.ExternalField(1e-2, 0.4)
    sol = bl.solve_gap_external(spec, M, r)
    qf = bl.coefficients_external(spec, M, Q, sol.y0, r)
    base = bl.bcs_config(spec, Q, abs(sol.y0), -math.pi / 2)
    assert bl.v2(spec, qf, base) == pytest.approx(qf.v_min, abs=1e-12)


def test_remainder_refuses_a_form_with_a_field(small_spec, small_M, small_Q):
    # remainder probes V, while a form with a field expands U_r
    r = bl.ExternalField(1e-2, 0.4)
    y0 = bl.solve_gap_external(small_spec, small_M, r).y0
    qf = bl.coefficients_external(small_spec, small_M, small_Q, y0, r)
    xi = bl.FieldConfig(small_Q, np.ones(len(small_Q), dtype=complex))
    with pytest.raises(ValueError, match="coefficients_external"):
        bl.remainder(small_spec, small_M, qf, xi, (1e-3,))


def test_external_hessian_zero_mode_lift(desk_spec, desk_M, desk_Q):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    qf = bl.coefficients_external(desk_spec, desk_M, desk_Q, sol.y0, r)
    are, _ = bl.analytic_hessian(desk_spec, qf)
    z = desk_Q.zero_index
    assert are[2 * z, 2 * z] == pytest.approx(2.0 * qf.shift)
    assert are[2 * z + 1, 2 * z + 1] == pytest.approx(4.0 * qf.beta0 + 2.0 * qf.shift)


@pytest.fixture(scope="module", params=["small", "d2-L4"])
def external_lattice(request, small_spec, small_M, small_Q):
    """(spec, M, Q, coords): the small lattice with all 18 coordinates, d=2
    L=4 with the zero mode and 3 orbits."""
    if request.param == "small":
        return small_spec, small_M, small_Q, None
    spec, M, Q = _lattice(2, 4.0, 2.0, 4.0)
    return spec, M, Q, _hessian_coords(Q, 3)


@pytest.mark.parametrize("phase", [0.0, 0.4])
def test_external_hessian_matches_fd_oracle(external_lattice, phase):
    # U_r's analytic Hessian, field block and pair blocks included, against
    # central differences of U_r at its minimum phi_0 = i sqrt(kappa) y0
    spec, M, Q, coords = external_lattice
    r = bl.ExternalField(1e-2, phase)
    sol = bl.solve_gap_external(spec, M, r)
    qf = bl.coefficients_external(spec, M, Q, sol.y0, r)
    base = bl.bcs_config(spec, Q, abs(sol.y0), -math.pi / 2)
    are, aim = bl.analytic_hessian(spec, qf, coords=coords)
    fre, fim = loop_fd_hessian(spec, M, base, 1e-3, r=r, coords=coords)
    scale = max(np.max(np.abs(are)), 1.0)
    assert np.max(np.abs(fre - are)) / scale <= 1e-4
    assert np.max(np.abs(fim - aim)) / scale <= 1e-4


def test_u2_matches_fd_at_minimum(desk_spec, desk_M, desk_Q):
    # second-order external form reproduces the potential near the minimum
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    qf = bl.coefficients_external(desk_spec, desk_M, desk_Q, sol.y0, r)
    base = bl.bcs_config(desk_spec, desk_Q, abs(sol.y0), -math.pi / 2)
    pert = bl.random_config(desk_spec, desk_Q, 1.0, seed=41)
    pert.values *= 1e-3 * math.sqrt(desk_spec.kappa) / math.sqrt(
        float(np.sum(np.abs(pert.values) ** 2))
    )
    cfg = bl.FieldConfig(desk_Q, base.values + pert.values)
    exact = potential_external_reduced(desk_spec, desk_M, cfg, r)
    approx = bl.v2(desk_spec, qf, cfg)
    assert abs(exact - approx) < 1e-5 * max(1.0, abs(exact))


def test_default_fd_step(desk_spec):
    assert default_fd_step(desk_spec, 0.5) == pytest.approx(
        1e-3 * math.sqrt(desk_spec.kappa)
    )
    assert default_fd_step(desk_spec, 2.0) == pytest.approx(
        2e-3 * math.sqrt(desk_spec.kappa)
    )
