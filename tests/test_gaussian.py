"""Gaussian-approximation quantities and their quadrature oracles."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import bcslab as bl
from bcslab.gaussian import FlatGaussianMode, _radial_moments, pair_denominator
from oracles import (
    QuadratureError, free_bubble, index_of, labels, lambda2_zero_quadrature, pair_oracle
)


def test_pair_factor_closed_form():
    assert 1.0 / pair_denominator(2.0, 0.5, 0.0) == pytest.approx(1.0 / (4.0 + 2.0))
    assert pair_denominator(1.0, 0.0, 3.0) == pytest.approx(10.0)
    with pytest.raises(FlatGaussianMode):
        pair_denominator(0.0, 0.0, 0.0)


def test_pair_factor_vs_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = 0.2 + rng.random()
        beta = rng.random()
        gamma = rng.standard_normal()
        closed = 1.0 / pair_denominator(alpha, beta, gamma)
        oracle = pair_oracle(alpha, beta, gamma)
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_pair_oracle_batch_matches_scalars():
    # a stack of coefficients gives each entry's scalar value, and one entry
    # that fails the order-doubling check fails the whole stack
    rng = np.random.default_rng(6)
    a, b, g = 0.2 + rng.random(5), rng.random(5), rng.standard_normal(5)
    batch = pair_oracle(a, b, g)
    assert np.array_equal(batch, [pair_oracle(*abg) for abg in zip(a, b, g)])
    with pytest.raises(QuadratureError, match="not converged"):
        pair_oracle(np.append(a, 0.05), np.append(b, 0.0), np.append(g, 20.0))


def _pair_form_matrix(alpha, beta_coef, gamma, theta0):
    """B with x^T B x the pair's unrotated quadratic form

        alpha (|phi_q|^2 + |phi_-q|^2) + i gamma (|phi_q|^2 - |phi_-q|^2)
        + beta |e^{-i theta0} phi_q + e^{i theta0} conj(phi_-q)|^2

    in x = (Re phi_q, Im phi_q, Re phi_-q, Im phi_-q), read off the form's
    values by polarization."""

    def form(x):
        p, m = complex(x[0], x[1]), complex(x[2], x[3])
        w = cmath.exp(-1j * theta0) * p + cmath.exp(1j * theta0) * m.conjugate()
        sq_p, sq_m = abs(p) ** 2, abs(m) ** 2
        return alpha * (sq_p + sq_m) + 1j * gamma * (sq_p - sq_m) + beta_coef * abs(w) ** 2

    e = np.eye(4)
    return np.array([
        [form(e[i]) if i == j else (form(e[i] + e[j]) - form(e[i]) - form(e[j])) / 2
         for j in range(4)]
        for i in range(4)
    ])


def test_pair_oracle_theta_invariant():
    # pair_oracle rotates the condensate phase away; at theta0 = 1.7 the
    # unrotated form's integral (1/pi^2) int exp(-x^T B x) d^4x, which is
    # prod lambda^(-1/2) over B's eigenvalues (their real parts positive, so
    # each principal root is the continuous branch), is its value too
    alpha, beta_coef, gamma, theta0 = 0.8, 0.3, 0.5, 1.7
    B = _pair_form_matrix(alpha, beta_coef, gamma, theta0)
    assert not np.allclose(B, _pair_form_matrix(alpha, beta_coef, gamma, 0.0))
    lam = np.linalg.eigvals(B)
    assert np.all(lam.real > 0.0)
    direct = complex(np.prod(1.0 / np.sqrt(lam)))
    assert abs(direct.imag) <= 1e-14
    assert pair_oracle(alpha, beta_coef, gamma, theta0=theta0) == pytest.approx(
        direct.real, rel=1e-12
    )


def test_radial_integral_vs_quad():
    for beta0, center in ((0.4, 2.0), (1.5, 0.0), (0.05, 10.0)):
        closed = 2.0 * _radial_moments(beta0, center)[1]
        val, err = quad(
            lambda rho: math.exp(-2.0 * beta0 * (rho - center) ** 2) * 2.0 * rho,
            0.0,
            center + 40.0 / math.sqrt(beta0),
        )
        assert closed == pytest.approx(val, rel=1e-8)
    with pytest.raises(FlatGaussianMode):
        _radial_moments(0.0, 1.0)


def test_z2_theta_invariant(desk_spec, desk_M, desk_Q, desk_sol):
    vals = []
    for theta in (0.0, 0.9, -2.2):
        qf = bl.coefficients(desk_spec, desk_M, desk_Q, desk_sol.r0, theta)
        vals.append(bl.log_z2(desk_spec, qf))
    assert max(vals) - min(vals) <= 1e-12 * max(1.0, abs(vals[0]))


def test_z2_finite(desk_spec, desk_qf):
    assert math.isfinite(bl.log_z2(desk_spec, desk_qf))


def test_lambda2_formula(desk_spec, desk_Q, desk_qf):
    i = next(j for j in range(len(desk_Q)) if j != desk_Q.zero_index)
    a, b, g = desk_qf.alpha[i], desk_qf.beta_coef[i], desk_qf.gamma[i]
    expected = (complex(a + b, g) / pair_denominator(a, b, g) - 1.0) / desk_spec.lam
    assert bl.lambda2(desk_spec, desk_qf, i) == pytest.approx(expected, rel=1e-12)


def test_lambda2_pair_moment_oracle(desk_spec, desk_Q, desk_qf):
    # the closed form equals the ratio of quadrature moments of the pair
    # Gaussian: d/d(alpha) of the pair integral gives -(<|phi_q|^2> +
    # <|phi_{-q}|^2>) up to normalization
    for i in (1, 40, 700):
        if i == desk_Q.zero_index:
            continue
        a, b, g = (
            float(desk_qf.alpha[i]),
            float(desk_qf.beta_coef[i]),
            float(desk_qf.gamma[i]),
        )
        h = 1e-6
        f = pair_oracle
        dlog = (math.log(f(a + h, b, g)) - math.log(f(a - h, b, g))) / (2.0 * h)
        # -dlog = <|phi_q|^2 + |phi_-q|^2>; both transfers share |Lambda2|
        mean_sq = -0.5 * dlog
        expected_re = (mean_sq - 1.0) / desk_spec.lam
        got = bl.lambda2(desk_spec, desk_qf, i)
        assert got.real == pytest.approx(expected_re, rel=1e-4, abs=1e-8)


def test_lambda2_symmetry(desk_spec, desk_Q, desk_qf):
    for i in (2, 31, 515):
        if i == desk_Q.zero_index:
            continue
        j = int(desk_Q.neg_index[i])
        li = bl.lambda2(desk_spec, desk_qf, i)
        lj = bl.lambda2(desk_spec, desk_qf, j)
        assert li == pytest.approx(np.conj(lj), rel=1e-12)


def test_lambda2_guards(desk_spec, desk_Q, desk_qf):
    with pytest.raises(ValueError, match="lambda2_zero"):
        bl.lambda2(desk_spec, desk_qf, desk_Q.zero_index)
    with pytest.raises(ValueError, match="lambda2_zero"):
        bl.lambda2(desk_spec, desk_qf, np.array([1, desk_Q.zero_index]))
    spec0 = bl.ModelSpec(lam=0.0)
    with pytest.raises(ValueError):
        bl.lambda2(spec0, desk_qf, 1)


def test_lambda2_zero_moment(desk_spec, desk_qf):
    val = bl.lambda2_zero(desk_spec, desk_qf)
    # independent check by adaptive quadrature of the radial moments
    center = math.sqrt(desk_spec.kappa) * desk_qf.r0
    b0 = desk_qf.beta0
    w = lambda rho: math.exp(-2.0 * b0 * (rho - center) ** 2) * 2.0 * rho
    hi = center + 20.0 / math.sqrt(b0)
    norm, _ = quad(w, 0.0, hi)
    m2, _ = quad(lambda rho: w(rho) * rho**2, 0.0, hi)
    assert val == pytest.approx((m2 / norm - 1.0) / desk_spec.lam, rel=1e-8)


def test_eps_int2_real_and_split(desk_spec, desk_qf):
    with_zero = bl.eps_int2(desk_spec, desk_qf, include_zero_mode=True)
    without = bl.eps_int2(desk_spec, desk_qf, include_zero_mode=False)
    assert with_zero - without == pytest.approx(
        bl.lambda2_zero(desk_spec, desk_qf) / desk_spec.kappa, rel=1e-10
    )


def test_free_bubble_brute(small_spec, small_M):
    q = (1, (0,))
    index = index_of(small_M)
    acc = 0.0 + 0.0j
    for i, (n0, m) in enumerate(labels(small_M)):
        key = (q[0] - n0 - 1, tuple(a - b for a, b in zip(q[1], m)))
        j = index.get(key)
        if j is not None:
            acc += 1.0 / (small_M.a[i] * small_M.a[j])
    assert free_bubble(small_spec, small_M, q) == pytest.approx(
        acc / small_spec.kappa, rel=1e-12
    )


def test_free_bubble_pairing_structure(small_spec, small_M):
    # the summand pairs k with q - k: at q = 0 the partner of (n0, m) is
    # (-n0 - 1, -m), the time-reversed momentum, which is always in the set
    val = free_bubble(small_spec, small_M, (0, (0,)))
    # a_{-k} = abar_k (k0 flips sign, e is even), so each term is 1/|a_k|^2
    expected = np.sum(1.0 / (small_M.a * np.conj(small_M.a)))
    assert val == pytest.approx(complex(expected) / small_spec.kappa, rel=1e-12)


def test_gaussian_report(desk_spec, desk_qf):
    rep = bl.gaussian_report(desk_spec, desk_qf)
    assert rep.log_z2 == bl.log_z2(desk_spec, desk_qf)
    assert rep.eps_int2 == pytest.approx(bl.eps_int2(desk_spec, desk_qf))
    assert len(rep.lambda2) == len(desk_qf.transfer) - 1
    assert "included" in rep.q0_zero_handling
    # lambda2 is aligned to the nonzero transfers
    Q = desk_qf.transfer
    nz = Q.nonzero
    assert Q.zero_index not in nz and len(nz) == len(Q) - 1
    for j in (0, 17, len(nz) - 1):
        assert rep.lambda2[j] == bl.lambda2(desk_spec, desk_qf, int(nz[j]))


def test_lambda2_array_matches_scalar_formula(desk_spec, desk_qf):
    # the array form is bit for bit the per-transfer complex arithmetic
    nz = desk_qf.transfer.nonzero
    got = bl.lambda2(desk_spec, desk_qf, nz)
    ref = []
    for i in nz:
        a, b, g = desk_qf.alpha[i], desk_qf.beta_coef[i], desk_qf.gamma[i]
        den = a * a + g * g + 2.0 * a * b
        ref.append((complex(a + b, g) / den - 1.0) / desk_spec.lam)
    assert np.array_equal(got, np.array(ref))


def test_index_and_array_paths_agree_d2():
    # one transfer index and an index array give the same bits: at d=2 L=8 a
    # scalar alpha**2 (libm pow) missed the array square by one ulp
    probe = bl.ModelSpec(d=2, L=8.0, beta=8.0, nu=20.0, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=2, L=8.0, beta=8.0, nu=20.0, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    Q = bl.build_transfer_set(M)
    qf = bl.coefficients(spec, M, Q, bl.solve_gap(spec, M).r0, 0.0)
    nz = Q.nonzero
    dens = pair_denominator(qf.alpha[nz], qf.beta_coef[nz], qf.gamma[nz])
    lam2 = bl.lambda2(spec, qf, nz)
    for j, i in enumerate(nz.tolist()):
        assert pair_denominator(qf.alpha[i], qf.beta_coef[i], qf.gamma[i]) == dens[j], i
        assert bl.lambda2(spec, qf, i) == lam2[j], i


def test_sums_match_sequential_loops(desk_spec, desk_qf):
    # eps_int2 and log z2 sum with np.sum; a sequential loop differs by rounding only
    Q = desk_qf.transfer
    total = 0.0 + 0.0j
    for i in Q.nonzero:
        total += bl.lambda2(desk_spec, desk_qf, int(i))
    eps = total.real / desk_spec.kappa
    assert bl.eps_int2(desk_spec, desk_qf, include_zero_mode=False) == pytest.approx(
        eps, rel=1e-13
    )
    center = math.sqrt(desk_spec.kappa) * desk_qf.r0
    log_val = -desk_qf.v_min + math.log(2.0 * _radial_moments(desk_qf.beta0, center)[1])
    for i in range(Q.zero_index + 1, len(Q)):
        a, b, g = desk_qf.alpha[i], desk_qf.beta_coef[i], desk_qf.gamma[i]
        log_val += math.log(1.0 / pair_denominator(a, b, g))
    assert bl.log_z2(desk_spec, desk_qf) == pytest.approx(log_val, rel=1e-13)


@pytest.mark.parametrize("factor", [1.2, 2.0, 5.0])
@pytest.mark.parametrize("lattice", [(1, 4.0, 2.0, 4.0), (1, 16.0, 8.0, 20.0),
                                     (1, 32.0, 8.0, 20.0), (2, 4.0, 2.0, 4.0)],
                         ids=["d1-L4", "d1-L16", "d1-L32", "d2-L4"])
def test_lambda2_zero_closed_form_vs_quadrature(lattice, factor):
    d, L, beta, nu = lattice
    probe = bl.ModelSpec(d=d, L=L, beta=beta, nu=nu, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=d, L=L, beta=beta, nu=nu, lam=factor * lam_c)
    M = bl.build_momentum_set(spec)
    sol = bl.solve_gap(spec, M)
    qf = bl.coefficients(spec, M, bl.build_transfer_set(M), sol.r0, 0.0)
    assert bl.lambda2_zero(spec, qf) == pytest.approx(
        lambda2_zero_quadrature(spec, qf), rel=1e-12
    )


def test_lambda2_zero_flat_radial_mode(desk_spec, desk_qf):
    flat = dataclasses.replace(desk_qf, beta0=0.0)
    with pytest.raises(FlatGaussianMode):
        bl.lambda2_zero(desk_spec, flat)
