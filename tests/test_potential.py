"""Log-determinants, the two potential routes and the BCS closed forms."""

import cmath
import math

import numpy as np
import pytest

import bcslab as bl


def test_logdet_against_slogdet():
    rng = np.random.default_rng(5)
    for n in (2, 5, 9):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ld = bl.logdet(A)
        sign, logabs = np.linalg.slogdet(A)
        assert ld.real == pytest.approx(logabs, rel=1e-12)
        # the real part is branch-free; the imaginary part agrees mod 2 pi
        assert cmath.exp(1j * ld.imag) == pytest.approx(sign, abs=1e-10)


def test_logdet_near_identity_branch():
    # for a small perturbation of the identity the per-pivot principal branch
    # reproduces the analytic log det exactly, not just mod 2 pi
    rng = np.random.default_rng(1)
    A = np.eye(6) + 0.01 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    expected = complex(np.sum(np.log(np.linalg.eigvals(A))))
    assert bl.logdet(A) == pytest.approx(expected, abs=1e-12)


def test_logdet_validation():
    with pytest.raises(ValueError):
        bl.logdet(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        bl.logdet(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(bl.SingularMatrixError):
        bl.logdet(np.zeros((3, 3)))


def test_phi_matrix_entries(small_M, small_Q, small_spec):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=0)
    Phi = bl.phi_matrix(small_M, phi)
    for i in range(len(small_M)):
        for j in range(len(small_M)):
            assert Phi[i, j] == phi.values[small_Q.diff_index[i, j]]


def test_block_structure(small_spec, small_M, small_Q):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=4)
    n = len(small_M)
    block = bl.assemble_block(small_spec, small_M, phi)
    assert np.array_equal(block[:n, :n], np.eye(n))
    assert np.array_equal(block[n:, n:], np.eye(n))
    pref = 1j * small_spec.g / math.sqrt(small_spec.kappa)
    Phi = bl.phi_matrix(small_M, phi)
    C = np.diag(1.0 / small_M.a)
    assert np.allclose(block[:n, n:], C @ (pref * Phi.conj().T))
    assert np.allclose(block[n:, :n], np.conj(C) @ (pref * Phi))


def test_route_equivalence_real(desk_spec, desk_M, desk_Q):
    for seed in range(10):
        phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=seed)
        full = bl.potential_full(desk_spec, desk_M, phi).total
        red = bl.potential_reduced(desk_spec, desk_M, phi).total
        assert abs(full.real - red.real) <= 1e-10 * (1.0 + abs(full.real))


def test_route_equivalence_det(small_spec, small_M, small_Q):
    # the determinants themselves agree, so the routes differ at most in the
    # branch of the imaginary part
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=6)
    det_full = np.linalg.det(bl.assemble_block(small_spec, small_M, phi))
    det_red = np.linalg.det(bl.reduced_matrix(small_spec, small_M, phi))
    assert det_full == pytest.approx(det_red, rel=1e-10)


def test_u1_invariance(desk_spec, desk_M, desk_Q):
    # the reduced product is invariant under a global phase, so both parts
    # match exactly there; the full route matches in the real part, while its
    # per-pivot imaginary part is only defined mod 2 pi
    phi = bl.random_config(desk_spec, desk_Q, 0.7, seed=9)
    base_red = bl.potential_reduced(desk_spec, desk_M, phi).total
    base_full = bl.potential_full(desk_spec, desk_M, phi).total
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        rot = phi.copy()
        rot.values = np.exp(1j * theta) * phi.values
        red = bl.potential_reduced(desk_spec, desk_M, rot).total
        assert red.real == pytest.approx(base_red.real, abs=1e-12 * max(1, abs(base_red.real)))
        assert red.imag == pytest.approx(base_red.imag, abs=1e-10)
        full = bl.potential_full(desk_spec, desk_M, rot).total
        assert full.real == pytest.approx(base_full.real, abs=1e-12 * max(1, abs(base_full.real)))
        assert cmath.exp(1j * full.imag) == pytest.approx(
            cmath.exp(1j * base_full.imag), abs=1e-9
        )


def test_potential_at_zero_field(desk_spec, desk_M, desk_Q):
    phi = bl.FieldConfig(desk_Q, np.zeros(len(desk_Q), dtype=complex))
    assert bl.potential_full(desk_spec, desk_M, phi).total == 0.0


def test_potential_lambda_zero(desk_M, desk_Q):
    spec0 = bl.ModelSpec(lam=0.0)
    phi = bl.random_config(spec0, desk_Q, 1.0, seed=12)
    v = bl.potential_full(spec0, desk_M, phi).total
    assert v == pytest.approx(float(np.sum(np.abs(phi.values) ** 2)), rel=1e-14)


def test_potential_real_matches_total(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=13)
    assert bl.potential_real(desk_spec, desk_M, phi) == pytest.approx(
        bl.potential_full(desk_spec, desk_M, phi).total.real, rel=1e-14
    )


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0])
def test_potential_real_is_reduced_route(desk_spec, desk_M, desk_Q, scale):
    # Re V is branch-free, so the 2 pi k offsets between the routes' imaginary
    # parts at the larger scales leave it untouched
    for seed in range(3):
        phi = bl.random_config(desk_spec, desk_Q, scale, seed=seed)
        re_v = bl.potential_real(desk_spec, desk_M, phi)
        full = bl.potential_full(desk_spec, desk_M, phi).total.real
        assert abs(re_v - full) <= 1e-12 * (1.0 + abs(full))
        assert re_v == bl.potential_reduced(desk_spec, desk_M, phi).total.real


def test_vbcs_sum_brute(desk_spec, desk_M):
    rho = 0.4
    acc = 0.0
    for i in range(len(desk_M)):
        absa2 = desk_M.k0[i] ** 2 + desk_M.e[i] ** 2
        acc += math.log(1.0 + desk_spec.lam * rho**2 / absa2)
    assert bl.vbcs_sum(desk_spec, desk_M, rho) == pytest.approx(
        desk_spec.kappa * rho**2 - acc, rel=1e-12
    )
    with pytest.raises(ValueError):
        bl.vbcs_sum(desk_spec, desk_M, -0.1)


def test_vbcs_at_bcs_config(desk_spec, desk_M, desk_Q, desk_sol):
    for theta in (0.0, 1.1, -2.0):
        phi = bl.bcs_config(desk_spec, desk_Q, desk_sol.r0, theta)
        v = bl.potential_reduced(desk_spec, desk_M, phi).total
        assert v.real == pytest.approx(desk_sol.v_min_sum, rel=1e-10)
        assert abs(v.imag) < 1e-8
        vf = bl.potential_full(desk_spec, desk_M, phi).total
        assert vf.real == pytest.approx(desk_sol.v_min_sum, rel=1e-10)
        # full-route imaginary part vanishes mod 2 pi
        assert abs(cmath.exp(1j * vf.imag) - 1.0) < 1e-8


def test_vbcs_cosh_is_full_sum_limit():
    # the cosh form equals the Matsubara sum without frequency cutoff; the
    # cutoff sum approaches it as nu grows
    rho = 0.3
    errs = []
    for nu in (20.0, 80.0, 320.0):
        spec = bl.ModelSpec(nu=nu, lam=2.0)
        M = bl.build_momentum_set(spec)
        errs.append(abs(bl.vbcs_sum(spec, M, rho) - bl.vbcs_cosh(spec, M, rho)))
    # first-order convergence in the frequency cutoff
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1 * errs[0]


def test_vbcs_cosh_closed_form(desk_spec, desk_M):
    rho = 0.25
    acc = 0.0
    for e in desk_M.spatial_e:
        E = math.sqrt(e**2 + desk_spec.lam * rho**2)
        num = math.cosh(0.5 * desk_spec.beta * E) ** 2
        den = math.cosh(0.5 * desk_spec.beta * abs(e)) ** 2
        acc += math.log(num / den)
    assert bl.vbcs_cosh(desk_spec, desk_M, rho) == pytest.approx(
        desk_spec.kappa * rho**2 - acc, rel=1e-12
    )


def test_propagators_dense_inverse(small_spec, small_M, small_Q):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=8)
    n = len(small_M)
    pref = 1j * small_spec.g / math.sqrt(small_spec.kappa)
    Phi = bl.phi_matrix(small_M, phi)
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = np.diag(small_M.a)
    A[n:, n:] = np.diag(np.conj(small_M.a))
    A[:n, n:] = pref * Phi.conj().T
    A[n:, :n] = pref * Phi
    inv = np.linalg.inv(A)
    props = bl.propagators(small_spec, small_M, phi)
    for i, k in enumerate(small_M.momenta):
        F, G = props[k]
        assert F == pytest.approx(inv[i, i], rel=1e-10, abs=1e-12)
        assert G == pytest.approx(inv[n + i, i], rel=1e-10, abs=1e-12)


def test_propagators_free_limit(small_spec, small_M, small_Q):
    phi = bl.FieldConfig(small_Q, np.zeros(len(small_Q), dtype=complex))
    props = bl.propagators(small_spec, small_M, phi)
    for i, k in enumerate(small_M.momenta):
        F, G = props[k]
        assert F == pytest.approx(1.0 / small_M.a[i], rel=1e-14)
        assert G == 0.0


def test_external_field_validation():
    with pytest.raises(ValueError):
        bl.ExternalField(magnitude=-1.0)
    r = bl.ExternalField(0.5, math.pi / 3)
    assert r.value == pytest.approx(0.5 * cmath.exp(1j * math.pi / 3))


def test_external_reduces_at_zero(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 0.5, seed=21)
    r0 = bl.ExternalField(0.0)
    plain = bl.potential_full(desk_spec, desk_M, phi).total
    ext = bl.potential_external(desk_spec, desk_M, phi, r0).total
    assert ext == plain


def test_external_routes_agree(desk_spec, desk_M, desk_Q, desk_sol):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    base = bl.bcs_config(desk_spec, desk_Q, abs(sol.y0), -math.pi / 2)
    pert = bl.random_config(desk_spec, desk_Q, 1e-2, seed=30)
    cfg = bl.FieldConfig(desk_Q, base.values + pert.values)
    full = bl.potential_external(desk_spec, desk_M, cfg, r).total
    red = bl.potential_external_reduced(desk_spec, desk_M, cfg, r).total
    assert full.real == pytest.approx(red.real, rel=1e-10)
    assert full.imag == pytest.approx(red.imag, abs=1e-8)


def test_external_minimum_value(desk_spec, desk_M, desk_Q):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    base = bl.bcs_config(desk_spec, desk_Q, abs(sol.y0), -math.pi / 2)
    val = bl.potential_external_reduced(desk_spec, desk_M, base, r).total
    assert val.real == pytest.approx(sol.v_min_sum, abs=1e-10)
    assert abs(val.imag) < 1e-10


def test_tilted_field(desk_spec, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=14)
    r = bl.ExternalField(1e-2, 0.9)
    out = bl.tilted_field(phi, r)
    assert out.values[desk_Q.zero_index] == pytest.approx(
        phi.values[desk_Q.zero_index] * cmath.exp(1j * 0.9)
    )
    mask = np.ones(len(desk_Q), dtype=bool)
    mask[desk_Q.zero_index] = False
    assert np.array_equal(out.values[mask], phi.values[mask])
