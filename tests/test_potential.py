"""Log-determinants, the two potential routes and the BCS closed forms."""

import cmath
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest

import bcslab as bl
from bcslab import potential
from oracles import (
    difference, field_value, potential_external, potential_external_reduced, propagators,
    tilted_field,
)


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
    # an exact zero pivot raises SingularMatrixError, and LAPACK's LU warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bl.SingularMatrixError):
            bl.logdet(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))


def test_logdet_real_route():
    # the real part, which bound_report reads as Re V, is np.sum's pairwise
    # sum of log|U_ii| over LAPACK's LU, a float close to numpy's slogdet
    from scipy.linalg.lapack import zgetrf

    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9, 300):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = bl.logdet(A).real
        assert got == float(np.sum(np.log(np.abs(np.diag(zgetrf(A)[0])))))
        assert got == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12, abs=1e-14)
    with pytest.raises(ValueError, match="square"):
        bl.logdet(np.ones(3))
    for bad in (np.inf, np.nan, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            bl.logdet(np.array([[bad, 0.0], [0.0, 1.0]]))
    for singular in (np.zeros((3, 3)), np.ones((3, 3))):
        with pytest.raises(bl.SingularMatrixError):
            bl.logdet(singular)


def test_lapack_handle_matches_scipy():
    # the extension loaded from its file is scipy's own LAPACK: LU factors
    # and pivots bit for bit those of scipy.linalg.lapack, dense and banded
    from scipy.linalg import lapack

    handle = potential._lapack()
    assert handle.__name__.endswith("_flapack")
    assert handle.__name__ not in sys.modules
    rng = np.random.default_rng(11)
    A = np.asfortranarray(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    for got, want in zip(handle.zgetrf(A), lapack.zgetrf(A)):
        assert np.array_equal(got, want)
    B = _banded(_near_diagonal(30, seed=2))
    for got, want in zip(handle.zgbtrf(B.ab, B.kl, B.ku), lapack.zgbtrf(B.ab, B.kl, B.ku)):
        assert np.array_equal(got, want)


def test_lapack_handle_missing(monkeypatch):
    # no extension file: an ImportError naming the directory searched
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
    directory = os.path.join(scipy, "linalg")
    with pytest.raises(ImportError, match=re.escape(directory)):
        potential._load_flapack.__wrapped__()


def test_potential_real_singular_is_inf(desk_spec, desk_M, desk_Q, monkeypatch):
    # an exactly singular reduced matrix: det R = 0, so potential_reduced
    # raises and the bound chain reads Re V = +inf
    n = len(desk_M)
    monkeypatch.setattr(
        potential, "reduced_matrix", lambda spec, M, phi: np.ones((n, n), dtype=complex)
    )
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=4)
    with warnings.catch_warnings():  # LAPACK's zero pivot warns of nothing
        warnings.simplefilter("error")
        with pytest.raises(bl.SingularMatrixError):
            bl.potential_reduced(desk_spec, desk_M, phi)
        assert bl.bound_report(desk_spec, desk_M, phi).re_v == math.inf


def _near_diagonal(n, seed):
    """Positive diagonal plus a few small complex off-diagonal entries."""
    rng = np.random.default_rng(seed)
    A = np.diag(1.0 + rng.random(n)).astype(complex)
    k = rng.integers(0, n, size=(2 * n, 2))
    A[k[:, 0], k[:, 1]] += 0.05 * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))
    return A


def _banded(A):
    """A in LAPACK band storage, kl and ku read off its nonzeros."""
    i, j = np.nonzero(A)
    kl, ku = int(max(np.max(i - j), 0)), int(max(np.max(j - i), 0))
    ab = np.zeros((2 * kl + ku + 1, len(A)), dtype=complex, order="F")
    ab[kl + ku + i - j, j] = A[i, j]
    return bl.Banded(ab, kl, ku)


@pytest.mark.parametrize("odd", [False, True], ids=["near-diagonal", "odd-rows"])
def test_logdet_band_matches_dense(odd):
    # a swap of two rows makes the pivoting permutation odd: Im picks up pi.
    # The random entries spread the bands over most of the matrix, and the
    # swap moves the first row's diagonal entry five below it
    for seed in range(4):
        A = _near_diagonal(12, seed)
        if odd:
            A[[0, 5]] = A[[5, 0]]
        dense = bl.logdet(A)
        band = bl.logdet(_banded(A))
        assert abs(band - dense) <= 1e-12 * abs(dense)
        assert abs(dense.imag - (math.pi if odd else 0.0)) < 0.5


def test_logdet_band_validation():
    singular = _banded(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))
    with pytest.raises(bl.SingularMatrixError):
        bl.logdet(singular)
    with warnings.catch_warnings():  # as the dense LU: no warning on the way
        warnings.simplefilter("error")
        with pytest.raises(bl.SingularMatrixError):
            bl.logdet(singular)
    A = _near_diagonal(4, seed=0)
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        bl.logdet(_banded(A))
    with pytest.raises(ValueError, match="rows"):
        bl.logdet(bl.Banded(np.eye(3, dtype=complex)[:, :2], 1, 1))


def test_phi_matrix_entries(small_M, small_Q, small_spec):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=0)
    Phi = bl.phi_matrix(small_M, phi)
    for i in range(len(small_M)):
        for j in range(len(small_M)):
            assert Phi[i, j] == phi.values[difference(small_M, small_Q, i, j)]


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
        full = bl.potential_full(desk_spec, desk_M, phi)
        red = bl.potential_reduced(desk_spec, desk_M, phi)
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
    base_red = bl.potential_reduced(desk_spec, desk_M, phi)
    base_full = bl.potential_full(desk_spec, desk_M, phi)
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        rot = phi.copy()
        rot.values = np.exp(1j * theta) * phi.values
        red = bl.potential_reduced(desk_spec, desk_M, rot)
        assert red.real == pytest.approx(base_red.real, abs=1e-12 * max(1, abs(base_red.real)))
        assert red.imag == pytest.approx(base_red.imag, abs=1e-10)
        full = bl.potential_full(desk_spec, desk_M, rot)
        assert full.real == pytest.approx(base_full.real, abs=1e-12 * max(1, abs(base_full.real)))
        assert cmath.exp(1j * full.imag) == pytest.approx(
            cmath.exp(1j * base_full.imag), abs=1e-9
        )


def test_potential_at_zero_field(desk_spec, desk_M, desk_Q):
    phi = bl.FieldConfig(desk_Q, np.zeros(len(desk_Q), dtype=complex))
    assert bl.potential_full(desk_spec, desk_M, phi) == 0.0


def test_potential_lambda_zero(desk_M, desk_Q):
    spec0 = bl.ModelSpec(lam=0.0)
    phi = bl.random_config(spec0, desk_Q, 1.0, seed=12)
    v = bl.potential_full(spec0, desk_M, phi)
    assert v == pytest.approx(float(np.sum(np.abs(phi.values) ** 2)), rel=1e-14)


def test_potential_real_matches_total(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=13)
    assert bl.potential_reduced(desk_spec, desk_M, phi).real == pytest.approx(
        bl.potential_full(desk_spec, desk_M, phi).real, rel=1e-14
    )


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0])
def test_potential_real_is_reduced_route(desk_spec, desk_M, desk_Q, scale):
    # Re V is branch-free, so the 2 pi k offsets between the routes' imaginary
    # parts at the larger scales leave it untouched; the bound chain's Re V is
    # the reduced route's real part, bit for bit
    for seed in range(3):
        phi = bl.random_config(desk_spec, desk_Q, scale, seed=seed)
        re_v = bl.bound_report(desk_spec, desk_M, phi).re_v
        full = bl.potential_full(desk_spec, desk_M, phi).real
        assert abs(re_v - full) <= 1e-12 * (1.0 + abs(full))
        assert re_v == bl.potential_reduced(desk_spec, desk_M, phi).real


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
        v = bl.potential_reduced(desk_spec, desk_M, phi)
        assert v.real == pytest.approx(desk_sol.v_min_sum, rel=1e-10)
        assert abs(v.imag) < 1e-8
        vf = bl.potential_full(desk_spec, desk_M, phi)
        assert vf.real == pytest.approx(desk_sol.v_min_sum, rel=1e-10)
        # full-route imaginary part vanishes mod 2 pi
        assert abs(cmath.exp(1j * vf.imag) - 1.0) < 1e-8


def test_potential_real_bcs_row_d2():
    # verify-bound's bcs row at d=2 L=8 (N = 1400): Re V is the difference of
    # two sums over 1400 momenta, and the pairwise sum of log|U_ii| keeps it
    # within 5e-14 of the closed form
    probe = bl.ModelSpec(d=2, L=8.0, beta=8.0, nu=20.0, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=2, L=8.0, beta=8.0, nu=20.0, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    Q = bl.build_transfer_set(M)
    sol = bl.solve_gap(spec, M)
    re_v = bl.potential_reduced(spec, M, bl.bcs_config(spec, Q, sol.r0, 0.0)).real
    assert abs(re_v - sol.v_min_sum) <= 5e-14


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
    props = propagators(small_spec, small_M, phi)
    for i in range(len(small_M)):
        F, G = props[i]
        assert F == pytest.approx(inv[i, i], rel=1e-10, abs=1e-12)
        assert G == pytest.approx(inv[n + i, i], rel=1e-10, abs=1e-12)


def test_propagators_free_limit(small_spec, small_M, small_Q):
    phi = bl.FieldConfig(small_Q, np.zeros(len(small_Q), dtype=complex))
    props = propagators(small_spec, small_M, phi)
    for i in range(len(small_M)):
        F, G = props[i]
        assert F == pytest.approx(1.0 / small_M.a[i], rel=1e-14)
        assert G == 0.0


def test_external_field_validation():
    with pytest.raises(ValueError):
        bl.ExternalField(magnitude=-1.0)
    r = bl.ExternalField(0.5, math.pi / 3)
    assert field_value(r) == pytest.approx(0.5 * cmath.exp(1j * math.pi / 3))


def test_external_reduces_at_zero(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 0.5, seed=21)
    r0 = bl.ExternalField(0.0)
    plain = bl.potential_full(desk_spec, desk_M, phi)
    ext = potential_external(desk_spec, desk_M, phi, r0)
    assert ext == plain


def test_external_zero_field_ignores_phase(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 0.5, seed=21)
    r0 = bl.ExternalField(0.0, 0.7)
    assert np.array_equal(tilted_field(phi, r0).values, phi.values)
    plain = bl.potential_full(desk_spec, desk_M, phi)
    assert potential_external(desk_spec, desk_M, phi, r0) == plain


def test_external_routes_agree(desk_spec, desk_M, desk_Q, desk_sol):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    base = bl.bcs_config(desk_spec, desk_Q, abs(sol.y0), -math.pi / 2)
    pert = bl.random_config(desk_spec, desk_Q, 1e-2, seed=30)
    cfg = bl.FieldConfig(desk_Q, base.values + pert.values)
    full = potential_external(desk_spec, desk_M, cfg, r)
    red = potential_external_reduced(desk_spec, desk_M, cfg, r)
    assert full.real == pytest.approx(red.real, rel=1e-10)
    assert full.imag == pytest.approx(red.imag, abs=1e-8)


def test_external_minimum_value(desk_spec, desk_M, desk_Q):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    base = bl.bcs_config(desk_spec, desk_Q, abs(sol.y0), -math.pi / 2)
    val = potential_external_reduced(desk_spec, desk_M, base, r)
    assert val.real == pytest.approx(sol.v_min_sum, abs=1e-10)
    assert abs(val.imag) < 1e-10


def test_tilted_field(desk_spec, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=14)
    r = bl.ExternalField(1e-2, 0.9)
    out = tilted_field(phi, r)
    assert out.values[desk_Q.zero_index] == pytest.approx(
        phi.values[desk_Q.zero_index] * cmath.exp(1j * 0.9)
    )
    mask = np.ones(len(desk_Q), dtype=bool)
    mask[desk_Q.zero_index] = False
    assert np.array_equal(out.values[mask], phi.values[mask])
