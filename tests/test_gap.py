"""Gap equation solver and its external-field variant."""

import math

import numpy as np
import pytest

import bcslab as bl


def test_gap_lhs_decreasing(desk_spec, desk_M):
    grid = np.linspace(0.0, 4.0, 100)
    vals = [bl.gap_lhs(desk_spec, desk_M, d) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bl.gap_lhs(desk_spec, desk_M, -1.0)


def test_gap_lhs_brute(desk_spec, desk_M):
    delta_sq = 0.7
    acc = sum(
        1.0 / (desk_M.k0[i] ** 2 + desk_M.e[i] ** 2 + delta_sq)
        for i in range(len(desk_M))
    )
    assert bl.gap_lhs(desk_spec, desk_M, delta_sq) == pytest.approx(
        desk_spec.lam / desk_spec.kappa * acc, rel=1e-12
    )


def test_critical_coupling(desk_spec, desk_M):
    lam_c = bl.critical_coupling(desk_spec, desk_M)
    # at lambda = lambda_c the zero-gap left-hand side is exactly 1
    probe = bl.ModelSpec(lam=lam_c)
    assert bl.gap_lhs(probe, desk_M, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_solve_gap_residual(desk_spec, desk_M, desk_sol):
    assert desk_sol.residual <= 1e-12
    assert not desk_sol.trivial
    assert desk_sol.r0 > 0
    assert desk_sol.delta_sq == desk_spec.lam * desk_sol.r0**2
    assert bl.gap_lhs(desk_spec, desk_M, desk_sol.delta_sq) == pytest.approx(
        1.0, abs=1e-12
    )


def test_trivial_below_critical(desk_M):
    lam_c = bl.critical_coupling(bl.ModelSpec(lam=1.0), desk_M)
    spec = bl.ModelSpec(lam=0.5 * lam_c)
    sol = bl.solve_gap(spec, desk_M)
    assert sol.trivial
    assert sol.r0 == 0.0
    assert sol.v_min_sum == 0.0


def test_minimum_is_stationary(desk_spec, desk_M, desk_sol):
    h = 1e-6
    d = (
        bl.vbcs_sum(desk_spec, desk_M, desk_sol.r0 + h)
        - bl.vbcs_sum(desk_spec, desk_M, desk_sol.r0 - h)
    ) / (2.0 * h)
    assert abs(d) <= 1e-6 * desk_spec.kappa


def test_minimum_is_lower(desk_spec, desk_M, desk_sol):
    vmin = desk_sol.v_min_sum
    for rho in (0.0, 0.5 * desk_sol.r0, 1.5 * desk_sol.r0, 3.0 * desk_sol.r0):
        if rho != desk_sol.r0:
            assert bl.vbcs_sum(desk_spec, desk_M, rho) > vmin


def test_solver_input_validation(desk_spec, desk_M):
    with pytest.raises(ValueError):
        bl.solve_gap(desk_spec, desk_M, tol=-1.0)


def test_external_minimizer(desk_spec, desk_M):
    r = bl.ExternalField(1e-2)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    assert sol.y0 < 0
    assert sol.residual <= 1e-12
    # the minimizer beats nearby values of vbcs_r
    vmin = bl.vbcs_r(desk_spec, desk_M, sol.y0, r)
    assert vmin == sol.v_min_sum
    for dy in (-1e-3, 1e-3):
        assert bl.vbcs_r(desk_spec, desk_M, sol.y0 + dy, r) > vmin


@pytest.mark.parametrize("mag", [1e-20, 1e-2, 1e3])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_external_minimizer_both_phases(small_spec, small_M, factor, mag):
    # the bracket starts at y = -|r|/g, so a root far inside any fixed bracket
    # end, such as y0 ~ -1e-20 in the trivial phase, is found too
    spec = bl.ModelSpec(d=1, L=4.0, beta=2.0, nu=4.0, lam=factor * small_spec.lam / 2.0)
    r = bl.ExternalField(mag)
    sol = bl.solve_gap_external(spec, small_M, r)
    ratio = mag / spec.g
    assert sol.y0 < -ratio
    residual = bl.gap_lhs(spec, small_M, spec.lam * sol.y0**2) - 1.0 + ratio / abs(sol.y0)
    assert sol.residual <= 1e-12 and abs(residual) <= 1e-12
    vmin = bl.vbcs_r(spec, small_M, sol.y0, r)
    for dy in (-1e-3 * sol.y0, 1e-3 * sol.y0):
        assert bl.vbcs_r(spec, small_M, sol.y0 + dy, r) > vmin


@pytest.mark.parametrize("mag", [2e-61, 1e-300])
def test_external_tiny_field(desk_spec, desk_M, desk_sol, mag):
    # r0 g/|r| is far beyond 2^200 bracket doublings from -2|r|/g: the outer
    # end starts at -2 r0 instead, and y0 is the zero-field gap to within tol
    sol = bl.solve_gap_external(desk_spec, desk_M, bl.ExternalField(mag))
    ratio = mag / desk_spec.g
    residual = bl.gap_lhs(desk_spec, desk_M, desk_spec.lam * sol.y0**2) - 1.0 + ratio / abs(sol.y0)
    assert sol.residual <= 1e-12 and abs(residual) <= 1e-12
    assert sol.y0 == pytest.approx(-desk_sol.r0, rel=1e-9)


def test_external_equation_of_state(desk_spec, desk_M):
    r = bl.ExternalField(1e-3)
    sol = bl.solve_gap_external(desk_spec, desk_M, r)
    ratio = r.magnitude / desk_spec.g
    lhs = bl.gap_lhs(desk_spec, desk_M, desk_spec.lam * sol.y0**2)
    assert lhs == pytest.approx(1.0 - ratio / abs(sol.y0), abs=1e-12)


def test_external_small_field_limit(desk_spec, desk_M, desk_sol):
    errs = []
    for mag in (1e-2, 1e-3, 1e-4):
        sol = bl.solve_gap_external(desk_spec, desk_M, bl.ExternalField(mag))
        errs.append(abs(desk_spec.lam * sol.y0**2 - desk_spec.lam * desk_sol.r0**2))
    assert errs[0] > errs[1] > errs[2]


def test_external_validation(desk_spec, desk_M):
    with pytest.raises(ValueError):
        bl.solve_gap_external(desk_spec, desk_M, bl.ExternalField(0.0))
    spec0 = bl.ModelSpec(lam=0.0)
    with pytest.raises(ValueError):
        bl.solve_gap_external(spec0, desk_M, bl.ExternalField(1e-2))


def test_vbcs_r_needs_lambda(desk_M):
    spec0 = bl.ModelSpec(lam=0.0)
    with pytest.raises(ValueError, match="lambda > 0"):
        bl.vbcs_r(spec0, desk_M, -0.4, bl.ExternalField(1e-2, 0.4))
    # the zero field is no field: V_BCS itself
    assert bl.vbcs_r(spec0, desk_M, -0.4, bl.ExternalField()) == bl.vbcs_sum(spec0, desk_M, 0.4)


def test_vbcs_r_reduces_to_vbcs_sum(desk_spec, desk_M):
    y = -0.4
    r0 = bl.ExternalField(0.0)
    assert bl.vbcs_r(desk_spec, desk_M, y, r0) == pytest.approx(
        bl.vbcs_sum(desk_spec, desk_M, abs(y)), rel=1e-12
    )


def cosh_form_oracle(spec, M, y, ratio):
    """kappa (y + ratio)^2 - sum over the spatial momenta of
    log[cosh^2(beta E/2)/cosh^2(beta |e|/2)], E^2 = e^2 + lam y^2, by scalar math."""
    acc = 0.0
    for e in M.spatial_e:
        E = math.sqrt(e**2 + spec.lam * y**2)
        num = math.cosh(0.5 * spec.beta * E) ** 2
        den = math.cosh(0.5 * spec.beta * abs(e)) ** 2
        acc += math.log(num / den)
    return spec.kappa * (y + ratio) ** 2 - acc


@pytest.mark.parametrize("case", ["nontrivial", "trivial", "external"])
def test_v_min_cosh(desk_spec, desk_M, desk_lambda_c, case):
    if case == "external":
        r = bl.ExternalField(1e-2, 0.4)
        sol = bl.solve_gap_external(desk_spec, desk_M, r)
        expected = cosh_form_oracle(desk_spec, desk_M, sol.y0, r.magnitude / desk_spec.g)
    else:
        factor = 2.0 if case == "nontrivial" else 0.5
        spec = bl.ModelSpec(d=1, L=16.0, beta=8.0, nu=20.0, lam=factor * desk_lambda_c)
        sol = bl.solve_gap(spec, desk_M)
        assert sol.trivial == (case == "trivial")
        expected = cosh_form_oracle(spec, desk_M, sol.r0, 0.0)
    assert sol.v_min_cosh == pytest.approx(expected, rel=1e-12)
