"""Hadamard lower bound on Re V and the bound chain."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import bcslab as bl
from oracles import (
    difference, index_of, labels, overlap_matrices, overlap_prime_sq, overlap_sq
)


def brute_autocorrelation(phi, q):
    Q = phi.transfer
    index = index_of(Q)
    qn, qm = labels(Q)[q]
    acc = 0.0 + 0.0j
    for i, (n0, m) in enumerate(labels(Q)):
        key = (n0 + qn, tuple(a + b for a, b in zip(m, qm)))
        j = index.get(key)
        if j is not None:
            acc += phi.values[i] * np.conj(phi.values[j])
    return acc


def test_overlap_sq_oracle(small_spec, small_M, small_Q):
    # |(e_k, e_t)|^2 rebuilt from a brute-force field autocorrelation
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=5)
    den = small_M.k0**2 + small_M.e**2 + small_spec.lam * bl.field_norm(phi)
    ratio = small_spec.lam / small_spec.kappa
    for ik in range(len(small_M)):
        for it in range(len(small_M)):
            q = difference(small_M, small_Q, it, ik)
            val = abs(ratio * brute_autocorrelation(phi, q)) ** 2
            val /= den[ik] * den[it]
            got = overlap_sq(small_spec, small_M, phi, ik, it)
            assert got == pytest.approx(val, rel=1e-10, abs=1e-14)


def test_overlap_prime_sq_oracle(small_spec, small_M, small_Q):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=6)
    den = small_M.k0**2 + small_M.e**2 + small_spec.lam * bl.field_norm(phi)
    ratio = small_spec.lam / small_spec.kappa
    for ik in range(len(small_M)):
        for it in range(len(small_M)):
            phi_tk = phi.values[difference(small_M, small_Q, it, ik)]
            val = ratio * abs(phi_tk) ** 2 * abs(small_M.a[it] - small_M.a[ik]) ** 2
            val /= den[ik] * den[it]
            got = overlap_prime_sq(small_spec, small_M, phi, ik, it)
            assert got == pytest.approx(val, rel=1e-12, abs=1e-15)


def test_overlap_matrices_match_scalars(small_spec, small_M, small_Q):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=7)
    o1, o2 = overlap_matrices(small_spec, small_M, phi)
    for ik in range(len(small_M)):
        for it in range(len(small_M)):
            assert o1[ik, it] == pytest.approx(
                overlap_sq(small_spec, small_M, phi, ik, it), rel=1e-10, abs=1e-14
            )
            assert o2[ik, it] == pytest.approx(
                overlap_prime_sq(small_spec, small_M, phi, ik, it),
                rel=1e-10,
                abs=1e-14,
            )


def _d2_lattice():
    probe = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    return spec, M, bl.build_transfer_set(M)


@pytest.mark.parametrize("lattice", ["small-d1", "d2-L4"])
def test_hadamard_rhs_matches_dense_deficits(request, monkeypatch, lattice):
    # deficits summed entry by entry from the scalar overlaps, under the
    # package's clamp and under a clamp of 0.99 that binds on many entries
    # (no Gram overlap exceeds 1, so 1e-300 binds only where rounding
    # carries one to 1: on these fields, scale 10 included, it never does)
    if lattice == "small-d1":
        spec, M, Q = (request.getfixturevalue(f"small_{x}") for x in ("spec", "M", "Q"))
    else:
        spec, M, Q = _d2_lattice()
    n = len(M)
    pairs = [(k, t) for t in range(n) for k in range(n) if k != t]
    for phi in (bl.random_config(spec, Q, 1.0, seed=0), bl.random_config(spec, Q, 10.0, seed=3)):
        overlaps = [
            (t, o)
            for k, t in pairs
            for o in (overlap_sq(spec, M, phi, k, t), overlap_prime_sq(spec, M, phi, k, t))
        ]
        vb = bl.vbcs_sum(spec, M, math.sqrt(bl.field_norm(phi)))
        for clamp in (bl.bound.EPS_CLAMP, 0.99):
            monkeypatch.setattr(bl.bound, "EPS_CLAMP", clamp)
            deficits = np.zeros(n)
            for t, o in overlaps:
                deficits[t] += 0.5 * math.log(max(1.0 - o, clamp))
            binding = sum(1.0 - o < clamp for _, o in overlaps)
            assert binding > 0 if clamp == 0.99 else binding == 0
            rhs, best = bl.hadamard_rhs(spec, M, phi)
            assert best == int(np.argmin(deficits))
            assert rhs == pytest.approx(vb - deficits.min(), rel=1e-10, abs=1e-12)


def test_overlaps_in_unit_interval(desk_spec, desk_M, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 2.0, seed=1)
    o1, o2 = overlap_matrices(desk_spec, desk_M, phi)
    for o in (o1, o2):
        assert np.all(o >= 0.0)
        assert np.all(o <= 1.0)


def test_rhs_is_at_least_vbcs(desk_spec, desk_M, desk_Q):
    for seed in range(5):
        phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=seed)
        rhs, t = bl.hadamard_rhs(desk_spec, desk_M, phi)
        vb = bl.vbcs_sum(desk_spec, desk_M, math.sqrt(bl.field_norm(phi)))
        assert rhs >= vb
        assert isinstance(t, int) and 0 <= t < len(desk_M)


def test_chain_random(desk_spec, desk_M, desk_Q):
    for seed in range(20):
        phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=100 + seed)
        rep = bl.bound_report(desk_spec, desk_M, phi)
        assert rep.chain_ok
        assert rep.re_v >= rep.rhs26 - rep.slack
        assert rep.rhs26 >= rep.vbcs_at_norm - rep.slack


def test_chain_at_bcs_config(desk_spec, desk_M, desk_Q, desk_sol):
    phi = bl.bcs_config(desk_spec, desk_Q, desk_sol.r0, 0.4)
    rep = bl.bound_report(desk_spec, desk_M, phi)
    assert rep.chain_ok
    # for the BCS configuration every off-diagonal overlap vanishes, so the
    # bound is saturated
    assert rep.rhs26 == pytest.approx(rep.vbcs_at_norm, abs=1e-12)
    assert rep.re_v == pytest.approx(rep.vbcs_at_norm, rel=1e-10)


def test_chain_large_scale(desk_spec, desk_M, desk_Q):
    # a scale-10 random field: the chain holds far from the minimum too.  Its
    # largest off-diagonal overlap is 0.0027, far from 1: EPS_CLAMP never binds
    phi = bl.random_config(desk_spec, desk_Q, 10.0, seed=3)
    rep = bl.bound_report(desk_spec, desk_M, phi)
    assert rep.chain_ok


def test_zero_field_chain(desk_spec, desk_M, desk_Q):
    phi = bl.FieldConfig(desk_Q, np.zeros(len(desk_Q), dtype=complex))
    rep = bl.bound_report(desk_spec, desk_M, phi)
    assert rep.chain_ok
    assert rep.re_v == 0.0
    assert rep.rhs26 == pytest.approx(0.0, abs=1e-12)


def _bound_fields(spec, Q, r0):
    """The zero field, the BCS field and random fields at scales 10, 1, 0.3 and 3."""
    return [
        bl.FieldConfig(Q, np.zeros(len(Q), dtype=complex)),
        bl.bcs_config(spec, Q, r0, 0.4),
        bl.random_config(spec, Q, 10.0, seed=3),
    ] + [bl.random_config(spec, Q, scale, seed) for seed, scale in ((0, 1.0), (1, 0.3), (2, 3.0))]


@pytest.mark.parametrize("lattice", ["small", "desk"])
def test_reused_scratch_matches_fresh_lattice(request, lattice):
    # one lattice's scratch buffers, reused across fields in interleaved
    # order and by the full route in between, give the report of a lattice
    # built afresh for each field
    spec = request.getfixturevalue(f"{lattice}_spec")
    M = request.getfixturevalue(f"{lattice}_M")
    Q = request.getfixturevalue(f"{lattice}_Q")
    r0 = request.getfixturevalue(f"{lattice}_sol").r0
    fields = _bound_fields(spec, Q, r0)
    fresh = []
    for phi in fields:
        Q1 = bl.build_transfer_set(M)
        fresh.append(bl.bound_report(spec, M, bl.FieldConfig(Q1, phi.values)))
    for i in (2, 0, 5, 1, 4, 3, 2, 5, 0):
        bl.potential_full(spec, M, fields[(i + 1) % len(fields)])
        assert bl.bound_report(spec, M, fields[i]) == fresh[i]


@pytest.mark.parametrize("lattice", ["small", "desk"])
def test_threads_share_a_lattice(request, lattice):
    # four threads, more than the cores CI has, evaluating fields of one
    # lattice at once in rotated orders and switching often: each works on
    # its own scratch buffers, so every report is the serial one, bit for bit
    spec = request.getfixturevalue(f"{lattice}_spec")
    M = request.getfixturevalue(f"{lattice}_M")
    Q = request.getfixturevalue(f"{lattice}_Q")
    fields = _bound_fields(spec, Q, request.getfixturevalue(f"{lattice}_sol").r0)
    serial = [bl.bound_report(spec, M, phi) for phi in fields]
    threads = 4
    start = threading.Barrier(threads)

    def run(shift):
        start.wait(timeout=60)
        order = [(i + shift) % len(fields) for i in range(len(fields))] * 3
        return [(i, bl.bound_report(spec, M, fields[i])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = list(pool.map(run, range(threads), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == threads
    for reports in runs:
        assert len(reports) == 3 * len(fields)
        for i, rep in reports:
            assert rep == serial[i], i


def test_bound_report_allocates_no_dense_matrix(desk_spec, desk_M, desk_Q, desk_sol):
    # after the first field has built the scratch buffers, a field's traced
    # allocations peak below 0.3 N x N complex arrays (0.3 N^2 16 bytes):
    # the larger of reduced_matrix's quarter block of rows (0.25) and the
    # Hadamard side's temporaries, which set the peak (0.28 at desk).  LAPACK
    # factors R in place, so no copy of it is made
    fields = _bound_fields(desk_spec, desk_Q, desk_sol.r0)
    bl.bound_report(desk_spec, desk_M, fields[-1])
    limit = 0.3 * len(desk_M) ** 2 * 16
    tracemalloc.start()
    try:
        for phi in fields:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bl.bound_report(desk_spec, desk_M, phi)
            assert tracemalloc.get_traced_memory()[1] - before < limit
    finally:
        tracemalloc.stop()
