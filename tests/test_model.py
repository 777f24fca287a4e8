"""Lattice sets, dispersions and field configurations."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

import bcslab as bl
from bcslab.model import dispersion_array, spatial_grid
from oracles import autocorrelation, dispersion, field_tilt, index_of, labels, nondegenerate


def test_desk_set_sizes(desk_M, desk_Q):
    assert len(desk_M) == 300
    assert len(desk_Q) == 1485


def test_momentum_set_is_product(desk_M):
    # every (n0, m) combination of the frequency range and surviving spatial
    # vectors is present exactly once
    assert len(desk_M) == len(desk_M.freq_n0) * len(desk_M.spatial_m)
    assert len(set(labels(desk_M))) == len(desk_M)


def test_energy_window(desk_spec, desk_M):
    assert np.all(np.abs(desk_M.e) <= desk_spec.energy_window + 1e-12)
    # a momentum outside the window is rejected
    kept = {tuple(m) for m in desk_M.spatial_m.tolist()}
    for m in spatial_grid(desk_spec).tolist():
        inside = abs(dispersion(desk_spec, m)) <= desk_spec.energy_window
        assert (tuple(m) in kept) == inside


def test_energy_window_nan_refused():
    # NaN passed the sign check and failed later as an empty cutoff set
    with pytest.raises(ValueError, match="^energy_window must be nonnegative"):
        bl.ModelSpec(energy_window=math.nan)


def test_energy_window_inf_keeps_every_momentum():
    # no window: the cutoff set is the whole spatial grid
    spec = bl.ModelSpec(energy_window=math.inf)
    M = bl.build_momentum_set(spec)
    assert len(M.spatial_m) == len(spatial_grid(spec))


def test_frequency_cutoff(desk_spec, desk_M):
    assert np.all(np.abs(desk_M.k0) <= desk_spec.nu)
    n_hi = int(desk_M.freq_n0.max())
    k_next = (math.pi / desk_spec.beta) * (2 * (n_hi + 1) + 1)
    assert k_next > desk_spec.nu


def test_dispersion_even(desk_spec):
    for m in spatial_grid(desk_spec).tolist():
        neg = tuple(-mi for mi in m)
        assert dispersion(desk_spec, m) == dispersion(desk_spec, neg)


def test_quadratic_dispersion():
    spec = bl.ModelSpec(
        d=1, L=8.0, beta=2.0, nu=4.0, lam=0.0, dispersion="quadratic", t=1.0,
        energy_window=5.0,
    )
    assert dispersion(spec, (2,)) == pytest.approx(0.5 * (2 * math.pi * 2 / 8.0) ** 2)


@pytest.mark.parametrize("L", [7.5, 4.000001, 0.5])
def test_tight_binding_refuses_non_integer_L(L):
    # L sites per axis: the momenta 2 pi m / L of a fractional ring are no lattice
    with pytest.raises(ValueError, match="^L must be an integer"):
        bl.ModelSpec(d=1, L=L, beta=2.0, nu=4.0)
    # an integer given as a float, as the config file reads it, stays valid
    assert bl.ModelSpec(d=1, L=8.0, beta=2.0, nu=4.0).L == 8


def test_quadratic_keeps_real_L():
    # there L is the side of a box, any positive real
    spec = bl.ModelSpec(d=1, L=7.5, beta=2.0, nu=4.0, dispersion="quadratic", t=1.0)
    assert spec.L == 7.5 and spec.kappa == 2.0 * 7.5
    assert len(bl.build_momentum_set(spec)) > 0


def test_dispersion_kind_rejected():
    with pytest.raises(ValueError):
        bl.ModelSpec(dispersion="linear")


def test_spec_validation():
    with pytest.raises(ValueError):
        bl.ModelSpec(d=4)
    with pytest.raises(ValueError):
        bl.ModelSpec(lam=-1.0)
    with pytest.raises(ValueError):
        bl.ModelSpec(beta=8.0, nu=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["L", "beta", "nu", "mu", "lam", "t"])
def test_spec_refuses_non_finite(name, value):
    # NaN passed the sign checks, and inf overflowed or was accepted
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        bl.ModelSpec(**{name: value})


def test_a_values(desk_spec, desk_M):
    for i, (n0, m) in enumerate(labels(desk_M)):
        k0 = (math.pi / desk_spec.beta) * (2 * n0 + 1)
        assert desk_M.a[i] == pytest.approx(1j * k0 - dispersion(desk_spec, m))


def test_transfer_negation_involution(desk_Q):
    assert np.all(desk_Q.neg_index[desk_Q.neg_index] == np.arange(len(desk_Q)))
    assert desk_Q.neg_index[desk_Q.zero_index] == desk_Q.zero_index


def test_gather_indexes_differences(small_M, small_Q):
    diff = small_Q.gather(np.arange(len(small_Q)))
    for i in range(len(small_M)):
        for j in range(len(small_M)):
            q = diff[i, j]
            assert small_Q.n0[q] == small_M.n0[i] - small_M.n0[j]
            assert np.array_equal(small_Q.mvec[q], small_M.mvec[i] - small_M.mvec[j])


def test_transfer_set_closure(desk_M, desk_Q):
    diffs = {(k[0] - p[0], tuple(np.subtract(k[1], p[1])))
             for k in labels(desk_M) for p in labels(desk_M)}
    assert diffs <= set(labels(desk_Q))


def test_nondegeneracy(desk_spec, desk_Q):
    assert bl.nondegeneracy_check(desk_spec, desk_Q)


def test_bcs_config(desk_spec, desk_Q):
    theta = 0.7
    phi = bl.bcs_config(desk_spec, desk_Q, 0.25, theta)
    z0 = phi.values[desk_Q.zero_index]
    assert abs(z0) == pytest.approx(0.25 * math.sqrt(desk_spec.kappa))
    assert math.atan2(z0.imag, z0.real) == pytest.approx(theta)
    mask = np.ones(len(desk_Q), dtype=bool)
    mask[desk_Q.zero_index] = False
    assert np.all(phi.values[mask] == 0)
    assert bl.field_norm(phi) == pytest.approx(0.25**2)
    with pytest.raises(ValueError):
        bl.bcs_config(desk_spec, desk_Q, -0.1, 0.0)


def test_random_config_reproducible(desk_spec, desk_Q):
    a = bl.random_config(desk_spec, desk_Q, 1.0, seed=7)
    b = bl.random_config(desk_spec, desk_Q, 1.0, seed=7)
    c = bl.random_config(desk_spec, desk_Q, 1.0, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_field_config_validation(desk_Q):
    with pytest.raises(ValueError):
        bl.FieldConfig(desk_Q, np.zeros(3))
    bad = np.zeros(len(desk_Q), dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        bl.FieldConfig(desk_Q, bad)


def test_autocorrelation_brute(small_spec, small_Q):
    phi = bl.random_config(small_spec, small_Q, 1.0, seed=3)
    index = index_of(small_Q)
    for iq, q in enumerate(labels(small_Q)):
        acc = 0.0 + 0.0j
        for i, p in enumerate(labels(small_Q)):
            key = (p[0] + q[0], tuple(a + b for a, b in zip(p[1], q[1])))
            j = index.get(key)
            if j is not None:
                acc += phi.values[i] * np.conj(phi.values[j])
        assert autocorrelation(phi, iq) == pytest.approx(acc, abs=1e-12)
        assert autocorrelation(phi, q) == pytest.approx(acc, abs=1e-12)


def test_autocorrelation_all_matches_pointwise(desk_spec, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=11)
    allvals = bl.autocorrelation_all(phi)
    rng = np.random.default_rng(0)
    for i in rng.choice(len(desk_Q), size=25, replace=False):
        assert allvals[int(i)] == pytest.approx(
            autocorrelation(phi, int(i)), rel=1e-10, abs=1e-10
        )


def test_autocorrelation_zero_transfer(desk_spec, desk_Q):
    phi = bl.random_config(desk_spec, desk_Q, 1.0, seed=2)
    assert autocorrelation(phi, desk_Q.zero_index) == pytest.approx(
        float(np.sum(np.abs(phi.values) ** 2))
    )


# --- dict-based oracles for the transfer-set index maps -------------------


def transfer_set_oracle(M):
    """Q and its index maps by per-pair tuple and dict lookups."""
    dn = sorted({int(a) - int(b) for a in M.freq_n0 for b in M.freq_n0})
    spatial = [tuple(m) for m in M.spatial_m.tolist()]
    dm = sorted({tuple(np.subtract(a, b).tolist()) for a in spatial for b in spatial})
    momenta = [(n, m) for n in dn for m in dm]
    index = {q: i for i, q in enumerate(momenta)}
    neg_index = np.array(
        [index[(-n, tuple(-mi for mi in m))] for n, m in momenta], dtype=int
    )
    diff_index = np.empty((len(M), len(M)), dtype=int)
    for i, j in itertools.product(range(len(M)), repeat=2):
        key = (int(M.n0[i] - M.n0[j]), tuple(M.mvec[i] - M.mvec[j]))
        diff_index[i, j] = index[key]
    return dict(
        n0=np.array([n for n, _ in momenta], dtype=int),
        mvec=np.array([m for _, m in momenta], dtype=int),
        zero_index=index[(0, (0,) * M.spec.d)],
        neg_index=neg_index,
        diff_index=diff_index,
    )


def autocorrelation_all_oracle(phi):
    """The zero-padded FFT autocorrelation with per-transfer scatter and gather;
    each axis is padded to the package's FFT length for 2 n - 1."""
    Q = phi.transfer
    n_lo = int(Q.n0.min())
    m_lo = Q.mvec.min(axis=0)
    shape = [int(Q.n0.max()) - n_lo + 1] + [
        int(h - l + 1) for l, h in zip(m_lo, Q.mvec.max(axis=0))
    ]
    dense = np.zeros(shape, dtype=complex)
    for i, (n0, m) in enumerate(labels(Q)):
        idx = (n0 - n_lo,) + tuple(int(mi - l) for mi, l in zip(m, m_lo))
        dense[idx] = phi.values[i]
    padded = [bl.model.fft_length(2 * s - 1) for s in shape]
    axes = tuple(range(len(shape)))
    f = np.fft.fftn(dense, s=padded, axes=axes)
    B = np.fft.ifftn(f.real**2 + f.imag**2, axes=axes)
    out = np.empty(len(Q), dtype=complex)
    for i, (n0, m) in enumerate(labels(Q)):
        idx = tuple(int(s) % p for s, p in zip((n0,) + m, padded))
        out[i] = np.conj(B[idx])
    return out


def _lattice(d, L, beta, nu):
    return bl.build_momentum_set(bl.ModelSpec(d=d, L=L, beta=beta, nu=nu, lam=1.0))


GAPPED_SPATIAL = [(-2, 1), (0, 0), (1, 3), (3, -1), (4, 4)]


def _gapped_set():
    # an asymmetric spatial subset, at contiguous frequencies off the centre
    spec = bl.ModelSpec(d=2, L=8.0, beta=4.0, nu=10.0, lam=1.0)
    return bl.model.MomentumSet(spec, [-1, 0, 1, 2], GAPPED_SPATIAL)


def test_momentum_set_refuses_gapped_frequencies():
    spec = bl.ModelSpec(d=2, L=8.0, beta=4.0, nu=10.0, lam=1.0)
    with pytest.raises(ValueError, match="contiguous"):
        bl.model.MomentumSet(spec, [-3, -1, 0, 4], GAPPED_SPATIAL)


@pytest.fixture(
    scope="module",
    params=["small-d1", "small-d2", "d3-L4", "desk-d1", "gapped"],
)
def lattice(request, small_M, desk_M):
    return {
        "small-d1": lambda: small_M,
        "small-d2": lambda: _lattice(2, 4.0, 2.0, 4.0),
        "d3-L4": lambda: _lattice(3, 4.0, 2.0, 4.0),
        "desk-d1": lambda: desk_M,
        "gapped": _gapped_set,
    }[request.param]()


def test_transfer_maps_match_oracle(lattice):
    Q = bl.build_transfer_set(lattice)
    ref = transfer_set_oracle(lattice)
    assert Q.zero_index == ref["zero_index"]
    for name in ("n0", "mvec", "neg_index"):
        got = getattr(Q, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    got = Q.gather(np.arange(len(Q)))
    assert got.dtype == ref["diff_index"].dtype
    assert np.array_equal(got, ref["diff_index"])


def test_orbit_representatives_above_zero_index(lattice):
    # the ordering contract that gaussian.log_z2, analytic_hessian and
    # cli._hessian_coords rely on: the indices above zero_index hold exactly
    # one transfer of each {q, -q} orbit, and neg_index sends each below it,
    # so the indices below hold one each too
    Q = bl.build_transfer_set(lattice)
    z = Q.zero_index
    lab = labels(Q)

    def neg(label):
        return -label[0], tuple(-x for x in label[1])

    assert lab[z] == neg(lab[z])
    reps = {lab[i] for i in range(z + 1, len(Q))}
    partners = {neg(label) for label in reps}
    assert len(reps) == len(Q) - 1 - z and reps.isdisjoint(partners)
    assert reps | partners | {lab[z]} == set(lab)
    for i in range(z + 1, len(Q)):
        j = int(Q.neg_index[i])
        assert j < z and lab[j] == neg(lab[i]), i
    # Q.nonzero: every label but q = 0's, in Q's order
    assert [lab[i] for i in Q.nonzero] == [x for x in lab if x != lab[z]]


def test_gather_writes_into_strided_out(lattice):
    # out may be any N x N view, such as a quadrant's transpose of a
    # Fortran-ordered block; the values' dtype carries through
    Q = bl.build_transfer_set(lattice)
    n = len(lattice)
    diff = transfer_set_oracle(lattice)["diff_index"]
    values = bl.random_config(lattice.spec, Q, 1.0, seed=2).values
    block = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
    out = block[n:, :n].T
    assert Q.gather(values, out=out) is out
    assert np.array_equal(out, values[diff])
    assert not block[:n].any() and not block[n:, n:].any()
    assert np.array_equal(Q.gather(values.real), values.real[diff])
    assert np.array_equal(Q.gather(np.arange(len(Q)) == 3), diff == 3)


def test_scratch_is_two_buffers_per_thread(desk_M, desk_Q):
    n = len(desk_M)
    assert desk_Q.scratch.shape == (2, n, n)
    assert desk_Q.scratch is desk_Q.scratch
    other = []
    thread = threading.Thread(target=lambda: other.append(desk_Q.scratch))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert other[0].shape == (2, n, n)
    assert not np.shares_memory(other[0], desk_Q.scratch)


def test_pair_sum_bins_match_diff_index(lattice):
    # the pair sums read only the spatial table and frequency offsets; with
    # integer weights every sum is exact, so each (k, p) must land in the bin
    # of the oracle's index of k - p
    Q = bl.build_transfer_set(lattice)
    W = np.random.default_rng(3).integers(0, 2**20, (len(lattice), len(lattice)))
    got = Q.pair_sum(lambda k, p: W[k, p].astype(float))
    diff = transfer_set_oracle(lattice)["diff_index"]
    want = np.bincount(diff.ravel(), W.ravel().astype(float), minlength=len(Q))
    assert np.array_equal(got, want)


def _shift_oracle(M, Q, qs) -> list:
    """Per transfer index q of qs, the index of p + q for every momentum p
    (-1 where it is not in M), by label lookup."""
    where, q_labels, out = index_of(M), labels(Q), []
    for q in qs:
        n0, m = q_labels[q]
        out.append([where.get((n + n0, tuple(a + b for a, b in zip(mp, m))), -1)
                    for n, mp in labels(M)])
    return out


@pytest.mark.parametrize("case", ["small-d1", "small-d2", "gapped", "d3-L4-beta8"])
def test_shift_matches_label_oracle(case):
    M = {
        "small-d1": lambda: _lattice(1, 4.0, 2.0, 4.0),
        "small-d2": lambda: _lattice(2, 4.0, 2.0, 4.0),
        "gapped": _gapped_set,
        "d3-L4-beta8": lambda: _lattice(3, 4.0, 8.0, 20.0),
    }[case]()
    Q = bl.build_transfer_set(M)
    qs = range(len(Q))
    if case == "d3-L4-beta8":  # N = 1600, |Q| = 19899: the ends, q = 0 and a sample
        rng = np.random.default_rng(5)
        qs = [0, Q.zero_index, len(Q) - 1, *rng.integers(0, len(Q), 20).tolist()]
    for q, want in zip(qs, _shift_oracle(M, Q, qs)):
        got = Q.shift(q)
        assert got.dtype == np.intp
        assert np.array_equal(got, want), q


def _traced(fn):
    """fn() and the bytes its traced allocations peak at above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_build_transfer_set_allocates_no_frequency_square():
    # nu = 5000 gives nf = 3184 frequencies (N = 6368): no nf x nf table of
    # frequency differences (81 MB) and no N x N index, only |Q|-long
    # vectors (|Q| = 19101)
    spec = bl.ModelSpec(d=1, L=4.0, beta=2.0, nu=5000.0, lam=1.0)
    M = bl.build_momentum_set(spec)
    assert len(M.freq_n0) == 3184
    assert _traced(lambda: bl.build_transfer_set(M))[1] < 8 * 2**20


def test_expansion_allocates_no_dense_matrix():
    # the expansion and the Gaussian report take no determinant: their pair
    # sums run one frequency block of k at a time, so at d = 3 L = 4
    # (N = 1600) each call peaks below one N x N float array
    probe = bl.ModelSpec(d=3, L=4.0, beta=8.0, nu=20.0, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=3, L=4.0, beta=8.0, nu=20.0, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    Q = bl.build_transfer_set(M)
    sol = bl.solve_gap(spec, M)
    assert not sol.trivial
    limit = len(M) ** 2 * 8
    qf, peak = _traced(lambda: bl.coefficients(spec, M, Q, sol.r0, 0.0))
    assert peak < limit
    assert _traced(lambda: bl.gaussian_report(spec, qf))[1] < limit
    assert _traced(lambda: bl.decomposition_lhs(spec, M, Q, sol.delta_sq))[1] < limit


@pytest.mark.parametrize("lattice", ["small-d2", "d3-L4", "gapped"], indirect=True)
def test_autocorrelation_all_matches_pointwise_d2_d3(lattice):
    # mixed padded axis lengths, (5, 18, 18, 18) on d3-L4, against the direct sum
    Q = bl.build_transfer_set(lattice)
    phi = bl.random_config(lattice.spec, Q, 1.0, seed=11)
    allvals = bl.autocorrelation_all(phi)
    for i in np.random.default_rng(0).choice(len(Q), size=min(25, len(Q)), replace=False):
        assert allvals[int(i)] == pytest.approx(
            autocorrelation(phi, int(i)), rel=1e-10, abs=1e-10
        )


def test_autocorrelation_all_matches_oracle(lattice):
    Q = bl.build_transfer_set(lattice)
    phi = bl.random_config(lattice.spec, Q, 1.0, seed=5)
    assert np.array_equal(bl.autocorrelation_all(phi), autocorrelation_all_oracle(phi))


def _dispersion_cases():
    """Specs over both dispersion kinds, d = 1..3, odd and even L, two mu; t = 0
    (a flat band) and L = 2 (q = 2 maps cos(pi m) onto itself) are degenerate."""
    cases = []
    for d, Ls in ((1, (2, 3, 4, 7, 16)), (2, (2, 3, 4, 8)), (3, (2, 3, 4))):
        for L in Ls:
            for mu in (0.0, 0.3):
                for disp, t in (("tight_binding", 1.0), ("tight_binding", 0.0),
                                ("quadratic", 1.0)):
                    cases.append(
                        bl.ModelSpec(d=d, L=float(L), beta=2.0, nu=4.0, mu=mu,
                                     dispersion=disp, t=t, lam=1.0, energy_window=2.0)
                    )
    return cases


def test_dispersion_array_matches_scalar_oracle():
    # the evenness check, the cutoff filter and nondegeneracy_check all read
    # dispersion_array; each verdict must be the scalar loop's
    verdicts = []
    for spec in _dispersion_cases():
        grid = spatial_grid(spec)
        ref = np.array([dispersion(spec, m) for m in grid.tolist()])
        got = dispersion_array(spec, grid)
        assert np.max(np.abs(got - ref)) <= 1e-15, spec
        assert all(dispersion(spec, m) == dispersion(spec, -np.array(m)) for m in grid.tolist())
        M = bl.build_momentum_set(spec)
        kept = [m for m in grid.tolist() if abs(dispersion(spec, m)) <= spec.energy_window]
        assert M.spatial_m.tolist() == kept, spec
        Q = bl.build_transfer_set(M)
        verdict = bl.nondegeneracy_check(spec, Q)
        assert verdict == nondegenerate(spec, Q), spec
        verdicts.append(verdict)
    assert False in verdicts and True in verdicts


@pytest.mark.parametrize("L", [6.0, 12.0])
def test_cutoff_set_closed_under_point_group_d3(L):
    # summed in axis order, permuted momenta rounded to different sides of
    # |e| = energy_window: at L = 6, (0, 1, -3) was kept and (0, -3, 1) dropped
    M = bl.build_momentum_set(bl.ModelSpec(d=3, L=L))
    kept = {tuple(m) for m in M.spatial_m.tolist()}
    for m in kept:
        for perm in itertools.permutations(m):
            for signs in itertools.product((1, -1), repeat=3):
                assert tuple(s * x for s, x in zip(signs, perm)) in kept, (m, perm, signs)


@pytest.mark.parametrize(
    "magnitude, phase",
    [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0), (1e-2, math.nan), (1e-2, -math.inf)],
)
def test_external_field_rejects_bad_numbers(magnitude, phase):
    with pytest.raises(ValueError, match="external field"):
        bl.ExternalField(magnitude, phase)


def test_zero_external_field_is_no_field(desk_spec):
    # whatever its phase, and at lambda = 0 too, where any other field is refused
    free = bl.ModelSpec(lam=0.0)
    r = bl.ExternalField(0.0, 0.7)
    assert not r and field_tilt(r) == 1.0 and r.ratio(free) == 0.0
    field = bl.ExternalField(1e-2, 0.7)
    assert field and field.ratio(desk_spec) == 1e-2 / desk_spec.g
    with pytest.raises(ValueError, match="lambda > 0"):
        field.ratio(free)
