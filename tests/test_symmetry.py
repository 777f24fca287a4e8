"""Invariance of V and of the Hadamard bound under the lattice's phase maps.

A translation by x or a time shift by tau multiplies phi_q by u_q = w_k
conj(w_p) for every q = k - p, with w_k = e^{i k.x} or e^{i k0 tau}: the
matrix (phi)_{k,p} becomes W phi W^H for the diagonal unitary W = diag(w),
which commutes with C.  A global phase multiplies phi by one unit number.
So det R, the full block's determinant, |A(q)| and the Gram overlaps are
unchanged: Re V by both routes and rhs26 agree up to rounding, and Im V
by the reduced route up to whole turns of its per-pivot branch.  Each map
reaches every transfer at once, so a wrong index anywhere in the routes
shows as a change of the value.
"""

import math

import numpy as np
import pytest

import bcslab as bl
from oracles import global_phase, time_shift, translation

# rounding bound, relative to max(1, |value|), fixed before the first run
REL = 1e-13
# bound on Im V's change after whole turns are removed, in radians
IM_ABS = 1e-12


@pytest.fixture(scope="module")
def d2_L4():
    probe = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, lam=0.0)
    lam_c = bl.critical_coupling(probe, bl.build_momentum_set(probe))
    spec = bl.ModelSpec(d=2, L=4.0, beta=2.0, nu=4.0, lam=2.0 * lam_c)
    M = bl.build_momentum_set(spec)
    return spec, M, bl.build_transfer_set(M)


def _lattice(request, name):
    if name == "d2-L4":
        return request.getfixturevalue("d2_L4")
    return tuple(request.getfixturevalue(f"{name}_{x}") for x in ("spec", "M", "Q"))


def _phases(Q, spec, name):
    if name == "translation":  # 1, 2, ... sites along the axes
        return translation(Q, np.arange(1, spec.d + 1))
    if name == "time-shift":
        return time_shift(Q, 0.3)
    return global_phase(Q, 1.1)


def _values(spec, M, phi):
    """(Re V full, Re V reduced, rhs26) and Im V by the reduced route."""
    reduced = bl.potential_reduced(spec, M, phi)
    full = bl.potential_full(spec, M, phi)
    return (full.real, reduced.real, bl.hadamard_rhs(spec, M, phi)[0]), reduced.imag


@pytest.mark.parametrize("name", ["translation", "time-shift", "global-phase"])
@pytest.mark.parametrize("lattice", ["small", "d2-L4", "desk"])
def test_potential_and_bound_invariant(request, lattice, name):
    spec, M, Q = _lattice(request, lattice)
    phases = _phases(Q, spec, name)
    for seed in (0, 1):
        phi = bl.random_config(spec, Q, 1.0, seed=seed)
        base, base_im = _values(spec, M, phi)
        moved, moved_im = _values(spec, M, bl.FieldConfig(Q, phi.values * phases))
        for a, b in zip(base, moved):
            assert abs(b - a) <= REL * max(1.0, abs(a)), (seed, base, moved)
        assert abs(math.remainder(moved_im - base_im, 2.0 * math.pi)) <= IM_ABS, (
            seed, base_im, moved_im
        )
