"""Momentum lattice, dispersions and auxiliary-field configurations.

Fermionic momenta live on the odd Matsubara grid k0 = (pi/beta)(2 n0 + 1),
bosonic transfer momenta on the even grid q0 = (2 pi/beta) n0.  Spatial
components are k_i = 2 pi m_i / L with integer m_i.  The cutoff set keeps
|e_k| <= energy_window and |k0| <= nu; it is always a product of a frequency
range and a set of surviving spatial vectors, which the heavier modules
exploit for vectorization.  M is ordered frequency-major; Q is sorted
lexicographically by (n0, m), so negation reverses its index and the indices
above zero_index are the {q, -q} orbit representatives (see TransferSet).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

FERMIONIC = "fermionic"
BOSONIC = "bosonic"


@dataclass(frozen=True)
class DispersionSpec:
    """Dispersion selector: 'tight_binding' (hopping t) or 'quadratic'."""

    kind: str = "tight_binding"
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tight_binding", "quadratic"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """All physical and numerical parameters of the finite-volume model."""

    d: int = 1
    L: float = 16.0
    beta: float = 8.0
    nu: float = 20.0
    mu: float = 0.0
    dispersion: DispersionSpec = field(default_factory=DispersionSpec)
    lam: float = 1.0
    energy_window: float = 1.0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if self.beta <= 0 or self.L <= 0:
            raise ValueError("beta and L must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.nu < math.pi / self.beta:
            raise ValueError("nu < pi/beta: no Matsubara frequency survives")
        if self.energy_window < 0:
            raise ValueError("energy_window must be nonnegative")
        for m in spatial_grid(self):
            neg = tuple(-mi for mi in m)
            if dispersion(self, m) != dispersion(self, neg):
                raise ValueError("dispersion is not even in k")

    @property
    def kappa(self) -> float:
        """Spacetime volume beta * L^d."""
        return self.beta * self.L**self.d

    @property
    def g(self) -> float:
        return math.sqrt(self.lam)


@dataclass(frozen=True)
class Momentum:
    """Lattice momentum label (n0, m).

    Fermionic: k0 = (pi/beta)(2 n0 + 1); bosonic: q0 = (2 pi/beta) n0.
    """

    n0: int
    m: tuple
    flavor: str = FERMIONIC

    def __neg__(self) -> "Momentum":
        mneg = tuple(-mi for mi in self.m)
        if self.flavor == FERMIONIC:
            return Momentum(-self.n0 - 1, mneg, FERMIONIC)
        return Momentum(-self.n0, mneg, BOSONIC)


def dispersion(spec: ModelSpec, m) -> float:
    """Single-particle energy e_k = eps_k - mu at spatial index vector m."""
    m = tuple(m)
    if len(m) != spec.d:
        raise ValueError("spatial index has wrong dimension")
    disp = spec.dispersion
    if disp.kind == "tight_binding":
        eps = -2.0 * disp.t * sum(math.cos(2.0 * math.pi * mi / spec.L) for mi in m)
    else:
        k2 = sum((2.0 * math.pi * mi / spec.L) ** 2 for mi in m)
        eps = 0.5 * k2
    return eps - spec.mu


def dispersion_array(spec: ModelSpec, mvecs: np.ndarray) -> np.ndarray:
    """Vectorized dispersion over an (n, d) integer array."""
    mvecs = np.atleast_2d(mvecs)
    disp = spec.dispersion
    k = 2.0 * math.pi * mvecs / spec.L
    if disp.kind == "tight_binding":
        eps = -2.0 * disp.t * np.cos(k).sum(axis=1)
    else:
        eps = 0.5 * (k**2).sum(axis=1)
    return eps - spec.mu


def spatial_grid(spec: ModelSpec):
    """One-period spatial index grid {m : |m_i| <= L/2}, lexicographic."""
    half = int(math.floor(spec.L / 2.0))
    rng = range(-half, half + 1)
    return [m for m in itertools.product(rng, repeat=spec.d)]


class MomentumSet:
    """Ordered fermionic cutoff set with cached e_k and a_k = i k0 - e_k."""

    def __init__(self, spec: ModelSpec, freq_n0: np.ndarray, spatial_m):
        self.spec = spec
        self.freq_n0 = np.asarray(freq_n0, dtype=int)
        self.spatial_m = [tuple(m) for m in spatial_m]
        self.momenta = [
            Momentum(int(n0), m, FERMIONIC)
            for n0 in self.freq_n0
            for m in self.spatial_m
        ]
        self.index = {(p.n0, p.m): i for i, p in enumerate(self.momenta)}
        self.n0 = np.array([p.n0 for p in self.momenta], dtype=int)
        self.mvec = np.array([p.m for p in self.momenta], dtype=int)
        self.k0 = (math.pi / spec.beta) * (2 * self.n0 + 1)
        self.e = dispersion_array(spec, self.mvec)
        self.a = 1j * self.k0 - self.e
        self.spatial_e = dispersion_array(spec, np.array(self.spatial_m, dtype=int))

    def __len__(self) -> int:
        return len(self.momenta)

    def __contains__(self, p: Momentum) -> bool:
        return (p.n0, p.m) in self.index


def build_momentum_set(spec: ModelSpec) -> MomentumSet:
    """All momenta with |e_k| <= energy_window and |k0| <= nu."""
    # |2 n0 + 1| <= beta * nu / pi, odd-integer band around zero
    bound = spec.beta * spec.nu / math.pi
    n_hi = int(math.floor((bound - 1.0) / 2.0))
    n_lo = -n_hi - 1
    freq_n0 = np.arange(n_lo, n_hi + 1)
    spatial = [
        m for m in spatial_grid(spec) if abs(dispersion(spec, m)) <= spec.energy_window
    ]
    if len(freq_n0) == 0 or len(spatial) == 0:
        raise ValueError("empty cutoff set")
    return MomentumSet(spec, freq_n0, spatial)


class TransferSet:
    """Bosonic difference set Q = {k - p : k, p in M} with negation map.

    Ordering contract: Q = dn x dm, the frequency differences times the
    spatial differences, sorted lexicographically by (n0, m).  Both factors
    are symmetric, so -q has index |Q| - 1 - i, zero_index is the middle, and
    the indices above it (the lexicographically positive q) hold one
    representative per {q, -q} orbit.  `momenta` and `index` label that order.
    """

    def __init__(self, M: MomentumSet):
        spec = M.spec
        self.spec = spec
        self.M = M
        freq = M.freq_n0
        spatial = np.array(M.spatial_m, dtype=int).reshape(-1, spec.d)
        nf, ns = len(freq), len(spatial)
        dn, fdiff = np.unique(freq[:, None] - freq[None, :], return_inverse=True)
        dm, sdiff = np.unique(
            (spatial[:, None, :] - spatial[None, :, :]).reshape(-1, spec.d),
            axis=0,
            return_inverse=True,
        )
        nq = len(dn) * len(dm)
        self.n0 = np.repeat(dn, len(dm))
        self.mvec = np.tile(dm, (len(dn), 1))
        dm_labels = [tuple(m) for m in dm.tolist()]
        self.momenta = [Momentum(n, m, BOSONIC) for n in dn.tolist() for m in dm_labels]
        self.index = {(q.n0, q.m): i for i, q in enumerate(self.momenta)}
        self.q0 = (2.0 * math.pi / spec.beta) * self.n0
        self.qvec = 2.0 * math.pi * self.mvec / spec.L
        self.qnorm = np.sqrt(self.q0**2 + (self.qvec**2).sum(axis=1))
        self.zero_index = (nq - 1) // 2
        self.neg_index = nq - 1 - np.arange(nq)
        # diff_index[k, p] = index of k - p in Q, for k, p in M
        fdiff = fdiff.reshape(nf, 1, nf, 1) * len(dm)
        sdiff = sdiff.reshape(1, ns, 1, ns)
        self.diff_index = (fdiff + sdiff).reshape(len(M), len(M))

    def __len__(self) -> int:
        return len(self.momenta)

    def __contains__(self, q: Momentum) -> bool:
        return (q.n0, q.m) in self.index


def build_transfer_set(M: MomentumSet) -> TransferSet:
    return TransferSet(M)


def nondegeneracy_check(spec: ModelSpec, Q: TransferSet) -> bool:
    """True iff every spatial transfer q != 0 in Q shifts the dispersion somewhere.

    The scan runs over the full one-period spatial grid, not only the cutoff
    set, since the hypothesis is on the dispersion itself.
    """
    grid = spatial_grid(spec)
    spatial_q = {tuple(m) for m in Q.mvec}
    zero = (0,) * spec.d
    for q in spatial_q:
        if q == zero:
            continue
        shifted = False
        for m in grid:
            mq = tuple(mi + qi for mi, qi in zip(m, q))
            if dispersion(spec, m) != dispersion(spec, mq):
                shifted = True
                break
        if not shifted:
            return False
    return True


@dataclass
class FieldConfig:
    """Complex Hubbard-Stratonovich field phi_q, aligned to a TransferSet."""

    transfer: TransferSet
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.transfer),):
            raise ValueError("field values misaligned with transfer set")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field amplitudes must be finite")

    @property
    def kappa(self) -> float:
        return self.transfer.spec.kappa

    def copy(self) -> "FieldConfig":
        return FieldConfig(self.transfer, self.values.copy())


def bcs_config(spec: ModelSpec, Q: TransferSet, r0: float, theta: float) -> FieldConfig:
    """phi_q = delta_{q,0} sqrt(kappa) r0 e^{i theta}."""
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    values = np.zeros(len(Q), dtype=complex)
    values[Q.zero_index] = math.sqrt(spec.kappa) * r0 * np.exp(1j * theta)
    return FieldConfig(Q, values)


def field_norm(phi: FieldConfig) -> float:
    """||phi||^2 = (1/kappa) sum_q |phi_q|^2."""
    return float(np.sum(np.abs(phi.values) ** 2) / phi.kappa)


def random_config(
    spec: ModelSpec, Q: TransferSet, scale: float, seed: int
) -> FieldConfig:
    """Independent complex Gaussian amplitudes, std `scale` per real component."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    rng = np.random.default_rng(seed)
    values = scale * (
        rng.standard_normal(len(Q)) + 1j * rng.standard_normal(len(Q))
    )
    return FieldConfig(Q, values)


def autocorrelation(phi: FieldConfig, q: Momentum) -> complex:
    """sum_p phi_p conj(phi_{p+q}) over p with p and p+q in Q."""
    Q = phi.transfer
    if (q.n0, q.m) not in Q.index:
        raise ValueError("q not in transfer set")
    acc = 0.0 + 0.0j
    for i, p in enumerate(Q.momenta):
        key = (p.n0 + q.n0, tuple(a + b for a, b in zip(p.m, q.m)))
        j = Q.index.get(key)
        if j is not None:
            acc += phi.values[i] * np.conj(phi.values[j])
    return complex(acc)


def autocorrelation_all(phi: FieldConfig) -> np.ndarray:
    """A(q) = sum_p phi_p conj(phi_{p+q}) for every q in Q, via zero-padded FFT."""
    Q = phi.transfer
    coords = np.column_stack((Q.n0, Q.mvec))
    lo = coords.min(axis=0)
    shape = coords.max(axis=0) - lo + 1
    dense = np.zeros(shape, dtype=complex)
    dense[tuple((coords - lo).T)] = phi.values
    padded = tuple((2 * shape - 1).tolist())
    axes = tuple(range(len(shape)))
    f = np.fft.fftn(dense, s=padded, axes=axes)
    # B[dq] = sum_p phi_{p+dq} conj(phi_p); A(q) = conj(B[q])
    B = np.fft.ifftn(f * np.conj(f), axes=axes)
    return np.conj(B[tuple((coords % padded).T)])
