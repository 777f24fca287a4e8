"""Lattice momenta, dispersions, auxiliary fields and the external field.

Fermionic momenta live on the odd Matsubara grid k0 = (pi/beta)(2 n0 + 1),
bosonic transfer momenta on the even grid q0 = (2 pi/beta) n0.  Spatial
components are k_i = 2 pi m_i / L with integer m_i.  The cutoff set keeps
|e_k| <= energy_window and |k0| <= nu; it is always a product of a frequency
range and a set of surviving spatial vectors, and so is the transfer set Q.
M's frequencies are one contiguous run of integers, so the index of k - p
is a frequency offset plus the S x S table spatial_diff, read only by
`TransferSet.gather`, which writes any N x N array (phi)_{k,p} = phi_{k-p}
from a strided view, `shift` (p to p + q) and `pair_sum` (sums over each
k - p); no N x N index is built.  A momentum or transfer is an integer index
into its set's arrays.  M is ordered frequency-major; Q is sorted
lexicographically by (n0, m), so negation reverses its index and the indices
above zero_index are the {q, -q} orbit representatives (see TransferSet).
The lattice conventions that other modules read live here, each once:
|a_k|^2 = k0^2 + e_k^2 is `MomentumSet.abs_a_sq`, to which the gap, bound
and expansion denominators E_k^2 add Delta^2 or lam ||phi||^2, and the
transfers other than q = 0 are `TransferSet.nonzero`.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class DispersionSpec:
    """Dispersion selector: 'tight_binding' (hopping t on L sites per axis, so
    L must be an integer) or 'quadratic' (k^2/2 in a box of side L, any
    positive L)."""

    kind: str = "tight_binding"
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tight_binding", "quadratic"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, not {self.t}")


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
        for name in ("L", "beta", "nu", "mu", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if self.beta <= 0 or self.L <= 0:
            raise ValueError("beta and L must be positive")
        if self.dispersion.kind == "tight_binding" and not float(self.L).is_integer():
            raise ValueError(f"L must be an integer for tight_binding, not {self.L}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.nu < math.pi / self.beta:
            raise ValueError("nu < pi/beta: no Matsubara frequency survives")
        if not self.energy_window >= 0:  # NaN too; inf keeps every momentum
            raise ValueError(f"energy_window must be nonnegative, not {self.energy_window}")
        grid = spatial_grid(self)
        if not np.array_equal(dispersion_array(self, grid), dispersion_array(self, -grid)):
            raise ValueError("dispersion is not even in k")

    @property
    def kappa(self) -> float:
        """Spacetime volume beta * L^d."""
        return self.beta * self.L**self.d

    @property
    def g(self) -> float:
        return math.sqrt(self.lam)


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


def spatial_grid(spec: ModelSpec) -> np.ndarray:
    """Spatial index grid {m : |m_i| <= L/2} as an (n, d) array, lexicographic.

    This is not one period: for even L it keeps both m_i = -L/2 and m_i = L/2,
    L + 1 points per axis.
    """
    half = int(math.floor(spec.L / 2.0))
    rng = range(-half, half + 1)
    return np.array(list(itertools.product(rng, repeat=spec.d)), dtype=int)


class MomentumSet:
    """Ordered fermionic cutoff set with cached e_k (spatial_e tiled over the
    frequencies), a_k = i k0 - e_k and abs_a_sq = |a_k|^2 = k0^2 + e_k^2.

    Index i is the momentum (n0[i], mvec[i]): the frequencies freq_n0, one
    contiguous run (ValueError otherwise), times the spatial vectors
    spatial_m (an (S, d) array), frequency-major.
    """

    def __init__(self, spec: ModelSpec, freq_n0: np.ndarray, spatial_m):
        self.spec = spec
        self.freq_n0 = np.asarray(freq_n0, dtype=int)
        if np.any(np.diff(self.freq_n0) != 1):
            raise ValueError("frequencies must be one contiguous run of integers")
        self.spatial_m = np.asarray(spatial_m, dtype=int).reshape(-1, spec.d)
        self.n0 = np.repeat(self.freq_n0, len(self.spatial_m))
        self.mvec = np.tile(self.spatial_m, (len(self.freq_n0), 1))
        self.k0 = (math.pi / spec.beta) * (2 * self.n0 + 1)
        self.spatial_e = dispersion_array(spec, self.spatial_m)
        self.e = np.tile(self.spatial_e, len(self.freq_n0))
        self.a = 1j * self.k0 - self.e
        self.abs_a_sq = self.k0**2 + self.e**2

    def __len__(self) -> int:
        return len(self.n0)


def build_momentum_set(spec: ModelSpec) -> MomentumSet:
    """All momenta with |e_k| <= energy_window and |k0| <= nu."""
    # |2 n0 + 1| <= beta * nu / pi, odd-integer band around zero
    bound = spec.beta * spec.nu / math.pi
    n_hi = int(math.floor((bound - 1.0) / 2.0))
    n_lo = -n_hi - 1
    freq_n0 = np.arange(n_lo, n_hi + 1)
    grid = spatial_grid(spec)
    spatial = grid[np.abs(dispersion_array(spec, grid)) <= spec.energy_window]
    if len(freq_n0) == 0 or len(spatial) == 0:
        raise ValueError("empty cutoff set")
    return MomentumSet(spec, freq_n0, spatial)


class TransferSet:
    """Bosonic difference set Q = {k - p : k, p in M} with negation map.

    Ordering contract: Q = freq_n0 x spatial_m, the frequency differences
    times the spatial differences, sorted lexicographically by (n0, m).  Both
    factors are symmetric, so -q has index |Q| - 1 - i, zero_index is the
    middle, and the indices above it (the lexicographically positive q) hold
    one representative per {q, -q} orbit.  Transfer i is (n0[i], mvec[i]);
    `nonzero` holds every index but zero_index, in Q's order.

    M's nf frequencies are one contiguous run, so freq_n0 = arange(1 - nf, nf),
    and spatial_diff[s, u] indexes spatial_m at M.spatial_m[s] - M.spatial_m[u]:
    for k, p of frequency indices a, b, k - p has index (a - b + nf - 1)
    len(spatial_m) + spatial_diff[s, u], read by `gather`, `shift`, `pair_sum`.
    """

    def __init__(self, M: MomentumSet):
        spec = M.spec
        self.spec = spec
        spatial = M.spatial_m
        nf, ns = len(M.freq_n0), len(spatial)
        self.freq_n0 = np.arange(1 - nf, nf)
        self.spatial_m, sdiff = np.unique(
            (spatial[:, None, :] - spatial[None, :, :]).reshape(-1, spec.d),
            axis=0,
            return_inverse=True,
        )
        self.spatial_diff = sdiff.reshape(ns, ns)
        self.n_momenta = nf * ns  # N, the side of every array that gather writes
        nq = len(self.freq_n0) * len(self.spatial_m)
        self.n0 = np.repeat(self.freq_n0, len(self.spatial_m))
        self.mvec = np.tile(self.spatial_m, (len(self.freq_n0), 1))
        self.q0 = (2.0 * math.pi / spec.beta) * self.n0
        self.qvec = 2.0 * math.pi * self.mvec / spec.L
        self.qnorm = np.sqrt(self.q0**2 + (self.qvec**2).sum(axis=1))
        self.zero_index = (nq - 1) // 2
        self.neg_index = nq - 1 - np.arange(nq)
        self.nonzero = np.delete(np.arange(nq), self.zero_index)
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.n0)

    def gather(self, values, out=None) -> np.ndarray:
        """The N x N array out[k, p] = values[index of k - p] of a vector
        aligned to Q, written into `out` (any N x N array of its dtype) or a
        new one.  No N x N index is built: out is copied from a read-only
        strided (nf, S, nf, S) view w[a, s, b, u], k = (a, s) and p = (b, u),
        of the C-ordered table T[s, g, u] = values[2 nf - 2 - g,
        spatial_diff[s, u]], whose row (a, s) is the contiguous run
        T[s, nf - 1 - a : 2 nf - 1 - a]."""
        nf, ns = (len(self.freq_n0) + 1) // 2, len(self.spatial_diff)
        rows = np.asarray(values).reshape(2 * nf - 1, -1)[::-1]
        table = rows[np.arange(len(rows))[None, :, None], self.spatial_diff[:, None, :]]
        # windows[s, c, u, b] = T[s, c + b, u], and row (a, s) reads c = nf - 1 - a
        windows = sliding_window_view(table, nf, axis=1)
        if out is None:
            out = np.empty((nf * ns, nf * ns), dtype=table.dtype)
        # splitting out's two axes gives a view whatever its strides
        out.reshape(nf, ns, nf, ns)[...] = windows[:, ::-1].transpose(1, 0, 3, 2)
        return out

    def shift(self, q: int) -> np.ndarray:
        """For every momentum index p, the index of p + q, q a transfer index
        (-1 where p + q is not in M), in O(S^2 + N): with q's frequency index
        f, p = (b, u) goes to (b + f - nf + 1, s) where spatial_diff[s, u] is
        q's spatial index."""
        nf, ns = (len(self.freq_n0) + 1) // 2, len(self.spatial_diff)
        f, j = divmod(int(q), len(self.spatial_m))
        s, u = np.nonzero(self.spatial_diff == j)
        b = np.arange(max(0, nf - 1 - f), min(nf, 2 * nf - 1 - f))
        out = np.full((nf, ns), -1, dtype=np.intp)
        out[np.ix_(b, u)] = (b + f - nf + 1)[:, None] * ns + s
        return out.ravel()

    def pair_sum(self, weight) -> np.ndarray:
        """Per q, the sum of weight(k, p) over momenta k, p with k - p = q.

        `weight` maps a column of momentum indices k and the row of all
        indices p to their real weights.  The sum runs over the frequencies a
        of k, S rows k at a time, so no N x N array is formed: k - p has
        frequency index a - b + nf - 1, distinct across p's b, and spatial
        index spatial_diff[s, u], so one bincount over (b, j), the same for
        every a, sums a block into Q's frequency rows a + nf - 1 down to a.
        """
        nf, sm = (len(self.freq_n0) + 1) // 2, len(self.spatial_diff)
        sq = len(self.spatial_m)
        local = (np.arange(nf)[None, :, None] * sq + self.spatial_diff[:, None, :]).ravel()
        p = np.arange(self.n_momenta)
        out = np.zeros((len(self.freq_n0), sq))
        for a in range(nf):
            k = p[a * sm : (a + 1) * sm, None]
            sums = np.bincount(local, weight(k, p).ravel(), minlength=nf * sq)
            out[a : a + nf][::-1] += sums.reshape(nf, sq)
        return out.ravel()

    @cached_property
    def fft_box(self):
        """(padded, scatter, gather) for autocorrelation_all: the (n0, m)
        bounding box of Q, each axis zero-padded to fft_length(2 n - 1) so the
        cyclic correlation does not wrap; transfer i sits at flat position
        scatter[i] of the padded box, and the correlation at lag q is read
        from flat position gather[i].  Built on first access and kept."""
        coords = np.column_stack((self.n0, self.mvec))
        lo = coords.min(axis=0)
        padded = tuple(fft_length(2 * int(n) - 1) for n in coords.max(axis=0) - lo + 1)
        scatter = np.ravel_multi_index(tuple((coords - lo).T), padded)
        gather = np.ravel_multi_index(tuple((coords % padded).T), padded)
        return padded, scatter, gather

    @property
    def scratch(self) -> np.ndarray:
        """Two N x N complex buffers that the determinant code reuses from
        field to field: potential.reduced_matrix gathers Cbar phi into the
        first and conj(phi) C into the second, where R^T replaces it and the
        LU runs in place, and bound.hadamard_rhs reads both as four N x N
        float arrays.  Each thread has its own, built on its first access
        and freed when the thread ends, so threads can evaluate fields of one
        lattice at once.  fft_box is shared: build it before such threads
        start (cli.worker_bytes does)."""
        buffers = getattr(self._local, "scratch", None)
        if buffers is None:
            n = self.n_momenta
            buffers = self._local.scratch = np.empty((2, n, n), dtype=complex)
        return buffers


def build_transfer_set(M: MomentumSet) -> TransferSet:
    return TransferSet(M)


def nondegeneracy_check(spec: ModelSpec, Q: TransferSet) -> bool:
    """True iff every spatial transfer q != 0 in Q shifts the dispersion somewhere.

    The scan runs over the whole spatial_grid, not only the cutoff set, since
    the hypothesis is on the dispersion itself.
    """
    grid = spatial_grid(spec)
    e = dispersion_array(spec, grid)
    for q in Q.spatial_m:
        if np.any(q != 0) and np.array_equal(dispersion_array(spec, grid + q), e):
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


@dataclass(frozen=True)
class ExternalField:
    """U(1)-breaking pairing field r = magnitude * e^{i phase}, with its rules:
    both numbers finite, the magnitude nonnegative.  The zero field (any phase)
    is no field: false, with `ratio` 0, so U_r is V.  Any other field enters
    as |r|/g, g = sqrt(lambda): `ratio` refuses it at lambda = 0."""

    magnitude: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.magnitude < math.inf and math.isfinite(self.phase)):
            raise ValueError("external field needs finite magnitude >= 0 and phase")

    def __bool__(self) -> bool:
        return self.magnitude != 0.0

    def ratio(self, spec: ModelSpec, y: float = 1.0) -> float:
        """|r| / (g y): |r|/g, the mean-field shift, or |r|/(g |y0|), the
        expansion's stiffness."""
        if not self:
            return 0.0
        if spec.lam == 0.0:
            raise ValueError("needs lambda > 0: the field term is |r|/sqrt(lambda)")
        return self.magnitude / (spec.g * y)


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


def fft_length(n: int) -> int:
    """Smallest length >= n whose prime factors are all in {2, 3, 5, 7, 11},
    the radices pocketfft runs without Bluestein's algorithm."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def autocorrelation_all(phi: FieldConfig) -> np.ndarray:
    """A(q) = sum_p phi_p conj(phi_{p+q}) for every q in Q, via zero-padded FFT."""
    padded, scatter, gather = phi.transfer.fft_box
    f = np.zeros(padded, dtype=complex)
    f.reshape(-1)[scatter] = phi.values
    f = np.fft.fftn(f)
    # |f|^2 in place, by real products: a complex f * conj(f) leaves an
    # imaginary residue whose rounding depends on numpy's multiply kernel
    re, im = f.real, f.imag
    re *= re
    im *= im
    re += im
    im[...] = 0.0
    # B[dq] = sum_p phi_{p+dq} conj(phi_p); A(q) = conj(B[q])
    return np.conj(np.fft.ifftn(f).reshape(-1)[gather])
