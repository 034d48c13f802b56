"""Point processes on bounded windows.

Configurations are finite multisets of points (atoms with integer
multiplicity) inside an axis-aligned box. Bounded windows stand in for
R^d: every consumer receives the window along with the points and has to
apply its own boundary rule.

All samplers are pure functions of (parameters, seed). A sampler also
takes a numpy Generator in place of the seed and draws from it as it is,
so a replication loop can hand over generators built in one batch
(`randomness.replication_rngs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BallsOverlap, TooFewPoints
from .randomness import make_rng, poisson_count, poisson_counts

Seed = int


@dataclass(frozen=True)
class Window:
    """Axis-aligned box with an optional buffer margin.

    The buffer margin marks the zone near the boundary where extracted
    clusters are statistically unreliable; it is consumed by coverage
    estimation, not by the samplers themselves.
    """

    low: Tuple[float, ...]
    high: Tuple[float, ...]
    buffer_margin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(float(c) for c in self.low))
        object.__setattr__(self, "high", tuple(float(c) for c in self.high))
        if len(self.low) != len(self.high) or not self.low:
            raise ValueError("window corners must share a positive dimension")
        low, high = np.array(self.low), np.array(self.high)
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or infinite result is refused below
            extent = high - low
            volume = float(np.prod(extent))
        # negated, so that NaN fails too
        if not extent.min() > 0.0:
            raise ValueError(f"window must satisfy low < high, got {self.low} .. {self.high}")
        if not np.isfinite([*self.low, *self.high, volume]).all():
            raise ValueError(f"window corners and volume must be finite, got {self.low} .. {self.high}")
        if not (self.buffer_margin >= 0.0 and 2.0 * self.buffer_margin < extent.min()):
            raise ValueError("buffer margin must be nonnegative and below half the smallest extent")
        # derived once; plain attributes, so not part of eq, hash or repr
        for name, arr in (("_low", low), ("_high", high), ("_extent", extent)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_volume", volume)

    @property
    def dimension(self) -> int:
        return len(self.low)

    def extent(self) -> np.ndarray:
        return self._extent

    def volume(self) -> float:
        return self._volume

    def diameter(self) -> float:
        return float(np.linalg.norm(self.extent()))

    def erode(self, margin: float) -> "Window":
        return Window(
            tuple(l + margin for l in self.low),
            tuple(h - margin for h in self.high),
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ((pts >= self._low) & (pts <= self._high)).all(axis=1)

    def contains_ball(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Whether each ball lies in the window; centers (..., d), radii (...)."""
        c = np.asarray(centers, dtype=float)
        r = np.asarray(radii, dtype=float)[..., None]
        return ((c - r >= self._low) & (c + r <= self._high)).all(axis=-1)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance of each point (..., d) to the window's boundary."""
        p = np.asarray(points, dtype=float)
        return np.minimum(p - self._low, self._high - p).min(axis=-1)


def canonical_atoms(
    points: Sequence[Sequence[float]],
    multiplicities: Optional[Sequence[int]],
    window: Window,
    sizes: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (points, multiplicities) arrays of a configuration in `window`,
    in lexicographic point order, after PointConfiguration's checks: (n, d)
    points in the window, one positive multiplicity each (all one when
    None), and pairwise distinct points.

    With `sizes`, the rows are consecutive replications of sizes[r] atoms
    each: one lexsort keyed by (replication, coordinates) orders every
    replication at once, and only points within one replication must be
    distinct. The returned arrays never share the caller's memory.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, window.dimension)
    if pts.ndim != 2 or pts.shape[1] != window.dimension:
        raise ValueError("points must be an (n, d) array matching the window dimension")
    if multiplicities is None:
        mult = np.ones(len(pts), dtype=np.int64)
    else:
        mult = np.asarray(multiplicities, dtype=np.int64)
        if mult.shape != (len(pts),) or (len(mult) and mult.min() < 1):
            raise ValueError("multiplicities must be positive, one per point")
    if len(pts) and not ((pts >= window._low) & (pts <= window._high)).all():
        raise ValueError("all points must lie inside the window")
    if len(pts) < 2:
        return pts.copy(), mult.copy()
    keys = pts.T[::-1]
    if sizes is not None:
        rep = np.repeat(np.arange(len(sizes)), sizes)
        keys = (*keys, rep)
    order = np.lexsort(keys)
    pts, mult = pts[order], mult[order]
    same = (pts[1:] == pts[:-1]).all(axis=1)
    if sizes is not None:
        same &= rep[1:] == rep[:-1]  # rep is sorted already: it is the primary key
    if same.any():
        raise ValueError("points must be pairwise distinct")
    return pts, mult


class PointConfiguration:
    """Finite point configuration: atoms with multiplicities in a window.

    Atoms are stored in lexicographic order, which makes configurations
    canonical: equal inputs compare equal and serialize identically. The
    order and the checks are `canonical_atoms` on one replication.
    """

    __slots__ = ("points", "multiplicities", "window", "_hash")

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        multiplicities: Optional[Sequence[int]] = None,
        window: Window = None,
    ):
        if window is None:
            raise ValueError("a point configuration needs its window")
        pts, mult = canonical_atoms(points, multiplicities, window)
        pts.setflags(write=False)
        mult.setflags(write=False)
        self.points = pts
        self.multiplicities = mult
        self.window = window
        self._hash = None

    @property
    def dimension(self) -> int:
        return self.window.dimension

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    @property
    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def is_simple(self) -> bool:
        return bool(np.all(self.multiplicities == 1))

    def __len__(self) -> int:
        return self.n_atoms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointConfiguration)
            and self.window == other.window
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.multiplicities, other.multiplicities)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.window, self.points.tobytes(), self.multiplicities.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"PointConfiguration({self.n_atoms} atoms, window {self.window.low}..{self.window.high})"


# signature of the pluggable process samplers consumed elsewhere
ProcessSampler = Callable[[Window, Seed], PointConfiguration]


@dataclass(frozen=True)
class DiscreteIntensity:
    """Intensity measure with mass c at each of finitely many sites."""

    sites: Tuple[Tuple[float, ...], ...]
    c: float

    def __post_init__(self):
        # a copy, so that freezing it leaves a caller's array writable
        site_array = np.array(self.sites, dtype=float)
        object.__setattr__(self, "sites", tuple(zip(*site_array.T.tolist())))
        if self.c <= 0.0:
            raise ValueError(f"per-site mass must be positive, got {self.c}")
        if len(site_array) > 1:
            # one sort of the first coordinates finds the sites that share
            # one; only those can be equal, and lexicographic order puts
            # equal ones next to each other
            first = np.sort(site_array[:, 0])
            tied = site_array[np.isin(site_array[:, 0], first[1:][first[1:] == first[:-1]])]
            tied = tied[np.lexsort(tied.T[::-1])]
            if (tied[1:] == tied[:-1]).all(axis=1).any():
                raise ValueError("intensity sites must be pairwise distinct")
        # derived once; a plain attribute, so not part of eq, hash or repr
        site_array.setflags(write=False)
        object.__setattr__(self, "_site_array", site_array)


def sample_poisson_homogeneous(
    lam: float, window: Window, seed: Union[Seed, np.random.Generator]
) -> PointConfiguration:
    """Homogeneous Poisson process with intensity lam on the window.

    The total count is Poisson(lam * volume); given the count, points
    are independent and uniform. All multiplicities are one.
    """
    return PointConfiguration(*poisson_homogeneous_atoms(lam, window, seed), window)


def poisson_homogeneous_atoms(
    lam: float, window: Window, seed: Union[Seed, np.random.Generator]
) -> Tuple[np.ndarray, np.ndarray]:
    """The points sample_poisson_homogeneous draws, in draw order, and
    their multiplicities, all one."""
    if lam <= 0.0:
        raise ValueError(f"intensity must be positive, got {lam}")
    rng = make_rng(seed)
    n = poisson_count(rng, lam * window.volume())
    return window._low + rng.random((n, window.dimension)) * window._extent, np.ones(n, dtype=np.int64)


def sample_poisson_discrete(
    rho: DiscreteIntensity, seed: Union[Seed, np.random.Generator], window: Optional[Window] = None
) -> PointConfiguration:
    """Poisson process with discrete intensity: site e carries an
    independent Poisson(c) multiplicity, zero-count sites are omitted."""
    if window is None:
        window = _bounding_window(rho._site_array)
    return PointConfiguration(*poisson_discrete_atoms(rho, seed), window)


def poisson_discrete_atoms(
    rho: DiscreteIntensity, seed: Union[Seed, np.random.Generator]
) -> Tuple[np.ndarray, np.ndarray]:
    """The occupied sites and their counts that sample_poisson_discrete
    draws, in site order."""
    counts = poisson_counts(make_rng(seed), rho.c, len(rho._site_array))
    keep = counts > 0
    return rho._site_array[keep], counts[keep]


def _bounding_window(sites: np.ndarray, pad: float = 0.5) -> Window:
    if len(sites) == 0:
        raise ValueError("cannot derive a window from zero sites; pass one explicitly")
    low = sites.min(axis=0) - pad
    high = sites.max(axis=0) + pad
    return Window(tuple(low), tuple(high))


def support(eta: PointConfiguration) -> PointConfiguration:
    """Forget multiplicities: same point set, every atom counted once."""
    return PointConfiguration(eta.points, None, eta.window)


def deterministic_lattice(sites: Sequence[Sequence[float]], window: Window) -> PointConfiguration:
    """The process that produces exactly these sites, with probability one."""
    return PointConfiguration(np.asarray(sites, dtype=float).reshape(-1, window.dimension), None, window)


def min_pairwise_distance(points: Sequence[Sequence[float]]) -> float:
    """`pdist(points).min()` without the O(n^2) array: the pairs near the
    nearest-neighbour minimum are measured with pdist's formula."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 2:
        raise TooFewPoints("need at least two points for a pairwise distance")
    tree = cKDTree(pts)
    r = tree.query(pts, k=2)[0][:, 1].min()
    i, j = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
    return float(np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1)).min())


def barycentre_shift(
    eta: PointConfiguration, sites: Sequence[Sequence[float]], epsilon: float
) -> PointConfiguration:
    """Replace the points near each site by their barycentre.

    Each site e receives the multiplicity-weighted barycentre of the
    atoms in the open ball B_eps(e), or e itself when that ball is
    empty. Requires 2*epsilon below the minimal site spacing so the
    balls cannot intersect; the output then has exactly one point per
    site, each within epsilon of its site.
    """
    site_arr = np.atleast_2d(np.asarray(sites, dtype=float))
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if len(site_arr) >= 2 and 2.0 * epsilon >= min_pairwise_distance(site_arr):
        raise BallsOverlap(
            f"2*epsilon = {2 * epsilon} reaches the minimal site spacing"
        )
    from scipy.spatial import cKDTree

    out = site_arr.copy()
    if eta.n_atoms:
        tree = cKDTree(site_arr)
        # a point within epsilon of a site has no other site within
        # epsilon, so a bounded query finds the same site; the bound sits
        # a hair above epsilon, so that rounding in the kd-tree's own cut
        # cannot drop a point the open-ball test below keeps
        dist, idx = tree.query(eta.points, k=1, distance_upper_bound=epsilon * (1.0 + 1e-9))
        near = dist < epsilon  # open ball
        if np.any(near):
            weights = eta.multiplicities[near].astype(float)
            targets = idx[near]
            sums = np.zeros_like(site_arr)
            np.add.at(sums, targets, eta.points[near] * weights[:, None])
            totals = np.zeros(len(site_arr))
            np.add.at(totals, targets, weights)
            hit = totals > 0
            out[hit] = sums[hit] / totals[hit, None]
    return PointConfiguration(out, None, eta.window)
