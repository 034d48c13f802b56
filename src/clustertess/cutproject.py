"""Silver-mean cut-and-project chains and their randomizations.

The planar lattice {(u + v*sqrt(2), u - v*sqrt(2)) : u, v integers},
cut with the strip |second coordinate| <= 1/sqrt(2) and projected to
the first coordinate, yields the vertex set of the silver-mean chain,
an aperiodic tiling with prototile lengths 1 and 1 + sqrt(2).

Index arithmetic stays in exact integers; the projections are evaluated
in floating point only at the final comparison, with an explicit
tolerance at the strip boundary. No lattice point attains the boundary
exactly (u - v*sqrt(2) = 1/sqrt(2) has no integer solution), so the
within-tolerance-inclusive rule is unobservable for exact inputs and
matters only for shifted points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import AmbiguousDecomposition, DuplicatePoints, EpsilonTooLarge
from .geometry import EPS_GEOM
from .pointproc import DiscreteIntensity, ProcessSampler, Window, barycentre_shift, sample_poisson_discrete

SQRT2 = math.sqrt(2.0)

# half-width of the acceptance strip
STRIP_HALF_WIDTH = 1.0 / SQRT2

# minimal distance between distinct lattice points (attained at (u, v) = (1, 0))
MIN_LATTICE_DISTANCE = SQRT2


@dataclass(frozen=True, order=True)
class LatticeIndex:
    """Integer coordinates (u, v) of one lattice point."""

    u: int
    v: int

    def embed(self) -> Tuple[float, float]:
        return (self.u + self.v * SQRT2, self.u - self.v * SQRT2)

    @property
    def pi(self) -> float:
        """Projection onto the chain axis."""
        return self.u + self.v * SQRT2

    @property
    def pi_star(self) -> float:
        """Internal-space projection tested against the strip."""
        return self.u - self.v * SQRT2


@dataclass(frozen=True)
class Chain:
    """Sorted chain vertices; tiles are the consecutive differences."""

    vertices: Tuple[float, ...]

    def __post_init__(self):
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not (b > a):
                raise ValueError("chain vertices must be strictly increasing")

    @property
    def tiles(self) -> Tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.vertices, self.vertices[1:]))

    def __len__(self) -> int:
        return len(self.vertices)


def _embed(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.column_stack((u + v * SQRT2, u - v * SQRT2))


def _indices(u: np.ndarray, v: np.ndarray) -> List[LatticeIndex]:
    return [LatticeIndex(a, b) for a, b in zip(u.tolist(), v.tolist())]


def _lattice_box(low: Sequence[float], high: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The (u, v) int64 arrays of the lattice points embedded in the
    closed, finite box [low, high], ordered by v, then u. x - y =
    2 v sqrt(2) bounds v, and x and y then bound u; both integer ranges
    reach one index further on each side, so rounding cannot drop a
    point, and the embedding is tested as `LatticeIndex.embed` evaluates it."""
    (x_lo, y_lo), (x_hi, y_hi) = low, high
    step = 2.0 * SQRT2
    v = np.arange(math.ceil((x_lo - y_hi) / step) - 1, math.floor((x_hi - y_lo) / step) + 2, dtype=np.int64)
    shift = v * SQRT2
    u_min = np.ceil(np.maximum(x_lo - shift, y_lo + shift)).astype(np.int64) - 1
    u_max = np.floor(np.minimum(x_hi - shift, y_hi + shift)).astype(np.int64) + 1
    counts = np.maximum(u_max - u_min + 1, 0)
    starts = np.cumsum(counts) - counts
    u = np.repeat(u_min - starts, counts) + np.arange(counts.sum(), dtype=np.int64)
    v = np.repeat(v, counts)
    x, y = _embed(u, v).T
    keep = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
    return u[keep], v[keep]


def _band(x_lo: float, x_hi: float, half_width: float) -> Tuple[np.ndarray, np.ndarray]:
    """`band_points` as (u, v) index arrays, in its order."""
    if not -math.inf < x_lo < x_hi < math.inf:
        raise ValueError(f"need finite x_lo < x_hi, got [{x_lo}, {x_hi}]")
    tol = EPS_GEOM * max(1.0, abs(x_lo), abs(x_hi), half_width)
    u, v = _lattice_box((x_lo - tol, -(half_width + tol)), (x_hi + tol, half_width + tol))
    # by projection; ties keep the v-then-u order of the box
    order = np.lexsort((u, v, u + v * SQRT2))
    return u[order], v[order]


def band_points(x_lo: float, x_hi: float, half_width: float) -> List[LatticeIndex]:
    """Lattice indices with projection in [x_lo, x_hi] and internal
    projection within +-half_width, sorted by projection: the points of
    `_lattice_box` on the band grown by EPS_GEOM (relative) on each side.
    The range must be finite with x_lo < x_hi."""
    return _indices(*_band(x_lo, x_hi, half_width))


def strip_points(x_lo: float, x_hi: float) -> List[LatticeIndex]:
    """Lattice indices inside the silver-mean strip with projection in
    [x_lo, x_hi], sorted by projection."""
    return band_points(x_lo, x_hi, STRIP_HALF_WIDTH)


def chain_from_points(xs: Sequence[float]) -> Chain:
    """Sort chain vertices; each adjacent pair is one tile.

    Adjacency is exactly the two-point cluster relation for a
    one-dimensional configuration: a pair is a tile iff the open
    interval between its members contains no other vertex. Vertices
    within EPS_GEOM (relative) of each other raise DuplicatePoints.
    """
    values = sorted(float(x) for x in xs)
    if values:
        scale = max(1.0, max(abs(v) for v in values))
        for a, b in zip(values, values[1:]):
            if b - a <= EPS_GEOM * scale:
                raise DuplicatePoints(f"chain vertices {a} and {b} coincide within tolerance")
    return Chain(tuple(values))


def deterministic_chain(x_lo: float, x_hi: float) -> Chain:
    """The silver-mean chain itself: projections of the strip lattice."""
    u, v = _band(x_lo, x_hi, STRIP_HALF_WIDTH)
    return chain_from_points((u + v * SQRT2).tolist())


def _strip_window(x_lo: float, x_hi: float, pad: float) -> Window:
    return Window(
        (x_lo - pad, -(STRIP_HALF_WIDTH + pad)),
        (x_hi + pad, STRIP_HALF_WIDTH + pad),
    )


def thinned_chain(c: float, x_lo: float, x_hi: float, seed: int) -> Chain:
    """Chain of a random lattice subset: each strip site survives
    independently with probability 1 - exp(-c).

    Realized as the support of a Poisson field with per-site mass c on
    the strip sites, then projecting and chaining the survivors. Tile
    lengths are sums of original tiles, hence of the form n + m*sqrt(2)
    with nonnegative integers.
    """
    if c <= 0.0:
        raise ValueError(f"per-site mass must be positive, got {c}")
    rho = DiscreteIntensity(_embed(*_band(x_lo, x_hi, STRIP_HALF_WIDTH)), c)
    eta = sample_poisson_discrete(rho, seed, window=_strip_window(x_lo, x_hi, 1.0))
    # the atoms are the occupied sites, each once
    return chain_from_points(eta.points[:, 0].tolist())


def shifted_chain(epsilon: float, base: ProcessSampler, x_lo: float, x_hi: float, seed: int) -> Chain:
    """Chain of the barycentre-shifted lattice.

    Every lattice point whose epsilon-ball can reach the strip and the
    projected range contributes one point: the barycentre of the base
    process inside its ball, or the lattice point itself when the ball
    is empty. The shifted points are then cut with the strip and the
    range, and chained. Each vertex lies within epsilon of the
    projection of its lattice site; sites deep inside the strip always
    contribute and sites far outside never do, only the epsilon-fringe
    is random.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= MIN_LATTICE_DISTANCE / 2.0:
        raise EpsilonTooLarge(
            f"epsilon = {epsilon} reaches half the minimal lattice distance {MIN_LATTICE_DISTANCE / 2}"
        )
    sites = _embed(*_band(x_lo - epsilon, x_hi + epsilon, STRIP_HALF_WIDTH + epsilon))
    window = _strip_window(x_lo, x_hi, 2.0 * epsilon + 0.5)
    eta = base(window, seed)
    x, y = barycentre_shift(eta, sites, epsilon).points.T
    tol = EPS_GEOM * max(1.0, abs(x_lo), abs(x_hi))
    keep = (np.abs(y) <= STRIP_HALF_WIDTH + tol) & (x >= x_lo - tol) & (x <= x_hi + tol)
    return chain_from_points(x[keep].tolist())


def decompose_length(
    length: float, n_max: int, tol: float
) -> Optional[Tuple[int, int]]:
    """The unique nonnegative integer pair (n, m) with
    |length - (n + m*sqrt(2))| <= tol, both at most n_max.

    Returns None when no pair matches; raises AmbiguousDecomposition
    when the tolerance admits more than one (tol too large for n_max).
    """
    hits = decompose_lengths([length], [n_max], tol)[0]
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousDecomposition(
            f"length {length} matches {hits} within tol = {tol}"
        )
    return hits[0]


# (length, m) pairs per array pass of decompose_lengths; bounds its memory
_DECOMPOSE_BLOCK = 1 << 16


def decompose_lengths(
    lengths: Sequence[float], n_max: Sequence[int], tol: float
) -> List[List[Tuple[int, int]]]:
    """For each length, every pair (n, m) of integers in 0..n_max with
    |length - (n + m*sqrt(2))| <= tol, sorted.

    For each m, only n within tol of length - m*sqrt(2), +-1 for
    rounding, can match; that window of n is tested with the float
    expression above. All (length, m) pairs are evaluated in array
    passes of _DECOMPOSE_BLOCK pairs.
    """
    length = np.asarray(lengths, dtype=float)
    if not (np.isfinite(length).all() and math.isfinite(tol)):
        raise ValueError(f"need finite lengths and tol, got {lengths} and {tol}")
    sizes = np.maximum(np.asarray(n_max, dtype=np.int64), -1) + 1  # m = 0..n_max
    ends = np.cumsum(sizes)
    found = [(np.zeros(0, np.int64),) * 3]  # (length index, n, m) of the matches
    for start in range(0, int(ends[-1]) if len(ends) else 0, _DECOMPOSE_BLOCK):
        pair = np.arange(start, min(start + _DECOMPOSE_BLOCK, int(ends[-1])))
        which = np.searchsorted(ends, pair, side="right")
        m = pair - ends[which] + sizes[which]
        m_sqrt2 = m * SQRT2
        rest = length[which] - m_sqrt2
        lo = np.maximum(0.0, np.floor(rest - tol) - 1.0)
        hi = np.minimum(sizes[which] - 1, np.ceil(rest + tol) + 1.0)
        n = lo[:, None] + np.arange(max(0, int((hi - lo).max()) + 1))
        match = (n <= hi[:, None]) & (np.abs(length[which, None] - (n + m_sqrt2[:, None])) <= tol)
        row = np.nonzero(match)[0]
        found.append((which[row], n[match].astype(np.int64), m[row]))
    index, n, m = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((m, n, index))
    hits: List[List[Tuple[int, int]]] = [[] for _ in range(len(length))]
    for i, a, b in zip(index[order].tolist(), n[order].tolist(), m[order].tolist()):
        hits[i].append((a, b))
    return hits


def lattice_sites_in_window(window: Window) -> List[LatticeIndex]:
    """All lattice indices whose embedded point lies in a planar window,
    boundary included, sorted by (u, v)."""
    return _indices(*_window_indices(window))


def _window_indices(window: Window) -> Tuple[np.ndarray, np.ndarray]:
    """`lattice_sites_in_window` as (u, v) index arrays, in its order."""
    if window.dimension != 2:
        raise ValueError("the lattice is planar; need a 2D window")
    u, v = _lattice_box(window.low, window.high)
    order = np.lexsort((v, u))
    return u[order], v[order]
