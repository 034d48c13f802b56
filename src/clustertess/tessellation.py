"""Validation of cluster configurations as tessellations.

Face-to-face here follows the tiling convention that tolerates holes:
two intersecting tiles must meet in a whole common face, but the union
of tiles need not cover the window. Coverage is therefore measured
separately, by Monte Carlo, with a reported standard error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NonSimplicialInput, UnsupportedDimension
from .geometry import (
    EPS_GEOM,
    SINGULAR_DET,
    Cluster,
    FaceRelation,
    circumballs,
    common_face_check,  # noqa: F401 -- benchmarks/spans.py counts calls through this binding
    face_relations,
    facet_planes,
)
from .clusterprops import ClusterConfiguration
from .randomness import make_rng
from .stats import SIGMA_BAND


@dataclass
class TessellationReport:
    face_to_face: Optional[bool] = None
    violations: Tuple[Tuple[int, int], ...] = ()
    simplicial: Optional[bool] = None
    covered_fraction: Optional[float] = None
    coverage_se: Optional[float] = None
    holes_detected: Optional[bool] = None

    def __post_init__(self):
        if self.face_to_face is not None and self.face_to_face != (not self.violations):
            raise ValueError("violations must be empty exactly when face-to-face holds")
        if self.covered_fraction is not None and not (0.0 <= self.covered_fraction <= 1.0):
            raise ValueError("covered fraction must lie in [0, 1]")


def check_simplicial(cfg: ClusterConfiguration) -> bool:
    """True iff every cluster is d+1 affinely independent points in R^d,
    d the dimension of cfg.source_window, by `circumball`'s degeneracy
    rule (one batched `circumballs` call)."""
    return _circumscribed(cfg) is not None


def _circumscribed(cfg: ClusterConfiguration):
    """The clusters as an (m, d+1, d) array with their circumcentres and
    circumradii, or None unless `check_simplicial` holds."""
    d = cfg.source_window.dimension
    if not all(c.dimension == d and len(c) == d + 1 for c in cfg.clusters):
        return None
    simplices = np.array([c.points for c in cfg.clusters], dtype=float).reshape(-1, d + 1, d)
    centers, radii, ok = circumballs(simplices)
    return (simplices, centers, radii) if ok.all() else None


def check_face_to_face(cfg: ClusterConfiguration) -> TessellationReport:
    """Pairwise face-to-face check over all clusters of the configuration.

    Candidate pairs are those whose bounding boxes overlap within
    atol = EPS_GEOM * scale (scale: the largest coordinate magnitude, at
    least 1), found by a sort-and-sweep on the lowest x.

    Empty circumballs, the property Delone clusters are built from,
    settle most pairs (Edelsbrunner and Seidel 1986; Aurenhammer 1991):
    lift each point p to (p, |p|^2); if every unshared vertex of each
    simplex lies strictly outside the other's circumsphere, a common
    point has its lifted weights on the shared vertices of both, so the
    two meet exactly in their shared face. A simplex is certified when
    one kd-tree query over the distinct vertices finds none but its own
    within r + m of its circumcentre: r its circumradius and m = 4 atol
    D / max(r_in, atol), D its longest edge and r_in its inradius, a
    bound on how far the float circumcentre and the face test stray.

    A pair of certified simplices meets properly, unless it shares fewer
    than d vertices and d of the two simplices' unit facet normals have
    |det| from SINGULAR_DET / 2 up to 1e-5. The face test solves such a
    subset and may land its vertex beyond tolerance, reading the pair as
    improper; that verdict is kept until the test is exact. Those pairs
    and every pair with an uncertified simplex are decided by
    `face_relations`, the batched face test, in blocks of _BLOCK pairs.

    The returned report carries the improper pairs as (i, j) indices
    into cfg.clusters, i < j, in ascending order. Input that fails
    `check_simplicial` raises `NonSimplicialInput`.
    """
    circumscribed = _circumscribed(cfg)
    if circumscribed is None:
        raise NonSimplicialInput(
            "face-to-face checking needs discrete simplices; run check_simplicial first"
        )
    violations = _violations(*circumscribed)
    return TessellationReport(face_to_face=not violations, violations=violations, simplicial=True)


def _violations(verts, centers, radii) -> Tuple[Tuple[int, int], ...]:
    """The improper pairs of `check_face_to_face`, from `_circumscribed`."""
    m, _, d = verts.shape
    if not m:
        return ()
    atol = EPS_GEOM * max(1.0, float(np.abs(verts).max()))
    i, j = _box_overlap_pairs(verts.min(axis=1), verts.max(axis=1), atol)
    # above d = 3, the face test raises UnsupportedDimension on any pair
    certified = _certified_pairs(verts, centers, radii, atol, i, j) if d <= 3 else np.zeros(len(i), dtype=bool)
    todo = np.nonzero(~certified)[0]
    improper = np.zeros(len(i), dtype=bool)
    for s in range(0, len(todo), _BLOCK):
        k = todo[s : s + _BLOCK]
        improper[k] = face_relations(verts[i[k]], verts[j[k]]) == FaceRelation.IMPROPER.value
    return tuple(zip(i[improper].tolist(), j[improper].tolist()))


# pairs decided per batch, which bounds the working memory
_BLOCK = 4096
# swept box pairs tested per block, which bounds the sweep's memory
_SWEEP_BLOCK = 1 << 20
# the face test solves each d-subset of two simplices' facet planes
# whose unit normals have |det| >= SINGULAR_DET; below this bound such
# a solve can land up to 1e-7 off, beyond its tolerance
_WELL_CONDITIONED_DET = 1e-5
# the vertices of each facet of a tetrahedron; facet k omits vertex k,
# as in `facet_planes`
_TETRAHEDRON_FACETS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def _box_overlap_pairs(lows: np.ndarray, highs: np.ndarray, atol: float):
    """Index pairs (i, j), i < j, ascending, whose boxes overlap within
    atol. The x sweep's pairs are tested in blocks of at most about
    _SWEEP_BLOCK, and only the kept ones are gathered."""
    order = np.argsort(lows[:, 0], kind="stable")
    start = np.arange(1, len(order) + 1)
    # 2 atol: a superset of the exact test below, whatever its rounding
    stop = np.searchsorted(lows[order, 0], highs[order, 0] + 2 * atol, side="right")
    counts = np.maximum(stop - start, 0)
    kept_i, kept_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for block in _blocks(counts, _SWEEP_BLOCK):
        a = order[np.repeat(np.arange(block.start, block.stop), counts[block])]
        b = order[_ranges(start[block], counts[block])]
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = np.all((lows[j] <= highs[i] + atol) & (highs[j] >= lows[i] - atol), axis=1)
        kept_i.append(i[keep])
        kept_j.append(j[keep])
    i, j = np.concatenate(kept_i), np.concatenate(kept_j)
    ranked = np.lexsort((j, i))
    return i[ranked], j[ranked]


def _certified_pairs(verts, centers, radii, atol: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per pair (verts[i[p]], verts[j[p]]) of simplices, d <= 3, with
    their circumballs: whether the certificate of `check_face_to_face`
    proves that it meets properly."""
    from scipy.spatial import cKDTree

    m, n, d = verts.shape
    normals, units, _ = facet_planes(verts)
    with np.errstate(divide="ignore", invalid="ignore"):  # subnormal edges
        volume = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1]))  # d! times the volume
        inradius = volume / np.linalg.norm(normals, axis=-1).sum(axis=1)
    longest = np.linalg.norm(verts[:, :, None] - verts[:, None], axis=-1).max(axis=(1, 2))
    reach = radii + 4.0 * atol * longest / np.maximum(inradius, atol)
    distinct, index = np.unique(verts.reshape(-1, d), axis=0, return_inverse=True)
    index = index.reshape(m, n)
    found = cKDTree(distinct).query_ball_point(centers, reach, return_length=True)
    certified = found == n  # its own vertices only
    proper = certified[i] & certified[j]
    shared = (index[i][:, :, None] == index[j][:, None]).sum(axis=(1, 2))
    loose = np.nonzero(proper & (shared < d))[0]
    subsets = np.array(list(itertools.combinations(range(2 * n), d)))
    for s in range(0, len(loose), _BLOCK):
        p = loose[s : s + _BLOCK]
        axes = np.concatenate([units[i[p]], units[j[p]]], axis=1)
        det = np.abs(_small_det(axes[:, subsets]))
        proper[p] = np.all((det < SINGULAR_DET / 2) | (det >= _WELL_CONDITIONED_DET), axis=1)
    return proper


def _small_det(a: np.ndarray) -> np.ndarray:
    """The determinants of the trailing d x d matrices of a, d <= 3, in
    closed form. They differ from LU's by rounding, which the guard's
    margins on both sides of its band absorb."""
    d = a.shape[-1]
    if d == 1:
        return a[..., 0, 0]
    if d == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return (a[..., 0, :] * np.cross(a[..., 1, :], a[..., 2, :])).sum(axis=-1)


def hull_contains_points(cluster: Cluster, queries: np.ndarray) -> np.ndarray:
    """Membership of query points in the convex hull of a cluster.

    Supports intervals (d = 1), convex polygons (d = 2, any vertex
    count) and simplices in d = 3, each by inward halfspace tests with
    tolerance tol = EPS_GEOM * max(1, largest vertex coordinate magnitude):

    - d = 1: the interval from the lowest to the highest vertex, +- tol;
    - d = 2: the vertices ordered by angle about their centroid, and
      edge x (q - a) >= -tol * max(1, |edge|) for each edge a -> a + edge;
    - d = 3: the `facet_planes` halfspaces, offset outward by tol; a
      flat simplex (one `circumballs` rejects) contains nothing.

    For d > 1 a cluster of fewer than d + 1 points contains nothing; a
    larger one in d = 3 that is not a simplex, or one in d > 3, raises
    `UnsupportedDimension`. This is the kernel of `covered_fraction` run
    on one cluster; the barycentric-coordinate route stays available to
    tests as an independent oracle.
    """
    return _hull_cover((cluster,), np.atleast_2d(np.asarray(queries, dtype=float)))


def covered_fraction(cfg: ClusterConfiguration, n_samples: int, seed: int) -> Tuple[float, float]:
    """Monte-Carlo estimate of the fraction of cfg.source_window, eroded
    by its buffer margin, covered by the union of the cluster hulls.

    A sample is covered when `hull_contains_points` holds for it and
    some cluster. All (sample, cluster) pairs are decided in one pass:
    each cluster meets only the samples in its bounding box, padded by
    a bound on how far its tolerance reaches past its hull. An
    unsupported cluster raises `UnsupportedDimension` wherever it stands
    in the configuration.

    Returns (fraction, standard error).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    window = cfg.source_window
    region = window.erode(window.buffer_margin) if window.buffer_margin > 0 else window
    rng = make_rng(seed)
    samples = np.asarray(region.low) + rng.random((n_samples, region.dimension)) * region.extent()
    covered = _hull_cover(cfg.clusters, samples)
    fraction = float(covered.mean())
    se = float(np.sqrt(fraction * (1.0 - fraction) / n_samples))
    return fraction, se


# swept (query, cluster vertex) pairs decided per block, which bounds
# the working memory of the coverage kernel
_COVER_BLOCK = 1 << 18
# a bound on the rounding of the membership expressions relative to the
# largest coordinate involved (they err by a few ulps), with a margin
_ROUNDING = 2.0**-40


def _hull_cover(clusters, queries: np.ndarray) -> np.ndarray:
    """Per query point, whether it lies in the hull of some cluster, by
    the tests of `hull_contains_points`.

    The clusters are grouped by dimension and point count. Each group
    gives every cluster a box, the box of its vertices padded by the
    reach of its tolerance (see `_reach`); the queries are sorted on x,
    each box takes its x range by `searchsorted` and the other axes
    filter those, and the group's test decides the pairs left, in
    blocks of clusters whose swept pairs times the point count stay
    within _COVER_BLOCK.
    """
    groups = {}
    for cluster in clusters:
        d, n = cluster.dimension, len(cluster)
        if d > 1 and n < d + 1:
            continue  # measure-zero hull
        if d == 3 and n != 4:
            raise UnsupportedDimension("3D hull membership is implemented for simplices only")
        if d > 3:
            raise UnsupportedDimension(f"hull membership not implemented for d = {d}")
        groups.setdefault((d, n), []).append(cluster)
    order = np.argsort(queries[:, 0], kind="stable")
    q = queries[order]
    axes = q.T.copy()  # one contiguous column per axis
    size = float(np.abs(q).max(initial=1.0))
    inside = np.zeros(len(q), dtype=bool)
    for (d, n), members in groups.items():
        pts = np.array([c.points for c in members], dtype=float)
        scale = np.maximum(1.0, np.abs(pts).max(axis=(1, 2)))
        lows, highs, test = _GROUP_TESTS[d](pts, scale, EPS_GEOM * scale, size)
        lows, highs = lows.T.copy(), highs.T.copy()
        first = np.searchsorted(axes[0], lows[0], side="left")
        counts = np.maximum(np.searchsorted(axes[0], highs[0], side="right") - first, 0)
        for block in _blocks(counts, _COVER_BLOCK // n):
            c = np.repeat(np.arange(block.start, block.stop), counts[block])
            s = _ranges(first[block], counts[block])
            keep = np.ones(len(s), dtype=bool)
            for axis in range(1, d):
                value = axes[axis][s]
                keep &= (value >= lows[axis][c]) & (value <= highs[axis][c])
            c, s = c[keep], s[keep]
            inside[s[test(c, q[s])]] = True
    covered = np.empty(len(q), dtype=bool)
    covered[order] = inside
    return covered


def _interval_group(pts, scale, tol, size: float):
    """d = 1: the box is the test itself."""
    lo, hi = pts.min(axis=(1, 2)) - tol, pts.max(axis=(1, 2)) + tol

    def test(c, q):
        return (q[:, 0] >= lo[c]) & (q[:, 0] <= hi[c])

    return lo[:, None], hi[:, None], test


def _polygon_group(pts, scale, tol, size: float):
    """d = 2, polygons of one vertex count."""
    centroid = pts.mean(axis=1)
    angles = np.arctan2(pts[:, :, 1] - centroid[:, 1:], pts[:, :, 0] - centroid[:, :1])
    ring = np.take_along_axis(pts, np.argsort(angles, axis=1, kind="stable")[..., None], axis=1)
    edge = np.roll(ring, -1, axis=1) - ring
    # through np.linalg.norm's own dot product, so the lengths match it
    length = np.sqrt((edge[..., None, :] @ edge[..., :, None])[..., 0, 0])
    bound = -tol[:, None] * np.maximum(1.0, length)

    def test(c, q):
        return np.all(_cross(ring[c], edge[c], q[:, None]) >= bound[c], axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):  # edges too short to measure
        depth = _cross(ring, edge, centroid[:, None]) / length
        slack = -bound / length
    reach = _reach(pts, centroid, depth, slack, np.maximum(size, scale))
    return pts.min(axis=1) - reach[:, None], pts.max(axis=1) + reach[:, None], test


def _simplex_group(pts, scale, tol, size: float):
    """d = 3, simplices; a flat one contains nothing and gets an empty box."""
    centroid = pts.mean(axis=1)
    _, units, offsets = facet_planes(pts)
    with np.errstate(invalid="ignore"):  # flat simplices, boxed empty below
        # a near-flat facet's plane can miss its other vertices by more
        # than rounding: measure at the lowest of them
        low = (pts[:, _TETRAHEDRON_FACETS] @ units[..., None])[..., 0].min(axis=2)
        depth = low - (units @ centroid[..., None])[..., 0]
        slack = tol[:, None] + offsets - low
    reach = _reach(pts, centroid, depth, slack, np.maximum(size, scale))
    lows, highs = pts.min(axis=1) - reach[:, None], pts.max(axis=1) + reach[:, None]
    lows[~circumballs(pts)[2]] = np.inf  # flat: the box starts past every query

    def test(c, q):
        # the pairs of one cluster are consecutive; each run is tested as
        # the scalar test does, one matrix-vector product per plane
        inside = np.ones(len(c), dtype=bool)
        runs = np.flatnonzero(np.diff(c, prepend=-1, append=-1))
        for a, b in zip(runs[:-1], runs[1:]):
            for normal, offset in zip(units[c[a]], offsets[c[a]]):
                inside[a:b] &= q[a:b] @ normal <= offset + tol[c[a]]
        return inside

    return lows, highs, test


_GROUP_TESTS = {1: _interval_group, 2: _polygon_group, 3: _simplex_group}


def _cross(a: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """e x (q - a) in 2D, positive where q lies left of the line a -> a + e."""
    return e[..., 0] * (q[..., 1] - a[..., 1]) - e[..., 1] * (q[..., 0] - a[..., 0])


def _reach(pts, centre, depth, slack, size) -> np.ndarray:
    """Per cluster, how far its tolerant test can accept a point beyond
    the hull of its vertices, or inf where no bound is proven.

    depth: (m, f) the least distance of the vertices of facet f beyond
    the centre, along the unit normal of the test's plane for f; slack:
    (m, f) how far past those vertices that plane lets the test accept.
    Cone the space from the centre over the facets: in the cone of
    facet f a point the test accepts lies within (slack + rounding) /
    (depth - rounding) times R of that facet, R the centre's largest
    distance to a vertex. The rounding of every expression stays below
    delta = _ROUNDING * size (size: the largest coordinate magnitude of
    the cluster and the queries), hence a reach of
    2 (slack + 2 delta) R / depth + delta once depth >= 4 delta. A flat
    or near-flat cluster fails that test and is tried on every query.
    """
    delta = _ROUNDING * size
    radius = np.sqrt(((pts - centre[:, None]) ** 2).sum(axis=2)).max(axis=1)
    inner = depth.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = 2.0 * (slack.max(axis=1) + 2.0 * delta) * radius / inner + delta
    return np.where((inner >= 4.0 * delta) & (reach < np.inf), reach, np.inf)


def _blocks(counts: np.ndarray, cap: int):
    """Consecutive slices of `counts` whose sums stay within cap; a
    single count above cap forms a block of its own."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield slice(start, stop)
        start = stop


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + n) over (s, n) in zip(starts, counts)."""
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return offsets + np.repeat(starts, counts)


def build_report(cfg: ClusterConfiguration, n_samples: int = 2000, seed: int = 0) -> TessellationReport:
    """Full report on cfg, in the dimension of cfg.source_window: the
    simplicial check, face-to-face where it holds, Monte-Carlo coverage
    of the window (`covered_fraction`) and the holes verdict at
    SIGMA_BAND standard errors. One `circumballs` pass decides the
    simplicial check and feeds the face-to-face check."""
    circumscribed = _circumscribed(cfg)
    violations = _violations(*circumscribed) if circumscribed is not None else ()
    fraction, se = covered_fraction(cfg, n_samples, seed)
    return TessellationReport(
        face_to_face=None if circumscribed is None else not violations,
        violations=violations,
        simplicial=circumscribed is not None,
        covered_fraction=fraction,
        coverage_se=se,
        holes_detected=bool(fraction + SIGMA_BAND * se < 1.0),
    )
