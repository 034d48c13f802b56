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
    common_face_check,
    facet_planes,
)
from .clusterprops import ClusterConfiguration
from .pointproc import Window
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


def check_simplicial(cfg: ClusterConfiguration, d: int) -> bool:
    """True iff every cluster is d+1 affinely independent points in R^d,
    by `circumball`'s degeneracy rule (one batched `circumballs` call)."""
    if not all(c.dimension == d and len(c) == d + 1 for c in cfg.clusters):
        return False
    simplices = np.array([c.points for c in cfg.clusters], dtype=float).reshape(-1, d + 1, d)
    return bool(circumballs(simplices)[2].all())


def check_face_to_face(cfg: ClusterConfiguration) -> TessellationReport:
    """Pairwise face-to-face check over all clusters of the configuration.

    Candidate pairs are those whose bounding boxes overlap within
    atol = EPS_GEOM * scale (scale: the largest coordinate magnitude, at
    least 1), found by a sort-and-sweep on the lowest x. All candidate
    pairs are then decided at once, in numpy, with the shared-vertex
    rule and per-pair tolerance of `common_face_check`:

    - d+1 shared vertices: a common face;
    - d shared vertices: the opposite-sides test on the two leftover
      vertices, decided where both sides are clear of atol;
    - fewer: a separating-axis test (Ericson, Real-Time Collision
      Detection, 2004, ch. 5) over the facet normals of both simplices
      and, in 3D, the cross products of their edges. The pair meets
      properly if, on some axis, one simplex lies on the closed side of
      a hyperplane through the shared vertices and the other's unshared
      vertices lie beyond it by more than a margin; it is improper if
      every axis shows an overlap of more than the margin, for then the
      interiors meet. The margin is 4 atol (A_x + A_y), A being a
      simplex's aspect ratio (longest edge over inradius, 2 for an
      interval, about 3.5 for an equilateral triangle): four times how
      far the atol slack of the two simplices reaches.

    Every pair these tests leave undecided goes through the scalar
    `common_face_check`, which has the last word: pairs inside a
    tolerance band (vertices within 2 atol but not identical, a
    leftover vertex within 2 atol of the shared facet, touching or
    nearly touching simplices), and pairs with d facet planes whose
    solve in the scalar test is ill-conditioned (unit normals with
    |det| from SINGULAR_DET / 2 up to 1e-5). The returned report
    carries the improper pairs as (i, j) indices into cfg.clusters,
    i < j, in ascending order.
    """
    clusters = cfg.clusters
    if not clusters:
        return TessellationReport(face_to_face=True, violations=(), simplicial=True)
    d = clusters[0].dimension
    if not check_simplicial(cfg, d):
        raise NonSimplicialInput(
            "face-to-face checking needs discrete simplices; run check_simplicial first"
        )
    verts = np.array([c.points for c in clusters], dtype=float)
    lows, highs = verts.min(axis=1), verts.max(axis=1)
    atol = EPS_GEOM * max(1.0, float(np.abs(verts).max()))
    i, j = _box_overlap_pairs(lows, highs, atol)
    verdict = np.full(len(i), _UNDECIDED)
    if d <= 3:  # above, the scalar test raises UnsupportedDimension
        normals = facet_planes(verts)[0]
        shape = _simplex_shape(verts, normals)
        for s in range(0, len(i), _BLOCK):
            a, b = i[s : s + _BLOCK], j[s : s + _BLOCK]
            verdict[s : s + _BLOCK] = _pair_verdicts(verts, normals, shape, a, b)
    for k in np.nonzero(verdict == _UNDECIDED)[0]:
        relation = common_face_check(clusters[i[k]], clusters[j[k]])
        verdict[k] = _IMPROPER if relation is FaceRelation.IMPROPER else _PROPER
    improper = verdict == _IMPROPER
    violations = tuple(zip(i[improper].tolist(), j[improper].tolist()))
    return TessellationReport(
        face_to_face=not violations,
        violations=violations,
        simplicial=True,
    )


# pair verdicts: meets properly or not at all, improper, left to the scalar
_PROPER, _IMPROPER, _UNDECIDED = 0, 1, -1
# pairs decided per batch, which bounds the working memory
_BLOCK = 4096
# swept box pairs tested per block, which bounds the sweep's memory
_SWEEP_BLOCK = 1 << 20
# the scalar test solves each d-subset of the two simplices' facet
# planes whose unit normals have |det| >= SINGULAR_DET; below this
# bound such a solve can land up to 1e-7 off, beyond its tolerance, so
# pairs with one are left to the scalar test
_WELL_CONDITIONED_DET = 1e-5
# an axis taken as a cross product a x b is exact enough to certify an
# overlap when |a x b| >= this * |a| |b|: its direction then errs by
# about 1e-10 rad, a projection by far less than the margin
_MIN_AXIS_SINE = 1e-6
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


def _simplex_shape(verts: np.ndarray, normals: np.ndarray):
    """Per simplex of a batch, with its facet normals (`facet_planes`):
    the inradius, as d! times the volume over the sum of the normals'
    lengths, the longest edge, and which facet normals are sound
    (`_facet_sound`)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # subnormal edges
        volume = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1]))  # d! times the volume
        inradius = volume / np.linalg.norm(normals, axis=-1).sum(axis=1)
    longest = np.linalg.norm(_edges(verts), axis=-1).max(axis=1)
    return inradius, longest, _facet_sound(verts, normals)


def _pair_verdicts(verts: np.ndarray, normals: np.ndarray, shape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_PROPER, _IMPROPER or _UNDECIDED for each pair of simplices
    (verts[a[p]], verts[b[p]]), d <= 3, with the rules of
    `check_face_to_face`; normals are the simplices' facet normals
    (`facet_planes`) and shape their `_simplex_shape`."""
    x, y = verts[a], verts[b]
    n_pairs, n, d = x.shape
    verdict = np.full(n_pairs, _UNDECIDED)
    scale = np.maximum(1.0, np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(y).max(axis=(1, 2))))
    atol = EPS_GEOM * scale

    # shared vertices: the scalar matches vertices within atol; decide
    # only where matched vertices are identical and all others at least
    # 2 atol apart, since edges at two matched vertices even slightly
    # apart cross near them, which the scalar may count as a vertex
    same = np.all(x[:, :, None] == y[:, None], axis=-1)
    dist = np.linalg.norm(x[:, :, None] - y[:, None], axis=-1)
    clear = np.all(same | (dist >= 2 * atol[:, None, None]), axis=(1, 2))
    shared_x, shared_y = same.any(axis=2), same.any(axis=1)
    k = shared_x.sum(axis=1)

    # The atol slack of a simplex's facets is the simplex scaled about
    # its incentre by 1 + atol / r, so it reaches at most atol * D / r
    # beyond it (D the longest edge, r the inradius, taken as at least
    # atol). The margin, four times what both slacks reach together
    # (16 atol for two intervals), keeps the scalar's verdict the same.
    inradius, longest, facet_sound = shape
    normals, sound = [normals[a], normals[b]], [facet_sound[a], facet_sound[b]]
    reach = np.zeros(n_pairs)
    for simplex in (a, b):
        reach += longest[simplex] / np.maximum(inradius[simplex], atol)
    margin = 4.0 * atol * reach

    verdict[clear & (k == n)] = _PROPER
    facet = np.nonzero(clear & (k == d))[0]
    # facet f of a simplex omits vertex f; here the unshared one
    normal = normals[0][facet, np.argmin(shared_x[facet], axis=1)]
    verdict[facet] = _opposite_sides(
        x[facet], y[facet], shared_x[facet], shared_y[facet], normal, atol[facet], scale[facet]
    )
    rest = np.nonzero(clear & (k < d))[0]
    axes = _unit(np.concatenate([normals[0][rest], normals[1][rest]], axis=1))
    subsets = np.array(list(itertools.combinations(range(2 * n), d)))
    with np.errstate(divide="ignore"):  # det takes the log of a zero pivot
        det = np.abs(np.linalg.det(axes[:, subsets]))
    conditioned = np.all((det < SINGULAR_DET / 2) | (det >= _WELL_CONDITIONED_DET), axis=1)
    rest, axes = rest[conditioned], axes[conditioned]
    axes_sound = np.concatenate([sound[0][rest], sound[1][rest]], axis=1)
    if d == 3:
        u, v = _edges(x[rest])[:, :, None], _edges(y[rest])[:, None]
        edge_axes = np.cross(u, v)
        axes = np.concatenate([axes, edge_axes.reshape(len(rest), 36, 3)], axis=1)
        axes_sound = np.concatenate([axes_sound, _sound(edge_axes, u, v).reshape(len(rest), 36)], axis=1)
    verdict[rest] = _separating_axes(
        x[rest], y[rest], shared_x[rest], shared_y[rest], axes, axes_sound, atol[rest], margin[rest]
    )
    return verdict


def _opposite_sides(x, y, shared_x, shared_y, normal, atol, scale) -> np.ndarray:
    """The scalar's shared-facet test: proper iff the two leftover
    vertices lie strictly on opposite sides of the shared facet, whose
    normal (as the scalar builds it) is given."""
    n_pairs, n, d = x.shape
    origin = x[shared_x].reshape(n_pairs, d, d)[:, 0]
    length = np.linalg.norm(normal, axis=1)
    sound = (d == 1) | (length >= 2 * atol * scale)
    normal = normal / np.where(length > 0.0, length, 1.0)[:, None]
    side_x = np.einsum("pd,pd->p", normal, x[~shared_x] - origin)
    side_y = np.einsum("pd,pd->p", normal, y[~shared_y] - origin)
    sound &= (np.abs(side_x) >= 2 * atol) & (np.abs(side_y) >= 2 * atol)
    return np.where(sound, np.where(side_x * side_y < 0, _PROPER, _IMPROPER), _UNDECIDED)


def _separating_axes(x, y, shared_x, shared_y, axes, sound, atol, margin) -> np.ndarray:
    """Separating-axis verdicts for pairs sharing fewer than d vertices
    (see `check_face_to_face`); `sound` marks the axes exact enough to
    certify an overlap."""
    axes = _unit(axes)
    px = np.einsum("pad,pvd->pav", axes, x)
    py = np.einsum("pad,pvd->pav", axes, y)
    tol, margin = atol[:, None], margin[:, None]
    overlap = np.minimum(px.max(axis=2), py.max(axis=2)) - np.maximum(px.min(axis=2), py.min(axis=2))
    improper = np.all(sound & (overlap > margin), axis=1)
    proper = np.zeros(len(x), dtype=bool)
    for pa, pb, sa, sb in ((px, py, shared_x, shared_y), (py, px, shared_y, shared_x)):
        for sign in (1.0, -1.0):
            proper |= _closed_side(sign * pa, sign * pb, sa, sb, tol, margin)
    return np.where(proper, _PROPER, np.where(improper, _IMPROPER, _UNDECIDED))


def _closed_side(pa, pb, shared_a, shared_b, tol, margin) -> np.ndarray:
    """Per pair, whether on some axis simplex a lies below the level of
    its top vertex, every shared vertex lies at that level, and every
    unshared vertex of b lies above it by more than the margin."""
    top = pa.max(axis=2)
    level = top - tol
    on_plane = np.all(np.where(shared_a[:, None], pa, np.inf) >= level[..., None], axis=2)
    on_plane &= np.all(np.where(shared_b[:, None], pb, np.inf) >= level[..., None], axis=2)
    beyond = np.all(np.where(shared_b[:, None], np.inf, pb) > (top + margin)[..., None], axis=2)
    return np.any(on_plane & beyond, axis=1)


def _facet_sound(s: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Whether each facet normal of a batch of simplices (`facet_planes`)
    is exact enough to certify an overlap; in d < 3 all are."""
    if s.shape[2] < 3:
        return np.ones(normals.shape[:2], dtype=bool)
    facets = s[:, _TETRAHEDRON_FACETS]
    return _sound(normals, facets[:, :, 1] - facets[:, :, 0], facets[:, :, 2] - facets[:, :, 0])


def _unit(v: np.ndarray) -> np.ndarray:
    length = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(length > 0.0, length, 1.0)


def _edges(s: np.ndarray) -> np.ndarray:
    """Edge vectors of a batch of simplices, (batch, C(n, 2), d)."""
    e = np.array(list(itertools.combinations(range(s.shape[1]), 2)))
    return s[:, e[:, 1]] - s[:, e[:, 0]]


def _sound(axes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each axis u x v is exact enough to certify an overlap
    (see _MIN_AXIS_SINE)."""
    bound = _MIN_AXIS_SINE * np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    return np.linalg.norm(axes, axis=-1) >= bound


def hull_contains_points(cluster: Cluster, queries: np.ndarray) -> np.ndarray:
    """Membership of query points in the convex hull of a cluster.

    Supports intervals (d = 1), convex polygons (d = 2, any vertex
    count) and simplices in d = 3, each by inward halfspace tests with
    tolerance tol = EPS_GEOM * max(1, largest vertex coordinate magnitude):

    - d = 1: the interval from the lowest to the highest vertex, +- tol;
    - d = 2: the vertices ordered by angle about their centroid, and
      edge x (q - a) >= -tol * max(1, |edge|) for each edge a -> a + edge;
    - d = 3: the `facet_planes` halfspaces, offset outward by tol; a
      flat simplex (not ok there) contains nothing.

    For d > 1 a cluster of fewer than d + 1 points contains nothing; a
    larger one in d = 3 that is not a simplex, or one in d > 3, raises
    `UnsupportedDimension`. This is the kernel of `covered_fraction` run
    on one cluster; the
    barycentric-coordinate route stays available to tests as an
    independent oracle.
    """
    return _hull_cover((cluster,), np.atleast_2d(np.asarray(queries, dtype=float)))


def covered_fraction(
    cfg: ClusterConfiguration, window: Window, n_samples: int, seed: int
) -> Tuple[float, float]:
    """Monte-Carlo estimate of the fraction of the (buffer-eroded)
    window covered by the union of the cluster hulls.

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
        lows, highs, test = _GROUP_TESTS[d](members, size)
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


def _interval_group(members, size: float):
    """d = 1: the box is the test itself."""
    pts = np.array([c.points for c in members], dtype=float)[:, :, 0]
    tol = EPS_GEOM * np.maximum(1.0, np.abs(pts).max(axis=1))
    lo, hi = pts.min(axis=1) - tol, pts.max(axis=1) + tol

    def test(c, q):
        return (q[:, 0] >= lo[c]) & (q[:, 0] <= hi[c])

    return lo[:, None], hi[:, None], test


def _polygon_group(members, size: float):
    """d = 2, polygons of one vertex count."""
    pts = np.array([c.points for c in members], dtype=float)
    scale = np.maximum(1.0, np.abs(pts).max(axis=(1, 2)))
    tol = EPS_GEOM * scale
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


def _simplex_group(members, size: float):
    """d = 3, simplices; a flat one contains nothing and gets an empty box."""
    pts = np.array([c.points for c in members], dtype=float)
    scale = np.maximum(1.0, np.abs(pts).max(axis=(1, 2)))
    tol = EPS_GEOM * scale
    centroid = pts.mean(axis=1)
    _, units, offsets, ok = facet_planes(pts)
    with np.errstate(invalid="ignore"):  # flat simplices, boxed empty below
        # a near-flat facet's plane can miss its other vertices by more
        # than rounding: measure at the lowest of them
        low = (pts[:, _TETRAHEDRON_FACETS] @ units[..., None])[..., 0].min(axis=2)
        depth = low - (units @ centroid[..., None])[..., 0]
        slack = tol[:, None] + offsets - low
    reach = _reach(pts, centroid, depth, slack, np.maximum(size, scale))
    lows, highs = pts.min(axis=1) - reach[:, None], pts.max(axis=1) + reach[:, None]
    lows[~ok], highs[~ok] = np.inf, -np.inf

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


def build_report(
    cfg: ClusterConfiguration,
    window: Window,
    d: int,
    n_samples: int = 2000,
    seed: int = 0,
) -> TessellationReport:
    """Full report: simplicial check, face-to-face when applicable,
    Monte-Carlo coverage and the holes verdict at SIGMA_BAND standard
    errors. `check_face_to_face` runs the simplicial check."""
    simplicial = all(c.dimension == d for c in cfg.clusters)
    face_to_face = None
    violations: Tuple[Tuple[int, int], ...] = ()
    if simplicial:
        try:
            partial = check_face_to_face(cfg)
            face_to_face, violations = partial.face_to_face, partial.violations
        except NonSimplicialInput:
            simplicial = False
    fraction, se = covered_fraction(cfg, window, n_samples, seed)
    return TessellationReport(
        face_to_face=face_to_face,
        violations=violations,
        simplicial=simplicial,
        covered_fraction=fraction,
        coverage_se=se,
        holes_detected=bool(fraction + SIGMA_BAND * se < 1.0),
    )
