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

from .errors import DegenerateSimplex, NonSimplicialInput, UnsupportedDimension
from .geometry import (
    EPS_GEOM,
    SINGULAR_DET,
    Cluster,
    FaceRelation,
    _facet_halfspaces,
    circumballs,
    common_face_check,
)
from .clusterprops import ClusterConfiguration
from .pointproc import Window
from .randomness import make_rng


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


def check_simplicial(cfg: ClusterConfiguration, d: int, eps: float = EPS_GEOM) -> bool:
    """True iff every cluster is d+1 affinely independent points in R^d,
    by `circumball`'s degeneracy rule (one batched `circumballs` call)."""
    if not all(c.dimension == d and len(c) == d + 1 for c in cfg.clusters):
        return False
    simplices = np.array([c.points for c in cfg.clusters], dtype=float).reshape(-1, d + 1, d)
    return bool(circumballs(simplices, eps)[2].all())


def check_face_to_face(cfg: ClusterConfiguration, eps: float = EPS_GEOM) -> TessellationReport:
    """Pairwise face-to-face check over all clusters of the configuration.

    Candidate pairs are those whose bounding boxes overlap within
    atol = eps * scale (scale: the largest coordinate magnitude, at
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
    if not check_simplicial(cfg, d, eps):
        raise NonSimplicialInput(
            "face-to-face checking needs discrete simplices; run check_simplicial first"
        )
    verts = np.array([c.points for c in clusters], dtype=float)
    lows, highs = verts.min(axis=1), verts.max(axis=1)
    atol = eps * max(1.0, float(np.abs(verts).max()))
    i, j = _box_overlap_pairs(lows, highs, atol)
    verdict = np.empty(len(i), dtype=int)
    for s in range(0, len(i), _BLOCK):
        verdict[s : s + _BLOCK] = _pair_verdicts(verts[i[s : s + _BLOCK]], verts[j[s : s + _BLOCK]], eps)
    for k in np.nonzero(verdict == _UNDECIDED)[0]:
        relation = common_face_check(clusters[i[k]], clusters[j[k]], eps)
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
# the scalar test solves each d-subset of the two simplices' facet
# planes whose unit normals have |det| >= SINGULAR_DET; below this
# bound such a solve can land up to 1e-7 off, beyond its tolerance, so
# pairs with one are left to the scalar test
_WELL_CONDITIONED_DET = 1e-5
# an axis taken as a cross product a x b is exact enough to certify an
# overlap when |a x b| >= this * |a| |b|: its direction then errs by
# about 1e-10 rad, a projection by far less than the margin
_MIN_AXIS_SINE = 1e-6


def _box_overlap_pairs(lows: np.ndarray, highs: np.ndarray, atol: float):
    """Index pairs (i, j), i < j, ascending, whose boxes overlap within atol."""
    order = np.argsort(lows[:, 0], kind="stable")
    start = np.arange(1, len(order) + 1)
    # 2 atol: a superset of the exact test below, whatever its rounding
    stop = np.searchsorted(lows[order, 0], highs[order, 0] + 2 * atol, side="right")
    counts = np.maximum(stop - start, 0)
    first = np.repeat(np.arange(len(order)), counts)
    second = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    second += np.repeat(start, counts)
    a, b = order[first], order[second]
    i, j = np.minimum(a, b), np.maximum(a, b)
    keep = np.all((lows[j] <= highs[i] + atol) & (highs[j] >= lows[i] - atol), axis=1)
    i, j = i[keep], j[keep]
    ranked = np.lexsort((j, i))
    return i[ranked], j[ranked]


def _pair_verdicts(x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """_PROPER, _IMPROPER or _UNDECIDED for each pair of simplices
    (x[p], y[p]), with the rules of `check_face_to_face`."""
    n_pairs, n, d = x.shape
    verdict = np.full(n_pairs, _UNDECIDED)
    if d > 3:
        return verdict  # the scalar test raises UnsupportedDimension
    scale = np.maximum(1.0, np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(y).max(axis=(1, 2))))
    atol = eps * scale

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
    normals, sound, reach = [], [], np.zeros(n_pairs)
    for s in (x, y):
        facet_normals, facet_sound = _facet_normals(s)
        with np.errstate(divide="ignore", invalid="ignore"):  # subnormal edges
            volume = np.abs(np.linalg.det(s[:, 1:] - s[:, :1]))  # d! times the volume
        inradius = np.maximum(volume / np.linalg.norm(facet_normals, axis=-1).sum(axis=1), atol)
        normals.append(facet_normals)
        sound.append(facet_sound)
        reach += np.linalg.norm(_edges(s), axis=-1).max(axis=1) / inradius
    margin = 4.0 * atol * reach

    verdict[clear & (k == n)] = _PROPER
    facet = np.nonzero(clear & (k == d))[0]
    # facet f of a simplex omits vertex n - 1 - f; here the unshared one
    normal = normals[0][facet, n - 1 - np.argmin(shared_x[facet], axis=1)]
    verdict[facet] = _opposite_sides(
        x[facet], y[facet], shared_x[facet], shared_y[facet], normal, atol[facet], scale[facet]
    )
    rest = np.nonzero(clear & (k < d))[0]
    axes = _unit(np.concatenate([normals[0][rest], normals[1][rest]], axis=1))
    subsets = np.array(list(itertools.combinations(range(2 * n), d)))
    det = np.abs(np.linalg.det(axes[:, subsets]))
    conditioned = np.all((det < SINGULAR_DET / 2) | (det >= _WELL_CONDITIONED_DET), axis=1)
    rest, axes = rest[conditioned], axes[conditioned]
    axes_sound = np.concatenate([sound[0][rest], sound[1][rest]], axis=1)
    if d == 3:
        edge_axes, edge_sound = _cross_axes(_edges(x[rest])[:, :, None], _edges(y[rest])[:, None])
        axes = np.concatenate([axes, edge_axes.reshape(len(rest), 36, 3)], axis=1)
        axes_sound = np.concatenate([axes_sound, edge_sound.reshape(len(rest), 36)], axis=1)
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


def _facet_normals(s: np.ndarray):
    """Facet normals of a batch of simplices, not normalised: a normal's
    length is (d-1)! times its facet's measure (1 for d = 1). Also
    whether each is exact enough to certify an overlap."""
    n_batch, n, d = s.shape
    if d == 1:
        normals = np.ones((n_batch, 2, 1))
        return normals, np.ones((n_batch, 2), dtype=bool)
    if d == 2:
        edges = _edges(s)
        normals = np.stack([edges[..., 1], -edges[..., 0]], axis=-1)
        return normals, np.ones((n_batch, 3), dtype=bool)
    faces = np.array(list(itertools.combinations(range(n), 3)))
    return _cross_axes(s[:, faces[:, 1]] - s[:, faces[:, 0]], s[:, faces[:, 2]] - s[:, faces[:, 0]])


def _unit(v: np.ndarray) -> np.ndarray:
    length = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(length > 0.0, length, 1.0)


def _edges(s: np.ndarray) -> np.ndarray:
    """Edge vectors of a batch of simplices, (batch, C(n, 2), d)."""
    e = np.array(list(itertools.combinations(range(s.shape[1]), 2)))
    return s[:, e[:, 1]] - s[:, e[:, 0]]


def _cross_axes(u: np.ndarray, v: np.ndarray):
    """Cross products u x v and whether each is exact enough to certify
    an overlap (see _MIN_AXIS_SINE)."""
    axes = np.cross(u, v)
    bound = _MIN_AXIS_SINE * np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    sound = np.linalg.norm(axes, axis=-1) >= bound
    return axes, sound


def hull_contains_points(
    cluster: Cluster, queries: np.ndarray, eps: float = EPS_GEOM
) -> np.ndarray:
    """Membership of query points in the convex hull of a cluster.

    Supports intervals (d = 1), convex polygons (d = 2, any vertex
    count) and simplices in d = 3. Implemented with inward halfspace
    tests; the barycentric-coordinate route stays available to tests as
    an independent oracle.
    """
    pts = cluster.as_array()
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    d = cluster.dimension
    scale = max(1.0, float(np.abs(pts).max()))
    tol = eps * scale
    if d == 1:
        lo, hi = pts.min(), pts.max()
        return (q[:, 0] >= lo - tol) & (q[:, 0] <= hi + tol)
    if len(pts) < d + 1:
        return np.zeros(len(q), dtype=bool)  # measure-zero hull
    if d == 2:
        centroid = pts.mean(axis=0)
        angles = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
        ring = pts[np.argsort(angles, kind="stable")]
        inside = np.ones(len(q), dtype=bool)
        for k in range(len(ring)):
            a = ring[k]
            b = ring[(k + 1) % len(ring)]
            edge = b - a
            cross = edge[0] * (q[:, 1] - a[1]) - edge[1] * (q[:, 0] - a[0])
            inside &= cross >= -tol * max(1.0, float(np.linalg.norm(edge)))
        return inside
    if d == 3:
        if len(pts) != 4:
            raise UnsupportedDimension("3D hull membership is implemented for simplices only")
        try:
            halfspaces = _facet_halfspaces(cluster.points, eps)
        except DegenerateSimplex:
            return np.zeros(len(q), dtype=bool)  # flat simplex, measure-zero hull
        inside = np.ones(len(q), dtype=bool)
        for normal, offset in halfspaces:
            inside &= q @ normal <= offset + tol
        return inside
    raise UnsupportedDimension(f"hull membership not implemented for d = {d}")


def covered_fraction(
    cfg: ClusterConfiguration,
    window: Window,
    n_samples: int,
    seed: int,
    eps: float = EPS_GEOM,
) -> Tuple[float, float]:
    """Monte-Carlo estimate of the fraction of the (buffer-eroded)
    window covered by the union of the cluster hulls.

    Returns (fraction, standard error).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    region = window.erode(window.buffer_margin) if window.buffer_margin > 0 else window
    rng = make_rng(seed)
    samples = np.asarray(region.low) + rng.random((n_samples, region.dimension)) * region.extent()
    covered = np.zeros(n_samples, dtype=bool)
    for cluster in cfg.clusters:
        remaining = ~covered
        if not np.any(remaining):
            break
        hits = hull_contains_points(cluster, samples[remaining], eps)
        covered[np.nonzero(remaining)[0][hits]] = True
    fraction = float(covered.mean())
    se = float(np.sqrt(fraction * (1.0 - fraction) / n_samples))
    return fraction, se


def build_report(
    cfg: ClusterConfiguration,
    window: Window,
    d: int,
    n_samples: int = 2000,
    seed: int = 0,
    band: float = 4.0,
    eps: float = EPS_GEOM,
) -> TessellationReport:
    """Full report: simplicial check, face-to-face when applicable,
    Monte-Carlo coverage and the holes verdict at `band` standard errors.
    `check_face_to_face` runs the simplicial check."""
    simplicial = all(c.dimension == d for c in cfg.clusters)
    face_to_face = None
    violations: Tuple[Tuple[int, int], ...] = ()
    if simplicial:
        try:
            partial = check_face_to_face(cfg, eps)
            face_to_face, violations = partial.face_to_face, partial.violations
        except NonSimplicialInput:
            simplicial = False
    fraction, se = covered_fraction(cfg, window, n_samples, seed, eps)
    return TessellationReport(
        face_to_face=face_to_face,
        violations=violations,
        simplicial=simplicial,
        covered_fraction=fraction,
        coverage_se=se,
        holes_detected=bool(fraction + band * se < 1.0),
    )
