"""Geometric primitives for cluster tessellations.

A cluster is a finite set of distinct points in R^d, standing in for the
vertex set of a convex polytope. This module supplies the exact-enough
kernels everything else is built on: circumballs and facet planes of
simplices, the face test of simplex pairs, and extreme points (Qhull,
d <= 3), the Voronoi turn test's last word in its band and its oracle.

There is one relative tolerance, EPS_GEOM. Every predicate reads it
where its test is made, and it cannot be set per call. A simplex is
degenerate exactly where `circumballs` rejects it (a pivot test relative
to its own size, or an underflow guard); `facet_planes` judges nothing.
Circumballs, facet planes and the face test each have one batched
implementation, `circumballs`, `facet_planes` and `face_relations`;
`circumball` and `common_face_check` run them on one simplex or one pair.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import DegenerateSimplex, UnsupportedDimension

# shared relative tolerance of all geometric predicates
EPS_GEOM = 1e-9
# d unit facet normals whose determinant is below this give no vertex
# in `face_relations`' enumeration of two simplices' common polytope
SINGULAR_DET = 1e-9

PointLike = Sequence[float]


class Cluster:
    """Finite set of distinct points, all of the same dimension.

    The `points` tuple preserves construction order (Voronoi cells, for
    instance, keep their counterclockwise ordering); equality, hashing
    and sorting use a canonical lexicographic key, so two clusters with
    the same point set always compare equal.
    """

    __slots__ = ("points", "_key", "_hash")

    def __init__(self, points: Iterable[PointLike]):
        pts = tuple(tuple(float(c) for c in p) for p in points)
        if not pts:
            raise ValueError("a cluster needs at least one point")
        d = len(pts[0])
        if d < 1:
            raise ValueError("points need at least one coordinate")
        for p in pts:
            if len(p) != d:
                raise ValueError("all points in a cluster must share one dimension")
            for c in p:
                if not math.isfinite(c):
                    raise ValueError("cluster coordinates must be finite")
        key = tuple(sorted(pts))
        for a, b in zip(key, key[1:]):
            if a == b:
                raise ValueError(f"duplicate point in cluster: {a}")
        self.points = pts
        self._key = key
        self._hash = hash(key)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cluster) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Cluster") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"Cluster({list(self.points)!r})"


@dataclass(frozen=True)
class Ball:
    """Closed ball; where an open ball is meant, callers test strictly."""

    center: Tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (self.radius >= 0.0):
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")


class FaceRelation(Enum):
    """How two simplices meet; the values are `face_relations`' codes."""

    DISJOINT = 0
    COMMON_FACE = 1
    IMPROPER = 2


def circumball(simplex: Cluster) -> Ball:
    """Circumball of a full-dimensional simplex (d+1 points in R^d), by
    one `circumballs` call. Raises DegenerateSimplex on a wrong point
    count and where `circumballs` finds the vertices affinely dependent.
    """
    d = simplex.dimension
    if len(simplex) != d + 1:
        raise DegenerateSimplex(
            f"a full-dimensional simplex in R^{d} needs {d + 1} points, got {len(simplex)}"
        )
    centers, radii, ok = circumballs(simplex.as_array()[None])
    if not ok[0]:
        raise DegenerateSimplex("affinely dependent vertices")
    return Ball(tuple(centers[0].tolist()), float(radii[0]))


def circumballs(simplices: np.ndarray):
    """Circumballs of m simplices, an (m, d+1, d) array: (centers (m, d),
    radii (m,), ok (m,)).

    Solves the pairwise-equidistance system 2(v_i - v_0) . x = |v_i|^2 -
    |v_0|^2 of each simplex by Gaussian elimination with partial
    pivoting. ok is False where a pivot is at most max(EPS_GEOM times
    the matrix scale, the smallest normal float): the vertices are
    affinely dependent, or the reciprocal of a subnormal pivot would
    overflow; and where half the matrix scale squares below it (edges
    under about 1.5e-154), so that the squares on the right underflow.
    Sums run term by term, left to right, a zero factor skips its row
    update, and radius terms are squared by libm `pow` (`np.float_power`),
    so that the results equal the oracles' scalar elimination bit for bit.
    """
    s = np.asarray(simplices, dtype=float)
    m, _, d = s.shape
    p0 = s[:, 0]
    a = 2.0 * (s[:, 1:] - p0[:, None])
    # cumsum adds left to right, as Python's `sum`; its last entry is the sum
    b = np.cumsum(s[:, 1:] * s[:, 1:], axis=2)[..., -1] - np.cumsum(p0 * p0, axis=1)[:, -1:]
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    tol = np.maximum(EPS_GEOM * scale, sys.float_info.min)
    ok = 0.25 * scale * scale >= sys.float_info.min
    each = np.arange(m)
    with np.errstate(all="ignore"):  # degenerate rows run on, unused
        for col in range(d):
            pivot_row = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
            ok &= np.abs(a[each, pivot_row, col]) > tol
            for arr in (a, b):
                top = arr[:, col].copy()
                arr[:, col] = arr[each, pivot_row]
                arr[each, pivot_row] = top
            inv = 1.0 / a[:, col, col]
            for r in range(col + 1, d):
                factor = a[:, r, col] * inv
                skip = (factor == 0.0)[:, None]
                a[:, r, col:] = np.where(skip, a[:, r, col:], a[:, r, col:] - factor[:, None] * a[:, col, col:])
                b[:, r] = np.where(skip[:, 0], b[:, r], b[:, r] - factor * b[:, col])
        centers = np.zeros((m, d))
        for col in range(d - 1, -1, -1):
            acc = b[:, col]
            for j in range(col + 1, d):
                acc = acc - a[:, col, j] * centers[:, j]
            centers[:, col] = acc / a[:, col, col]
        radii = np.sqrt(np.cumsum(np.float_power(s - centers[:, None], 2.0), axis=2)[..., -1]).max(axis=1)
    return centers, radii, ok


def is_discrete_polytope(cluster: Cluster) -> bool:
    """True iff every point of the cluster is an extreme point of its
    hull, for d <= 3 (UnsupportedDimension above). Counts the vertices
    `convex_hull_vertices` keeps."""
    return len(convex_hull_vertices(cluster)) == len(cluster)


def convex_hull_vertices(cluster: Cluster) -> Cluster:
    """Extreme points of the convex hull, for ambient dimension d <= 3.

    Degenerate (lower-dimensional) inputs are reduced to their affine
    span first, so collinear point sets in the plane still return their
    two endpoints. The rank counts the singular values above EPS_GEOM
    times the largest.
    """
    d = cluster.dimension
    if d > 3:
        raise UnsupportedDimension(f"convex hull implemented for d <= 3, got d = {d}")
    pts = cluster.as_array()
    n = len(pts)
    if n <= 2:
        return Cluster(sorted(cluster.points))

    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    top = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > EPS_GEOM * top))

    if rank == 0:
        # distinct points cannot all coincide; defensive only
        return Cluster([cluster.points[0]])
    if rank == 1:
        t = centered @ vt[0]
        keep = {int(np.argmin(t)), int(np.argmax(t))}
    else:
        from scipy.spatial import ConvexHull

        reduced = centered @ vt[:rank].T
        keep = set(int(i) for i in ConvexHull(reduced).vertices)

    return Cluster(sorted(cluster.points[i] for i in keep))


def facet_planes(simplices: np.ndarray):
    """Facet planes of m simplices, an (m, d+1, d) array, d <= 3; facet
    k omits vertex k. Returns (normals, units, offsets):

    - normals (m, d+1, d), not normalised: 1 in d = 1, the perpendicular
      (e_y, -e_x) of the edge e from the facet's first vertex to its
      second in d = 2, and in d = 3 the cross product of the edges from
      its first vertex to its second and third. A normal's length is
      (d-1)! times its facet's measure.
    - units (m, d+1, d) and offsets (m, d+1): the inward halfspaces
      units . x <= offsets, through each facet's first vertex. No
      threshold is applied; where `circumballs` rejects a simplex, they
      are not meaningful.

    Lengths, offsets and orientations are dot products through
    `np.linalg.norm`'s own BLAS dot product (a stacked 1 x d @ d x 1
    `matmul`), so they equal the per-facet scalar construction in the
    test oracles bit for bit.
    """
    s = np.asarray(simplices, dtype=float)
    m, n, d = s.shape
    if d > 3:
        raise UnsupportedDimension(f"facet planes implemented for d <= 3, got d = {d}")
    facets = s[:, [[j for j in range(n) if j != k] for k in range(n)]]  # (m, n, d, d)
    if d == 1:
        normals = np.ones((m, n, 1))
    elif d == 2:
        normals = (facets[:, :, 1] - facets[:, :, 0])[..., ::-1] * [1.0, -1.0]
    else:
        normals = np.cross(facets[:, :, 1] - facets[:, :, 0], facets[:, :, 2] - facets[:, :, 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate facets run on, unused
        units = normals / _norm(normals)[..., None]
        offsets = _dot(units, facets[:, :, 0])
        # -1 where the omitted vertex lies beyond the plane
        sign = np.where(_dot(units, s) > offsets, -1.0, 1.0)
    return normals, units * sign[..., None], offsets * sign


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each as `np.linalg.norm` takes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis, as `np.linalg.norm` takes them."""
    return np.sqrt(_dot(v, v))


def common_face_check(x: Cluster, y: Cluster) -> FaceRelation:
    """How the convex hulls of two discrete simplices meet, by
    `face_relations` on the one pair.

    DISJOINT     the hulls do not intersect at all;
    COMMON_FACE  the intersection is exactly the hull of the shared
                 vertices (for simplices every vertex subset spans a
                 face, so this is the face-to-face situation);
    IMPROPER     anything else.
    """
    if y.dimension != x.dimension:
        raise ValueError("simplices must live in the same dimension")
    return FaceRelation(int(face_relations(x.as_array()[None], y.as_array()[None])[0]))


def face_relations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """How the hulls of the simplex pairs (x[p], y[p]) meet, as
    `FaceRelation` values; x and y are (P, d+1, d) arrays, d <= 3.

    Each pair is decided with atol = EPS_GEOM * scale, scale being
    max(1, the pair's largest coordinate magnitude):

    1. Shared vertices: each vertex of x, in order, takes the first
       unused vertex of y within atol.
    2. Bounding boxes apart by more than atol: DISJOINT.
    3. All d+1 vertices shared: COMMON_FACE.
    4. d shared: each simplex's leftover vertex (its first vertex
       farther than atol from every shared one, else its last) is
       measured against the plane of x's facet on the shared vertices.
       Where both lie farther than atol from it, the pair is
       COMMON_FACE on opposite sides and IMPROPER on one side; a facet
       normal not longer than atol * scale puts both on the plane.
    5. Otherwise the hulls meet in the polytope of both simplices'
       inward facet halfspaces (`facet_planes`; a simplex `circumballs`
       rejects raises DegenerateSimplex). Its vertices are the solutions
       of every d-subset of the 2(d+1) planes whose unit normals have
       |det| >= SINGULAR_DET that satisfy every halfspace within atol,
       in enumeration order, each kept unless it lies within 2 atol of
       one kept before. None: DISJOINT. COMMON_FACE when they match the
       shared vertices one to one within 10 atol, each taking the first
       unused shared vertex in order; IMPROPER otherwise.

    Lengths and dot products go through `np.linalg.norm`'s own dot
    product and the solves through `np.linalg.solve` one matrix at a
    time, so each pair's verdict equals the scalar rule's in the test
    oracles. Raises UnsupportedDimension for d > 3 and DegenerateSimplex
    for simplices of other than d+1 vertices.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    pairs, n, d = x.shape
    if d > 3:
        raise UnsupportedDimension(f"face check implemented for d <= 3, got d = {d}")
    if n != d + 1 or y.shape[1] != d + 1:
        raise DegenerateSimplex("face check expects full-dimensional simplices")
    scale = np.maximum(1.0, np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(y).max(axis=(1, 2))))
    atol = EPS_GEOM * scale
    relation = np.full(pairs, FaceRelation.IMPROPER.value)

    shared = _greedy_match(_norm(x[:, :, None] - y[:, None]), atol)  # x's vertices matched in y
    k = shared.sum(axis=1)

    apart = np.any(x.min(axis=1) > y.max(axis=1) + atol[:, None], axis=1)
    apart |= np.any(y.min(axis=1) > x.max(axis=1) + atol[:, None], axis=1)
    relation[apart] = FaceRelation.DISJOINT.value
    relation[~apart & (k == n)] = FaceRelation.COMMON_FACE.value
    undecided = ~apart & (k < n)

    normals, units_x, offsets_x = facet_planes(x)
    _, units_y, offsets_y = facet_planes(y)
    f = np.nonzero(undecided & (k == d))[0]
    facet = x[f][shared[f]].reshape(len(f), d, d)
    normal = normals[f, np.argmin(shared[f], axis=1)]  # the facet omitting x's unshared vertex
    side_x = _leftover_side(x[f], facet, normal, atol[f], scale[f])
    side_y = _leftover_side(y[f], facet, normal, atol[f], scale[f])
    clear = (np.abs(side_x) > atol[f]) & (np.abs(side_y) > atol[f])
    opposite = np.where(side_x * side_y < 0, FaceRelation.COMMON_FACE.value, FaceRelation.IMPROPER.value)
    relation[f[clear]] = opposite[clear]
    undecided[f[clear]] = False

    g = np.nonzero(undecided)[0]
    if not (circumballs(x[g])[2].all() and circumballs(y[g])[2].all()):
        raise DegenerateSimplex("affinely dependent vertices")
    units = np.concatenate([units_x[g], units_y[g]], axis=1)
    offsets = np.concatenate([offsets_x[g], offsets_y[g]], axis=1)
    corner, found = _halfspace_corners(units, offsets, atol[g])
    kept = np.zeros(found.shape, dtype=bool)
    for c in range(found.shape[1]):
        near = _norm(corner[:, c, None] - corner[:, :c]) <= 2 * atol[g, None]
        kept[:, c] = found[:, c] & ~np.any(kept[:, :c] & near, axis=1)

    # the first d kept corners against the shared vertices, both in order
    corner = np.take_along_axis(corner, np.argsort(~kept, axis=1, kind="stable")[:, :d, None], axis=1)
    vertex = np.take_along_axis(x[g], np.argsort(~shared[g], axis=1, kind="stable")[:, :d, None], axis=1)
    count, k, rank = kept.sum(axis=1), k[g, None], np.arange(d)  # k <= d here
    dist = np.where(rank < k[:, None], _norm(corner[:, :, None] - vertex[:, None]), np.inf)
    match = (count == k[:, 0]) & np.all(_greedy_match(dist, 10 * atol[g]) | (rank >= k), axis=1)
    relation[g] = np.where(match, FaceRelation.COMMON_FACE.value, FaceRelation.IMPROPER.value)
    relation[g[count == 0]] = FaceRelation.DISJOINT.value
    return relation


def _greedy_match(dist: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per pair, each row a of dist (P, A, B) in order takes the first
    column b not taken before with dist[:, a, b] <= tol; which rows
    found one, (P, A)."""
    matched = np.zeros(dist.shape[:2], dtype=bool)
    taken = np.zeros((dist.shape[0], dist.shape[2]), dtype=bool)
    for a in range(dist.shape[1]):
        for b in range(dist.shape[2]):
            hit = ~matched[:, a] & ~taken[:, b] & (dist[:, a, b] <= tol)
            matched[:, a] |= hit
            taken[:, b] |= hit
    return matched


def _leftover_side(verts, facet, normal, atol, scale) -> np.ndarray:
    """Per simplex, how far its leftover vertex (the first farther than
    atol from every facet vertex, else the last) lies along the facet's
    unit normal from the facet's first vertex; 0 where the normal is not
    longer than atol * scale (d > 1)."""
    far = np.all(_norm(verts[:, :, None] - facet[:, None]) > atol[:, None, None], axis=2)
    first = np.where(far.any(axis=1), np.argmax(far, axis=1), verts.shape[1] - 1)
    apex = verts[np.arange(len(verts)), first]
    if verts.shape[2] == 1:
        return apex[:, 0] - facet[:, 0, 0]
    length = _norm(normal)
    sound = length > atol * scale
    unit = normal / np.where(sound, length, 1.0)[:, None]
    return np.where(sound, _dot(unit, apex - facet[:, 0]), 0.0)


def _halfspace_corners(units: np.ndarray, offsets: np.ndarray, atol: np.ndarray):
    """For P polytopes {q : units . q <= offsets}, (P, h, d) and (P, h):
    the solution of each d-subset of the h planes, in
    `itertools.combinations` order, (P, C, d), and whether it counts
    as a vertex: its unit normals have |det| >= SINGULAR_DET and it
    satisfies every halfspace within atol (P,). In d = 1 the normals
    are +-1, so every solve is exact, as the scalar division is."""
    d = units.shape[2]
    subsets = np.array(list(itertools.combinations(range(units.shape[1]), d)))
    a, b = units[:, subsets], offsets[:, subsets]
    with np.errstate(divide="ignore"):  # det takes the log of a zero pivot
        found = np.abs(np.linalg.det(a)) >= SINGULAR_DET
    corner = np.zeros(b.shape)
    corner[found] = np.linalg.solve(a[found], b[found][..., None])[..., 0]
    inside = (units[:, None] @ corner[..., None])[..., 0] <= (offsets + atol[:, None])[:, None]
    return corner, found & np.all(inside, axis=2)
