"""Geometric primitives for cluster tessellations.

A cluster is a finite set of distinct points in R^d, standing in for the
vertex set of a convex polytope. This module supplies the exact-enough
kernels everything else is built on: circumballs and facet planes of
simplices, convex hulls and extreme points (Qhull, d <= 3), and the
pairwise face-to-face test.

All predicates share one relative tolerance (EPS_GEOM by default).
Circumballs and facet planes each have one batched implementation,
`circumballs` and `facet_planes`; `circumball` is `circumballs` on one
simplex.
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
# d unit facet normals whose determinant is below this meet in no
# vertex of `_intersection_vertices`
SINGULAR_DET = 1e-9

PointLike = Sequence[float]


class Cluster:
    """Finite set of distinct points, all of the same dimension.

    The `points` tuple preserves construction order (Voronoi cells, for
    instance, keep their counterclockwise ordering); equality, hashing
    and sorting use a canonical lexicographic key, so two clusters with
    the same point set always compare equal.
    """

    __slots__ = ("points", "_key")

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

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def translate(self, shift: PointLike) -> "Cluster":
        t = tuple(float(c) for c in shift)
        return Cluster(tuple(c + dc for c, dc in zip(p, t)) for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return tuple(float(c) for c in point) in self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Cluster) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    DISJOINT = "disjoint"
    COMMON_FACE = "common_face"
    IMPROPER = "improper"


def circumball(simplex: Cluster, eps: float = EPS_GEOM) -> Ball:
    """Circumball of a full-dimensional simplex (d+1 points in R^d), by
    one `circumballs` call. Raises DegenerateSimplex on a wrong point
    count and where `circumballs` finds the vertices affinely dependent.
    """
    d = simplex.dimension
    if len(simplex) != d + 1:
        raise DegenerateSimplex(
            f"a full-dimensional simplex in R^{d} needs {d + 1} points, got {len(simplex)}"
        )
    centers, radii, ok = circumballs(simplex.as_array()[None], eps)
    if not ok[0]:
        raise DegenerateSimplex("affinely dependent vertices")
    return Ball(tuple(centers[0].tolist()), float(radii[0]))


def circumballs(simplices: np.ndarray, eps: float = EPS_GEOM):
    """Circumballs of m simplices, an (m, d+1, d) array: (centers (m, d),
    radii (m,), ok (m,)).

    Solves the pairwise-equidistance system 2(v_i - v_0) . x = |v_i|^2 -
    |v_0|^2 of each simplex by Gaussian elimination with partial
    pivoting. ok is False where a pivot is at most max(eps times the
    matrix scale, the smallest normal float): the vertices are affinely
    dependent, or the reciprocal of a subnormal pivot would overflow.
    Sums run term by term, left to right, a zero factor skips its row
    update, and radius terms are squared by libm `pow`
    (`np.float_power`), so that the results equal the scalar
    elimination's in the test oracles bit for bit.
    """
    s = np.asarray(simplices, dtype=float)
    m, _, d = s.shape
    p0 = s[:, 0]
    a = 2.0 * (s[:, 1:] - p0[:, None])
    # cumsum adds left to right, as Python's `sum`; its last entry is the sum
    b = np.cumsum(s[:, 1:] * s[:, 1:], axis=2)[..., -1] - np.cumsum(p0 * p0, axis=1)[:, -1:]
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    tol = np.maximum(eps * scale, sys.float_info.min)
    ok = scale != 0.0
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


def is_full_simplex(cluster: Cluster, eps: float = EPS_GEOM) -> bool:
    """True iff the cluster is d+1 affinely independent points in R^d."""
    return len(cluster) == cluster.dimension + 1 and bool(circumballs(cluster.as_array()[None], eps)[2][0])


def is_discrete_polytope(cluster: Cluster, eps: float = EPS_GEOM) -> bool:
    """True iff every point of the cluster is an extreme point of its
    hull, for d <= 3 (UnsupportedDimension above). Counts the vertices
    `convex_hull_vertices` keeps, so `eps` is its rank tolerance."""
    return len(convex_hull_vertices(cluster, eps)) == len(cluster)


def convex_hull_vertices(cluster: Cluster, eps: float = EPS_GEOM) -> Cluster:
    """Extreme points of the convex hull, for ambient dimension d <= 3.

    Degenerate (lower-dimensional) inputs are reduced to their affine
    span first, so collinear point sets in the plane still return their
    two endpoints.
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
    rank = int(np.sum(svals > eps * top))

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


def facet_planes(simplices: np.ndarray, eps: float = EPS_GEOM):
    """Facet planes of m simplices, an (m, d+1, d) array, d <= 3; facet
    k omits vertex k. Returns (normals, units, offsets, ok):

    - normals (m, d+1, d), not normalised: 1 in d = 1, the perpendicular
      (e_y, -e_x) of the edge e from the facet's first vertex to its
      second in d = 2, and in d = 3 the cross product of the edges from
      its first vertex to its second and third. A normal's length is
      (d-1)! times its facet's measure.
    - units (m, d+1, d) and offsets (m, d+1): the inward halfspaces
      units . x <= offsets, through each facet's first vertex.
    - ok (m,): False where some normal's length is at most eps *
      span**(d-1), span being 1 plus the largest coordinate magnitude of
      the simplex: the simplex is degenerate, and its units and offsets
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
    norm = np.sqrt(_dot(normals, normals))
    span = np.abs(s).max(axis=(1, 2)) + 1.0
    ok = np.all(norm > (eps * np.float_power(span, d - 1))[:, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate facets run on, unused
        units = normals / norm[..., None]
        offsets = _dot(units, facets[:, :, 0])
        # -1 where the omitted vertex lies beyond the plane
        sign = np.where(_dot(units, s) > offsets, -1.0, 1.0)
    return normals, units * sign[..., None], offsets * sign, ok


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each as `np.linalg.norm` takes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _intersection_vertices(normals: np.ndarray, offsets: np.ndarray, d: int, atol: float) -> list:
    """Vertices of the polytope {x : normals . x <= offsets} by
    exhaustive d-subset enumeration. Suitable for the small systems two
    simplices produce."""
    vertices = []
    for combo in itertools.combinations(range(len(normals)), d):
        a = normals[list(combo)]
        b = offsets[list(combo)]
        if d == 1:
            x = np.array([b[0] / a[0][0]])
        else:
            if abs(np.linalg.det(a)) < SINGULAR_DET:
                continue
            x = np.linalg.solve(a, b)
        if np.all(normals @ x <= offsets + atol):
            vertices.append(x)
    # dedupe within tolerance
    unique: list = []
    for v in vertices:
        if not any(np.linalg.norm(v - u) <= 2 * atol for u in unique):
            unique.append(v)
    return unique


def _match_point_sets(a: list, b: list, atol: float) -> bool:
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for p in a:
        hit = False
        for j, q in enumerate(b):
            if not used[j] and np.linalg.norm(np.asarray(p) - np.asarray(q)) <= atol:
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True


def common_face_check(x: Cluster, y: Cluster, eps: float = EPS_GEOM) -> FaceRelation:
    """How the convex hulls of two discrete simplices meet.

    DISJOINT     the hulls do not intersect at all;
    COMMON_FACE  the intersection is exactly the hull of the shared
                 vertices (for simplices every vertex subset spans a
                 face, so this is the face-to-face situation);
    IMPROPER     anything else.
    """
    d = x.dimension
    if y.dimension != d:
        raise ValueError("simplices must live in the same dimension")
    if d > 3:
        raise UnsupportedDimension(f"face check implemented for d <= 3, got d = {d}")
    if len(x) != d + 1 or len(y) != d + 1:
        raise DegenerateSimplex("face check expects full-dimensional simplices")

    ax, ay = x.as_array(), y.as_array()
    scale = max(1.0, float(np.abs(ax).max()), float(np.abs(ay).max()))
    atol = eps * scale

    # shared vertices, matched within tolerance
    shared = []
    used = set()
    unmatched = 0
    for i, p in enumerate(ax):
        for j, q in enumerate(ay):
            if j not in used and float(np.linalg.norm(p - q)) <= atol:
                shared.append(p)
                used.add(j)
                break
        else:
            unmatched = i

    # quick reject on bounding boxes
    if np.any(ax.min(axis=0) > ay.max(axis=0) + atol) or np.any(
        ay.min(axis=0) > ax.max(axis=0) + atol
    ):
        return FaceRelation.DISJOINT

    if len(shared) == d + 1:
        return FaceRelation.COMMON_FACE  # identical simplices

    normals, units, offsets, ok = facet_planes(np.stack([ax, ay]), eps)
    if len(shared) == d:
        # shared facet: face-to-face iff the two leftover vertices lie
        # strictly on opposite sides of the facet hyperplane
        facet = np.asarray(shared)
        apex_x = _leftover_vertex(ax, facet, atol)
        apex_y = _leftover_vertex(ay, facet, atol)
        if d == 1:
            side_x = apex_x[0] - facet[0][0]
            side_y = apex_y[0] - facet[0][0]
        else:
            normal = normals[0, unmatched]  # x's facet on the shared vertices
            nn = float(np.linalg.norm(normal))
            if nn > atol * scale:
                normal = normal / nn
                side_x = float(normal @ (apex_x - facet[0]))
                side_y = float(normal @ (apex_y - facet[0]))
            else:
                side_x = side_y = 0.0
        if abs(side_x) > atol and abs(side_y) > atol:
            if side_x * side_y < 0:
                return FaceRelation.COMMON_FACE
            return FaceRelation.IMPROPER
        # fall through to the general test in the degenerate case

    if not ok.all():
        raise DegenerateSimplex("degenerate facet while building halfspaces")
    vertices = _intersection_vertices(units.reshape(-1, d), offsets.ravel(), d, atol)
    if not vertices:
        return FaceRelation.DISJOINT
    if _match_point_sets(vertices, list(np.asarray(shared)), 10 * atol):
        return FaceRelation.COMMON_FACE
    return FaceRelation.IMPROPER


def _leftover_vertex(verts: np.ndarray, facet: np.ndarray, atol: float) -> np.ndarray:
    for v in verts:
        if all(float(np.linalg.norm(v - f)) > atol for f in facet):
            return v
    return verts[-1]
