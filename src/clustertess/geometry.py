"""Geometric primitives for cluster tessellations.

A cluster is a finite set of distinct points in R^d, standing in for the
vertex set of a convex polytope. This module supplies the exact-enough
kernels everything else is built on: circumballs of simplices,
convex hulls and extreme points (Qhull, d <= 3), and the pairwise
face-to-face test.

All predicates share one relative tolerance (EPS_GEOM by default).
`circumballs` is `circumball` batched over many simplices, with the
same arithmetic, so both give the same bits.
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
    """Circumball of a full-dimensional simplex (d+1 points in R^d).

    Solves the pairwise-equidistance system 2(v_i - v_0) . x =
    |v_i|^2 - |v_0|^2 by Gaussian elimination with partial pivoting.
    A pivot below eps times the matrix scale means the vertices are
    affinely dependent and DegenerateSimplex is raised; so does a
    subnormal pivot, whose reciprocal would overflow.
    """
    pts = simplex.points
    d = simplex.dimension
    if len(pts) != d + 1:
        raise DegenerateSimplex(
            f"a full-dimensional simplex in R^{d} needs {d + 1} points, got {len(pts)}"
        )
    p0 = pts[0]
    sq0 = sum(c * c for c in p0)
    rows = []
    rhs = []
    for p in pts[1:]:
        rows.append([2.0 * (p[j] - p0[j]) for j in range(d)])
        rhs.append(sum(c * c for c in p) - sq0)

    scale = max((abs(v) for row in rows for v in row), default=0.0)
    if scale == 0.0:
        raise DegenerateSimplex("simplex vertices coincide")

    # elimination with partial pivoting, in place
    tol = max(eps * scale, sys.float_info.min)
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(rows[r][col]))
        pivot = rows[pivot_row][col]
        if abs(pivot) <= tol:
            raise DegenerateSimplex(f"affinely dependent vertices (pivot {pivot:.3e} at most {tol:.3e})")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = 1.0 / rows[col][col]
        for r in range(col + 1, d):
            factor = rows[r][col] * inv
            if factor != 0.0:
                for j in range(col, d):
                    rows[r][j] -= factor * rows[col][j]
                rhs[r] -= factor * rhs[col]

    center = [0.0] * d
    for col in range(d - 1, -1, -1):
        acc = rhs[col]
        for j in range(col + 1, d):
            acc -= rows[col][j] * center[j]
        center[col] = acc / rows[col][col]

    radius = max(
        math.sqrt(sum((p[j] - center[j]) ** 2 for j in range(d))) for p in pts
    )
    return Ball(tuple(center), radius)


def circumballs(simplices: np.ndarray, eps: float = EPS_GEOM):
    """`circumball` of each of m simplices, an (m, d+1, d) array:
    (centers (m, d), radii (m,), ok (m,)), ok False where `circumball`
    raises DegenerateSimplex. It is `circumball`'s elimination,
    vectorised over m with the same pivots, threshold and operation
    order: sums run term by term, a zero factor skips its row update,
    and radius terms are squared by libm `pow` (`np.float_power`), as
    `** 2` does. Where ok holds, the results equal `circumball`'s bit
    for bit.
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


def _facet_halfspaces(pts: Tuple[Tuple[float, ...], ...], eps: float):
    """Inward halfspaces (unit normal, offset) of a simplex, one per facet."""
    d = len(pts[0])
    arr = np.asarray(pts, dtype=float)
    halfspaces = []
    for omit in range(d + 1):
        facet = np.delete(arr, omit, axis=0)
        omitted = arr[omit]
        if d == 1:
            normal = np.array([1.0])
        elif d == 2:
            edge = facet[1] - facet[0]
            normal = np.array([edge[1], -edge[0]])
        else:
            normal = np.cross(facet[1] - facet[0], facet[2] - facet[0])
        norm = float(np.linalg.norm(normal))
        span = float(np.abs(arr).max()) + 1.0
        if norm <= eps * span ** (d - 1):
            raise DegenerateSimplex("degenerate facet while building halfspaces")
        normal = normal / norm
        offset = float(normal @ facet[0])
        if float(normal @ omitted) > offset:
            normal, offset = -normal, -offset
        halfspaces.append((normal, offset))
    return halfspaces


def _intersection_vertices(hs, d: int, atol: float) -> list:
    """Vertices of the polytope {x : n_i . x <= c_i} by exhaustive d-subset
    enumeration. Suitable for the small systems two simplices produce."""
    normals = np.array([h[0] for h in hs])
    offsets = np.array([h[1] for h in hs])
    vertices = []
    for combo in itertools.combinations(range(len(hs)), d):
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
    for p in ax:
        for j, q in enumerate(ay):
            if j not in used and float(np.linalg.norm(p - q)) <= atol:
                shared.append(p)
                used.add(j)
                break

    # quick reject on bounding boxes
    if np.any(ax.min(axis=0) > ay.max(axis=0) + atol) or np.any(
        ay.min(axis=0) > ax.max(axis=0) + atol
    ):
        return FaceRelation.DISJOINT

    if len(shared) == d + 1:
        return FaceRelation.COMMON_FACE  # identical simplices

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
            if d == 2:
                edge = facet[1] - facet[0]
                normal = np.array([edge[1], -edge[0]])
            else:
                normal = np.cross(facet[1] - facet[0], facet[2] - facet[0])
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

    hs = _facet_halfspaces(x.points, eps) + _facet_halfspaces(y.points, eps)
    vertices = _intersection_vertices(hs, d, atol)
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
