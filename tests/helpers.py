"""Independent oracles used across the test modules.

These deliberately avoid the production code paths they check:
exhaustive enumeration instead of Qhull's Delaunay triangulation,
closed-form determinant circumcenters instead of the elimination
solver, linear feasibility instead of Qhull, barycentric signs instead
of halfspace tests, the scalar face test on every pair instead of the
empty-circumball certificate and the batched face-to-face kernel, the
full (n, m) double loop instead of the banded length decomposition,
and the per-cluster coverage loop instead of the box-filtered coverage
pass.

The scalar predicates the batched production code replaced live here
as oracles too: the ball trichotomy and the hard-core isolation test
scan every point; `circumball_scalar`, the scalar elimination, checks
the batched `circumballs` bit for bit; `facet_halfspaces_scalar`, one
facet plane at a time, checks the batched `facet_planes` bit for bit;
`common_face_check_scalar` checks the batched `face_relations` pair by
pair, and `lifting_proper_exact`, the empty-circumball certificate in
exact rational arithmetic, decides the pairs the validator's float
certificate settles where the tolerant test disagrees; the per-cluster hull test and coverage loop check the batched
coverage kernel bit for bit; `delone_table_two_pass`, candidate growth
and emptiness in two passes, checks the one-pass `_delone_table` bit for
bit; and `voronoi_cells_loop`, one Python loop over the cells, checks
the array pass of `_voronoi_cells` bit for bit; and
`lattice_box_exhaustive`, every (u, v) of a generous rectangle tested
through `LatticeIndex.embed`, checks the array lattice enumeration.
"""

import itertools
import math
import sys
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from clustertess import (
    SQRT2,
    AmbiguousDecomposition,
    Ball,
    Cluster,
    ClusterConfiguration,
    DegenerateSimplex,
    EPS_GEOM,
    LatticeIndex,
    UnsupportedDimension,
    is_discrete_polytope,
    make_rng,
)
from clustertess.clusterprops import _REACH, _REACH_FLOOR, _delone_table
from clustertess.geometry import SINGULAR_DET, FaceRelation, circumballs, facet_planes


class BallSide(Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


def ball_contains(ball, point, eps=EPS_GEOM):
    """Trichotomy of a point against a sphere, with relative tolerance.

    distance < r - eps*r   -> INSIDE
    |distance - r| <= eps*r -> ON_BOUNDARY
    otherwise               -> OUTSIDE
    """
    c = ball.center
    dist = math.sqrt(sum((float(p) - c[j]) ** 2 for j, p in enumerate(point)))
    band = eps * ball.radius
    if abs(dist - ball.radius) <= band:
        return BallSide.ON_BOUNDARY
    if dist < ball.radius:
        return BallSide.INSIDE
    return BallSide.OUTSIDE


def circumball_scalar(simplex, eps=EPS_GEOM):
    """Circumball of a full-dimensional simplex (d+1 points in R^d).

    Solves the pairwise-equidistance system 2(v_i - v_0) . x =
    |v_i|^2 - |v_0|^2 by Gaussian elimination with partial pivoting.
    A pivot below eps times the matrix scale means the vertices are
    affinely dependent and DegenerateSimplex is raised; so does a
    subnormal pivot, whose reciprocal would overflow, and a matrix scale
    whose half squares below the smallest normal float, where the
    squared terms on the right underflow.
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
    if 0.25 * scale * scale < sys.float_info.min:
        raise DegenerateSimplex(f"edge scale {scale:.3e} squares below the smallest normal float")

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


def facet_halfspaces_scalar(pts, eps=EPS_GEOM):
    """Inward halfspaces (normal, unit normal, offset) of a simplex, one
    per facet; facet k omits vertex k, and its normal is not normalised.
    Raises DegenerateSimplex where `circumball_scalar` does."""
    circumball_scalar(Cluster(pts), eps)
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
        unit = normal / float(np.linalg.norm(normal))
        offset = float(unit @ facet[0])
        if float(unit @ omitted) > offset:
            unit, offset = -unit, -offset
        halfspaces.append((normal, unit, offset))
    return halfspaces


def hardcore_isolated(point, eta, r):
    """Scalar hard-core membership: no other configuration point lies
    closer than r to the point (distances that round to zero are the
    point itself)."""
    dists = np.linalg.norm(eta.points - np.asarray(point), axis=1)
    return not np.any(dists[dists > 0.0] < r)


def exhaustive_delone(eta, radius_cap, open_ball_mode=False):
    """All (d+1)-subsets passing the Delone membership, with no pruning.

    Membership is evaluated through the scalar geometry operations
    (`circumball_scalar`, the `ball_contains` trichotomy), so this is
    also a second numeric route against the vectorized extractor.
    """
    d = eta.dimension
    pts = [tuple(p) for p in eta.points]
    out = []
    for combo in itertools.combinations(pts, d + 1):
        cluster = Cluster(combo)
        try:
            ball = circumball_scalar(cluster)
        except DegenerateSimplex:
            continue
        if ball.radius > radius_cap:
            continue
        blocked = False
        for p in pts:
            if p in combo:
                continue
            side = ball_contains(ball, p)
            if open_ball_mode:
                if side is BallSide.INSIDE:
                    blocked = True
                    break
            elif side is not BallSide.OUTSIDE:
                blocked = True
                break
        if not blocked:
            out.append(cluster)
    return sorted(out)


def _delone_candidate_rows_two_pass(pts, tree, radius_cap):
    """Index rows of the Delone candidates, each ascending, unique and in
    lexicographic order: every (d+1)-subset of each Delaunay simplex's
    group (the points within 8 EPS_GEOM of its circumsphere), plus every
    (d+1)-subset within two cap radii of a crowded point."""
    from scipy.spatial import Delaunay, QhullError

    n, d = pts.shape
    rows = np.empty((0, d + 1), dtype=np.intp)
    if n < d + 1:
        return rows
    if d == 1:
        rows = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    else:
        try:
            rows = Delaunay(pts - pts.mean(axis=0)).simplices
        except QhullError:
            pass
    slack = 1.0 + 8.0 * EPS_GEOM
    centers, radii, ok = circumballs(pts[rows])
    good = ok & (radii <= radius_cap * slack)
    groups = tree.query_ball_point(centers[good], radii[good] * slack, return_sorted=True)
    grown = {c for g in set(map(tuple, groups)) for c in itertools.combinations(g, d + 1)}
    crowded = np.unique(tree.query_pairs(1e-10 * np.ptp(pts, axis=0).max(), output_type="ndarray"))
    near = tree.query_ball_point(pts[crowded], 2.0 * radius_cap * slack)
    grown |= {c for i, g in zip(crowded, near) for c in itertools.combinations(sorted(g), d + 1) if i in c}
    return np.unique(np.array(list(grown), dtype=np.intp).reshape(-1, d + 1), axis=0)


def delone_table_two_pass(eta, radius_cap, open_ball_mode):
    """The Delone table as (rows, centers, radii, member) by the two passes
    the fused `_delone_table` replaced: candidate rows grown from the
    Delaunay simplices by one `circumballs` call and one kd-tree query,
    then a second `circumballs` call and kd-tree query over the rows to
    decide emptiness."""
    from scipy.spatial import cKDTree

    pts = eta.points
    tree = cKDTree(pts)
    rows = _delone_candidate_rows_two_pass(pts, tree, radius_cap)
    centers, radii, ok = circumballs(pts[rows])
    under = ok & (radii <= radius_cap)
    rows, centers, radii = rows[under], centers[under], radii[under]
    band = EPS_GEOM * radii
    hits = tree.query_ball_point(centers, (radii + band) * _REACH + _REACH_FLOOR)
    owner = np.repeat(np.arange(len(rows)), [len(h) for h in hits])
    k = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=len(owner))
    dist = np.linalg.norm(pts[k] - centers[owner], axis=1)
    if open_ball_mode:
        inside = dist < (radii - band)[owner]
    else:
        inside = dist <= (radii + band)[owner]
    inside &= (rows[owner] != k[:, None]).all(axis=1)
    member = np.bincount(owner[inside], minlength=len(rows)) == 0
    return rows, centers, radii, member


def face_to_face_violations_all_pairs(cfg):
    """Improper pairs (i, j), i < j, ascending: `common_face_check_scalar`
    on every pair of clusters, with no box pruning, no certificate and no
    batched test."""
    return tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(cfg.clusters)), 2)
        if common_face_check_scalar(cfg.clusters[i], cfg.clusters[j]) is FaceRelation.IMPROPER
    )


def lifting_proper_exact(x, y):
    """True when the lifting argument proves that simplices x and y, d+1
    points each in R^d, meet exactly in their shared face, in exact
    rational arithmetic; False proves nothing.

    Vertices are shared when their coordinates are equal. Every unshared
    vertex v of one simplex must lie strictly outside the other's
    circumsphere: with the rows (p, |p|^2, 1) of that simplex's vertices
    and then of v, the lifted determinant times the orientation
    determinant of the rows (p, 1) is negative exactly then."""
    x, y = ([tuple(Fraction(float(c)) for c in p) for p in s] for s in (x, y))
    shared = set(x) & set(y)
    for simplex, other in ((x, y), (y, x)):
        orient = _det_exact([[*p, 1] for p in simplex])
        if orient == 0:
            return False
        for v in other:
            if v in shared:
                continue
            lifted = _det_exact([[*p, sum(c * c for c in p), 1] for p in (*simplex, v)])
            if lifted * orient >= 0:
                return False
    return True


def _det_exact(rows):
    """The determinant of a square matrix of Fractions, by elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [u - f * w for u, w in zip(a[r], a[k])]
    return det


def common_face_check_scalar(x, y):
    """How the convex hulls of two discrete simplices meet, one pair at
    a time: the rule the batched `face_relations` applies.

    DISJOINT     the hulls do not intersect at all;
    COMMON_FACE  the intersection is exactly the hull of the shared
                 vertices;
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
    atol = EPS_GEOM * scale

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

    normals, units, offsets = facet_planes(np.stack([ax, ay]))
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

    circumball_scalar(x)  # raises DegenerateSimplex on a degenerate simplex
    circumball_scalar(y)
    vertices = _intersection_vertices(units.reshape(-1, d), offsets.ravel(), d, atol)
    if not vertices:
        return FaceRelation.DISJOINT
    if _match_point_sets(vertices, list(np.asarray(shared)), 10 * atol):
        return FaceRelation.COMMON_FACE
    return FaceRelation.IMPROPER


def _intersection_vertices(normals, offsets, d, atol):
    """Vertices of the polytope {x : normals . x <= offsets} by
    exhaustive d-subset enumeration, deduplicated within 2 atol."""
    vertices = []
    for combo in itertools.combinations(range(len(normals)), d):
        a = normals[list(combo)]
        b = offsets[list(combo)]
        if d == 1:
            x = np.array([b[0] / a[0][0]])
        else:
            with np.errstate(divide="ignore"):  # det takes the log of a zero pivot
                singular = abs(np.linalg.det(a)) < SINGULAR_DET
            if singular:
                continue
            x = np.linalg.solve(a, b)
        if np.all(normals @ x <= offsets + atol):
            vertices.append(x)
    unique = []
    for v in vertices:
        if not any(np.linalg.norm(v - u) <= 2 * atol for u in unique):
            unique.append(v)
    return unique


def _match_point_sets(a, b, atol):
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


def _leftover_vertex(verts, facet, atol):
    for v in verts:
        if all(float(np.linalg.norm(v - f)) > atol for f in facet):
            return v
    return verts[-1]


def hull_contains_points_scalar(cluster, queries, eps=EPS_GEOM):
    """Membership of query points in the hull of one cluster, by inward
    halfspace tests built for that cluster alone."""
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
            halfspaces = facet_halfspaces_scalar(cluster.points, eps)
        except DegenerateSimplex:
            return np.zeros(len(q), dtype=bool)  # flat simplex, measure-zero hull
        inside = np.ones(len(q), dtype=bool)
        for _, unit, offset in halfspaces:
            inside &= q @ unit <= offset + tol
        return inside
    raise UnsupportedDimension(f"hull membership not implemented for d = {d}")


def covered_fraction_loop(cfg, window, n_samples, seed, eps=EPS_GEOM):
    """`covered_fraction` by one `hull_contains_points_scalar` call per
    cluster on the samples no earlier cluster covers."""
    region = window.erode(window.buffer_margin) if window.buffer_margin > 0 else window
    rng = make_rng(seed)
    samples = np.asarray(region.low) + rng.random((n_samples, region.dimension)) * region.extent()
    covered = np.zeros(n_samples, dtype=bool)
    for cluster in cfg.clusters:
        remaining = ~covered
        if not np.any(remaining):
            break
        hits = hull_contains_points_scalar(cluster, samples[remaining], eps)
        covered[np.nonzero(remaining)[0][hits]] = True
    fraction = float(covered.mean())
    se = float(np.sqrt(fraction * (1.0 - fraction) / n_samples))
    return fraction, se


def circumcenter_determinant(a, b, c):
    """2D circumcenter by the classical determinant formula."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    dd = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(dd) < 1e-14:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / dd
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / dd
    return (ux, uy)


def voronoi_vertices_brute_force(eta, tol=1e-9):
    """Voronoi vertices as equidistance witnesses.

    A vertex is any point equidistant to at least three configuration
    points with every other point strictly farther. Returns
    {rounded vertex: (vertex, frozenset of nearest point indices)}.
    """
    pts = eta.points
    found = {}
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        center = circumcenter_determinant(pts[i], pts[j], pts[k])
        if center is None:
            continue
        dists = np.linalg.norm(pts - np.asarray(center), axis=1)
        r = (dists[i] + dists[j] + dists[k]) / 3.0
        scale = max(1.0, r)
        if np.any(dists < r - tol * scale):
            continue
        nearest = frozenset(np.nonzero(dists <= r + tol * scale)[0].tolist())
        key = tuple(round(x, 9) for x in center)
        found[key] = (center, nearest)
    return found


def voronoi_cells_loop(eta, cap, open_ball_mode=False):
    """Voronoi candidates by one Python loop over the closed centres, the
    rule the array pass of `_voronoi_cells` replaced: (cells, member,
    centers), the cells sorted as `Cluster` objects and flagged, whether
    `is_discrete_polytope` admits each, and {cell: center}.

    Each closed centre's vertices are ordered by a stable argsort of
    their angles; a vertex is kept when it lies farther than tol from the
    last one kept, and the last kept goes when it lies within tol of the
    first, tol being EPS_GEOM * max(min(1, the largest window corner
    magnitude), the cell's largest vertex magnitude).
    """
    rows, centers, _, member = _delone_table(eta, cap, open_ball_mode)
    rows, centers = rows[member], centers[member]
    pairs = rows[:, [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]].reshape(-1, 2)
    edges, uses = np.unique(pairs, axis=0, return_counts=True)
    closed = np.bincount(rows.ravel(), minlength=eta.n_atoms) >= 3
    closed[edges[uses != 2, 0]] = False
    incident = np.argsort(rows.ravel(), kind="stable") // 3
    start = np.searchsorted(np.sort(rows.ravel()), np.arange(eta.n_atoms + 1))
    floor = min(1.0, max(abs(c) for c in eta.window.low + eta.window.high))
    out = {}
    for ci in np.nonzero(closed)[0]:
        center = eta.points[ci]
        verts = centers[incident[start[ci] : start[ci + 1]]]
        angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
        ordered = verts[np.argsort(angles, kind="stable")]
        tol = EPS_GEOM * max(floor, float(np.abs(ordered).max()))
        keep = [0]
        for k in range(1, len(ordered)):
            if np.linalg.norm(ordered[k] - ordered[keep[-1]]) > tol:
                keep.append(k)
        if len(keep) > 1 and np.linalg.norm(ordered[keep[-1]] - ordered[keep[0]]) <= tol:
            keep.pop()
        if len(keep) < 3:
            continue
        radii = np.linalg.norm(ordered[keep] - center, axis=1)
        certain = bool(eta.window.contains_ball(ordered[keep], radii).all())
        out[Cluster(tuple(ordered[k]) for k in keep)] = (tuple(center), certain)
    cells = sorted(out)
    cfg = ClusterConfiguration(cells, [not out[c][1] for c in cells], eta.window)
    member = np.array([is_discrete_polytope(c) for c in cells], dtype=bool)
    return cfg, member, {c: out[c][0] for c in cells}


def lp_extreme_points(points):
    """Brute-force extreme-point filter: p is extreme iff p is not in
    the convex hull of the others (linear feasibility)."""
    pts = np.asarray(points, dtype=float)
    extreme = []
    for i in range(len(pts)):
        others = np.delete(pts, i, axis=0)
        if len(others) == 0:
            extreme.append(tuple(pts[i]))
            continue
        res = linprog(
            np.zeros(len(others)),
            A_eq=np.vstack([others.T, np.ones(len(others))]),
            b_eq=np.concatenate([pts[i], [1.0]]),
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            extreme.append(tuple(pts[i]))
    return sorted(extreme)


def barycentric_inside(simplex_points, query, tol=1e-9):
    """Point-in-simplex by barycentric coordinate signs."""
    verts = np.asarray(simplex_points, dtype=float)
    d = verts.shape[1]
    mat = np.vstack([verts.T, np.ones(len(verts))])
    rhs = np.concatenate([np.asarray(query, dtype=float), [1.0]])
    try:
        coords = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(coords >= -tol))


def two_sample_chi_square(counts_a, counts_b, min_expected=5.0):
    """Two-sample chi-square statistic for equal-size count samples,
    with adjacent bins pooled until both totals reach the floor."""
    kmax = max(max(counts_a), max(counts_b))
    from collections import Counter

    ha, hb = Counter(counts_a), Counter(counts_b)
    bins = []
    acc_a = acc_b = 0.0
    for k in range(kmax + 1):
        acc_a += ha.get(k, 0)
        acc_b += hb.get(k, 0)
        if acc_a + acc_b >= 2.0 * min_expected:
            bins.append((acc_a, acc_b))
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if bins:
            last_a, last_b = bins[-1]
            bins[-1] = (last_a + acc_a, last_b + acc_b)
        else:
            bins.append((acc_a, acc_b))
    stat = sum((a - b) ** 2 / (a + b) for a, b in bins if a + b > 0)
    dof = max(1, len(bins) - 1)
    return stat, dof


def decompose_length_double_loop(length, n_max, tol):
    """`decompose_length` by testing every (n, m) up to n_max."""
    hits = []
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            if abs(length - (n + m * SQRT2)) <= tol:
                hits.append((n, m))
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousDecomposition(
            f"length {length} matches {hits} within tol = {tol}"
        )
    return hits[0]


def lattice_box_exhaustive(low, high):
    """The (u, v) of the silver-mean lattice points whose embedding lies
    in the closed box [low, high], sorted by u, then v: every index pair
    of a rectangle two indices wider than u = (x + y) / 2 and
    v = (x - y) / (2 sqrt 2) need, tested through `LatticeIndex.embed`."""
    (x_lo, y_lo), (x_hi, y_hi) = low, high
    us = range(math.floor((x_lo + y_lo) / 2) - 2, math.ceil((x_hi + y_hi) / 2) + 3)
    vs = range(math.floor((x_lo - y_hi) / (2 * SQRT2)) - 2, math.ceil((x_hi - y_lo) / (2 * SQRT2)) + 3)
    out = []
    for u in us:
        for v in vs:
            x, y = LatticeIndex(u, v).embed()
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                out.append((u, v))
    return out
