"""Independent oracles used across the test modules.

These deliberately avoid the production code paths they check:
exhaustive enumeration instead of Qhull's Delaunay triangulation,
closed-form determinant circumcenters instead of the elimination
solver, linear feasibility instead of Qhull, barycentric signs instead
of halfspace tests, the scalar face test on every pair instead of the
batched face-to-face validator, the full (n, m) double loop instead of
the banded length decomposition, and the per-cluster coverage loop
instead of the box-filtered coverage pass.

The scalar predicates the batched production code replaced live here
as oracles too: the ball trichotomy and the hard-core isolation test
scan every point, `circumball`, the scalar elimination, checks the
batched `circumballs` bit for bit, and the per-cluster hull test and
coverage loop check the batched coverage kernel bit for bit.
"""

import itertools
import math
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from clustertess import (
    SQRT2,
    AmbiguousDecomposition,
    Cluster,
    DegenerateSimplex,
    EPS_GEOM,
    UnsupportedDimension,
    circumball,
    common_face_check,
    make_rng,
)
from clustertess.geometry import FaceRelation, _facet_halfspaces


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


def hardcore_isolated(point, eta, r):
    """Scalar hard-core membership: no other configuration point lies
    closer than r to the point (distances that round to zero are the
    point itself)."""
    dists = np.linalg.norm(eta.points - np.asarray(point), axis=1)
    return not np.any(dists[dists > 0.0] < r)


def exhaustive_delone(eta, radius_cap, open_ball_mode=False):
    """All (d+1)-subsets passing the Delone membership, with no pruning.

    Membership is evaluated through the scalar geometry operations
    (circumball by elimination, ball_contains trichotomy), so this is
    also a second numeric route against the vectorized extractor.
    """
    d = eta.dimension
    pts = [tuple(p) for p in eta.points]
    out = []
    for combo in itertools.combinations(pts, d + 1):
        cluster = Cluster(combo)
        try:
            ball = circumball(cluster)
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


def face_to_face_violations_all_pairs(cfg):
    """Improper pairs (i, j), i < j, ascending: `common_face_check` on
    every pair of clusters, with no box pruning and no batched test."""
    return tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(cfg.clusters)), 2)
        if common_face_check(cfg.clusters[i], cfg.clusters[j]) is FaceRelation.IMPROPER
    )


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
            halfspaces = _facet_halfspaces(cluster.points, eps)
        except DegenerateSimplex:
            return np.zeros(len(q), dtype=bool)  # flat simplex, measure-zero hull
        inside = np.ones(len(q), dtype=bool)
        for normal, offset in halfspaces:
            inside &= q @ normal <= offset + tol
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
