import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clustertess import (
    Ball,
    Cluster,
    DegenerateSimplex,
    UnsupportedDimension,
    Window,
    circumball,
    circumballs,
    common_face_check,
    convex_hull_vertices,
    is_discrete_polytope,
    lattice_sites_in_window,
    make_rng,
)
from clustertess.geometry import FaceRelation, facet_planes

from helpers import BallSide, ball_contains, circumball_scalar, facet_halfspaces_scalar, lp_extreme_points


def test_circumball_right_isoceles_triangle():
    ball = circumball(Cluster([(0, 0), (1, 0), (0, 1)]))
    assert ball.center == pytest.approx((0.5, 0.5), abs=1e-12)
    assert ball.radius == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_circumball_1d_midpoint():
    ball = circumball(Cluster([(0,), (2,)]))
    assert ball.center == pytest.approx((1.0,), abs=0)
    assert ball.radius == pytest.approx(1.0, abs=0)


def test_circumball_random_tetrahedron_seed42():
    rng = make_rng(42)
    verts = rng.random((4, 3))
    ball = circumball(Cluster(verts))
    # oracle: verify the four equidistance equations directly
    for v in verts:
        dist = float(np.linalg.norm(v - ball.center))
        assert abs(dist - ball.radius) <= 1e-9 * ball.radius


def test_circumball_degenerate_raises():
    with pytest.raises(DegenerateSimplex):
        circumball(Cluster([(0, 0), (1, 0), (2, 0)]))
    with pytest.raises(DegenerateSimplex):
        circumball(Cluster([(0, 0), (1, 1)]))  # wrong cardinality for d=2
    with pytest.raises(DegenerateSimplex):  # subnormal pivot: no finite reciprocal
        circumball(Cluster([(0, 0), (0, 5e-324), (2.225073858507e-311, 0)]))


def _bits(values) -> bytes:
    """The exact bit pattern, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def simplex_batches(draw):
    """One to six simplices in one dimension d = 1, 2, 3, at one scale
    from 1e-12 to 1e12: uniform, quarter-grid or jittered quarter-grid
    coordinates, so that pivots tie and vanish."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from((1e-12, 1e-6, 1.0, 1e6, 1e12)))
    coordinate = st.one_of(
        st.floats(-1.0, 1.0),
        st.integers(-4, 4).map(lambda k: k / 4.0),
        st.integers(-4, 4).map(lambda k: k / 4.0 + 1e-9),
    )
    point = st.tuples(*[coordinate] * d).map(lambda p: tuple(c * scale for c in p))
    batch = draw(st.lists(st.lists(point, min_size=d + 1, max_size=d + 1), min_size=1, max_size=6))
    assume(all(len(set(simplex)) == d + 1 for simplex in batch))
    return batch


@settings(max_examples=400, deadline=None)
@given(batch=simplex_batches())
# subnormal pivot, whose reciprocal overflows
@example(batch=[[(0.0, 0.0), (0.0, 5e-324), (2.225073858507e-311, 0.0)]])
# a well-shaped triangle far below unit scale
@example(batch=[[(0.0, 0.0), (0.0, 1.1996980966642533e-54), (1.1996980966642533e-54, 0.0)]])
# its radius differs by one ulp when a term is squared by x * x, not pow
@example(batch=[[(0.705, 0.115), (0.771, 0.513), (0.291, 0.61)]])
def test_circumballs_match_circumball_bitwise(batch):
    centers, radii, ok = circumballs(np.array(batch, dtype=float))
    for k, simplex in enumerate(batch):
        try:
            ball = circumball_scalar(Cluster(simplex))
        except DegenerateSimplex:
            assert not ok[k]
            continue
        assert ok[k]
        assert _bits(centers[k]) == _bits(ball.center)
        assert _bits(radii[k]) == _bits(ball.radius)


@settings(max_examples=400, deadline=None)
@given(batch=simplex_batches())
# a near-flat triangle with a 2.2e-9 edge, which the pivot test accepts
@example(batch=[[(2, 0.8167681913491067), (1.500000001, 1.499999999), (1.499999999, 1.5)]])
# a flat tetrahedron, and a subnormal edge
@example(batch=[[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0.5, 0)]])
@example(batch=[[(0.0, 0.0), (5e-324, 0.0), (0.5, 0.5)]])
def test_facet_planes_match_scalar_halfspaces_bitwise(batch):
    # compared where the pivot test accepts the simplex; elsewhere the
    # planes are not meaningful
    normals, units, offsets = facet_planes(np.array(batch, dtype=float))
    for k, simplex in enumerate(batch):
        try:
            halfspaces = facet_halfspaces_scalar(simplex)
        except DegenerateSimplex:
            continue
        for part, got in zip(zip(*halfspaces), (normals[k], units[k], offsets[k])):
            assert _bits(part) == _bits(got)


def test_circumball_permutation_order_independence():
    rng = make_rng(7)
    for d in (2, 3):
        for _ in range(50):
            verts = rng.random((d + 1, d)) * 10 - 5
            ball = circumball(Cluster(verts))
            perm = rng.permutation(d + 1)
            ball2 = circumball(Cluster(verts[perm]))
            assert np.allclose(ball2.center, ball.center, rtol=1e-9, atol=1e-9 * ball.radius)
            assert ball2.radius == pytest.approx(ball.radius, rel=1e-9)


def test_circumball_translation_equivariance():
    rng = make_rng(8)
    for d in (2, 3):
        for _ in range(50):
            verts = rng.random((d + 1, d))
            shift = rng.random(d) * 20 - 10
            ball = circumball(Cluster(verts))
            shifted = circumball(Cluster(verts + shift))
            assert np.allclose(
                shifted.center, np.asarray(ball.center) + shift, rtol=1e-9, atol=1e-9
            )
            assert shifted.radius == pytest.approx(ball.radius, rel=1e-9)


def test_all_vertices_on_boundary_of_circumball():
    rng = make_rng(9)
    for d in (1, 2, 3):
        for _ in range(30):
            verts = rng.random((d + 1, d))
            ball = circumball(Cluster(verts))
            for v in verts:
                assert ball_contains(ball, v) is BallSide.ON_BOUNDARY


def test_is_discrete_polytope_examples():
    assert is_discrete_polytope(Cluster([(0, 0), (1, 0), (0, 1)]))
    assert not is_discrete_polytope(Cluster([(0, 0), (2, 0), (1, 0)]))
    square_plus_center = Cluster([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)])
    assert not is_discrete_polytope(square_plus_center)
    assert is_discrete_polytope(Cluster([(0.25, 0.25)]))


@pytest.mark.parametrize("scale", [1e-10, 1e-5, 1.0, 1e5, 1e10])
def test_is_discrete_polytope_scale_free(scale):
    # the hull's rank test is relative to the largest singular value, so
    # a well-shaped simplex keeps all its vertices at every scale
    triangle = [(0, 0), (1, 0), (0, 1)]
    tetrahedron = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for simplex in (triangle, tetrahedron):
        assert is_discrete_polytope(Cluster(np.asarray(simplex) * scale))


# Quarter-grid coordinates put points exactly on hull edges and facets.
COORDINATE = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda k: k / 4.0))
SILVER_PATCH = [e.embed() for e in lattice_sites_in_window(Window((0, 0), (7, 7)))]
POLYTOPE_INPUTS = st.one_of(
    *(st.lists(st.tuples(*[COORDINATE] * d), min_size=1, max_size=8, unique=True) for d in (1, 2, 3)),
    st.lists(st.sampled_from(SILVER_PATCH), min_size=1, max_size=10, unique=True),
)


def _within_lp_tolerance(points, on_span=1e-14, lp_band=1e-6):
    """True when a point lies near, but not on, the affine span of one to
    d of the others. The LP oracle calls a point inside anything it is
    within 1e-7 of, the hull only what it lies on up to rounding, so
    there the two verdicts may legitimately differ. A single other point
    spans nothing a distinct point can lie on."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    for k in range(1, d + 1):  # near pairs first: they make spans ill-conditioned
        for i in range(n):
            for combo in itertools.combinations(np.delete(pts, i, axis=0), k):
                offset = pts[i] - combo[0]
                if k > 1:
                    span = (np.asarray(combo[1:]) - combo[0]).T
                    offset = offset - span @ np.linalg.lstsq(span, offset, rcond=None)[0]
                dist = float(np.linalg.norm(offset))
                if dist < lp_band and (k == 1 or dist > on_span):
                    return True
    return False


@settings(max_examples=300, deadline=None)
@given(points=POLYTOPE_INPUTS)
def test_is_discrete_polytope_matches_lp_oracle(points):
    assume(not _within_lp_tolerance(points))
    assert is_discrete_polytope(Cluster(points)) == (len(lp_extreme_points(points)) == len(points))


def test_convex_hull_trivial_examples():
    square_plus_center = Cluster([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)])
    hull = convex_hull_vertices(square_plus_center)
    assert sorted(hull.points) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert sorted(convex_hull_vertices(Cluster([(0,), (1,), (2,)])).points) == [(0.0,), (2.0,)]


def test_convex_hull_matches_lp_oracle_seed7():
    rng = make_rng(7)
    pts = rng.random((20, 2))
    hull = convex_hull_vertices(Cluster(pts))
    assert sorted(hull.points) == lp_extreme_points(pts)


def test_convex_hull_3d_and_collinear_2d():
    rng = make_rng(13)
    pts = rng.random((15, 3))
    hull = convex_hull_vertices(Cluster(pts))
    assert sorted(hull.points) == lp_extreme_points(pts)
    # collinear points embedded in the plane reduce to their endpoints
    line = [(t, 2 * t) for t in (0.0, 0.25, 0.5, 1.0)]
    assert sorted(convex_hull_vertices(Cluster(line)).points) == [(0.0, 0.0), (1.0, 2.0)]


def test_convex_hull_idempotent_and_polytope():
    rng = make_rng(21)
    for _ in range(20):
        pts = rng.random((12, 2)) * 4
        hull = convex_hull_vertices(Cluster(pts))
        assert convex_hull_vertices(hull) == hull
        assert is_discrete_polytope(hull)


def test_convex_hull_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        convex_hull_vertices(Cluster([(0, 0, 0, 0), (1, 0, 0, 0)]))
    with pytest.raises(UnsupportedDimension):
        is_discrete_polytope(Cluster([(0, 0, 0, 0), (1, 0, 0, 0)]))


def test_ball_contains_trichotomy():
    ball = Ball((0.0, 0.0), 1.0)
    assert ball_contains(ball, (0, 0)) is BallSide.INSIDE
    assert ball_contains(ball, (1, 0)) is BallSide.ON_BOUNDARY
    assert ball_contains(ball, (2, 0)) is BallSide.OUTSIDE
    assert ball_contains(ball, (1 + 5e-10, 0)) is BallSide.ON_BOUNDARY
    assert ball_contains(ball, (1 + 5e-9, 0)) is BallSide.OUTSIDE


def test_common_face_shared_edge():
    t1 = Cluster([(0, 0), (1, 0), (0.5, 1)])
    t2 = Cluster([(0, 0), (1, 0), (0.5, -1)])
    assert common_face_check(t1, t2) is FaceRelation.COMMON_FACE


def test_common_face_overlapping_edges_improper():
    a = Cluster([(0, 0), (2, 0), (1, 1)])
    b = Cluster([(1, 0), (3, 0), (2, -1)])
    assert common_face_check(a, b) is FaceRelation.IMPROPER


def test_common_face_disjoint_boxes():
    t1 = Cluster([(0, 0), (1, 0), (0.5, 1)])
    t2 = Cluster([(5, 5), (6, 5), (5.5, 6)])
    assert common_face_check(t1, t2) is FaceRelation.DISJOINT


def test_common_face_shared_vertex_only():
    t1 = Cluster([(0, 0), (-1, 0), (-0.5, 1)])
    t2 = Cluster([(0, 0), (1, 0), (0.5, -1)])
    assert common_face_check(t1, t2) is FaceRelation.COMMON_FACE


def test_common_face_vertex_touching_edge_interior_improper():
    t1 = Cluster([(0, 0), (2, 0), (1, 1)])
    t2 = Cluster([(1, 0), (0.5, -1), (1.5, -1)])  # apex touches the base edge
    assert common_face_check(t1, t2) is FaceRelation.IMPROPER


def test_common_face_overlapping_interiors_improper():
    t1 = Cluster([(0, 0), (2, 0), (1, 2)])
    t2 = Cluster([(1, 1), (3, 1), (2, 3)])
    assert common_face_check(t1, t2) is FaceRelation.IMPROPER


def test_common_face_identical_simplices():
    t = Cluster([(0, 0), (1, 0), (0.5, 1)])
    assert common_face_check(t, t) is FaceRelation.COMMON_FACE


def test_common_face_1d():
    assert common_face_check(Cluster([(0,), (1,)]), Cluster([(1,), (2,)])) is FaceRelation.COMMON_FACE
    assert common_face_check(Cluster([(0,), (1,)]), Cluster([(0.5,), (2,)])) is FaceRelation.IMPROPER
    assert common_face_check(Cluster([(0,), (1,)]), Cluster([(3,), (4,)])) is FaceRelation.DISJOINT


def test_common_face_3d_tetrahedra():
    shared = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    up = Cluster(shared + [(0.3, 0.3, 1.0)])
    down = Cluster(shared + [(0.3, 0.3, -1.0)])
    assert common_face_check(up, down) is FaceRelation.COMMON_FACE
    overlapping = Cluster(shared + [(0.3, 0.3, 0.5)])
    tilted = Cluster([(0.1, 0.1, 0.2), (0.9, 0.1, 0.2), (0.1, 0.9, 0.2), (0.3, 0.3, 0.9)])
    assert common_face_check(overlapping, tilted) is FaceRelation.IMPROPER


def test_cluster_canonical_identity():
    a = Cluster([(1, 0), (0, 0)])
    b = Cluster([(0, 0), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a.points == ((1.0, 0.0), (0.0, 0.0))  # presentation order preserved
    with pytest.raises(ValueError):
        Cluster([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        Cluster([])
