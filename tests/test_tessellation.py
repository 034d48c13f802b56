import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from clustertess import (
    Cluster,
    ClusterConfiguration,
    DegenerateSimplex,
    EPS_GEOM,
    NonSimplicialInput,
    PointConfiguration,
    UnsupportedDimension,
    Window,
    build_report,
    check_face_to_face,
    check_simplicial,
    circumballs,
    common_face_check,
    covered_fraction,
    delone_property,
    extract_clusters,
    hull_contains_points,
    lattice_sites_in_window,
    make_rng,
    mix_seed,
    sample_poisson_homogeneous,
    voronoi_cell_centers,
    voronoi_property,
)
from clustertess import tessellation
from clustertess.geometry import FaceRelation, face_relations, facet_planes

from helpers import (
    barycentric_inside,
    common_face_check_scalar,
    covered_fraction_loop,
    face_to_face_violations_all_pairs,
    facet_halfspaces_scalar,
    hull_contains_points_scalar,
    lifting_proper_exact,
)

UNIT = Window((0.0, 0.0), (1.0, 1.0))


def silver_mean_patch_clusters(open_ball_mode):
    # the 20-site lattice patch: cocircular squares make open-ball mode
    # admit overlapping triangles
    window = Window((0, 0), (7, 7))
    eta = PointConfiguration([e.embed() for e in lattice_sites_in_window(window)], None, window)
    return extract_clusters(delone_property(2.0, open_ball_mode=open_ball_mode), eta)


def test_simplicial_checks():
    eta = sample_poisson_homogeneous(40.0, UNIT, 3)
    delone = extract_clusters(delone_property(0.4), eta)
    assert check_simplicial(delone)
    cells = extract_clusters(voronoi_property(UNIT), eta)
    assert not check_simplicial(cells)  # generic cells have > 3 vertices
    empty = ClusterConfiguration([], [], UNIT)
    assert check_simplicial(empty)


def test_check_simplicial_single_cluster():
    def one(*points):
        return ClusterConfiguration([Cluster(points)], [False], UNIT)

    assert check_simplicial(one((0, 0), (1, 0), (0, 1)))
    assert not check_simplicial(one((0, 0), (1, 0), (2, 0)))
    assert not check_simplicial(one((0, 0), (1, 0)))


def test_face_to_face_on_delone_output():
    for rep in range(10):
        eta = sample_poisson_homogeneous(50.0, UNIT, mix_seed(131, rep))
        cfg = extract_clusters(delone_property(0.3), eta).certain()
        report = check_face_to_face(cfg)
        assert report.face_to_face is True
        assert report.violations == ()
        assert report.simplicial is True


def test_face_to_face_detects_improper_pair():
    cfg = ClusterConfiguration(
        [Cluster([(0, 0), (2, 0), (1, 1)]), Cluster([(1, 0), (3, 0), (2, -1)])],
        [False, False],
        Window((-5, -5), (5, 5)),
    )
    report = check_face_to_face(cfg)
    assert report.face_to_face is False
    assert report.violations == ((0, 1),)


def test_face_to_face_single_cluster_vacuous():
    cfg = ClusterConfiguration([Cluster([(0, 0), (1, 0), (0, 1)])], [False], UNIT)
    assert check_face_to_face(cfg).face_to_face is True


def test_face_to_face_requires_simplices():
    cfg = ClusterConfiguration([Cluster([(0, 0), (1, 0)])], [False], UNIT)
    with pytest.raises(NonSimplicialInput):
        check_face_to_face(cfg)


def test_face_to_face_order_invariant():
    cfg = silver_mean_patch_clusters(open_ball_mode=True)
    last = len(cfg.clusters) - 1
    reversed_cfg = ClusterConfiguration(
        list(reversed(cfg.clusters)), list(reversed(cfg.boundary_uncertain)), cfg.source_window
    )
    a = check_face_to_face(cfg)
    b = check_face_to_face(reversed_cfg)
    assert a.violations
    assert a.face_to_face == b.face_to_face
    mapped = sorted((last - j, last - i) for i, j in b.violations)
    assert tuple(mapped) == a.violations


def test_face_to_face_silver_mean_patch():
    # open-ball mode admits both diagonals of each cocircular square
    for open_ball_mode, n_clusters, n_violations in ((True, 40, 32), (False, 8, 0)):
        cfg = silver_mean_patch_clusters(open_ball_mode)
        assert len(cfg.clusters) == n_clusters
        violations = check_face_to_face(cfg).violations
        assert len(violations) == n_violations
        assert violations == face_to_face_violations_all_pairs(cfg)


@st.composite
def simplex_configurations(draw):
    """Random subsets of the full simplices on a small point pool, in
    d = 1, 2, 3. Most coordinates sit on a quarter grid, so shared
    vertices, collinear or coplanar edges and touching simplices occur;
    some sit just off it, inside or near the tolerance band."""
    d = draw(st.integers(1, 3), label="d")
    grid = st.integers(0, 8).map(lambda k: k / 4)
    coordinate = st.one_of(
        grid,
        st.builds(lambda c, shift: c + shift, grid, st.sampled_from([-1e-7, -1e-9, 1e-9, 1e-7])),
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=7, unique=True))
    simplices = [Cluster(c) for c in itertools.combinations(pool, d + 1)]
    full = circumballs(np.array([c.points for c in simplices], dtype=float))[2]
    simplices = [c for c, ok in zip(simplices, full) if ok]
    assume(simplices)
    chosen = draw(st.lists(st.sampled_from(simplices), max_size=10, unique=True))
    return ClusterConfiguration(chosen, [False] * len(chosen), Window((0.0,) * d, (2.0,) * d))


def pair(a, b):
    d = len(a[0])
    return ClusterConfiguration([Cluster(a), Cluster(b)], [False, False], Window((-3.0,) * d, (3.0,) * d))


# disjoint tetrahedra that no facet plane separates, only an edge-cross axis
CROSS_AXIS_PAIR = pair(
    [(-0.5, 0.5, 0), (0.5, -0.5, 0), (-0.5, -0.5, -2), (-1.5, -1.5, 0)],
    [(0.1, -0.4, 0.6), (0.1, 0.6, -0.4), (0.1, 1.6, 1.6), (2.1, 0.6, 0.6)],
)
# a vertex 1.4e-9 off the other triangle's edge: improper within atol
NEAR_EDGE_PAIR = pair([(0, 0), (1, 0), (0, 1)], [(0.5 + 1e-9, 0.5 + 1e-9), (1, 1), (1, 0.6)])
# distinct vertices, 0 and 1.7e-234, whose distance squared underflows to 0
UNDERFLOW_PAIR = pair([(0.0,), (0.013,)], [(-0.013,), (1.7e-234,)])
# a certified sliver sharing an edge with a fat tetrahedron: the
# tolerant face test misplaces a vertex of a near-singular facet triple
# and reads the pair improper
SLIVER_PAIR = pair(
    [(-1e-08, 1e-09, 1.5000001), (-1e-08, 0.500000001, 1.5), (0.4999999999, 0.50000000001, 1.50000000001), (0.500000001, 1e-07, 1.500000001)],
    [(-1e-08, 0.500000001, 1.5), (-1e-10, 0.5000001, 1.0), (1e-07, 1.0, 1.4999999999), (0.4999999999, 0.50000000001, 1.50000000001)],
)


def _certified(cfg):
    """The validator's certificate of each simplex of cfg."""
    verts, centers, radii = tessellation._circumscribed(cfg)
    atol = EPS_GEOM * max(1.0, float(np.abs(verts).max()))
    return tessellation._certified(verts, centers, radii, atol)


@settings(max_examples=300, deadline=None)
@given(cfg=simplex_configurations())
@example(cfg=CROSS_AXIS_PAIR)
@example(cfg=NEAR_EDGE_PAIR)
@example(cfg=UNDERFLOW_PAIR)
@example(cfg=SLIVER_PAIR)
def test_face_to_face_matches_all_pairs_oracle(cfg):
    # the validator reports only what the tolerant oracle reports; a pair
    # only the oracle reports joins two certified simplices, and exact
    # arithmetic proves it proper
    got = check_face_to_face(cfg).violations
    want = face_to_face_violations_all_pairs(cfg)
    assert set(got) <= set(want), [c.points for c in cfg.clusters]
    certified = _certified(cfg) if cfg.clusters else []
    for i, j in set(want) - set(got):
        assert certified[i] and certified[j], (i, j)
        assert lifting_proper_exact(cfg.clusters[i].points, cfg.clusters[j].points), (i, j)


@settings(max_examples=300, deadline=None)
@given(cfg=simplex_configurations())
@example(cfg=CROSS_AXIS_PAIR)
@example(cfg=NEAR_EDGE_PAIR)
@example(cfg=UNDERFLOW_PAIR)
def test_face_relations_match_scalar_pair_by_pair(cfg):
    # every ordered pair, identical ones included, in one batch
    assume(cfg.clusters)
    pairs = list(itertools.product(cfg.clusters, repeat=2))
    x, y = (np.array([p[k].points for p in pairs]) for k in (0, 1))
    assert face_relations(x, y).tolist() == [common_face_check_scalar(a, b).value for a, b in pairs]


def _count_kernel_pairs(monkeypatch):
    sent = []
    kernel = tessellation.face_relations
    monkeypatch.setattr(tessellation, "face_relations", lambda x, y: sent.append(len(x)) or kernel(x, y))
    return sent


def test_certificate_decides_delone_output(monkeypatch):
    # every certain Delone triangle is certified from its empty
    # circumball, so the sweep forms no pair and none reaches the face test
    sent = _count_kernel_pairs(monkeypatch)
    swept = []
    kernel = tessellation._box_overlap_pairs

    def sweep(*args):
        pairs = kernel(*args)
        swept.append(len(pairs[0]))
        return pairs

    monkeypatch.setattr(tessellation, "_box_overlap_pairs", sweep)
    for rep in range(4):
        eta = sample_poisson_homogeneous(200.0, UNIT, mix_seed(211, rep))
        cfg = extract_clusters(delone_property(0.1), eta).certain()
        assert len(cfg) > 250
        assert check_face_to_face(cfg).face_to_face
    assert swept == [0] * 4
    assert sent == []


def test_certificate_leaves_near_cospherical_pairs_to_the_face_test(monkeypatch):
    # a square with one corner 5e-9 off the circle: outside each
    # triangle's circumball by more than the Delone band and less than
    # the certificate's margin, so the face test decides
    sent = _count_kernel_pairs(monkeypatch)
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0 + 5e-9)]
    eta = PointConfiguration(corners, None, Window((-1.0, -1.0), (2.0, 2.0)))
    cfg = extract_clusters(delone_property(1.0), eta)
    assert len(cfg) == 2
    assert check_face_to_face(cfg).violations == face_to_face_violations_all_pairs(cfg) == ()
    assert sent == [1]


def test_certified_sliver_pair_is_proper():
    # the tolerant face test reads the pair improper; both simplices are
    # certified, and exact arithmetic proves the pair proper
    x, y = (c.points for c in SLIVER_PAIR.clusters)
    assert _certified(SLIVER_PAIR).all()
    assert common_face_check(*SLIVER_PAIR.clusters) is FaceRelation.IMPROPER
    assert lifting_proper_exact(x, y)
    assert check_face_to_face(SLIVER_PAIR).violations == ()


def test_jittered_grid_certified_pairs_are_proven_proper():
    # every overlapping pair of certified tetrahedra that the tolerant
    # face test reads improper is proper, and none is reported
    rng = make_rng(0)
    offsets = np.array([0.0, 0.0, 1e-11, -1e-10, 1e-9, -1e-8, 1e-7])
    grid = np.stack(np.meshgrid(*[np.arange(4) * 0.5] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    jittered = PointConfiguration(grid + rng.choice(offsets, size=grid.shape), None, Window((-1.0,) * 3, (3.0,) * 3))
    cfg = extract_clusters(delone_property(1.0), jittered)
    verts, centers, radii = tessellation._circumscribed(cfg)
    certified = _certified(cfg)
    atol = EPS_GEOM * max(1.0, float(np.abs(verts).max()))
    i, j = tessellation._box_overlap_pairs(verts.min(axis=1), verts.max(axis=1), atol, np.ones(len(verts), dtype=bool))
    both = certified[i] & certified[j]
    i, j = i[both], j[both]
    improper = face_relations(verts[i], verts[j]) == FaceRelation.IMPROPER.value
    assert improper.sum() == 41
    for a, b in zip(i[improper], j[improper]):
        assert lifting_proper_exact(verts[a], verts[b]), (a, b)
    reported = set(check_face_to_face(cfg).violations)
    assert not reported & set(zip(i[improper].tolist(), j[improper].tolist()))


def test_face_to_face_singular_facet_subsets_warn_nothing():
    # some d-subsets of these facet normals are exactly singular, where
    # an LU determinant would warn of the log of a zero pivot
    cfg = pair(
        [(0.0, 0.0, 0.0), (0.0, -1e-07, 0.0), (0.0, 0.0, 1.0), (0.25, 0.25, 0.0)],
        [(0.0, 0.0, 0.0), (0.0, 0.0, 0.25), (0.0, 0.25, 2.2250738585072014e-308), (0.25, 0.25, 0.0)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_face_to_face(cfg).violations == face_to_face_violations_all_pairs(cfg) == ((0, 1),)


def test_face_to_face_handles_what_check_simplicial_accepts():
    # the first triangle's short edge is 2.2e-9 long
    cfg = pair(
        [(2, 0.8167681913491067), (1.500000001, 1.499999999), (1.499999999, 1.5)],
        [(1.5, 1.5), (2.5, 1.5), (2, 2.5)],
    )
    if check_simplicial(cfg):
        check_face_to_face(cfg)
    else:
        with pytest.raises(NonSimplicialInput):
            check_face_to_face(cfg)


@pytest.mark.parametrize("o", [0.0, 1e6])
def test_translated_small_triangle_is_one_simplex_everywhere(o):
    # a triangle with 5e-4 edges: the pivot test is relative to its size,
    # so it accepts the triangle wherever it lies, and the face test
    # builds its planes there too (at o = 1e6 it lies below atol)
    triangle = [(o, o), (o + 5e-4, o), (o + 2.5e-4, o + 5e-4)]
    assert circumballs(np.array([triangle]))[2].all()
    partners = ([(o, o), (o + 5e-4, o), (o + 2.5e-4, o - 1.0)], [(o + 1e-4, o + 1e-4), (o + 2, o), (o + 1.5, o + 1)])
    for partner in partners:
        got = face_relations(np.array([triangle]), np.array([partner]))
        assert got[0] == common_face_check_scalar(Cluster(triangle), Cluster(partner)).value


@st.composite
def near_flat_configurations(draw):
    """A simplex in d = 2 or 3 with one vertex 1e-11 to 1e-7, relative to
    its size, off the span of the opposite facet (in d = 2 a
    near-collinear triple), so on both sides of the pivot test's
    threshold; up to two partners share that facet, with their apex a
    unit step to either side. All of it is translated by up to 1e6."""
    d = draw(st.integers(2, 3), label="d")
    coordinate = st.floats(-1.0, 1.0, allow_nan=False)
    facet = np.array(draw(st.lists(st.tuples(*[coordinate] * d), min_size=d, max_size=d)))
    edges = facet[1:] - facet[0]
    normal = np.array([edges[0, 1], -edges[0, 0]]) if d == 2 else np.cross(edges[0], edges[1])
    size = np.linalg.norm(edges, axis=1).max()
    assume(size > 0.1 and np.linalg.norm(normal) > 0.1 * size ** (d - 1))
    unit = normal / np.linalg.norm(normal)
    weights = draw(st.lists(st.floats(-0.5, 1.5), min_size=d - 1, max_size=d - 1))
    foot = facet[0] + np.dot(weights, edges)
    lift = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, -7.0))
    apexes = [foot + lift * size * unit]
    apexes += [foot + side * unit for side in draw(st.lists(st.sampled_from([-1.0, 1.0]), max_size=2, unique=True))]
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    try:
        clusters = [Cluster(np.vstack([facet, apex]) + offset) for apex in apexes]
    except ValueError:  # the apex rounds onto a facet vertex
        assume(False)
    points = np.concatenate([c.as_array() for c in clusters])
    window = Window(tuple(points.min(axis=0) - 1.0), tuple(points.max(axis=0) + 1.0))
    return ClusterConfiguration(clusters, [False] * len(clusters), window)


@settings(max_examples=300, deadline=None)
@given(cfg=near_flat_configurations())
def test_one_degeneracy_rule_on_near_flat_simplices(cfg):
    # the pivot test alone says which simplices are degenerate: facet
    # planes match the scalar construction wherever it accepts, and the
    # validator takes every configuration check_simplicial accepts
    simplices = np.array([c.points for c in cfg.clusters])
    ok = circumballs(simplices)[2]
    normals, units, offsets = facet_planes(simplices)
    for k, cluster in enumerate(cfg.clusters):
        try:
            halfspaces = facet_halfspaces_scalar(cluster.points)
        except DegenerateSimplex:
            assert not ok[k]
            continue
        assert ok[k]
        for part, got in zip(zip(*halfspaces), (normals[k], units[k], offsets[k])):
            assert np.asarray(part, dtype=float).tobytes() == got.tobytes()
    assert check_simplicial(cfg) == ok.all()
    if ok.all():
        check_face_to_face(cfg)
        build_report(cfg, n_samples=200)
        covered_fraction(cfg, 200, 0)


# A tolerance defect of the face-to-face validator (ROADMAP item 4): the
# scalar test's near-singular solves misplace vertices.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="near-singular solve in common_face_check")
def test_face_to_face_tetrahedra_sharing_an_edge():
    # the second tetrahedron lies in y <= 0, the first in y >= 0; they
    # meet only in their shared edge from (0, 0, 0) to (1, 0, 0)
    cfg = pair(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [
            (0, 0, 0),
            (1, 0, 0),
            (0.6308005196196657, -0.15048467793734946, -0.18086881967822732),
            (0.06052782963859327, -0.6672906388265929, -0.8020223232487717),
        ],
    )
    assert check_simplicial(cfg)
    assert check_face_to_face(cfg).face_to_face


def test_box_overlap_pairs_blocks_match_one_sweep(monkeypatch):
    # the sweep against brute force: every overlapping pair with a loose box
    rng = make_rng(5)
    lows = rng.random((300, 2)) * 4
    highs = lows + rng.random((300, 2)) * 0.6
    atol = 1e-9
    i, j = np.triu_indices(len(lows), 1)
    overlap = np.all((lows[j] <= highs[i] + atol) & (highs[j] >= lows[i] - atol), axis=1)
    masks = (np.ones(len(lows), dtype=bool), np.zeros(len(lows), dtype=bool), rng.random(len(lows)) < 0.1)
    for loose in masks:
        keep = overlap & (loose[i] | loose[j])
        want = (i[keep], j[keep])
        for cap in (1, 7, 1 << 20):
            monkeypatch.setattr(tessellation, "_SWEEP_BLOCK", cap)
            got = tessellation._box_overlap_pairs(lows, highs, atol, loose)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_covered_fraction_full_and_empty():
    window = Window((0.4, 0.4), (0.6, 0.6))
    big_triangle = ClusterConfiguration(
        [Cluster([(-5, -5), (5, -5), (0, 5)])], [False], window
    )
    fraction, se = covered_fraction(big_triangle, 500, seed=1)
    assert fraction == 1.0 and se == 0.0
    empty = ClusterConfiguration([], [], window)
    fraction, se = covered_fraction(empty, 500, seed=1)
    assert fraction == 0.0


def test_covered_fraction_respects_buffer_margin():
    # triangle covers the eroded window but not the full one
    window = Window((0.0, 0.0), (1.0, 1.0), buffer_margin=0.3)
    triangle = ClusterConfiguration(
        [Cluster([(-2, 0.25), (3, 0.25), (0.5, 4)])], [False], window
    )
    fraction, _ = covered_fraction(triangle, 2000, seed=2)
    assert fraction == 1.0
    full = Window((0.0, 0.0), (1.0, 1.0))
    fraction_full, _ = covered_fraction(
        ClusterConfiguration(triangle.clusters, (False,), full), 2000, seed=2
    )
    assert fraction_full < 1.0


def test_sparse_delone_leaves_holes():
    eta = sample_poisson_homogeneous(100.0, UNIT, 7)
    cfg = extract_clusters(delone_property(0.05), eta)
    fraction, se = covered_fraction(cfg, 2000, seed=3)
    assert fraction + 4 * se < 1.0


def test_hull_membership_matches_barycentric_oracle():
    rng = make_rng(19)
    for d in (2, 3):
        simplex = Cluster(rng.random((d + 1, d)) * 2 - 0.5)
        queries = rng.random((1000, d)) * 2 - 0.5
        got = hull_contains_points(simplex, queries)
        for q, g in zip(queries, got):
            want = barycentric_inside(simplex.points, q)
            if g != want:  # tolerate disagreement only within the eps shell
                assert barycentric_inside(simplex.points, q, tol=1e-7) or not barycentric_inside(
                    simplex.points, q, tol=-1e-7
                )


def test_hull_membership_polygon():
    square = Cluster([(0, 0), (1, 0), (1, 1), (0, 1)])
    queries = np.asarray([(0.5, 0.5), (0.99, 0.01), (1.2, 0.5), (-0.1, -0.1)])
    assert hull_contains_points(square, queries).tolist() == [True, True, False, False]


def test_hull_membership_measures_edges_as_the_scalar_test():
    # a query on the tolerance boundary of an edge longer than 1, where
    # a sum of squares and np.linalg.norm's BLAS dot product can give
    # lengths an ulp apart
    triangle = Cluster([(0.0, 0.0), (1.521147, 0.823946), (0.0, 2.0)])
    q = np.array([[0.0, -2.2745519429032126e-09]])
    assert np.array_equal(hull_contains_points(triangle, q), hull_contains_points_scalar(triangle, q))


def test_build_report_full():
    eta = sample_poisson_homogeneous(60.0, UNIT, 23)
    cfg = extract_clusters(delone_property(0.25), eta)
    report = build_report(cfg, n_samples=1000, seed=4)
    assert report.simplicial is True
    assert report.face_to_face is True
    assert 0.0 <= report.covered_fraction <= 1.0
    assert report.holes_detected == (report.covered_fraction + 4 * report.coverage_se < 1.0)


def test_build_report_without_simplices():
    # Voronoi cells and a flat triangle are not simplicial: no
    # face-to-face verdict; an empty configuration is vacuously simplicial
    eta = sample_poisson_homogeneous(40.0, UNIT, 3)
    cells = extract_clusters(voronoi_property(UNIT), eta)
    flat = ClusterConfiguration([Cluster([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])], [False], UNIT)
    for cfg in (cells, flat):
        report = build_report(cfg, n_samples=500, seed=1)
        assert (report.simplicial, report.face_to_face, report.violations) == (False, None, ())
        assert (report.covered_fraction, report.coverage_se) == covered_fraction(cfg, 500, 1)
    report = build_report(ClusterConfiguration([], [], UNIT), n_samples=500, seed=1)
    assert (report.simplicial, report.face_to_face, report.violations) == (True, True, ())
    assert (report.covered_fraction, report.holes_detected) == (0.0, True)


def test_voronoi_certain_cells_cover_their_region():
    # completeness proxy: a sample point whose nearest center has a
    # certain cell must lie in that cell's hull
    window = Window((0.0, 0.0), (1.0, 1.0))
    eta = sample_poisson_homogeneous(50.0, window, 29)
    cells = extract_clusters(voronoi_property(window), eta)
    centers = voronoi_cell_centers(eta)
    cell_of_center = {centers[c]: (c, u) for c, u in zip(cells.clusters, cells.boundary_uncertain)}
    rng = make_rng(31)
    samples = rng.random((4000, 2))
    tree = cKDTree(eta.points)
    _, nearest = tree.query(samples)
    misses = 0
    covered_or_uncertain = 0
    for q, ni in zip(samples, nearest):
        key = tuple(eta.points[ni])
        entry = cell_of_center.get(key)
        if entry is None or entry[1]:
            covered_or_uncertain += 1  # uncertain region
            continue
        if hull_contains_points(entry[0], q[None, :])[0]:
            covered_or_uncertain += 1
        else:
            misses += 1
    fraction = covered_or_uncertain / len(samples)
    se = np.sqrt(fraction * (1 - fraction) / len(samples))
    assert fraction >= 1.0 - 4 * se
    assert misses <= len(samples) * 0.01


@st.composite
def hull_configurations(draw):
    """Clusters for the coverage kernel in d = 1, 2, 3: point sets of
    every size the kernel takes, fewer than d + 1 points included,
    convex polygons of 3 to 8 vertices like Voronoi cells, and slivers
    and flat simplices. Most coordinates sit on a quarter grid, some
    just off it."""
    d = draw(st.integers(1, 3), label="d")
    grid = st.integers(0, 8).map(lambda k: k / 4)
    coordinate = st.one_of(
        grid,
        st.builds(lambda c, shift: c + shift, grid, st.sampled_from([-1e-7, -1e-9, 1e-9, 1e-7])),
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    point = st.tuples(*[coordinate] * d)
    clusters = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["points", "polygon", "sliver"]))
        if kind == "polygon" and d == 2:
            k = draw(st.integers(3, 8))
            (cx, cy), radius = draw(point), draw(st.floats(0.01, 1.5))
            turns = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k, unique=True))
            pts = [(cx + radius * math.cos(2 * math.pi * t), cy + radius * math.sin(2 * math.pi * t)) for t in turns]
        elif kind == "sliver":
            # d + 1 points, the last one on or just off the others' affine hull
            base = draw(st.lists(point, min_size=d, max_size=d, unique=True))
            steps = draw(st.lists(st.floats(-0.5, 1.5), min_size=d - 1, max_size=d - 1))
            lift = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7]))
            apex = [base[0][a] + sum(t * (p[a] - base[0][a]) for t, p in zip(steps, base[1:])) for a in range(d)]
            apex[-1] += lift
            pts = base + [tuple(apex)]
        else:
            pts = draw(st.lists(point, min_size=1, max_size={1: 3, 2: 8, 3: 4}[d], unique=True))
        try:
            clusters.append(Cluster(pts))
        except ValueError:  # a repeated or non-finite point
            pass
    clusters = list(dict.fromkeys(clusters))
    margin = draw(st.sampled_from([0.0, 0.25]))
    return ClusterConfiguration(clusters, [False] * len(clusters), Window((0.0,) * d, (2.0,) * d, margin))


def cover_case(*clusters):
    d = len(clusters[0][0])
    cfg = [Cluster(c) for c in clusters]
    return ClusterConfiguration(cfg, [False] * len(cfg), Window((0.0,) * d, (2.0,) * d))


@settings(max_examples=300, deadline=None)
@given(cfg=hull_configurations(), n_samples=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
# a triangle with a 2.2e-9 edge, which the pivot test accepts
@example(cfg=cover_case([(2, 0.8167681913491067), (1.500000001, 1.499999999), (1.499999999, 1.5)]), n_samples=50, seed=1)
# an edge too short to measure, and a flat tetrahedron
@example(cfg=cover_case([(0.0, 0.0), (5e-324, 0.0), (0.5, 0.5)]), n_samples=50, seed=1)
@example(cfg=cover_case([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0.5, 0)]), n_samples=50, seed=1)
def test_coverage_matches_scalar_loop(cfg, n_samples, seed):
    # bitwise: the same samples, covered by the same expressions
    d = cfg.source_window.dimension
    ticks = np.arange(-1, 10) / 4  # quarter-grid queries, many on edges and facets
    grid = np.stack(np.meshgrid(*[ticks] * d, indexing="ij"), axis=-1).reshape(-1, d)
    queries = np.concatenate([grid, make_rng(seed).random((200, d)) * 3 - 0.5])
    union = np.zeros(len(queries), dtype=bool)
    for cluster in cfg.clusters:
        want = hull_contains_points_scalar(cluster, queries)
        assert np.array_equal(hull_contains_points(cluster, queries), want), cluster.points
        union |= want
    assert np.array_equal(tessellation._hull_cover(cfg.points, cfg.offsets, queries), union)
    got = covered_fraction(cfg, n_samples, seed)
    want = covered_fraction_loop(cfg, cfg.source_window, n_samples, seed)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_coverage_blocks_match_one_pass(monkeypatch):
    eta = sample_poisson_homogeneous(150.0, UNIT, 41)
    cfg = extract_clusters(delone_property(0.15), eta)
    want = covered_fraction_loop(cfg, UNIT, 1500, 9)
    for cap in (1, 50):
        monkeypatch.setattr(tessellation, "_COVER_BLOCK", cap)
        assert covered_fraction(cfg, 1500, 9) == want


def test_coverage_rejects_unsupported_clusters_anywhere():
    # the first tetrahedron covers every sample, so a per-cluster loop
    # never reaches the second cluster; the kernel checks all of them
    window = Window((0.0,) * 3, (1.0,) * 3)
    big = Cluster([(-10, -10, -10), (30, -10, -10), (-10, 30, -10), (-10, -10, 30)])
    cluster = Cluster([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    cfg = ClusterConfiguration([big, cluster], [False, False], window)
    assert covered_fraction_loop(cfg, window, 100, 1) == (1.0, 0.0)
    with pytest.raises(UnsupportedDimension):
        covered_fraction(cfg, 100, 1)
    simplex_4d = Cluster([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    for unsupported in (cluster, simplex_4d):
        with pytest.raises(UnsupportedDimension):
            hull_contains_points(unsupported, np.zeros((1, 3)))
    # a configuration refuses a cluster of another dimension than its window's
    with pytest.raises(ValueError):
        ClusterConfiguration([big, simplex_4d], [False, False], window)
