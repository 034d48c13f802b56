import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from clustertess import (
    Cluster,
    ClusterConfiguration,
    DegenerateSimplex,
    NonSimplicialInput,
    PointConfiguration,
    Window,
    build_report,
    check_face_to_face,
    check_simplicial,
    covered_fraction,
    delone_property,
    extract_clusters,
    hull_contains_points,
    is_full_simplex,
    lattice_sites_in_window,
    make_rng,
    mix_seed,
    sample_poisson_homogeneous,
    voronoi_cell_centers,
    voronoi_property,
)

from helpers import barycentric_inside, face_to_face_violations_all_pairs

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
    assert check_simplicial(delone, 2)
    cells = extract_clusters(voronoi_property(UNIT), eta)
    assert not check_simplicial(cells, 2)  # generic cells have > 3 vertices
    empty = ClusterConfiguration([], [], UNIT)
    assert check_simplicial(empty, 2)


def test_face_to_face_on_delone_output():
    for rep in range(10):
        eta = sample_poisson_homogeneous(50.0, UNIT, mix_seed(131, rep))
        cfg = extract_clusters(delone_property(0.3), eta).subset(certain_only=True)
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
    simplices = [c for c in simplices if is_full_simplex(c)]
    assume(simplices)
    chosen = draw(st.lists(st.sampled_from(simplices), max_size=10, unique=True))
    return ClusterConfiguration(chosen, [False] * len(chosen), Window((0.0,) * d, (2.0,) * d))


def pair(a, b):
    d = len(a[0])
    return ClusterConfiguration([Cluster(a), Cluster(b)], [False, False], Window((-3.0,) * d, (3.0,) * d))


@settings(max_examples=300, deadline=None)
@given(cfg=simplex_configurations())
# disjoint tetrahedra that only the cross product of two edges separates
@example(
    cfg=pair(
        [(-0.5, 0.5, 0), (0.5, -0.5, 0), (-0.5, -0.5, -2), (-1.5, -1.5, 0)],
        [(0.1, -0.4, 0.6), (0.1, 0.6, -0.4), (0.1, 1.6, 1.6), (2.1, 0.6, 0.6)],
    )
)
# a vertex 1.4e-9 off the other triangle's edge: improper within atol
@example(cfg=pair([(0, 0), (1, 0), (0, 1)], [(0.5 + 1e-9, 0.5 + 1e-9), (1, 1), (1, 0.6)]))
# distinct vertices whose distance underflows to 0
@example(cfg=pair([(0.0,), (0.013,)], [(0.0,), (1.7e-234,)]))
def test_face_to_face_matches_all_pairs_oracle(cfg):
    # where the scalar test rejects a facet the circumball accepted, both
    # routes must raise
    def outcome(validate):
        try:
            return validate(cfg)
        except DegenerateSimplex:
            return DegenerateSimplex

    got = outcome(lambda c: check_face_to_face(c).violations)
    assert got == outcome(face_to_face_violations_all_pairs), [c.points for c in cfg.clusters]


def test_covered_fraction_full_and_empty():
    window = Window((0.4, 0.4), (0.6, 0.6))
    big_triangle = ClusterConfiguration(
        [Cluster([(-5, -5), (5, -5), (0, 5)])], [False], window
    )
    fraction, se = covered_fraction(big_triangle, window, 500, seed=1)
    assert fraction == 1.0 and se == 0.0
    empty = ClusterConfiguration([], [], window)
    fraction, se = covered_fraction(empty, window, 500, seed=1)
    assert fraction == 0.0


def test_covered_fraction_respects_buffer_margin():
    # triangle covers the eroded window but not the full one
    window = Window((0.0, 0.0), (1.0, 1.0), buffer_margin=0.3)
    triangle = ClusterConfiguration(
        [Cluster([(-2, 0.25), (3, 0.25), (0.5, 4)])], [False], window
    )
    fraction, _ = covered_fraction(triangle, window, 2000, seed=2)
    assert fraction == 1.0
    full = Window((0.0, 0.0), (1.0, 1.0))
    fraction_full, _ = covered_fraction(
        ClusterConfiguration(triangle.clusters, (False,), full), full, 2000, seed=2
    )
    assert fraction_full < 1.0


def test_sparse_delone_leaves_holes():
    eta = sample_poisson_homogeneous(100.0, UNIT, 7)
    cfg = extract_clusters(delone_property(0.05), eta)
    fraction, se = covered_fraction(cfg, UNIT, 2000, seed=3)
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


def test_build_report_full():
    eta = sample_poisson_homogeneous(60.0, UNIT, 23)
    cfg = extract_clusters(delone_property(0.25), eta)
    report = build_report(cfg, UNIT, 2, n_samples=1000, seed=4)
    assert report.simplicial is True
    assert report.face_to_face is True
    assert 0.0 <= report.covered_fraction <= 1.0
    assert report.holes_detected == (report.covered_fraction + 4 * report.coverage_se < 1.0)


def test_voronoi_certain_cells_cover_their_region():
    # completeness proxy: a sample point whose nearest center has a
    # certain cell must lie in that cell's hull
    window = Window((0.0, 0.0), (1.0, 1.0))
    eta = sample_poisson_homogeneous(50.0, window, 29)
    cells = extract_clusters(voronoi_property(window), eta)
    centers = voronoi_cell_centers(eta, window)
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
