import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustertess import (
    Cluster,
    ClusterConfiguration,
    NotSimple,
    PointConfiguration,
    UnsupportedDimension,
    Window,
    circumball,
    delone_property,
    extract_clusters,
    hardcore_property,
    lattice_sites_in_window,
    mix_seed,
    sample_poisson_homogeneous,
    voronoi_cell_centers,
    voronoi_property,
)
from helpers import BallSide, ball_contains, circumball_scalar, exhaustive_delone, hardcore_isolated, voronoi_vertices_brute_force

BIG = Window((-10.0, -10.0), (10.0, 10.0))


def config(points, window=BIG, mult=None):
    return PointConfiguration(points, mult, window)


# ---------------------------------------------------------------------------
# hard-core


def test_hardcore_two_far_points():
    cfg = extract_clusters(hardcore_property(2.0), config([(0, 0), (3, 0)]))
    assert len(cfg) == 2  # distance 3 >= 2


def test_hardcore_two_close_points():
    cfg = extract_clusters(hardcore_property(2.0), config([(0, 0), (1, 0)]))
    assert len(cfg) == 0


def test_hardcore_single_point():
    cfg = extract_clusters(hardcore_property(2.0), config([(1, 1)]))
    assert cfg.clusters == (Cluster([(1, 1)]),)


def test_hardcore_boundary_flag():
    window = Window((0, 0), (10, 10))
    eta = config([(0.5, 5.0), (5.0, 5.0)], window)
    cfg = extract_clusters(hardcore_property(1.0), eta)
    flags = dict(zip(cfg.clusters, cfg.boundary_uncertain))
    assert flags[Cluster([(0.5, 5.0)])] is True
    assert flags[Cluster([(5.0, 5.0)])] is False


def test_hardcore_extracted_points_pairwise_separated():
    for rep in range(30):
        eta = sample_poisson_homogeneous(20.0, Window((0, 0), (1, 1)), mix_seed(71, rep))
        cfg = extract_clusters(hardcore_property(0.1), eta)
        pts = np.asarray([c.points[0] for c in cfg.clusters])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) >= 0.1


# coordinates snapped to a coarse grid make ties with r and cocircular
# quadruples common
COORDINATE = st.one_of(st.floats(0.0, 1.0), st.integers(0, 4).map(lambda k: k / 4.0))


@settings(max_examples=250, deadline=None)
@given(
    points=st.lists(st.tuples(COORDINATE, COORDINATE), max_size=15, unique=True),
    r=st.sampled_from((0.05, 0.25, 0.5, 2.0)),
)
# two distinct points whose distance rounds to zero never block each other
@example(points=[(0.0, 0.0), (5e-324, 0.0), (0.5, 0.5)], r=0.25)
def test_hardcore_table_matches_scalar_predicate(points, r):
    window = Window((0.0, 0.0), (1.0, 1.0))
    eta = config(points, window)
    prop = hardcore_property(r)
    cfg = extract_clusters(prop, eta)
    expected = [Cluster([p]) for p in map(tuple, eta.points) if hardcore_isolated(p, eta, r)]
    assert list(cfg.clusters) == expected
    assert cfg.boundary_uncertain == tuple(window.boundary_distance(c.points[0]) < r for c in expected)
    # a singleton outside the support is no candidate, so no member
    assert not prop.membership(Cluster([(2.0, 2.0)]), eta)


# ---------------------------------------------------------------------------
# Delone


def test_delone_right_isoceles_radius_cap():
    eta = config([(0, 0), (1, 0), (0, 1)])
    assert len(extract_clusters(delone_property(1.0), eta)) == 1
    # circumradius sqrt(2)/2 > 0.5 violates the cap
    assert len(extract_clusters(delone_property(0.5), eta)) == 0


def test_delone_four_points_two_triangles():
    pts = [(0.0, 0.0), (2.0, 0.0), (2.2, 1.9), (0.1, 2.1)]
    eta = config(pts)
    cfg = extract_clusters(delone_property(10.0), eta)
    assert cfg.clusters == tuple(exhaustive_delone(eta, 10.0))
    assert len(cfg) == 2
    a, b = cfg.clusters
    shared = set(a.points) & set(b.points)
    assert len(shared) == 2  # the two empty triangles share one edge


def test_delone_matches_exhaustive_enumeration():
    checked = 0
    for rep in range(200):
        eta = sample_poisson_homogeneous(10.0, Window((0, 0), (1, 1)), mix_seed(81, rep))
        if eta.n_atoms > 14:
            continue
        checked += 1
        for cap in (0.2, 0.45, 2.0):
            got = list(extract_clusters(delone_property(cap), eta).clusters)
            assert got == exhaustive_delone(eta, cap)
    assert checked >= 100


def test_delone_empty_configuration():
    eta = PointConfiguration(np.empty((0, 2)), None, BIG)
    assert len(extract_clusters(delone_property(1.0), eta)) == 0


def test_delone_literal_vs_open_ball_on_cocircular_square():
    eta = config([(0, 0), (1, 0), (1, 1), (0, 1)])
    literal = extract_clusters(delone_property(1.0), eta)
    assert len(literal) == 0  # the fourth cocircular point sits on every circumsphere
    open_mode = extract_clusters(delone_property(1.0, open_ball_mode=True), eta)
    assert len(open_mode) == 4


def assert_delone_matches_oracle(eta, caps):
    """Extraction equals the exhaustive oracle for every cap, in both ball modes."""
    for cap in caps:
        for open_ball_mode in (False, True):
            prop = delone_property(cap, open_ball_mode=open_ball_mode)
            got = list(extract_clusters(prop, eta).clusters)
            assert got == exhaustive_delone(eta, cap, open_ball_mode), (cap, open_ball_mode)


def test_delone_open_ball_growth_on_silver_mean_patch():
    # Qhull splits this 20-point lattice patch into 32 triangles; the
    # further open-ball clusters exist only through cocircular growth
    window = Window((0, 0), (7, 7))
    eta = config([e.embed() for e in lattice_sites_in_window(window)], window)
    assert eta.n_atoms == 20
    for cap, n_open, n_closed in ((2.0, 40, 8), (10.0, 48, 16)):
        assert len(extract_clusters(delone_property(cap, open_ball_mode=True), eta)) == n_open
        assert len(extract_clusters(delone_property(cap), eta)) == n_closed
    assert_delone_matches_oracle(eta, (2.0, 10.0))


@pytest.mark.parametrize(
    "points",
    [
        [(0.5,)],
        [(0.2, 0.3), (0.7, 0.1)],
        [(0.1, 0.2, 0.3), (0.9, 0.1, 0.5), (0.4, 0.8, 0.2)],
        # all four sites lie on the diagonal, which Qhull rejects as flat
        [e.embed() for e in lattice_sites_in_window(Window((0, 0), (3, 3)))],
    ],
)
def test_delone_degenerate_inputs_yield_nothing(points):
    d = len(points[0])
    eta = config(points, Window((0.0,) * d, (3.0,) * d))
    assert_delone_matches_oracle(eta, (10.0,))
    # the open-ball oracle admits a superset of the closed-ball one
    assert exhaustive_delone(eta, 10.0, open_ball_mode=True) == []


def test_delone_matches_exhaustive_in_d1():
    window = Window((0.0,), (1.0,))
    for rep in range(40):
        eta = sample_poisson_homogeneous(8.0, window, mix_seed(131, rep))
        assert_delone_matches_oracle(eta, (0.05, 0.2, 2.0))
    # a regular grid: every gap is equal
    assert_delone_matches_oracle(config([(k / 8.0,) for k in range(9)], window), (0.0625, 1.0))


def test_delone_matches_exhaustive_in_d3():
    window = Window((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    checked = 0
    for rep in range(60):
        eta = sample_poisson_homogeneous(8.0, window, mix_seed(141, rep))
        if eta.n_atoms > 10:
            continue
        checked += 1
        assert_delone_matches_oracle(eta, (0.3, 0.6, 2.0))
    assert checked >= 30
    # the cube corners are cospherical; the centre breaks the sphere up
    corners = list(itertools.product((0.0, 1.0), repeat=3))
    assert_delone_matches_oracle(config(corners, window), (1.0,))
    assert_delone_matches_oracle(config(corners + [(0.5, 0.5, 0.5)], window), (1.0,))
    # points over eight decades of scale, where Qhull's closed-ball
    # triangulation misses a member
    multi_scale = [
        (1.3090736567531792e-10, 1.4020044584449044e-10, 2.807439231489775e-10),
        (4.229709442014934e-10, 7.402405870844017e-10, 9.094144345855256e-10),
        (8.574791149527639e-10, 1.139757795184868e-08, 2.7199074583481162e-08),
        (4.534370584472262e-09, 8.229161262468085e-09, 6.56355197498123e-09),
        (6.82609900786407e-07, 3.7256416635235466e-07, 2.726739385525023e-08),
        (8.507308290949292e-07, 8.02486585118113e-07, 4.94292289273477e-07),
        (0.05852438550101288, 0.030294160835701356, 0.07682780523368303),
    ]
    assert_delone_matches_oracle(config(multi_scale, window), (2.0,))


@settings(max_examples=250, deadline=None)
@given(
    points=st.lists(st.tuples(COORDINATE, COORDINATE), max_size=12, unique=True),
    cap=st.sampled_from((0.3, 0.8, 2.0)),
)
# a well-shaped triangle far below unit scale, alone and next to a unit-scale point
@example(points=[(0, 0), (0, 1.1996980966642533e-54), (1.1996980966642533e-54, 0)], cap=0.3)
@example(points=[(0, 0), (0, 1), (0, 1.175494351e-38), (1.1754943508222875e-38, 0)], cap=0.3)
# near-cocircular around a thin triangle: Qhull keeps the two non-members
@example(points=[(0.0, 0.0), (0.0, 0.5), (1e-09, 0.0), (0.25, 0.25)], cap=0.3)
def test_delone_differential_against_exhaustive(points, cap):
    assert_delone_matches_oracle(config(points, Window((0.0, 0.0), (1.0, 1.0))), (cap,))


def test_delone_post_hoc_recheck():
    # every extracted cluster satisfies the radius cap and punctured-ball
    # emptiness when re-verified through the scalar geometry ops
    cap = 0.3
    for rep in range(20):
        eta = sample_poisson_homogeneous(50.0, Window((0, 0), (1, 1)), mix_seed(91, rep))
        cfg = extract_clusters(delone_property(cap), eta)
        assert len(cfg) > 0
        for cluster in cfg.clusters:
            ball = circumball(cluster)
            assert ball.radius <= cap
            for p in map(tuple, eta.points):
                if p in cluster.points:
                    continue
                assert ball_contains(ball, p) is BallSide.OUTSIDE


def test_delone_boundary_rule():
    # the flag and the certainty ball come from the scalar circumball
    for rep in range(10):
        window = Window((0, 0), (1, 1))
        eta = sample_poisson_homogeneous(40.0, window, mix_seed(101, rep))
        prop = delone_property(0.4)
        cfg = extract_clusters(prop, eta)
        for cluster, uncertain in zip(cfg.clusters, cfg.boundary_uncertain):
            ball = circumball_scalar(cluster)
            assert prop.certainty_ball(cluster, eta) == ball
            inside = window.contains_ball(ball.center, ball.radius)
            assert uncertain == (not inside)


def test_extract_requires_simple_configuration():
    eta = config([(0, 0), (1, 1)], mult=[2, 1])
    with pytest.raises(NotSimple):
        extract_clusters(delone_property(1.0), eta)
    with pytest.raises(NotSimple):
        extract_clusters(hardcore_property(1.0), eta)


def test_translation_equivariance_exact():
    shift = np.asarray([0.375, -1.25])  # exactly representable shift
    for rep in range(20):
        eta = sample_poisson_homogeneous(15.0, Window((0, 0), (1, 1)), mix_seed(111, rep))
        moved = PointConfiguration(
            eta.points + shift, None, Window((0.375, -1.25), (1.375, -0.25))
        )
        for prop in (hardcore_property(0.15), delone_property(0.35)):
            base = extract_clusters(prop, eta)
            translated = extract_clusters(prop, moved)
            expected = tuple(
                sorted(Cluster(np.asarray(c.points) + shift) for c in base.clusters)
            )
            assert translated.clusters == expected
            assert translated.boundary_uncertain == base.boundary_uncertain


# ---------------------------------------------------------------------------
# Voronoi


def test_voronoi_five_point_example():
    window = Window((-3.0, -3.0), (3.0, 3.0))
    eta = config([(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)], window)
    cells = extract_clusters(voronoi_property(window), eta)
    assert len(cells) == 1
    cell = cells.clusters[0]
    # counterclockwise around the center, starting from the smallest angle
    assert cell.points == ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))
    centers = voronoi_cell_centers(eta)
    assert centers[cell] == (0.0, 0.0)


def test_voronoi_collinear_configuration_empty():
    window = Window((-3.0, -3.0), (3.0, 3.0))
    eta = config([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], window)
    assert len(extract_clusters(voronoi_property(window), eta)) == 0


def test_voronoi_matches_equidistance_oracle():
    window = Window((0.0, 0.0), (1.0, 1.0))
    eta = sample_poisson_homogeneous(30.0, window, 42)
    cells = extract_clusters(voronoi_property(window), eta)
    centers = voronoi_cell_centers(eta)
    oracle = voronoi_vertices_brute_force(eta)
    point_index = {tuple(p): i for i, p in enumerate(eta.points)}
    n_checked = 0
    for cell, uncertain in zip(cells.clusters, cells.boundary_uncertain):
        if uncertain:
            continue
        n_checked += 1
        ci = point_index[centers[cell]]
        expected = sorted(tuple(v) for v, near in oracle.values() if ci in near)
        got = sorted(cell.points)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.linalg.norm(np.subtract(g, e)) <= 1e-9
    assert n_checked >= 5


def test_voronoi_delone_duality():
    # circumcenters of uncapped empty-circumball triangles are exactly the
    # Voronoi vertices; restricted to boundary-certain objects the cell
    # vertices form a subset (a certain triangle may border uncertain cells)
    window = Window((0.0, 0.0), (1.0, 1.0))
    for seed in (3, 5, 9, 11):
        eta = sample_poisson_homogeneous(30.0, window, seed)
        cap = 2.0 * window.diameter()
        triangles = extract_clusters(delone_property(cap), eta)
        cells = extract_clusters(voronoi_property(window), eta)

        def rounded(p):
            return tuple(round(x, 8) for x in p)

        centers_all = {rounded(circumball(t).center) for t in triangles.clusters}
        vertices_all = {rounded(p) for c in cells.clusters for p in c.points}
        assert vertices_all == centers_all
        centers_certain = {
            rounded(circumball(t).center)
            for t, u in zip(triangles.clusters, triangles.boundary_uncertain)
            if not u
        }
        vertices_certain = {
            rounded(p)
            for c, u in zip(cells.clusters, cells.boundary_uncertain)
            if not u
            for p in c.points
        }
        assert vertices_certain <= centers_certain
        # each certain circumcenter is a genuine Voronoi vertex: equidistant
        # to its three owners with no configuration point strictly closer
        for t, u in zip(triangles.clusters, triangles.boundary_uncertain):
            if u:
                continue
            ball = circumball(t)
            dists = np.linalg.norm(eta.points - np.asarray(ball.center), axis=1)
            assert np.all(dists >= ball.radius * (1 - 1e-9))


def test_voronoi_property_follows_the_configuration_it_is_asked_about():
    window = Window((0.0, 0.0), (1.0, 1.0))
    a = sample_poisson_homogeneous(30.0, window, 61)
    b = sample_poisson_homogeneous(30.0, window, 62)
    prop = voronoi_property(window)
    fresh_a, fresh_b = (extract_clusters(voronoi_property(window), eta) for eta in (a, b))
    assert fresh_a.clusters != fresh_b.clusters
    for eta, fresh in ((a, fresh_a), (b, fresh_b), (a, fresh_a)):
        assert extract_clusters(prop, eta) == fresh


def test_voronoi_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimension):
        voronoi_property(Window((0,), (1,)))
    with pytest.raises(UnsupportedDimension):
        voronoi_property(Window((0, 0, 0), (1, 1, 1)))


# ---------------------------------------------------------------------------
# counting


def test_certain_keeps_the_certain_clusters():
    window = Window((0, 0), (1, 1))
    eta = sample_poisson_homogeneous(20.0, window, 5)
    cfg = extract_clusters(delone_property(0.4), eta)
    certain = cfg.certain()
    assert isinstance(certain, ClusterConfiguration)
    assert certain.clusters == tuple(c for c, u in zip(cfg.clusters, cfg.boundary_uncertain) if not u)
    assert certain.boundary_uncertain == (False,) * len(certain)
    assert certain.source_window == window
    assert 0 < len(certain) < len(cfg)
    assert certain.certain() == certain
    empty = extract_clusters(delone_property(0.4), PointConfiguration(np.empty((0, 2)), None, window))
    assert len(empty) == 0 and empty.certain() == empty
