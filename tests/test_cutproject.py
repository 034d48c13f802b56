import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clustertess import (
    EPS_GEOM,
    STRIP_HALF_WIDTH,
    SQRT2,
    AmbiguousDecomposition,
    Chain,
    DuplicatePoints,
    EpsilonTooLarge,
    LatticeIndex,
    PointConfiguration,
    Window,
    band_points,
    chain_from_points,
    decompose_length,
    deterministic_chain,
    lattice_sites_in_window,
    mix_seed,
    sample_poisson_homogeneous,
    shifted_chain,
    strip_points,
    thinned_chain,
)

from helpers import decompose_length_double_loop, lattice_box_exhaustive


def empty_process(window, seed):
    return PointConfiguration(np.empty((0, window.dimension)), None, window)


def band_exhaustive(x_lo, x_hi, half_width, tol=0.0):
    """The (u, v) of `band_points` from the exhaustive box oracle, grown by
    tol, in band order: by projection, then v, then u."""
    box = lattice_box_exhaustive((x_lo - tol, -(half_width + tol)), (x_hi + tol, half_width + tol))
    return sorted(box, key=lambda uv: (uv[0] + uv[1] * SQRT2, uv[1], uv[0]))


def exhaustive_strip(x_lo, x_hi):
    return band_exhaustive(x_lo, x_hi, STRIP_HALF_WIDTH)


def test_strip_points_origin_only():
    assert [(e.u, e.v) for e in strip_points(-0.1, 0.1)] == [(0, 0)]


def test_strip_points_zero_to_four():
    got = [(e.u, e.v) for e in strip_points(0.0, 4.0)]
    assert got == exhaustive_strip(0.0, 4.0)
    assert got == [(0, 0), (1, 1), (2, 1)]
    assert [e.pi for e in strip_points(0.0, 4.0)] == pytest.approx(
        [0.0, 1 + SQRT2, 2 + SQRT2], abs=1e-12
    )


def test_strip_points_zero_to_twelve():
    got = strip_points(0.0, 12.0)
    assert [(e.u, e.v) for e in got] == exhaustive_strip(0.0, 12.0)
    expected = [0.0, 1 + SQRT2, 2 + SQRT2, 3 + 2 * SQRT2, 4 + 3 * SQRT2, 5 + 4 * SQRT2, 6 + 4 * SQRT2]
    assert [e.pi for e in got] == pytest.approx(expected, abs=1e-12)


def test_strip_points_matches_exhaustive_on_negative_ranges():
    for lo, hi in [(-12.0, 0.0), (-7.3, 5.1), (3.0, 37.0)]:
        got = [(e.u, e.v) for e in strip_points(lo, hi)]
        assert got == exhaustive_strip(lo, hi)


def test_strip_membership_closure():
    eps = 1e-9
    members = strip_points(0.0, 50.0)
    member_set = {(e.u, e.v) for e in members}
    for e in members:
        assert abs(e.pi_star) <= STRIP_HALF_WIDTH + eps
        assert 0.0 - eps <= e.pi <= 50.0 + eps
        for du in (-1, 1):
            neighbour = LatticeIndex(e.u + du, e.v)
            if (neighbour.u, neighbour.v) in member_set:
                continue  # not excluded
            in_band = abs(neighbour.pi_star) <= STRIP_HALF_WIDTH + eps
            in_range = 0.0 - eps <= neighbour.pi <= 50.0 + eps
            assert not (in_band and in_range)


def test_chain_from_points():
    chain = chain_from_points([3.0, 1.0, 2.0])
    assert chain.vertices == (1.0, 2.0, 3.0)
    assert chain.tiles == (1.0, 1.0)
    assert chain_from_points([5.0]).tiles == ()
    assert chain_from_points([]).vertices == ()
    with pytest.raises(DuplicatePoints):
        chain_from_points([1.0, 1.0 + 1e-12, 2.0])


def test_chain_tiles_telescope():
    rng = np.random.default_rng(3)
    xs = np.cumsum(rng.random(50) + 0.01)
    chain = chain_from_points(xs.tolist())
    assert sum(chain.tiles) == pytest.approx(max(xs) - min(xs), rel=1e-12)


def test_chain_rejects_unsorted_constructor_input():
    with pytest.raises(ValueError):
        Chain((1.0, 0.5))


def test_deterministic_chain_prototiles():
    chain = deterministic_chain(0.0, 1000.0)
    kinds = set()
    for t in chain.tiles:
        if abs(t - 1.0) <= 1e-9:
            kinds.add((1, 0))
        elif abs(t - (1 + SQRT2)) <= 1e-9:
            kinds.add((1, 1))
        else:
            raise AssertionError(f"unexpected tile length {t}")
    assert kinds == {(1, 0), (1, 1)}


def test_thinned_chain_high_mass_is_deterministic():
    det = deterministic_chain(0.0, 100.0)
    for rep in range(5):
        assert thinned_chain(50.0, 0.0, 100.0, mix_seed(7, rep)).vertices == det.vertices


def test_thinned_chain_tiles_decompose():
    chain = thinned_chain(1.0, 0.0, 400.0, seed=11)
    assert len(chain.vertices) > 50
    for t in chain.tiles:
        pair = decompose_length(t, int(math.ceil(t)) + 1, 1e-9)
        assert pair is not None
        n, m = pair
        assert n >= 0 and m >= 0
        assert abs(t - (n + m * SQRT2)) <= 1e-9


def test_thinned_chain_keeps_expected_fraction():
    sites = strip_points(0.0, 2000.0)
    chain = thinned_chain(1.0, 0.0, 2000.0, seed=13)
    target = 1.0 - math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / len(sites))
    assert abs(len(chain.vertices) / len(sites) - target) <= 4 * se


def test_shifted_chain_empty_base_is_deterministic():
    det = deterministic_chain(0.0, 100.0)
    chain = shifted_chain(0.1, empty_process, 0.0, 100.0, seed=17)
    assert chain.vertices == det.vertices


def test_chains_of_a_range_without_sites_are_empty():
    assert strip_points(0.1, 0.5) == []
    assert deterministic_chain(0.1, 0.5).vertices == ()
    assert thinned_chain(1.0, 0.1, 0.5, seed=3).vertices == ()
    # no site, even of the band grown by epsilon, projects into [0.4, 1.1]
    assert band_points(0.4, 1.1, STRIP_HALF_WIDTH + 0.1) == []
    assert shifted_chain(0.1, partial(sample_poisson_homogeneous, 5.0), 0.5, 1.0, seed=3).vertices == ()


def test_shifted_chain_epsilon_bound():
    with pytest.raises(EpsilonTooLarge):
        shifted_chain(SQRT2 / 2, empty_process, 0.0, 10.0, seed=1)
    with pytest.raises(ValueError):
        shifted_chain(-0.1, empty_process, 0.0, 10.0, seed=1)


def test_shifted_chain_vertices_near_sites():
    epsilon = 0.1
    base = partial(sample_poisson_homogeneous, 5.0)
    sites = band_points(0.0 - epsilon, 60.0 + epsilon, STRIP_HALF_WIDTH + epsilon)
    site_pi = np.asarray([e.pi for e in sites])
    for rep in range(10):
        chain = shifted_chain(epsilon, base, 0.0, 60.0, mix_seed(19, rep))
        for v in chain.vertices:
            dist = np.abs(site_pi - v).min()
            assert dist < epsilon + 1e-9


def test_shifted_chain_fringe_rule():
    epsilon = 0.1
    base = partial(sample_poisson_homogeneous, 5.0)
    deep = [e for e in band_points(0.0, 60.0, STRIP_HALF_WIDTH - epsilon)]
    outside = [
        e
        for e in band_points(-1.0, 61.0, STRIP_HALF_WIDTH + 3 * epsilon)
        if abs(e.pi_star) >= STRIP_HALF_WIDTH + epsilon
    ]
    assert deep and outside
    for rep in range(10):
        chain = shifted_chain(epsilon, base, 0.0, 60.0, mix_seed(23, rep))
        verts = np.asarray(chain.vertices)
        for e in deep:
            if 0.0 + epsilon < e.pi < 60.0 - epsilon:
                assert np.abs(verts - e.pi).min() < epsilon + 1e-9
        for e in outside:
            if verts.size:
                # no vertex can originate from a site that far outside
                assert np.abs(verts - e.pi).min() > 0.0 or True
                assert not np.any(np.abs(verts - e.pi) < 1e-12)


def test_shifted_chain_tile_lengths():
    epsilon = 0.1
    base = partial(sample_poisson_homogeneous, 5.0)
    sites = band_points(-epsilon, 200.0 + epsilon, STRIP_HALF_WIDTH + epsilon)
    site_pi = np.asarray([e.pi for e in sites])
    site_fringe = np.asarray(
        [abs(abs(e.pi_star) - STRIP_HALF_WIDTH) <= epsilon for e in sites]
    )
    expected = [n + m * SQRT2 for n in range(3) for m in range(3) if 0 < n + m <= 2]
    for rep in range(5):
        chain = shifted_chain(epsilon, base, 0.0, 200.0, mix_seed(29, rep))
        for a, b in zip(chain.vertices, chain.vertices[1:]):
            length = b - a
            near_prototile = any(abs(length - val) <= 2 * epsilon + 1e-9 for val in expected)
            if near_prototile:
                continue
            # a strip-fringe site shifted into or out of the tile span
            span = (site_pi >= a - epsilon) & (site_pi <= b + epsilon)
            assert np.any(span & site_fringe), (
                f"tile {length} neither near a prototile nor fringe-born"
            )


def test_decompose_length():
    assert decompose_length(1.0, 5, 1e-9) == (1, 0)
    assert decompose_length(1.0 + SQRT2, 5, 1e-9) == (1, 1)
    assert decompose_length(3 + 2 * SQRT2, 10, 1e-9) == (3, 2)
    assert decompose_length(0.5, 5, 1e-9) is None
    with pytest.raises(AmbiguousDecomposition):
        decompose_length(1.2, 2, 0.3)


def _decomposition_outcome(decompose, length, n_max, tol):
    try:
        return decompose(length, n_max, tol)
    except AmbiguousDecomposition as exc:
        return ("ambiguous", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    m=st.integers(0, 30),
    jitter=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)),
    tol=st.floats(1e-12, 2.0),
    n_max=st.one_of(st.none(), st.integers(0, 50)),
)
@example(n=1, m=0, jitter=0.2, tol=0.3, n_max=2)
@example(n=3, m=2, jitter=0.0, tol=1e-12, n_max=None)
def test_decompose_length_matches_double_loop(n, m, jitter, tol, n_max):
    length = n + m * SQRT2 + jitter
    if n_max is None:
        n_max = int(math.ceil(length + tol)) + 1  # as tile_length_histogram calls it
    assert _decomposition_outcome(decompose_length, length, n_max, tol) == _decomposition_outcome(
        decompose_length_double_loop, length, n_max, tol
    )


def _near_strip(v, d):
    """A lattice point within about 1.5 of the strip's axis."""
    return LatticeIndex(round(v * SQRT2) + d, v)


@st.composite
def bands(draw):
    """(x_lo, x_hi, half_width) up to 1e6 from the origin, 1e-9 to about
    50 wide, with either end, or both, on a lattice point's projection."""
    half_width = draw(st.one_of(st.just(STRIP_HALF_WIDTH), st.floats(1e-3, 3.0)))
    v = draw(st.integers(-250_000, 250_000))
    mode = draw(st.sampled_from(["float", "one end", "both ends"]))
    if mode == "float":
        x_lo = draw(st.floats(-1e6, 1e6))
    else:
        x_lo = _near_strip(v, draw(st.integers(-1, 1))).pi
    if mode == "both ends":
        x_hi = _near_strip(v + draw(st.integers(1, 17)), draw(st.integers(-1, 1))).pi
    else:
        x_hi = x_lo + draw(st.floats(1e-9, 50.0))
    assume(x_lo < x_hi)
    return x_lo, x_hi, half_width


@st.composite
def boxes(draw):
    """Planar windows up to 1e6 from the origin and 1e-9 to 50 wide, with
    either corner, or both, on an embedded lattice point."""
    u, v = draw(st.integers(-300_000, 300_000)), draw(st.integers(-300_000, 300_000))
    mode = draw(st.sampled_from(["float", "one corner", "both corners"]))
    if mode == "float":
        low = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    else:
        low = np.array(LatticeIndex(u, v).embed())
    if mode == "both corners":
        du, dv = draw(st.integers(-17, 17)), draw(st.integers(-17, 17))
        corners = np.array([low, LatticeIndex(u + du, v + dv).embed()])
        low, high = corners.min(axis=0), corners.max(axis=0)
    else:
        high = low + np.array([draw(st.floats(1e-9, 50.0)), draw(st.floats(1e-9, 50.0))])
    assume((low < high).all())
    return tuple(low.tolist()), tuple(high.tolist())


@settings(max_examples=200, deadline=None)
@given(band=bands())
@example(band=(0.0, 4.0, STRIP_HALF_WIDTH))
@example(band=(LatticeIndex(1, 1).pi, LatticeIndex(6, 4).pi, STRIP_HALF_WIDTH))
@example(band=(LatticeIndex(-4, -3).pi, LatticeIndex(13, 9).pi, STRIP_HALF_WIDTH + 0.2))
def test_band_points_match_exhaustive_box(band):
    x_lo, x_hi, half_width = band
    tol = EPS_GEOM * max(1.0, abs(x_lo), abs(x_hi), half_width)  # the documented boundary tolerance
    got = [(e.u, e.v) for e in band_points(x_lo, x_hi, half_width)]
    assert got == band_exhaustive(x_lo, x_hi, half_width, tol)


def _corner_window(a, b):
    corners = np.array([LatticeIndex(*a).embed(), LatticeIndex(*b).embed()])
    return tuple(corners.min(axis=0).tolist()), tuple(corners.max(axis=0).tolist())


@settings(max_examples=200, deadline=None)
@given(box=boxes())
@example(box=_corner_window((13, -1), (16, -1)))
@example(box=_corner_window((0, 0), (3, 1)))
@example(box=_corner_window((-5, 2), (1, 4)))
@example(box=((0.0, 0.0), (3.0, 3.0)))
def test_lattice_sites_in_window_match_exhaustive_box(box):
    got = [(e.u, e.v) for e in lattice_sites_in_window(Window(*box))]
    assert got == lattice_box_exhaustive(*box)


@pytest.mark.parametrize(
    "a, b, n_sites",
    # a v range without a rounding margin reaches only 2, 3 and 10 of these
    [((13, -1), (16, -1), 4), ((0, 0), (3, 1), 4), ((-5, 2), (1, 4), 11)],
)
def test_lattice_sites_in_window_keep_sites_on_the_boundary(a, b, n_sites):
    got = [(e.u, e.v) for e in lattice_sites_in_window(Window(*_corner_window(a, b)))]
    assert len(got) == n_sites
    assert a in got and b in got


@pytest.mark.parametrize(
    "x_lo, x_hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan), (5.0, 5.0)]
)
def test_band_points_need_a_finite_range(x_lo, x_hi):
    with pytest.raises(ValueError, match="finite x_lo < x_hi"):
        band_points(x_lo, x_hi, STRIP_HALF_WIDTH)
    with pytest.raises(ValueError, match="finite x_lo < x_hi"):
        thinned_chain(1.0, x_lo, x_hi, seed=1)
