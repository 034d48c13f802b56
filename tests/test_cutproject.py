import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustertess import (
    STRIP_HALF_WIDTH,
    SQRT2,
    AmbiguousDecomposition,
    Chain,
    DuplicatePoints,
    EpsilonTooLarge,
    LatticeIndex,
    PointConfiguration,
    band_points,
    chain_from_points,
    decompose_length,
    deterministic_chain,
    mix_seed,
    sample_poisson_homogeneous,
    shifted_chain,
    strip_points,
    thinned_chain,
)

from helpers import decompose_length_double_loop


def empty_process(window, seed):
    return PointConfiguration(np.empty((0, window.dimension)), None, window)


def exhaustive_strip(x_lo, x_hi, bound=60):
    out = []
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            pi = u + v * SQRT2
            pi_star = u - v * SQRT2
            if x_lo <= pi <= x_hi and abs(pi_star) <= STRIP_HALF_WIDTH:
                out.append((u, v))
    return sorted(out, key=lambda uv: uv[0] + uv[1] * SQRT2)


def test_strip_points_origin_only():
    assert [(e.u, e.v) for e in strip_points(-0.1, 0.1)] == [(0, 0)]


def test_strip_points_zero_to_four():
    got = [(e.u, e.v) for e in strip_points(0.0, 4.0)]
    assert got == exhaustive_strip(0.0, 4.0, bound=10)
    assert got == [(0, 0), (1, 1), (2, 1)]
    assert [e.pi for e in strip_points(0.0, 4.0)] == pytest.approx(
        [0.0, 1 + SQRT2, 2 + SQRT2], abs=1e-12
    )


def test_strip_points_zero_to_twelve():
    got = strip_points(0.0, 12.0)
    assert [(e.u, e.v) for e in got] == exhaustive_strip(0.0, 12.0, bound=20)
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
