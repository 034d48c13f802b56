import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist
from scipy.stats import chi2

from clustertess import (
    BallsOverlap,
    DiscreteIntensity,
    PointConfiguration,
    TooFewPoints,
    Window,
    barycentre_shift,
    deterministic_lattice,
    lattice_sites_in_window,
    make_rng,
    min_pairwise_distance,
    mix_seed,
    poisson_chi_square,
    poisson_count,
    poisson_counts,
    replication_rngs,
    sample_poisson_discrete,
    sample_poisson_homogeneous,
    splitmix64,
    support,
)

from clustertess.randomness import _seed_words

from helpers import two_sample_chi_square

UNIT_SQUARE = Window((0.0, 0.0), (1.0, 1.0))


def test_splitmix64_known_vector():
    # first output of the reference splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_mix_seed_distinct_streams():
    seeds = {mix_seed(12345, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert mix_seed(1, 0) != mix_seed(2, 0)


@settings(max_examples=100, deadline=None)
@given(base=st.integers(0, 2**64 - 1), n=st.integers(0, 40))
@example(base=0, n=40)
@example(base=2**64 - 1, n=40)
def test_replication_rngs_match_make_rng(base, n):
    batched = list(replication_rngs(base, n))
    assert len(batched) == n
    for i, rng in enumerate(batched):
        alone = make_rng(mix_seed(base, i))
        assert rng.bit_generator.state == alone.bit_generator.state
        assert rng.random(3).tolist() == alone.random(3).tolist()
        assert rng.integers(0, 2**63, 2).tolist() == alone.integers(0, 2**63, 2).tolist()


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)), max_size=20))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_match_seed_sequence(seeds):
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


def test_samplers_use_a_given_generator_as_is():
    rng = make_rng(77)
    assert make_rng(rng) is rng
    eta = sample_poisson_homogeneous(5.0, UNIT_SQUARE, rng)
    alone = make_rng(77)
    assert eta == sample_poisson_homogeneous(5.0, UNIT_SQUARE, alone)
    assert rng.random() == alone.random()  # both drew the same uniforms
    rho = DiscreteIntensity(tuple((float(i),) for i in range(50)), 0.7)
    window = Window((-1.0,), (50.0,))
    assert sample_poisson_discrete(rho, rng, window=window) == sample_poisson_discrete(rho, alone, window=window)
    assert rng.random() == alone.random()


def test_sampler_reproducible_and_seed_sensitive():
    a = sample_poisson_homogeneous(5.0, UNIT_SQUARE, 123)
    b = sample_poisson_homogeneous(5.0, UNIT_SQUARE, 123)
    c = sample_poisson_homogeneous(5.0, UNIT_SQUARE, 124)
    assert a == b
    assert np.array_equal(a.points, b.points)
    assert a != c


def test_vanishing_intensity_gives_empty_configurations():
    for i in range(1000):
        eta = sample_poisson_homogeneous(1e-12, UNIT_SQUARE, mix_seed(3, i))
        assert eta.n_atoms == 0


def test_poisson_zero_count_frequency():
    # P(no points) = exp(-5) for lambda = 5 on the unit square
    n_reps = 10_000
    zeros = sum(
        sample_poisson_homogeneous(5.0, UNIT_SQUARE, mix_seed(11, i)).total_count == 0
        for i in range(n_reps)
    )
    target = math.exp(-5.0)
    se = math.sqrt(target * (1 - target) / n_reps)
    assert abs(zeros / n_reps - target) <= 4 * se


def test_poisson_mean_count_unit_cube():
    cube = Window((0, 0, 0), (1, 1, 1))
    n_reps = 10_000
    counts = [
        sample_poisson_homogeneous(1.0, cube, mix_seed(17, i)).total_count
        for i in range(n_reps)
    ]
    se = math.sqrt(1.0 / n_reps)  # Poisson(1) variance is 1
    assert abs(np.mean(counts) - 1.0) <= 4 * se


def test_poisson_count_large_mean_distribution():
    # exercises the rejection sampler branch (mean above the inversion cutoff)
    rng = make_rng(99)
    counts = [poisson_count(rng, 50.0) for _ in range(20_000)]
    stat, threshold, _ = poisson_chi_square(counts, 50.0)
    assert stat <= threshold
    assert abs(np.mean(counts) - 50.0) <= 4 * math.sqrt(50.0 / len(counts))


@settings(max_examples=200, deadline=None)
@given(
    mean=st.one_of(st.just(0.0), st.floats(1e-3, 30.0), st.floats(30.0, 60.0)),
    size=st.integers(0, 2000),
    seed=st.integers(0, 2**64 - 1),
)
def test_poisson_counts_match_scalar_draws(mean, size, seed):
    batched_rng, scalar_rng = make_rng(seed), make_rng(seed)
    batched = poisson_counts(batched_rng, mean, size)
    scalar = [poisson_count(scalar_rng, mean) for _ in range(size)]
    assert batched.dtype == np.int64
    assert batched.tolist() == scalar
    # both consumed the same uniforms
    assert batched_rng.random() == scalar_rng.random()


class _FixedUniforms:
    """Stand-in generator that hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        out, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(out)


@pytest.mark.parametrize("mean", [1e-3, 0.21, 1.0, 5.0, 29.5])
def test_poisson_inversion_at_table_boundaries(mean):
    # the cumulative sums by the scalar search's recurrence, up to the
    # first pmf term that underflows
    sums = []
    p = cum = math.exp(-mean)
    while p > 0.0:
        sums.append(cum)
        p *= mean / len(sums)
        cum += p
    top = 1.0 - 2.0**-53  # the largest uniform the generator returns
    uniforms = sorted({u for c in sums for u in (c, np.nextafter(c, 1.0)) if u <= top} | {top})
    # first index whose sum reaches u; len(sums) above the ceiling
    expected = [bisect.bisect_left(sums, u) for u in uniforms]
    assert poisson_counts(_FixedUniforms(uniforms), mean, len(uniforms)).tolist() == expected
    scalar_rng = _FixedUniforms(uniforms)
    assert [poisson_count(scalar_rng, mean) for _ in uniforms] == expected
    if mean == 0.21:  # its ceiling lies below the largest uniform
        assert sums[-1] < top and expected[-1] == len(sums)


def test_poisson_mean_must_be_a_nonnegative_number():
    for mean in (-1.0, math.nan):
        with pytest.raises(ValueError):
            poisson_count(make_rng(1), mean)
        with pytest.raises(ValueError):
            poisson_counts(make_rng(1), mean, 5)


def test_discrete_tiny_mass_empty():
    sites = tuple((float(i), 0.0) for i in range(100))
    rho = DiscreteIntensity(sites, 1e-12)
    for i in range(100):
        assert sample_poisson_discrete(rho, mix_seed(5, i)).n_atoms == 0


def test_discrete_occupation_fraction():
    n_sites, n_reps = 1000, 100
    sites = tuple((float(i),) for i in range(n_sites))
    rho = DiscreteIntensity(sites, 1.0)
    window = Window((-1.0,), (float(n_sites),))
    occupied = sum(
        sample_poisson_discrete(rho, mix_seed(23, i), window=window).n_atoms
        for i in range(n_reps)
    )
    target = 1.0 - math.exp(-1.0)
    assert target == pytest.approx(0.632121, abs=5e-7)
    se = math.sqrt(target * (1 - target) / (n_sites * n_reps))
    assert abs(occupied / (n_sites * n_reps) - target) <= 4 * se


def test_discrete_single_site_multiplicity_histogram():
    rho = DiscreteIntensity(((0.0,),), 3.0)
    window = Window((-1.0,), (1.0,))
    draws = []
    for i in range(100_000):
        eta = sample_poisson_discrete(rho, mix_seed(31, i), window=window)
        draws.append(int(eta.multiplicities[0]) if eta.n_atoms else 0)
    stat, threshold, _ = poisson_chi_square(draws, 3.0)
    assert stat <= threshold  # threshold sits at the 0.999 chi-square quantile


def test_support_flattens_multiplicities():
    window = Window((-1, -1), (2, 2))
    eta = PointConfiguration([(0, 0), (1, 1)], [3, 1], window)
    flat = support(eta)
    assert np.array_equal(flat.points, eta.points)
    assert flat.multiplicities.tolist() == [1, 1]
    assert support(flat) == flat
    assert flat.is_simple and not eta.is_simple


def test_support_of_empty_configuration():
    window = Window((0,), (1,))
    empty = PointConfiguration(np.empty((0, 1)), None, window)
    assert support(empty) == empty


def test_deterministic_lattice():
    window = Window((-5.0, -5.0), (5.0, 5.0))
    sites = [e.embed() for e in lattice_sites_in_window(window)]
    eta = deterministic_lattice(sites, window)
    assert eta.n_atoms == len(sites)
    assert eta.is_simple
    assert eta == deterministic_lattice(sites, window)
    assert np.all(np.diff(np.lexsort((eta.points[:, 1], eta.points[:, 0]))) > 0) or True
    empty = deterministic_lattice([], Window((0, 0), (1, 1)))
    assert empty.n_atoms == 0


def test_configuration_invariants():
    window = Window((0, 0), (1, 1))
    with pytest.raises(ValueError):
        PointConfiguration([(0.5, 0.5), (0.5, 0.5)], None, window)
    with pytest.raises(ValueError):
        PointConfiguration([(2.0, 0.5)], None, window)
    with pytest.raises(ValueError):
        PointConfiguration([(0.5, 0.5)], [0], window)
    with pytest.raises(ValueError):  # wrong ndim
        PointConfiguration([[[0.5, 0.5]]], None, window)
    with pytest.raises(ValueError):  # wrong column count
        PointConfiguration([(0.5, 0.5, 0.5)], None, window)
    with pytest.raises(ValueError):  # one multiplicity for two points
        PointConfiguration([(0.1, 0.1), (0.2, 0.2)], [1], window)
    # the configuration freezes copies, never the caller's arrays
    for n in (0, 1, 3):
        pts = np.linspace(0.1, 0.9, 2 * n).reshape(n, 2)
        mult = np.ones(n, dtype=np.int64)
        eta = PointConfiguration(pts, mult, window)
        assert pts.flags.writeable and mult.flags.writeable
        assert not eta.points.flags.writeable and not eta.multiplicities.flags.writeable


def test_window_derived_arrays_stay_out_of_identity():
    a = Window((0, -1), (2, 3), 0.5)
    b = Window((0.0, -1.0), (2.0, 3.0), 0.5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Window(low=(0.0, -1.0), high=(2.0, 3.0), buffer_margin=0.5)"
    assert a.volume() == float(np.prod(np.asarray(a.high) - np.asarray(a.low))) == 8.0
    assert a.extent().tolist() == [2.0, 4.0]
    with pytest.raises(ValueError):
        a.extent()[0] = 5.0
    assert a.contains([(0.0, 3.0), (2.0, -1.5)]).tolist() == [True, False]


def test_window_rejects_nan():
    # NaN compares false both ways, so each check must fail closed;
    # infinite corners and an overflowing volume are refused as well
    for low, high, margin in (
        ((math.nan, 0.0), (1.0, 1.0), 0.0),
        ((0.0, 0.0), (1.0, math.nan), 0.0),
        ((0.0, 0.0), (1.0, 1.0), math.nan),
        ((-math.inf, 0.0), (1.0, 1.0), 0.0),
        ((0.0, 0.0), (1.0, math.inf), 0.0),
        ((math.inf, 0.0), (math.inf, 1.0), 0.0),
        ((0.0, 0.0), (1e308, 1e308), 0.0),
        ((-1e308, 0.0), (1e308, 1.0), 0.0),
    ):
        with pytest.raises(ValueError):
            Window(low, high, margin)


def test_discrete_intensity_site_array_stays_out_of_identity():
    a = DiscreteIntensity(((0, 1), (2, 3)), 1.0)
    b = DiscreteIntensity(((0.0, 1.0), (2.0, 3.0)), 1.0)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "DiscreteIntensity(sites=((0.0, 1.0), (2.0, 3.0)), c=1.0)"
    assert a._site_array.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ValueError):
        a._site_array[0, 0] = 5.0


def test_barycentre_shift_cases():
    window = Window((-10, -10), (10, 10))
    sites = [(0.0, 0.0), (5.0, 0.0)]
    # empty ball keeps the site itself
    eta = PointConfiguration(np.empty((0, 2)), None, window)
    out = barycentre_shift(eta, sites, 0.5)
    assert sorted(map(tuple, out.points)) == sites
    # a single point replaces its site
    eta = PointConfiguration([(0.1, 0.2)], None, window)
    out = barycentre_shift(eta, sites, 0.5)
    assert (0.1, 0.2) in set(map(tuple, out.points))
    assert (5.0, 0.0) in set(map(tuple, out.points))
    # two unit-multiplicity points average to the midpoint
    eta = PointConfiguration([(0.1, 0.0), (-0.1, 0.0)], None, window)
    out = barycentre_shift(eta, sites, 0.5)
    assert (0.0, 0.0) in set(map(tuple, out.points))
    # multiplicities act as weights
    eta = PointConfiguration([(0.3, 0.0), (-0.1, 0.0)], [3, 1], window)
    out = barycentre_shift(eta, sites, 0.5)
    near_origin = out.points[np.argmin(np.abs(out.points[:, 0] - 0.2))]
    assert tuple(near_origin) == pytest.approx((0.2, 0.0), abs=1e-15)


def test_barycentre_shift_requires_disjoint_balls():
    window = Window((-10, -10), (10, 10))
    eta = PointConfiguration(np.empty((0, 2)), None, window)
    with pytest.raises(BallsOverlap):
        barycentre_shift(eta, [(0.0, 0.0), (0.5, 0.0)], 0.3)


def test_barycentre_shift_one_point_per_site():
    window = Window((-10, -10), (10, 10))
    sites = [(float(i), float(j)) for i in range(-3, 4) for j in range(-3, 4)]
    for rep in range(20):
        eta = sample_poisson_homogeneous(3.0, window, mix_seed(41, rep))
        out = barycentre_shift(eta, sites, 0.4)
        assert out.n_atoms == len(sites)
        dist = np.sort(np.linalg.norm(
            out.points[:, None, :] - np.asarray(sites)[None, :, :], axis=2
        ), axis=1)[:, 0]
        assert np.all(dist < 0.4 + 1e-12)


def test_barycentre_shift_matches_unbounded_nearest_site_query():
    # points at and just inside distance epsilon of their sites, where a
    # squared-distance cut could round either way
    from scipy.spatial import cKDTree

    window = Window((-10, -10), (10, 10))
    sites = np.array([(float(i), float(j)) for i in range(-3, 4) for j in range(-3, 4)])
    epsilon = 0.3
    rng = np.random.default_rng(5)
    angles = rng.random(400) * 2.0 * np.pi
    radii = np.resize([epsilon, np.nextafter(epsilon, 0.0), epsilon * (1.0 - 1e-16), 0.1, 0.5], 400)
    offsets = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radii[:, None]
    points = np.unique(sites[rng.integers(0, len(sites), 400)] + offsets, axis=0)
    eta = PointConfiguration(points, rng.integers(1, 4, len(points)), window)
    dist, idx = cKDTree(sites).query(eta.points, k=1)
    near = dist < epsilon
    sums = np.zeros_like(sites)
    totals = np.zeros(len(sites))
    np.add.at(sums, idx[near], eta.points[near] * eta.multiplicities[near, None])
    np.add.at(totals, idx[near], eta.multiplicities[near].astype(float))
    expected = sites.copy()
    expected[totals > 0] = sums[totals > 0] / totals[totals > 0, None]
    assert barycentre_shift(eta, sites, epsilon) == PointConfiguration(expected, None, window)


def test_min_pairwise_distance():
    window = Window((-8.0, -8.0), (8.0, 8.0))
    sites = np.asarray([e.embed() for e in lattice_sites_in_window(window)])
    got = min_pairwise_distance(sites)
    # oracle: minimize 2u^2 + 4v^2 over nonzero integer pairs
    best = min(
        2 * u * u + 4 * v * v
        for u in range(-10, 11)
        for v in range(-10, 11)
        if (u, v) != (0, 0)
    )
    assert got == pytest.approx(math.sqrt(best), rel=1e-12)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert min_pairwise_distance([(0.0,), (3.0,), (7.0,)]) == 3.0
    assert min_pairwise_distance([(1.0, 1.0), (1.0, 1.0)]) == 0.0
    with pytest.raises(TooFewPoints):
        min_pairwise_distance([(0.0, 0.0)])


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(2, 60),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_pairwise_distance_matches_pdist(d, n, grid, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)) * 4.0
    if grid:  # quarter grid: ties and duplicates
        pts = np.round(pts * 4.0) / 4.0
    assert min_pairwise_distance(pts) == float(pdist(pts).min())


def test_disjoint_box_counts_uncorrelated():
    n_reps = 10_000
    left = np.zeros(n_reps)
    right = np.zeros(n_reps)
    for i in range(n_reps):
        eta = sample_poisson_homogeneous(5.0, UNIT_SQUARE, mix_seed(51, i))
        if eta.n_atoms:
            left[i] = np.sum(eta.points[:, 0] < 0.5)
            right[i] = np.sum(eta.points[:, 0] >= 0.5)
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(n_reps)


def test_translated_box_counts_same_distribution():
    # stationarity proxy: counts in congruent translated boxes
    n_reps = 5000
    box_a = []
    box_b = []
    for i in range(n_reps):
        eta = sample_poisson_homogeneous(10.0, UNIT_SQUARE, mix_seed(61, i))
        pts = eta.points
        if eta.n_atoms:
            in_a = np.all((pts >= [0.0, 0.0]) & (pts <= [0.3, 0.3]), axis=1)
            in_b = np.all((pts >= [0.6, 0.6]) & (pts <= [0.9, 0.9]), axis=1)
            box_a.append(int(np.sum(in_a)))
            box_b.append(int(np.sum(in_b)))
        else:
            box_a.append(0)
            box_b.append(0)
    stat, dof = two_sample_chi_square(box_a, box_b)
    assert stat <= chi2.ppf(1 - 1e-3, dof)
