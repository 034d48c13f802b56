import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import clustertess
from clustertess import (
    CHI2_SIGNIFICANCE,
    SQRT2,
    AmbiguousDecomposition,
    Cluster,
    ClusterProperty,
    PropertyMode,
    Window,
    cluster_intensity_scan,
    deterministic_chain,
    deterministic_lattice,
    hardcore_property,
    lattice_sites_in_window,
    make_rng,
    occupation_test,
    poisson_count_test,
    sample_poisson_homogeneous,
    thinned_chain,
    tile_length_histogram,
)
from clustertess import cutproject
from clustertess.stats import _border_corrected_rate, chi2_threshold

from helpers import decompose_length_double_loop

UNIT = Window((0.0, 0.0), (1.0, 1.0))


def test_poisson_count_test_passes():
    report = poisson_count_test(5.0, UNIT, 10_000, seed=1)
    assert report.passed
    assert report.n_samples == 10_000


def test_poisson_count_test_rejects_lattice():
    def lattice_sampler(window, seed):
        sites = [e.embed() for e in lattice_sites_in_window(Window((0, 0), (3, 3)))]
        scaled = [(x / 3.2 + 0.01, y / 3.2 + 0.5) for x, y in sites if 0 <= y <= 1.5]
        return deterministic_lattice([p for p in scaled if 0 <= p[0] <= 1 and 0 <= p[1] <= 1], window)

    report = poisson_count_test(5.0, UNIT, 1000, seed=2, sampler=lattice_sampler)
    assert not report.passed


def test_poisson_count_test_tiny_mean_single_bin():
    report = poisson_count_test(0.01, UNIT, 10_000, seed=3)
    assert report.passed
    assert "1 dof" in report.details  # everything pools into P(0) vs P(>0)


def test_poisson_count_test_validates_reps():
    with pytest.raises(ValueError):
        poisson_count_test(5.0, UNIT, 100, seed=1)
    with pytest.raises(ValueError):
        poisson_count_test(0.0, UNIT, 1000, seed=1)


def test_poisson_count_test_counts_equal_the_sampler():
    # the default draws the counts alone; they are the sampler's first draws
    window = Window((0.0, 0.0), (2.0, 1.5))
    # mean 15 and 0.45 read the inversion table; mean 60 runs PTRS
    for lam, seed in ((5.0, 7), (0.3, 11), (20.0, 13)):
        want = poisson_count_test(lam, window, 2000, seed, sampler=lambda w, s: sample_poisson_homogeneous(lam, w, s))
        assert dataclasses.asdict(poisson_count_test(lam, window, 2000, seed)) == dataclasses.asdict(want)


def test_occupation_targets():
    report = occupation_test(1.0, 1000, 10, seed=5)
    assert report.passed
    assert "0.632121" in report.details
    tiny = occupation_test(1e-6, 10_000, 1, seed=6)
    assert tiny.passed
    saturated = occupation_test(50.0, 10_000, 1, seed=7)
    assert saturated.passed and saturated.statistic == 0.0


def test_occupation_validates_sample_size():
    with pytest.raises(ValueError):
        occupation_test(1.0, 10, 10, seed=1)
    # a product of two negative counts passes the size check; each count is checked itself
    for n_sites, n_reps in ((-2000, -5), (0, 10_000), (10_000, 0)):
        with pytest.raises(ValueError, match="positive site and replication counts"):
            occupation_test(0.5, n_sites, n_reps, seed=1)


def _unsatisfiable_property():
    return ClusterProperty(
        name="unsatisfiable",
        mode=PropertyMode.IN_CONFIGURATION,
        enumerate_candidates=lambda eta: [],
        membership=lambda cluster, eta: False,
        boundary_uncertain=lambda cluster, eta: False,
    )


def test_intensity_scan_unsatisfiable_property():
    report = cluster_intensity_scan(_unsatisfiable_property(), 10.0, [1.0, 2.0, 3.0], 4, seed=8)
    assert report.passed
    assert report.statistic == 0.0


def test_intensity_scan_hardcore_positive_and_stable():
    report = cluster_intensity_scan(hardcore_property(0.05), 10.0, [1.0, 2.0, 3.0], 12, seed=9)
    assert report.passed, report.details
    # rates are strictly positive (clusters exist at this density)
    assert all(float(part.split(": ")[1].split(" ")[0]) > 0 for part in report.details.split(", "))


def test_border_corrected_rate_adds_left_to_right():
    # bit for bit the per-cluster loop it replaced; radii above 1 leave
    # no eroded volume and weigh nothing
    window = Window((0.0, 0.0), (3.0, 2.0))
    radii = make_rng(12).random(500) * 1.2
    rate = 0.0
    for r in radii:
        eroded = window.extent() - 2.0 * r
        if np.all(eroded > 0.0):
            rate += 1.0 / float(np.prod(eroded))
    assert _border_corrected_rate(radii, window).hex() == rate.hex()
    assert _border_corrected_rate(np.empty(0), window) == 0.0


def test_intensity_scan_validates_inputs():
    with pytest.raises(ValueError):
        cluster_intensity_scan(hardcore_property(0.1), 10.0, [1.0, 2.0], 5, seed=1)
    with pytest.raises(ValueError):
        cluster_intensity_scan(hardcore_property(0.1), 10.0, [1.0, 2.0, 3.0], 1, seed=1)


def test_reports_reproducible():
    a = occupation_test(1.0, 1000, 10, seed=42)
    b = occupation_test(1.0, 1000, 10, seed=42)
    assert a == b
    c = cluster_intensity_scan(hardcore_property(0.05), 10.0, [1.0, 2.0, 3.0], 5, seed=42)
    d = cluster_intensity_scan(hardcore_property(0.05), 10.0, [1.0, 2.0, 3.0], 5, seed=42)
    assert c == d


def test_report_consistency_enforced():
    from clustertess import TestReport

    with pytest.raises(ValueError):
        TestReport(name="x", statistic=5.0, threshold=4.0, n_samples=1, passed=True)


def test_tile_histogram_deterministic_chain():
    hist = tile_length_histogram(deterministic_chain(0.0, 100.0), 1e-9)
    assert set(hist.counts.keys()) == {(1, 0), (1, 1)}
    assert hist.undecomposed == ()
    assert hist.ambiguous == ()
    assert hist.total == len(deterministic_chain(0.0, 100.0).tiles)


def test_tile_histogram_thinned_chain():
    chain = thinned_chain(1.0, 0.0, 500.0, seed=21)
    hist = tile_length_histogram(chain, 1e-9)
    assert hist.undecomposed == ()
    assert all(n >= 0 and m >= 0 for n, m in hist.counts)
    assert sum(hist.counts.values()) == len(chain.tiles)


@st.composite
def tile_lengths(draw):
    """(lengths, tol): lengths n + m*sqrt(2) plus a jitter of none, about
    tol either way (near the boundary of the test) or anything; a tol up
    to 0.8 lets some lengths match two pairs."""
    tol = draw(st.one_of(st.sampled_from([1e-12, 1e-9, 1e-3]), st.floats(1e-12, 0.8)))
    jitter = st.one_of(
        st.just(0.0),
        st.sampled_from([tol, -tol, tol * (1 + 1e-12), -tol * (1 - 1e-12)]),
        st.floats(-1.0, 1.0),
    )
    pairs = st.tuples(st.integers(0, 25), st.integers(0, 18), jitter)
    lengths = [n + m * SQRT2 + j for n, m, j in draw(st.lists(pairs, min_size=1, max_size=15))]
    return [x for x in lengths if x > 0.0] or [1.0], tol


@settings(max_examples=150, deadline=None)
@given(case=tile_lengths(), block=st.sampled_from([1, 7, 1 << 16]))
@example(case=([1.2, 1.0, 1.2, 0.5, 1.0 + SQRT2], 0.3), block=1 << 16)  # ambiguous, repeated, undecomposed
def test_tile_histogram_matches_double_loop(case, block):
    lengths, tol = case
    counts, undecomposed, ambiguous = Counter(), [], []
    for length in lengths:
        try:
            pair = decompose_length_double_loop(length, int(math.ceil(length + tol)) + 1, tol)
        except AmbiguousDecomposition:
            ambiguous.append(length)
            continue
        if pair is None:
            undecomposed.append(length)
        else:
            counts[pair] += 1
    # the histogram reads only the chain's tiles; blocks of (length, m)
    # pairs small enough to split one length's m range are checked too
    with mock.patch.object(cutproject, "_DECOMPOSE_BLOCK", block):
        hist = tile_length_histogram(SimpleNamespace(tiles=tuple(lengths)), tol)
    assert hist.counts == dict(sorted(counts.items()))
    assert list(hist.counts) == sorted(counts)
    assert hist.undecomposed == tuple(undecomposed)
    assert hist.ambiguous == tuple(ambiguous)


def test_chi2_threshold_equals_scipy_stats_quantile():
    for dof in range(1, 401):
        assert chi2_threshold(dof) == float(chi2.ppf(1.0 - CHI2_SIGNIFICANCE, dof)), dof


def _loaded_by_cli_import(*modules):
    """Which of the modules a fresh interpreter holds after importing clustertess.cli."""
    src = os.path.dirname(os.path.dirname(clustertess.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, clustertess.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    assert _loaded_by_cli_import("scipy.stats") == "[]"


def test_cli_import_leaves_scipy_spatial_and_special_out():
    # each is imported where it is used, so `sample` and `chain` never load them
    assert _loaded_by_cli_import("scipy.spatial", "scipy.special") == "[]"
