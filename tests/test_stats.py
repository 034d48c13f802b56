import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

import clustertess
from clustertess import (
    CHI2_SIGNIFICANCE,
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
from clustertess.stats import _border_corrected_rate, chi2_threshold

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
    for lam, seed in ((5.0, 7), (0.3, 11)):
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


def test_chi2_threshold_equals_scipy_stats_quantile():
    for dof in range(1, 401):
        assert chi2_threshold(dof) == float(chi2.ppf(1.0 - CHI2_SIGNIFICANCE, dof)), dof


def test_cli_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(clustertess.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, clustertess.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
