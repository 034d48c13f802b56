"""Acceptance suite.

Each test exercises one acceptance criterion at its stated scale and
tolerance and prints one PASS/FAIL line (run with -s to see them all).
"""

import math
import time
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

import clustertess as ct
from clustertess import (
    Cluster,
    ClusterProperty,
    PropertyMode,
    Window,
    band_points,
    barycentre_shift,
    check_face_to_face,
    check_simplicial,
    circumball,
    covered_fraction,
    decompose_length,
    delone_property,
    deterministic_chain,
    extract_clusters,
    hardcore_property,
    hull_contains_points,
    make_rng,
    mix_seed,
    poisson_chi_square,
    sample_poisson_homogeneous,
    strip_points,
    thinned_chain,
    shifted_chain,
    voronoi_cell_centers,
    voronoi_property,
)
from clustertess.cli import main as cli_main
from clustertess.cutproject import STRIP_HALF_WIDTH, SQRT2, _strip_window

from helpers import exhaustive_delone, voronoi_vertices_brute_force

UNIT = Window((0.0, 0.0), (1.0, 1.0))


def _verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_poisson_law():
    started = time.monotonic()
    n_reps = 10_000
    counts = [
        sample_poisson_homogeneous(5.0, UNIT, mix_seed(101, i)).total_count
        for i in range(n_reps)
    ]
    stat, threshold, dof = poisson_chi_square(counts, 5.0)
    zero_freq = counts.count(0) / n_reps
    target = math.exp(-5.0)
    zero_se = math.sqrt(target * (1.0 - target) / n_reps)
    elapsed = time.monotonic() - started
    chi_ok = stat <= threshold
    zero_ok = abs(zero_freq - target) <= 4.0 * zero_se
    time_ok = elapsed <= 10.0
    _verdict(
        1,
        "poisson law",
        chi_ok and zero_ok and time_ok,
        f"chi2 {stat:.1f}/{threshold:.1f} ({dof} dof), P(0) {zero_freq:.6f} vs {target:.6f}, {elapsed:.1f}s",
    )


def test_criterion_02_circumball_correctness():
    rng = make_rng(202)
    worst_residual = 0.0
    worst_perm = 0.0
    worst_shift = 0.0
    for d in (2, 3):
        for _ in range(10_000):
            verts = rng.random((d + 1, d)) * 10.0 - 5.0
            ball = circumball(Cluster(verts))
            res = max(
                abs(float(np.linalg.norm(v - ball.center)) - ball.radius) / ball.radius
                for v in verts
            )
            worst_residual = max(worst_residual, res)
            perm = rng.permutation(d + 1)
            ball_p = circumball(Cluster(verts[perm]))
            scale = max(ball.radius, 1.0)
            worst_perm = max(
                worst_perm,
                float(np.abs(np.subtract(ball_p.center, ball.center)).max()) / scale,
                abs(ball_p.radius - ball.radius) / ball.radius,
            )
            shift = rng.random(d) * 20.0 - 10.0
            ball_t = circumball(Cluster(verts + shift))
            worst_shift = max(
                worst_shift,
                float(
                    np.abs(np.subtract(ball_t.center, np.add(ball.center, shift))).max()
                )
                / scale,
                abs(ball_t.radius - ball.radius) / ball.radius,
            )
    ok = worst_residual <= 1e-9 and worst_perm <= 1e-9 and worst_shift <= 1e-9
    _verdict(
        2,
        "circumball correctness",
        ok,
        f"residual {worst_residual:.2e}, permutation {worst_perm:.2e}, translation {worst_shift:.2e}",
    )


def test_criterion_03_delone_oracle_equivalence():
    started = time.monotonic()
    caps = (0.2, 0.45, 2.0)
    checked = 0
    seed_index = 0
    mismatches = 0
    while checked < 500:
        eta = sample_poisson_homogeneous(10.0, UNIT, mix_seed(303, seed_index))
        seed_index += 1
        if eta.n_atoms > 14:
            continue
        cap = caps[checked % len(caps)]
        got = list(extract_clusters(delone_property(cap), eta).clusters)
        want = exhaustive_delone(eta, cap)
        if got != want:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - started
    _verdict(
        3,
        "delone oracle equivalence",
        mismatches == 0 and elapsed <= 60.0,
        f"500 configurations, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_04_face_to_face_simplicial():
    prop = delone_property(0.3)
    violations = 0
    non_simplicial = 0
    for rep in range(200):
        eta = sample_poisson_homogeneous(50.0, UNIT, mix_seed(404, rep))
        cfg = extract_clusters(prop, eta).certain()
        if not check_simplicial(cfg):
            non_simplicial += 1
            continue
        report = check_face_to_face(cfg)
        violations += len(report.violations)
    _verdict(
        4,
        "face-to-face and simplicial",
        violations == 0 and non_simplicial == 0,
        f"200 replications, {violations} violations, {non_simplicial} non-simplicial",
    )


def test_criterion_05_holes():
    prop = delone_property(0.05)
    holes = 0
    for rep in range(100):
        eta = sample_poisson_homogeneous(100.0, UNIT, mix_seed(505, rep))
        cfg = extract_clusters(prop, eta)
        fraction, se = covered_fraction(cfg, 2000, mix_seed(10505, rep))
        if fraction + 4.0 * se < 1.0:
            holes += 1
    _verdict(5, "holes in sparse tessellation", holes >= 99, f"{holes}/100 replications show holes")


def test_criterion_06_voronoi_completeness_duality():
    worst_vertex_err = 0.0
    oracle_mismatch = 0
    coverage_ok = True
    details = []
    for seed in (606, 607):
        eta = sample_poisson_homogeneous(100.0, UNIT, seed)
        cells = extract_clusters(voronoi_property(UNIT), eta)
        centers = voronoi_cell_centers(eta)
        oracle = voronoi_vertices_brute_force(eta)
        point_index = {tuple(p): i for i, p in enumerate(eta.points)}
        for cell, uncertain in zip(cells.clusters, cells.boundary_uncertain):
            if uncertain:
                continue
            ci = point_index[centers[cell]]
            expected = sorted(tuple(v) for v, near in oracle.values() if ci in near)
            got = sorted(cell.points)
            if len(got) != len(expected):
                oracle_mismatch += 1
                continue
            err = max(
                float(np.linalg.norm(np.subtract(g, e))) for g, e in zip(got, expected)
            )
            worst_vertex_err = max(worst_vertex_err, err)
            if err > 1e-9:
                oracle_mismatch += 1
        # coverage: certain cells plus the boundary-uncertain region
        cell_of_center = {
            centers[c]: (c, u) for c, u in zip(cells.clusters, cells.boundary_uncertain)
        }
        rng = make_rng(seed + 5000)
        samples = rng.random((4000, 2))
        tree = cKDTree(eta.points)
        _, nearest = tree.query(samples)
        covered = 0
        for q, ni in zip(samples, nearest):
            entry = cell_of_center.get(tuple(eta.points[ni]))
            if entry is None or entry[1]:
                covered += 1  # uncertain region
            elif hull_contains_points(entry[0], q[None, :])[0]:
                covered += 1
        fraction = covered / len(samples)
        se = math.sqrt(fraction * (1.0 - fraction) / len(samples))
        if fraction < 1.0 - 4.0 * se:
            coverage_ok = False
        details.append(f"seed {seed}: coverage {fraction:.4f}")
    _verdict(
        6,
        "voronoi completeness and duality",
        oracle_mismatch == 0 and coverage_ok,
        f"vertex error {worst_vertex_err:.2e}, {oracle_mismatch} mismatches, " + "; ".join(details),
    )


def test_criterion_07_hardcore_disjoint_balls():
    prop = hardcore_property(0.1)
    overlaps = 0
    for rep in range(200):
        eta = sample_poisson_homogeneous(20.0, UNIT, mix_seed(707, rep))
        cfg = extract_clusters(prop, eta)
        pts = np.asarray([c.points[0] for c in cfg.clusters])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if float(np.linalg.norm(pts[i] - pts[j])) < 0.1:
                    overlaps += 1
    _verdict(
        7,
        "hard-core balls disjoint",
        overlaps == 0,
        f"200 replications, {overlaps} overlapping radius-r/2 ball pairs",
    )


def test_criterion_08_silver_mean_chain():
    chain = deterministic_chain(0.0, 1000.0)
    lengths = set()
    bad = 0
    for t in chain.tiles:
        if abs(t - 1.0) <= 1e-9:
            lengths.add((1, 0))
        elif abs(t - (1.0 + SQRT2)) <= 1e-9:
            lengths.add((1, 1))
        else:
            bad += 1
    fixture = [0.0, 2.41421356, 3.41421356, 5.82842712, 8.24264069, 10.65685425, 11.65685425]
    short = deterministic_chain(0.0, 12.0)
    fixture_ok = len(short.vertices) == 7 and all(
        abs(got - want) <= 1e-8 for got, want in zip(short.vertices, fixture)
    )
    _verdict(
        8,
        "silver-mean chain",
        bad == 0 and lengths == {(1, 0), (1, 1)} and fixture_ok,
        f"{len(chain.tiles)} tiles, prototiles {sorted(lengths)}, fixture ok {fixture_ok}",
    )


def test_criterion_09_thinning():
    sites = strip_points(0.0, 20000.0)
    assert len(sites) >= 10_000
    x_hi = sites[9999].pi + 1e-9
    exact_sites = strip_points(0.0, x_hi)
    assert len(exact_sites) == 10_000
    chain = thinned_chain(1.0, 0.0, x_hi, seed=909)
    kept_fraction = len(chain.vertices) / 10_000
    target = 1.0 - math.exp(-1.0)
    se = math.sqrt(target * (1.0 - target) / 10_000)
    fraction_ok = abs(kept_fraction - target) <= 4.0 * se
    undecomposable = 0
    for t in chain.tiles:
        pair = decompose_length(t, int(math.ceil(t)) + 1, 1e-9)
        if pair is None or pair[0] < 0 or pair[1] < 0:
            undecomposable += 1
    _verdict(
        9,
        "thinning",
        fraction_ok and undecomposable == 0,
        f"kept {kept_fraction:.6f} vs {target:.6f} (4se {4 * se:.6f}), "
        f"{undecomposable} undecomposable tiles",
    )


def test_criterion_10_barycentre_shift():
    epsilon = 0.1
    base = partial(sample_poisson_homogeneous, 2.0)
    det_count = len(deterministic_chain(0.0, 1000.0).vertices)
    sites = band_points(-epsilon, 1000.0 + epsilon, STRIP_HALF_WIDTH + epsilon)
    embedded = np.asarray([e.embed() for e in sites])
    window = _strip_window(0.0, 1000.0, 2.0 * epsilon + 0.5)
    structure_ok = True
    counts = []
    for rep in range(500):
        seed = mix_seed(1010, rep)
        eta = base(window, seed)
        shifted = barycentre_shift(eta, embedded, epsilon)
        if shifted.n_atoms != len(sites):
            structure_ok = False
        dist, idx = cKDTree(embedded).query(shifted.points)
        if not (np.all(dist < epsilon) and len(set(idx.tolist())) == len(sites)):
            structure_ok = False
        chain = shifted_chain(epsilon, base, 0.0, 1000.0, seed)
        counts.append(len(chain.vertices))
    counts = np.asarray(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    z = abs(counts.mean() - det_count) / se
    _verdict(
        10,
        "barycentre shift",
        structure_ok and z <= 4.0,
        f"one-point-per-site {structure_ok}, density {counts.mean():.2f} vs {det_count} (z = {z:.2f})",
    )


def test_criterion_11_zero_infinity_proxy():
    report = ct.cluster_intensity_scan(
        delone_property(0.5), 50.0, [1.0, 2.0, 3.0], 16, seed=1111
    )
    unsatisfiable = ClusterProperty(
        name="unsatisfiable",
        mode=PropertyMode.IN_CONFIGURATION,
        enumerate_candidates=lambda eta: [],
        membership=lambda cluster, eta: False,
        boundary_uncertain=lambda cluster, eta: False,
    )
    zero_counts = all(
        len(
            extract_clusters(
                unsatisfiable,
                sample_poisson_homogeneous(50.0, UNIT, mix_seed(1112, rep)),
            )
        )
        == 0
        for rep in range(20)
    )
    zero_report = ct.cluster_intensity_scan(unsatisfiable, 50.0, [1.0, 2.0, 3.0], 4, seed=1113)
    ok = report.passed and zero_counts and zero_report.passed and zero_report.statistic == 0.0
    _verdict(
        11,
        "zero-or-infinity proxy",
        ok,
        f"max z = {report.statistic:.2f}; rates {report.details}; zero branch {zero_counts}",
    )


def test_criterion_12_reproducibility(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        sample_path = tmp_path / f"sample_{tag}.ndjson"
        tess_path = tmp_path / f"tess_{tag}.ndjson"
        chain_path = tmp_path / f"chain_{tag}.json"
        assert cli_main([
            "sample", "--process", "poisson", "--lambda", "40", "--window", "0,0,1,1",
            "--seed", "12", "--replications", "3", "--out", str(sample_path),
        ]) == 0
        assert cli_main([
            "tessellate", "--in", str(sample_path), "--property", "delone",
            "--radius-cap", "0.3", "--seed", "12", "--out", str(tess_path),
        ]) == 0
        assert cli_main([
            "chain", "--variant", "thinned", "--c", "1", "--range", "0", "200",
            "--seed", "12", "--out", str(chain_path),
        ]) == 0
        outputs.append(
            sample_path.read_bytes() + tess_path.read_bytes() + chain_path.read_bytes()
        )
    _verdict(12, "reproducibility", outputs[0] == outputs[1], "byte-identical records")
