import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clustertess import (
    Cluster,
    ClusterConfiguration,
    PointConfiguration,
    Window,
    delone_property,
    extract_clusters,
    sample_poisson_homogeneous,
)
from clustertess.cli import main
from clustertess.pointproc import canonical_atoms
from clustertess.records import (
    _fmt_float,
    dump_configurations,
    dump_records,
    dumps_value,
    make_record,
    parse_records,
    read_records_file,
    record_to_objects,
)
from clustertess.tessellation import build_report


def test_record_round_trip_bit_exact():
    window = Window((0.0, 0.0), (1.0, 1.0), buffer_margin=0.05)
    awkward = [(0.1, 1.0 / 3.0), (0.7000000000000001, 1e-15), (2.0 / 3.0, 0.9999999999999999)]
    eta = PointConfiguration(awkward, [1, 2, 1], window)
    cfg = extract_clusters(delone_property(5.0), PointConfiguration(awkward, None, window))
    report = build_report(cfg, n_samples=200, seed=9)
    record = make_record(3, eta, cfg, report)
    text = dump_records([record])
    parsed = parse_records(text)
    assert len(parsed) == 1
    eta2, cfg2, report2 = record_to_objects(parsed[0])
    assert eta2 == eta
    assert np.array_equal(eta2.points, eta.points)
    assert cfg2 == cfg
    assert report2 == report
    # serialization is stable under a second round trip
    assert dump_records(parsed) == text


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e22, 1e-7, 0.1, 1.0 / 3.0, 123456789012345680.0]


def test_array_text_matches_scalar_format():
    expected = "[" + ",".join(_fmt_float(x) for x in EDGE_FLOATS) + "]"
    assert expected.startswith("[-0,0,4.9406564584124654e-324,")
    assert dumps_value(np.array(EDGE_FLOATS)) == expected == dumps_value(EDGE_FLOATS)
    grid = np.array(EDGE_FLOATS).reshape(6, 2)
    assert dumps_value(grid) == dumps_value(grid.tolist())
    assert dumps_value(np.empty((0, 2))) == "[]"
    assert dumps_value(np.array([3, 1, 2**62], dtype=np.int64)) == "[3,1,4611686018427387904]"


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_array_text_matches_list_text(values):
    assert dumps_value(values) == dumps_value(values.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_text_refuses_non_finite_numbers(bad):
    with pytest.raises(ValueError) as scalar:
        _fmt_float(bad)
    with pytest.raises(ValueError) as array:
        dumps_value(np.array([[0.5, 1.0], [bad, 2.0]]))
    assert str(array.value) == str(scalar.value)


@st.composite
def stacked_replications(draw):
    """(window, replications): a window of dimension 1 to 3, with or
    without a buffer margin, and replications of (point, multiplicity)
    atoms drawn from a few points of it with tied coordinates, so a
    point can repeat across replications and within one."""
    d = draw(st.integers(1, 3))
    low = draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d))
    extent = draw(st.lists(st.floats(0.5, 100.0), min_size=d, max_size=d))
    window = Window(low, [a + e for a, e in zip(low, extent)], draw(st.sampled_from([0.0, 0.1, 0.24])))
    fraction = st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0])
    pool = draw(st.lists(st.tuples(*[fraction] * d), min_size=1, max_size=6))
    pool = [tuple(a + f * e for a, f, e in zip(low, point, extent)) for point in pool]
    atoms = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)), max_size=5)
    return window, draw(st.lists(atoms, max_size=6))


@settings(max_examples=300, deadline=None)
@given(stacked_replications())
@example((Window((0.0,), (1.0,)), []))
@example((Window((0.0, 0.0), (1.0, 1.0)), [[((0.5, 0.5), 2)], [], [((0.5, 0.5), 1), ((0.0, 1.0), 3)]]))
def test_stacked_pass_matches_one_configuration_per_replication(case):
    window, replications = case
    try:
        etas = [PointConfiguration([p for p, _ in atoms], [m for _, m in atoms], window) for atoms in replications]
    except ValueError as exc:
        expected = str(exc)  # a point repeated within one replication
    else:
        expected = None
    flat = [atom for atoms in replications for atom in atoms]
    sizes = [len(atoms) for atoms in replications]
    try:
        points, mult = canonical_atoms(
            np.array([p for p, _ in flat], dtype=float).reshape(-1, window.dimension),
            np.array([m for _, m in flat], dtype=np.int64),
            window,
            sizes,
        )
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert points.tolist() == [p for eta in etas for p in eta.points.tolist()]
    assert mult.tolist() == [m for eta in etas for m in eta.multiplicities.tolist()]
    text = dump_configurations(window, points, mult, sizes)
    assert text == dump_records([make_record(i, eta) for i, eta in enumerate(etas)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_stacked_writer_refuses_non_finite_numbers(bad):
    with pytest.raises(ValueError) as scalar:
        _fmt_float(bad)
    with pytest.raises(ValueError) as stacked:
        dump_configurations(Window((0, 0), (1, 1)), np.array([[0.5, 0.5], [bad, 0.5]]), np.ones(2, np.int64), [1, 1])
    assert str(stacked.value) == str(scalar.value)


def test_strings_and_keys_encode_as_json_dumps():
    value = {"k\u00e9y\n": "a\"\u2603\\", "plain": "x"}
    assert dumps_value(value) == json.dumps(value, separators=(",", ":"))


def test_record_objects_read_from_an_unserialized_record():
    window = Window((0.0, 0.0), (1.0, 1.0))
    points = [(0.1, 0.2), (0.7, 0.3), (0.4, 0.9)]
    eta = PointConfiguration(points, [1, 3, 2], window)
    cfg = extract_clusters(delone_property(5.0), PointConfiguration(points, None, window))
    assert len(cfg) == 1
    record = make_record(0, eta, cfg)
    eta2, cfg2, _ = record_to_objects(record)
    assert eta2 == eta and cfg2 == cfg
    assert record_to_objects(parse_records(dump_records([record]))[0])[:2] == (eta, cfg)
    record["points"] = eta.points.astype(np.float32)
    with pytest.raises(ValueError, match="record field 'points' cannot be"):
        record_to_objects(record)


def run_cli(*argv):
    return main(list(argv))


def test_cli_sample_reproducible(tmp_path):
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    args = [
        "sample", "--process", "poisson", "--lambda", "5", "--window", "0,0,1,1",
        "--seed", "1", "--replications", "4",
    ]
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = read_records_file(str(out_a))
    assert len(records) == 4
    eta, clusters, report = record_to_objects(records[0])
    assert clusters is None and report is None
    direct = sample_poisson_homogeneous(5.0, Window((0, 0), (1, 1)), __import__("clustertess").mix_seed(1, 0))
    assert eta == direct


def test_cli_pipeline_reproducible(tmp_path):
    sample_path = tmp_path / "pts.ndjson"
    run_cli(
        "sample", "--process", "poisson", "--lambda", "30", "--window", "0,0,1,1",
        "--seed", "7", "--replications", "2", "--out", str(sample_path),
    )
    outs = []
    for name in ("t1.ndjson", "t2.ndjson"):
        out = tmp_path / name
        code = run_cli(
            "tessellate", "--in", str(sample_path), "--property", "delone",
            "--radius-cap", "0.3", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    records = read_records_file(str(tmp_path / "t1.ndjson"))
    _, clusters, report = record_to_objects(records[0])
    assert clusters is not None and len(clusters) > 0
    assert report is not None and report.simplicial is True


def test_cli_chain_fixture(tmp_path):
    out = tmp_path / "chain.json"
    assert run_cli("chain", "--variant", "deterministic", "--range", "0", "12", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    expected = [0.0, 2.41421356, 3.41421356, 5.82842712, 8.24264069, 10.65685425, 11.65685425]
    assert len(payload["vertices"]) == 7
    for got, want in zip(payload["vertices"], expected):
        assert abs(got - want) <= 1e-8


def test_cli_chain_with_histogram(tmp_path):
    out = tmp_path / "chain.json"
    assert run_cli(
        "chain", "--variant", "thinned", "--c", "1", "--range", "0", "100",
        "--seed", "3", "--histogram-tol", "1e-9", "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["undecomposed"] == []
    assert all("sqrt2" in key for key in payload["tile_histogram"])


def test_cli_config_file_and_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("process=poisson\nlambda=5\nwindow=0,0,1,1\nseed=1\nreplications=2\n")
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    assert run_cli("sample", "--config", str(config), "--out", str(out_a)) == 0
    # command line wins over the config file
    assert run_cli("sample", "--config", str(config), "--replications", "1", "--out", str(out_b)) == 0
    assert len(read_records_file(str(out_a))) == 2
    assert len(read_records_file(str(out_b))) == 1


def test_cli_env_seed(tmp_path, monkeypatch):
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    monkeypatch.setenv("CLUSTER_TESS_SEED", "99")
    run_cli("sample", "--process", "poisson", "--lambda", "5", "--window", "0,0,1,1", "--out", str(out_a))
    monkeypatch.delenv("CLUSTER_TESS_SEED")
    run_cli("sample", "--process", "poisson", "--lambda", "5", "--window", "0,0,1,1", "--seed", "99", "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    # config errors
    assert run_cli("sample", "--process", "nonsense", "--window", "0,0,1,1") == 1
    assert run_cli("sample", "--process", "poisson", "--window", "0,0,1,1") == 1  # missing lambda
    # options are resolved before the first replication, so also with none
    assert run_cli("sample", "--process", "nonsense", "--window", "0,0,1,1", "--replications", "0") == 1
    assert run_cli("sample", "--process", "poisson", "--window", "0,0,1,1", "--replications", "0") == 1
    assert run_cli("tessellate", "--in", str(tmp_path / "missing.ndjson"), "--property", "delone", "--radius-cap", "1") == 1
    assert run_cli("sample", "--process", "poisson", "--lambda", "5", "--window", "bad") == 1
    assert run_cli("chain", "--variant", "thinned", "--c", "0.5", "--range", "0", "x") == 1
    intensity = ("stats", "--test", "intensity", "--property", "delone", "--radius-cap", "0.5", "--lambda", "5")
    assert run_cli(*intensity, "--window-sizes", "1,x", "--reps", "2") == 1
    # stats takes no buffer margin: no statistic depends on one
    assert run_cli("stats", "--test", "poisson-count", "--lambda", "5", "--window", "0,0,1,1", "--buffer-margin", "0.1") == 1
    # invalid option values: sample, chain and stats read no records
    assert run_cli(*intensity, "--window-sizes", "1,2", "--reps", "2") == 1
    assert run_cli(*intensity, "--reps", "1") == 1
    assert run_cli(*intensity, "--dimension", "0", "--reps", "2") == 1
    assert run_cli("stats", "--test", "poisson-count", "--lambda", "5", "--window", "0,0,1,1", "--reps", "10") == 1
    assert run_cli("stats", "--test", "occupation", "--c", "1", "--sites", "10", "--reps", "1") == 1
    # negative counts: no empty stream, no unrelated window message
    assert run_cli("sample", "--process", "poisson", "--lambda", "5", "--window", "0,0,1,1", "--replications", "-3") == 1
    assert run_cli("stats", "--test", "occupation", "--c", "0.5", "--sites", "-2000", "--reps", "-5") == 1
    assert run_cli("sample", "--process", "poisson", "--lambda", "-5", "--window", "0,0,1,1") == 1
    assert run_cli("chain", "--variant", "thinned", "--c", "-1", "--range", "0", "10") == 1
    assert run_cli("chain", "--variant", "deterministic", "--range", "0", "inf") == 1
    # runtime errors: a shift radius too large for the lattice
    assert run_cli("chain", "--variant", "shifted", "--epsilon", "10", "--range", "0", "10") == 2  # EpsilonTooLarge
    assert run_cli("sample", "--process", "barycentre", "--lambda", "5", "--epsilon", "0.9", "--window", "0,0,10,10") == 2  # BallsOverlap
    # runtime error: corrupt records
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"replication": 0}\n')
    assert run_cli("tessellate", "--in", str(bad), "--property", "delone", "--radius-cap", "1") == 2
    # runtime error: records of the wrong shape, one error line naming the field
    good = tmp_path / "good.ndjson"
    run_cli("sample", "--process", "poisson", "--lambda", "10", "--window", "0,0,1,1", "--out", str(good))
    record = parse_records(good.read_text())[0]
    triangle = {"points": [[0.1, 0.1], [0.5, 0.1], [0.1, 0.5]], "boundary_uncertain": False}
    malformed = {
        "[1, 2]": "object",
        "5": "object",
        json.dumps({**record, "clusters": [triangle, 7]}): "clusters[1]",
        json.dumps({**record, "replication": None}): "replication",
        json.dumps({**record, "window": {**record["window"], "low": 5}}): "window.low",
        json.dumps({**record, "window": {**record["window"], "buffer_margin": [1]}}): "window.buffer_margin",
        json.dumps({**record, "window": {**record["window"], "low": [math.nan, 0.0]}}): "low < high",
        json.dumps({**record, "clusters": [{**triangle, "points": 5}]}): "clusters[0].points",
        json.dumps({**record, "clusters": [{**triangle, "points": [[0.1], [0.5], [0.9]]}]}): "clusters[0].points",
        json.dumps({**record, "clusters": [{**triangle, "boundary_uncertain": [1]}]}): "clusters[0].boundary_uncertain",
        json.dumps({**record, "report": {"violations": 5}}): "report.violations",
        json.dumps({**record, "report": {"covered_fraction": "x"}}): "report.covered_fraction",
        json.dumps({**record, "points": [[0.1, 0.1], [0.5, 0.5]], "multiplicities": [1.5, True]}): "'multiplicities'",
        json.dumps({**record, "points": [["a", 0.1], [0.5, 0.5]], "multiplicities": [1, 1]}): "'points'",
        json.dumps({**record, "points": [[0.1, 0.1], [0.5]], "multiplicities": [1, 1]}): "'points'",
        # integers beyond the float range, or a multiplicity beyond int64
        json.dumps({**record, "points": [[10**400, 0.1], [0.5, 0.5]], "multiplicities": [1, 1]}): "'points'",
        json.dumps({**record, "points": [[0.1, 0.1], [0.5, 0.5]], "multiplicities": [2**63, 1]}): "'multiplicities'",
        json.dumps({**record, "window": {**record["window"], "low": [-(10**400), 0]}}): "window.low",
        json.dumps({**record, "window": {**record["window"], "high": [10**400, 1]}}): "window.high",
        json.dumps({**record, "window": {**record["window"], "buffer_margin": 10**400}}): "window.buffer_margin",
        json.dumps({**record, "clusters": [{**triangle, "points": [[10**400, 0.1], [0.5, 0.1], [0.1, 0.5]]}]}): "clusters[0].points",
    }
    commands = (("tessellate", "--property", "delone", "--radius-cap", "1"), ("validate",), ("render",))
    capsys.readouterr()
    for text, named in malformed.items():
        bad.write_text(text + "\n")
        for argv in commands:
            assert run_cli(*argv, "--in", str(bad), "--out", str(tmp_path / "out")) == 2
            err = capsys.readouterr().err
            assert err.startswith("clustertess: error:") and err.count("\n") == 1
            assert named in err


def test_cli_validate_flags_improper_records(tmp_path):
    improper = {
        "replication": 0,
        "window": {"low": [-5.0, -5.0], "high": [5.0, 5.0], "buffer_margin": 0.0},
        "points": [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0], [3.0, 0.0], [2.0, -1.0]],
        "multiplicities": [1, 1, 1, 1, 1, 1],
        "clusters": [
            {"points": [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], "boundary_uncertain": False},
            {"points": [[1.0, 0.0], [3.0, 0.0], [2.0, -1.0]], "boundary_uncertain": False},
        ],
        "report": None,
    }
    path = tmp_path / "improper.ndjson"
    path.write_text(dump_records([improper]))
    out = tmp_path / "summary.ndjson"
    assert run_cli("validate", "--in", str(path), "--out", str(out)) == 3
    summary = parse_records(out.read_text())[0]
    assert summary["face_to_face"] is False
    assert summary["violations"] == [[0, 1]]


def test_cli_validate_accepts_good_records(tmp_path):
    sample = tmp_path / "pts.ndjson"
    tess = tmp_path / "tess.ndjson"
    run_cli("sample", "--process", "poisson", "--lambda", "40", "--window", "0,0,1,1", "--seed", "2", "--out", str(sample))
    run_cli("tessellate", "--in", str(sample), "--property", "delone", "--radius-cap", "0.3", "--certain-only", "--out", str(tess))
    assert run_cli("validate", "--in", str(tess), "--out", "-") == 0


def test_cli_stats_exit_codes(tmp_path):
    out = tmp_path / "report.ndjson"
    code = run_cli(
        "stats", "--test", "occupation", "--c", "1", "--sites", "1000", "--reps", "10",
        "--seed", "4", "--out", str(out),
    )
    assert code == 0
    payload = parse_records(out.read_text())[0]
    assert payload["passed"] is True


def test_cli_render_deterministic(tmp_path):
    sample = tmp_path / "pts.ndjson"
    run_cli("sample", "--process", "poisson", "--lambda", "20", "--window", "0,0,1,1", "--seed", "5", "--out", str(sample))
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    run_cli("render", "--in", str(sample), "--out", str(svg_a))
    run_cli("render", "--in", str(sample), "--out", str(svg_b))
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().startswith("<?xml")


def test_cli_render_empty_configuration(tmp_path):
    sample = tmp_path / "pts.ndjson"
    run_cli("sample", "--process", "poisson", "--lambda", "1e-9", "--window", "0,0,1,1", "--seed", "5", "--out", str(sample))
    svg = tmp_path / "empty.svg"
    assert run_cli("render", "--in", str(sample), "--out", str(svg)) == 0
    text = svg.read_text()
    assert "<rect" in text  # the window frame
    assert "<circle" not in text


def test_cli_render_hardcore_and_strip(tmp_path):
    sample = tmp_path / "pts.ndjson"
    tess = tmp_path / "hc.ndjson"
    run_cli("sample", "--process", "poisson", "--lambda", "20", "--window", "0,0,1,1", "--seed", "6", "--out", str(sample))
    run_cli("tessellate", "--in", str(sample), "--property", "hardcore", "--radius", "0.1", "--out", str(tess))
    svg = tmp_path / "hc.svg"
    assert run_cli("render", "--in", str(tess), "--style", "hardcore", "--radius", "0.1", "--out", str(svg)) == 0
    assert "steelblue" in svg.read_text()
    lattice = tmp_path / "lattice.ndjson"
    run_cli("sample", "--process", "lattice", "--window", "0,-2,12,2", "--out", str(lattice))
    strip_svg = tmp_path / "strip.svg"
    assert run_cli("render", "--in", str(lattice), "--style", "strip", "--out", str(strip_svg)) == 0
    assert "lightsteelblue" in strip_svg.read_text()
    # missing radius for hardcore style is a config error
    assert run_cli("render", "--in", str(tess), "--style", "hardcore", "--out", str(svg)) == 1


def test_cli_render_circumcircles(tmp_path):
    window = Window((0, 0), (1, 1))
    eta = sample_poisson_homogeneous(20.0, window, 5)
    cfg = extract_clusters(delone_property(0.5), eta)
    tess = tmp_path / "tess.ndjson"
    tess.write_text(dump_records([make_record(0, eta, cfg)]))
    svg = tmp_path / "circles.svg"
    assert run_cli("render", "--in", str(tess), "--show-circumcircles", "--out", str(svg)) == 0
    assert len(cfg) > 0 and svg.read_text().count("goldenrod") == len(cfg)
    # a flat triangle has no circumcircle: a runtime error
    flat = ClusterConfiguration([Cluster([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])], [False], window)
    tess.write_text(dump_records([make_record(0, eta, flat)]))
    assert run_cli("render", "--in", str(tess), "--show-circumcircles", "--out", str(svg)) == 2


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "clustertess", "chain", "--variant", "deterministic", "--range", "0", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["vertices"] == pytest.approx([0.0, 1 + math.sqrt(2), 2 + math.sqrt(2)])
