"""clustertess benchmark.

One workload; the last stdout line is the result object with the keys
correct, attempted, failed and metrics:

    python3 benchmarks/run.py --workload delone_scan --seed 1 --seconds 20 --trace 0

All four workloads, each in fresh processes, with a table of every
end-to-end metric and a BENCH_<tag>.json under .bench_out/:

    python3 benchmarks/run.py --all --seed 1 --tag parent

Self-test (span arithmetic, then every workload at tiny size, traced and
untraced), and re-recording the output digests at the current commit:

    python3 benchmarks/run.py --self-test
    python3 benchmarks/run.py --record-digests [WORKLOAD ...]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off; --trace 1 reports its per-layer metrics from spans.
Set-up time is the fastest of four fresh processes, each timed from
spawn to its first timed call.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3  # set-up-only processes besides the measuring one
# One OpenBLAS thread: the workloads have a single caller, and idle BLAS
# threads spinning on the second core only add noise. A fixed hash seed
# and a fixed address layout (see fixed_layout) make peak RSS repeatable.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
ADDR_NO_RANDOMIZE = 0x0040000
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        raise BenchError(f"BENCHMARK.json lists workloads {names}, workloads.py defines {list(WORKLOADS)}")
    return spec


def fixed_layout() -> None:
    """Turn off address-space randomisation in the worker, before it
    starts. With it on, delone_scan's peak RSS for one and the same input
    is either about 530 or 592 MB, depending on where the heap lands.
    Where the call is refused the worker runs with a random layout; its
    provenance records which."""
    libc = ctypes.CDLL(None)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def worker(args: list, timeout: float) -> dict:
    """Run worker.py in a fresh process; return its last stdout line as JSON."""
    # fixed width, so that argv, and with it the worker's heap layout,
    # does not change from run to run
    cmd = [sys.executable, WORKER, "--t0", f"{time.monotonic():.6f}", *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT, env=WORKER_ENV,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def source_provenance() -> dict:
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload; returns its full record (result object, samples,
    provenance), which is also written under .bench_out/."""
    if not os.path.isdir(os.path.join(ROOT, "src", "clustertess")):
        raise BenchError(f"library sources not found under {os.path.join(ROOT, 'src')}")
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    started = time.monotonic()
    common = ["--workload", name, "--size", size, "--seed", str(seed)]
    setups = [] if trace else [worker([*common, "--setup-only"], 60.0)["setup_s"] for _ in range(SETUP_PROBES)]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    detail = worker([*common, "--seconds", str(seconds), "--trace", str(trace)], remaining)
    setups.append(detail["setup_s"])
    values = dict(detail["metrics"])
    if not trace:
        # the set-up work is fixed, so the fastest set-up is the one
        # least disturbed by the rest of the host
        values["setup_s"] = min(setups)
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "result": result,
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv,
        "setup_samples_s": setups,
        **{k: v for k, v in detail.items() if k not in ("metrics", "setup_s", "attempted", "failed")},
        "provenance": {**source_provenance(), **detail["provenance"]},
    }
    path = os.path.join(OUT_DIR, f"result-{name}-{size}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_table(name: str, result: dict) -> None:
    error_rate = result["failed"] / result["attempted"]
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} error_rate={error_rate:g}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: int, tag: str) -> int:
    records = {}
    for name in WORKLOADS:
        records[name] = run_workload(name, seed, seconds, trace)
        print_table(name, records[name]["result"])
    path = os.path.join(OUT_DIR, f"BENCH_{tag}.json")
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if all(r["result"]["correct"] for r in records.values()) else 1


def self_test() -> int:
    sys.path.insert(0, HERE)
    from spans import iteration_metrics, self_times, union_length

    # nested spans where one child pokes out of its parent, two siblings
    # overlap and one span has zero length
    spans = [
        ["cli.main", 0.0, 10.0, None],
        ["clusterprops.extract_clusters", 1.0, 4.0, 0],
        ["clusterprops.membership", 2.0, 3.0, 1],
        ["tessellation.build_report", 4.0, 9.0, 0],
        ["tessellation.check_face_to_face", 8.0, 9.5, 3],
        ["records.dump_records", 3.5, 4.5, 0],
        ["records.dumps_value", 9.5, 9.5, 0],
    ]
    expected = [2.0, 2.0, 1.0, 4.0, 1.5, 1.0, 0.0]
    got = self_times(spans)
    if any(abs(a - b) > 1e-12 for a, b in zip(got, expected)):
        raise BenchError(f"self times {got}, expected {expected}")
    layers = iteration_metrics(spans, {})
    want = {"cli.self_s": 2.0, "clusterprops.self_s": 3.0, "tessellation.self_s": 5.5, "records.self_s": 1.0,
            "clusterprops.extract_s": 3.0, "records.dump_s": 1.0, "tessellation.face_to_face_s": 1.5}
    if any(abs(layers[k] - v) > 1e-12 for k, v in want.items()) or union_length([(0, 2), (1, 3), (5, 6)]) != 4:
        raise BenchError(f"layer metrics {layers}, expected {want}")
    print("span arithmetic ok")

    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=1.0, trace=trace, size="tiny")["result"]
            if not result["correct"] or result["failed"]:
                raise BenchError(f"{name} (tiny, trace {trace}) failed its output checks")
            print(f"{name} tiny trace={trace} ok ({result['attempted']} operations)")
    return 0


def record_digests(names) -> int:
    """Run every pool input of both sizes and rewrite their entries in
    digests.json."""
    path = os.path.join(HERE, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    for size in ("tiny", "full"):
        for name in names or WORKLOADS:
            table.setdefault(size, {})[name] = worker(["--workload", name, "--size", size, "--record"], 3600.0)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-digests", nargs="*", choices=list(WORKLOADS), metavar="WORKLOAD",
                      help="re-record output digests (of the named workloads, default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--tag", default="run")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.record_digests is not None:
            return record_digests(args.record_digests)
        if args.all:
            return run_all(args.seed, args.seconds, args.trace, args.tag)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(record["result"]))
        return 0
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
