"""One workload in its own process: set-up, timed loop and output checks.

Started by run.py, which passes the monotonic time at which it spawned
this process (`--t0`), so set-up time counts from process start. The
last line on stdout is one JSON object with the samples and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from types import SimpleNamespace

from spans import LAYERS, Tracer, iteration_metrics, loglog_slope, scaling_rows
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")


def load_library() -> SimpleNamespace:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return SimpleNamespace(**{m: importlib.import_module(f"clustertess.{m}") for m in LAYERS})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Compares each operation's output with the digest recorded for it."""

    def __init__(self, table: dict):
        self.table = table
        self.attempted = 0
        self.failed = 0

    def expected(self, wl, key) -> dict:
        try:
            return self.table[wl.size][wl.name][str(key)]
        except KeyError:
            raise SystemExit(f"no recorded digests for {wl.name} ({wl.size}) input {key}")

    def check(self, wl, key, result) -> None:
        ops = self.expected(wl, key)["ops"]
        self.attempted += len(ops)
        if result is None:
            self.failed += len(ops)
            return
        got = {label: sha256(data) for label, data in wl.outputs(key, result)}
        for label, digest in ops.items():
            if got.get(label) != digest:
                self.failed += 1
                print(f"{wl.name}: output {label!r} of input {key} differs from its recorded digest", file=sys.stderr)


def run_once(wl, key, tracer=None):
    """Run one input; returns (wall seconds, result or None on an exception)."""
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = wl.run(key)
        except Exception:
            traceback.print_exc()
            result = None
        return time.perf_counter() - start, result


def blas_info() -> dict:
    """OpenBLAS version and thread count, read from the loaded library."""
    import numpy as np

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    info["blas_threads"] = getter()
                    if config is not None:
                        config.argtypes, config.restype = [], ctypes.c_char_p
                        info["blas_config"] = config().decode()
                    return info
    return info


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "address_layout": "fixed" if ctypes.CDLL(None).personality(0xFFFFFFFF) & 0x0040000 else "random",
        "platform": platform.platform(),
    }


def record(wl, modules) -> dict:
    """Digests and point counts of every input in the pool."""
    keys = wl.pool()
    wl.prepare(keys)
    table = {}
    for key in keys:
        tracer = Tracer(modules)
        _, result = run_once(wl, key, tracer)
        if result is None:
            raise SystemExit(f"{wl.name} input {key} raised; nothing recorded")
        _, _, counts = tracer.take()
        table[str(key)] = {
            "ops": {label: sha256(data) for label, data in wl.outputs(key, result)},
            "points": wl.points(key, counts),
        }
    return table


def timed_loop(wl, order, seconds, checker, points, tracer=None) -> tuple:
    """Closed loop over the inputs for `seconds`. With a tracer, traced
    and untraced iterations alternate, starting traced."""
    samples, traced = [], []
    at_least = 1 if tracer is None else 2
    start = time.monotonic()
    i = 0
    while len(samples) < at_least or time.monotonic() - start < seconds:
        key = order[i % len(order)]
        use = tracer if tracer is not None and i % 2 == 0 else None
        wall, result = run_once(wl, key, use)
        checker.check(wl, key, result)
        samples.append({"key": key, "wall_s": wall, "points": points[key], "traced": use is not None})
        if use is not None:
            spans, attrs, counts = tracer.take()
            traced.append({"key": key, "wall_s": wall, "spans": spans, "attrs": attrs, "counts": dict(counts)})
        i += 1
    return samples, traced


def trace_metrics(wl, modules, samples, traced, checker, probe) -> tuple:
    """Per-layer metrics: medians over the traced iterations, plus the
    extraction exponent, allocation peak, tracing overhead and error rate."""
    per_iter = [iteration_metrics(t["spans"], t["counts"]) for t in traced]
    metrics = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
    rows = scaling_rows((t["spans"], t["attrs"]) for t in traced)
    metrics["clusterprops.extract_exponent"] = loglog_slope(rows)
    # tracemalloc slows extraction tenfold, so the allocation peak is
    # taken on one more extraction, of the probe input (the pool's
    # largest, the same in every run), whose time is not used
    alloc = 0
    job = wl.extraction(probe)
    if job is not None:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            modules["clusterprops"].extract_clusters(*job)
            alloc = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    metrics["clusterprops.alloc_peak_mb"] = alloc / 2**20
    traced_wall = statistics.median(s["wall_s"] for s in samples if s["traced"])
    plain_wall = statistics.median(s["wall_s"] for s in samples if not s["traced"])
    metrics["trace.overhead"] = traced_wall / plain_wall
    metrics["error_rate"] = checker.failed / checker.attempted
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--t0", type=float, help="monotonic time at which the parent spawned this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="print digests of the whole input pool")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    lib = load_library()
    modules = vars(lib)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](lib, args.size, workdir)
        if args.record:
            print(json.dumps(record(wl, modules)))
            return 0

        with open(DIGESTS) as fh:
            checker = Checker(json.load(fh))
        table = checker.table[wl.size][wl.name]
        points = {int(key): entry["points"] for key, entry in table.items()}
        probe, order = wl.order(args.seed, points)
        wl.prepare([probe, *order])
        warm = WORKLOADS[args.workload](lib, "tiny", workdir)
        warm.prepare([0])
        checker.check(warm, 0, run_once(warm, 0)[1])
        tracer = None
        if args.trace:
            tracer = Tracer(modules)
            with tracer.installed():  # fails loudly on a name that no longer exists
                pass
        setup_s = time.monotonic() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # the first full-size input pays for heap growth and page faults
        # (about 25% on delone_scan), so it runs before timing
        cold_s, result = run_once(wl, probe)
        checker.check(wl, probe, result)
        samples, traced = timed_loop(wl, order, args.seconds, checker, points, tracer)
        out = {
            "setup_s": setup_s,
            "probe": {"key": probe, "wall_s": cold_s},
            "samples": samples,
            "provenance": provenance(),
        }
        if tracer is None:
            # Means over the timed phase, not medians: an iteration takes
            # seconds, so a run holds few of them, and on a shared host their
            # time swings by 20%; the mean of a handful varies less across
            # runs than their median does.
            wall = sum(s["wall_s"] for s in samples)
            out["metrics"] = {
                "wall_s": wall / len(samples),
                "points_per_s": sum(s["points"] for s in samples) / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            out["metrics"], out["scaling"] = trace_metrics(wl, modules, samples, traced, checker, probe)
            spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-{wl.size}-seed{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump(traced, fh)
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
        out["attempted"] = checker.attempted
        out["failed"] = checker.failed
        print(json.dumps(out))
        return 0
    finally:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        os.rmdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
