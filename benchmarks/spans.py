"""In-memory span tracer for the benchmark's traced runs.

The library carries no instrumentation, so spans are recorded from
outside: each public function is wrapped where it is bound (for example
`cli.extract_clusters` and `stats.extract_clusters` separately, because
`from .x import f` copies the binding), plus the callables on every
ClusterProperty the property factories build. A span is
`[name, start, end, parent]`; counts sit in a Counter. Both stay in
memory and are written out when the run ends.

Span names are `<layer>.<function>`, the layer being the module that
defines the function. Geometry predicates and random-number draws are
counted but not timed: they run 10^3 to 10^5 times per iteration, and
their time belongs to the layer that calls them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "stats", "clusterprops", "tessellation", "pointproc", "cutproject", "records")

EXTRACT = "clusterprops.extract_clusters"
ENUMERATE = "clusterprops.enumerate_candidates"

# (module where the name is bound, attribute, span name, result hook)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_sample", "cli.cmd_sample", None),
    ("cli", "cmd_tessellate", "cli.cmd_tessellate", None),
    ("cli", "cmd_validate", "cli.cmd_validate", None),
    ("cli", "cmd_chain", "cli.cmd_chain", None),
    ("cli", "cmd_stats", "cli.cmd_stats", None),
    ("cli", "extract_clusters", EXTRACT, "extract"),
    ("stats", "extract_clusters", EXTRACT, "extract"),
    ("clusterprops", "extract_clusters", EXTRACT, "extract"),
    ("cli", "build_report", "tessellation.build_report", None),
    ("tessellation", "check_face_to_face", "tessellation.check_face_to_face", None),
    ("tessellation", "covered_fraction", "tessellation.covered_fraction", None),
    ("cli", "sample_poisson_homogeneous", "pointproc.sample_poisson_homogeneous", "points"),
    ("cli", "sample_poisson_discrete", "pointproc.sample_poisson_discrete", "points"),
    ("cli", "barycentre_shift", "pointproc.barycentre_shift", "points"),
    ("stats", "sample_poisson_homogeneous", "pointproc.sample_poisson_homogeneous", "points"),
    ("stats", "sample_poisson_discrete", "pointproc.sample_poisson_discrete", "points"),
    ("cutproject", "sample_poisson_discrete", "pointproc.sample_poisson_discrete", "points"),
    ("cutproject", "barycentre_shift", "pointproc.barycentre_shift", "points"),
    ("cli", "thinned_chain", "cutproject.thinned_chain", "vertices"),
    ("cli", "shifted_chain", "cutproject.shifted_chain", "vertices"),
    ("cli", "poisson_count_test", "stats.poisson_count_test", None),
    ("cli", "occupation_test", "stats.occupation_test", None),
    ("cli", "cluster_intensity_scan", "stats.cluster_intensity_scan", None),
    ("stats", "cluster_intensity_scan", "stats.cluster_intensity_scan", None),
    ("cli", "tile_length_histogram", "stats.tile_length_histogram", None),
    ("cli", "make_record", "records.make_record", None),
    ("cli", "dump_records", "records.dump_records", "text_out"),
    ("cli", "dumps_value", "records.dumps_value", "text_out"),
    ("cli", "write_text_atomic", "records.write_text_atomic", None),
    ("cli", "read_records_file", "records.read_records_file", None),
    ("cli", "parse_records", "records.parse_records", "text_in"),
    ("records", "parse_records", "records.parse_records", "text_in"),
    ("cli", "record_to_objects", "records.record_to_objects", "points_read"),
)

# (module where the name is bound, attribute, counter)
COUNTERS = (
    ("clusterprops", "circumball", "geometry.circumball.calls"),
    ("tessellation", "common_face_check", "tessellation.pairs_checked"),
    ("tessellation", "hull_contains_points", "tessellation.hull_tests"),
    ("pointproc", "poisson_count", "randomness.poisson_count.calls"),
    ("pointproc", "make_rng", "randomness.make_rng.calls"),
    ("tessellation", "make_rng", "randomness.make_rng.calls"),
    ("stats", "decompose_length", "cutproject.decompose_calls"),
)

# factories whose ClusterProperty callables get wrapped
PROPERTY_FACTORIES = (
    ("cli", "delone_property"),
    ("clusterprops", "delone_property"),
    ("cli", "voronoi_property"),
    ("clusterprops", "voronoi_property"),
)
PROPERTY_CALLABLES = {
    "enumerate_candidates": ENUMERATE,
    "membership": "clusterprops.membership",
    "boundary_uncertain": "clusterprops.boundary_uncertain",
    "certainty_ball": "clusterprops.certainty_ball",
}

# per-layer time metrics: time covered by the union of these spans
UNIONS = {
    "clusterprops.extract_s": (EXTRACT,),
    "clusterprops.enumerate_s": (ENUMERATE,),
    "clusterprops.membership_s": ("clusterprops.membership",),
    "clusterprops.flag_s": ("clusterprops.boundary_uncertain", "clusterprops.certainty_ball"),
    "tessellation.face_to_face_s": ("tessellation.check_face_to_face",),
    "tessellation.coverage_s": ("tessellation.covered_fraction",),
    "pointproc.sample_s": (
        "pointproc.sample_poisson_homogeneous",
        "pointproc.sample_poisson_discrete",
        "pointproc.barycentre_shift",
    ),
    "cutproject.chain_s": ("cutproject.thinned_chain", "cutproject.shifted_chain"),
    "records.dump_s": (
        "records.make_record",
        "records.dump_records",
        "records.dumps_value",
        "records.write_text_atomic",
    ),
    "records.parse_s": ("records.read_records_file", "records.parse_records", "records.record_to_objects"),
}

COUNT_METRICS = (
    "clusterprops.candidates",
    "clusterprops.accepted",
    "clusterprops.uncertain",
    "geometry.circumball.calls",
    "tessellation.pairs_checked",
    "tessellation.hull_tests",
    "pointproc.points",
    "randomness.poisson_count.calls",
    "randomness.make_rng.calls",
    "cutproject.decompose_calls",
    "records.bytes",
)


class TraceTargetMissing(RuntimeError):
    """A name the tracer wraps no longer exists in the library."""


class Tracer:
    """Wraps library names while installed and records spans and counts."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.attrs: dict = {}
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def timed(self, name: str, fn, hook=None):
        after = getattr(self, f"_after_{hook}") if hook else None

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _candidates(self, iterable):
        """Yield the candidates, timing each step of the enumerator as
        its own span so lazily generated candidates count as enumeration."""
        iterator = iter(iterable)
        while True:
            index = self._open(ENUMERATE)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            self.counts["clusterprops.candidates"] += 1
            yield item

    def _enumerate(self, fn):
        timed = self.timed(ENUMERATE, fn)

        def wrapper(eta):
            result = timed(eta)
            if isinstance(result, (list, tuple)):
                self.counts["clusterprops.candidates"] += len(result)
                return result
            return self._candidates(result)

        return wrapper

    def _factory(self, fn):
        def wrapper(*args, **kwargs):
            prop = fn(*args, **kwargs)
            changes = {}
            for field, name in PROPERTY_CALLABLES.items():
                member = getattr(prop, field)
                if member is not None:
                    changes[field] = self._enumerate(member) if name == ENUMERATE else self.timed(name, member)
            return dataclasses.replace(prop, **changes)

        return wrapper

    # -- result hooks -------------------------------------------------------

    def _after_extract(self, index, args, cfg):
        eta = args[1]
        self.attrs[index] = {
            "n": int(eta.n_atoms),
            "side": float(eta.window.extent()[0]),
            "nested": any(self.spans[i][0] == EXTRACT for i in self._stack),
        }
        self.counts["clusterprops.accepted"] += len(cfg)
        self.counts["clusterprops.uncertain"] += sum(cfg.boundary_uncertain)

    def _after_points(self, index, args, eta):
        self.counts["pointproc.points"] += int(eta.n_atoms)

    def _after_vertices(self, index, args, chain):
        self.counts["cutproject.vertices"] += len(chain.vertices)

    def _after_text_out(self, index, args, text):
        self.counts["records.bytes"] += len(text)

    def _after_text_in(self, index, args, records):
        self.counts["records.bytes"] += len(args[0])

    def _after_points_read(self, index, args, objects):
        self.counts["records.points_read"] += int(objects[0].n_atoms)

    # -- installation -------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = self.modules[module_name]
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceTargetMissing(
                f"clustertess.{module_name}.{attr} no longer exists; update benchmarks/spans.py"
            )
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            self._patch(module, attr, lambda fn, name=name, hook=hook: self.timed(name, fn, hook))
        for module, attr, counter in COUNTERS:
            self._patch(module, attr, lambda fn, counter=counter: self.counted(counter, fn))
        for module, attr in PROPERTY_FACTORIES:
            self._patch(module, attr, self._factory)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def take(self):
        """Return and clear the spans, attributes and counts recorded so far."""
        taken = (list(self.spans), dict(self.attrs), Counter(self.counts))
        self.spans.clear()
        self.attrs.clear()
        self.counts.clear()
        return taken


# -- arithmetic ---------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[index]]
        out.append((end - start) - union_length(clipped))
    return out


def iteration_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced iteration."""
    metrics = {}
    for metric, names in UNIONS.items():
        metrics[metric] = union_length((s, e) for name, s, e, _ in spans if name in names)
    selfs = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for (name, _, _, _), t in zip(spans, selfs) if name.split(".", 1)[0] == layer
        )
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    candidates = metrics["clusterprops.candidates"]
    accepted = metrics["clusterprops.accepted"]
    metrics["clusterprops.accept_ratio"] = accepted / candidates if candidates else 0.0
    metrics["geometry.circumball_per_cluster"] = (
        metrics["geometry.circumball.calls"] / accepted if accepted else 0.0
    )
    return metrics


def scaling_rows(traced) -> list:
    """One row per window side: mean n and median time of the outermost
    extract_clusters calls on that side."""
    by_side = defaultdict(list)
    for spans, attrs in traced:
        for index, info in attrs.items():
            if not info["nested"]:
                _, start, end, _ = spans[index]
                by_side[info["side"]].append((info["n"], end - start))
    return [
        {
            "side": side,
            "n": statistics.fmean(n for n, _ in rows),
            "extract_s": statistics.median(t for _, t in rows),
            "calls": len(rows),
        }
        for side, rows in sorted(by_side.items())
    ]


def loglog_slope(rows) -> float:
    """Least-squares slope of log(extract_s) against log(n); 0 when
    fewer than two window sides were extracted."""
    pts = [(math.log(r["n"]), math.log(r["extract_s"])) for r in rows if r["n"] > 0 and r["extract_s"] > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
