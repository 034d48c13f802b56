"""The benchmark's four workloads.

Each workload draws its inputs from a fixed pool of library seeds whose
outputs were recorded in `digests.json`; the benchmark seed picks the
order in which a run walks the pool. Every workload is a closed
loop with one caller: an iteration starts when the previous one ends.

Why these four (each stresses a different layer):

- delone_scan: the intensity scan of criterion 11 and `stats --test
  intensity`. Large cap (cap * sqrt(lambda) ~ 3.5), so candidate
  generation in `clusterprops` does nearly all the work and sets peak
  RSS; `tessellation` and `records` stay idle.
- tess_pipeline: CLI sample -> tessellate -> validate at lambda 200
  with a small cap (cap * sqrt(lambda) ~ 1.4), so `check_face_to_face`
  in `tessellation` dominates; records are written and parsed. The
  window is 1x1 (~200 points, ~2.3 s an iteration) rather than 2x2
  (~800 points, ~12 s), so a run holds enough iterations to be steady.
- sampling_chains: many tiny configurations through `pointproc`,
  `randomness`, `cutproject`, `records` and `stats`; never enters
  `clusterprops` or `tessellation`.
- voronoi_cells: FOR_CONFIGURATION extraction with a cap of twice the
  window diameter, so candidate pruning degenerates to all triples, and
  the `_voronoi_cells` cache is hit by membership and flagging.
"""

from __future__ import annotations

import os
import random

import numpy as np


def _cluster_text(cfg) -> bytes:
    """Canonical text of a cluster configuration: one line per cluster,
    its flag and the exact coordinates of its points."""
    lines = []
    for cluster, uncertain in zip(cfg.clusters, cfg.boundary_uncertain):
        coords = " ".join(float(c).hex() for p in cluster.points for c in p)
        lines.append(f"{int(bool(uncertain))} {coords}")
    return "\n".join(lines).encode()


def _verdict_text(report) -> bytes:
    fields = (report.name, repr(report.statistic), repr(report.threshold), report.n_samples, report.passed, report.details)
    return "|".join(str(f) for f in fields).encode()


class Workload:
    name = ""
    # tracer counters whose sum is the number of points an input pushes
    # through: points sampled, read from records, or chained
    point_counters: tuple = ()

    def __init__(self, lib, size: str, workdir: str):
        self.lib = lib
        self.size = size
        self.workdir = workdir
        self.params = self.SIZES[size]

    def pool(self) -> list:
        return list(range(self.params["pool"]))

    def order(self, seed: int, points: dict) -> tuple:
        """The pool's largest input, run once before timing, and the rest
        of the pool shuffled by the seed. Running the largest input in
        every run keeps peak RSS from depending on the seed."""
        keys = self.pool()
        probe = max(keys, key=lambda k: (points[k], -k))
        keys.remove(probe)
        random.Random(seed).shuffle(keys)
        return probe, keys

    def prepare(self, keys) -> None:
        """Generate inputs ahead of the timed phase."""

    def run(self, key):
        raise NotImplementedError

    def outputs(self, key, result) -> list:
        """(label, bytes) pairs whose digests are checked."""
        raise NotImplementedError

    def points(self, key, counts) -> int:
        return sum(counts.get(c, 0) for c in self.point_counters)

    def extraction(self, key):
        """(property, configuration) of the workload's largest single
        extract_clusters call, or None when it extracts nothing."""
        return None


class DeloneScan(Workload):
    name = "delone_scan"
    point_counters = ("pointproc.points",)
    SIZES = {
        "full": {"lam": 50.0, "cap": 0.5, "sides": [1.0, 2.0, 3.0], "reps": 2, "pool": 40},
        "tiny": {"lam": 8.0, "cap": 0.5, "sides": [1.0, 2.0, 3.0], "reps": 2, "pool": 8},
    }

    def run(self, key):
        # the scan returns only its verdict, so the cluster sets it
        # extracts are captured where stats binds extract_clusters
        stats, p = self.lib.stats, self.params
        captured = []
        extract = stats.extract_clusters

        def capture(prop, eta, *args, **kwargs):
            cfg = extract(prop, eta, *args, **kwargs)
            captured.append(cfg)
            return cfg

        stats.extract_clusters = capture
        try:
            prop = self.lib.clusterprops.delone_property(p["cap"])
            report = stats.cluster_intensity_scan(prop, p["lam"], p["sides"], p["reps"], key)
        finally:
            stats.extract_clusters = extract
        return report, captured

    def extraction(self, key):
        # the scan's first replication on its largest window, drawn with
        # the seed cluster_intensity_scan gives it
        pp, p = self.lib.pointproc, self.params
        side = p["sides"][-1]
        seed = self.lib.cli.mix_seed(key, (len(p["sides"]) - 1) * p["reps"])
        eta = pp.sample_poisson_homogeneous(p["lam"], pp.Window((0.0, 0.0), (side, side)), seed)
        return self.lib.clusterprops.delone_property(p["cap"]), eta

    def outputs(self, key, result):
        report, captured = result
        return [("verdict", _verdict_text(report)), ("clusters", b"\n\n".join(map(_cluster_text, captured)))]


class VoronoiCells(Workload):
    """Intensity lambda on the unit window, conditioned on exactly lambda
    points: extraction cost grows like n^2.6 here, so a Poisson count
    would make the input, not the code, set most of the run-to-run spread."""

    name = "voronoi_cells"
    SIZES = {"full": {"n": 100, "pool": 64}, "tiny": {"n": 15, "pool": 8}}

    def prepare(self, keys):
        pp = self.lib.pointproc
        self.window = pp.Window((0.0, 0.0), (1.0, 1.0))
        self.configs = {
            k: pp.PointConfiguration(np.random.default_rng(k).random((self.params["n"], 2)), None, self.window)
            for k in set(keys)
        }

    def run(self, key):
        cp = self.lib.clusterprops
        return cp.extract_clusters(cp.voronoi_property(self.window), self.configs[key])

    def outputs(self, key, result):
        return [("clusters", _cluster_text(result))]

    def points(self, key, counts):
        return int(self.configs[key].n_atoms)

    def extraction(self, key):
        return self.lib.clusterprops.voronoi_property(self.window), self.configs[key]


class _CliWorkload(Workload):
    """Workload made of in-process `cli.main` calls writing to files."""

    def commands(self, key) -> list:
        """(label, argv) pairs; each argv's last item is its output file."""
        raise NotImplementedError

    def _path(self, label: str) -> str:
        return os.path.join(self.workdir, f"{self.name}.{label}")

    def run(self, key):
        cli = self.lib.cli
        return [cli.main(argv) for _, argv in self.commands(key)]

    def outputs(self, key, codes):
        out = []
        for (label, argv), code in zip(self.commands(key), codes):
            path = argv[-1]
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                os.unlink(path)
            except FileNotFoundError:
                data = b"<missing>"
            out.append((label, f"exit {code}\n".encode() + data))
        return out


class TessPipeline(_CliWorkload):
    name = "tess_pipeline"
    point_counters = ("pointproc.points", "records.points_read")
    SIZES = {
        "full": {"lam": "200", "window": "0,0,1,1", "cap": "0.1", "pool": 48},
        "tiny": {"lam": "20", "window": "0,0,1,1", "cap": "0.2", "pool": 8},
    }

    def extraction(self, key):
        pp, p = self.lib.pointproc, self.params
        low_high = [float(c) for c in p["window"].split(",")]
        window = pp.Window(tuple(low_high[:2]), tuple(low_high[2:]))
        # the configuration `sample --seed key` writes as replication 0
        eta = pp.sample_poisson_homogeneous(float(p["lam"]), window, self.lib.cli.mix_seed(key, 0))
        return self.lib.clusterprops.delone_property(float(p["cap"])), eta

    def commands(self, key):
        p, seed = self.params, str(key)
        sample, tess, valid = self._path("sample"), self._path("tessellate"), self._path("validate")
        return [
            ("sample", ["sample", "--process", "poisson", "--lambda", p["lam"], "--window", p["window"],
                        "--seed", seed, "--out", sample]),
            ("tessellate", ["tessellate", "--in", sample, "--property", "delone", "--radius-cap", p["cap"],
                            "--certain-only", "--seed", seed, "--out", tess]),
            ("validate", ["validate", "--in", tess, "--seed", seed, "--out", valid]),
        ]


class SamplingChains(_CliWorkload):
    name = "sampling_chains"
    point_counters = ("pointproc.points", "cutproject.vertices")
    # The shifted-chain range keeps barycentre_shift's O(sites^2) pdist
    # near 60 MB (about 3,900 sites at 0..6000).
    SIZES = {
        "full": {"count_reps": "10000", "sites": "2000", "occ_reps": "50", "thin_hi": "20000",
                 "shift_hi": "6000", "sample_reps": "2000", "pool": 64},
        "tiny": {"count_reps": "1000", "sites": "1000", "occ_reps": "10", "thin_hi": "500",
                 "shift_hi": "200", "sample_reps": "20", "pool": 8},
    }

    def commands(self, key):
        p, seed = self.params, str(key)
        return [
            ("poisson_count", ["stats", "--test", "poisson-count", "--lambda", "5", "--window", "0,0,1,1",
                               "--reps", p["count_reps"], "--seed", seed, "--out", self._path("count")]),
            ("occupation", ["stats", "--test", "occupation", "--c", "0.5", "--sites", p["sites"],
                            "--reps", p["occ_reps"], "--seed", seed, "--out", self._path("occupation")]),
            ("thinned", ["chain", "--variant", "thinned", "--c", "0.05", "--range", "0", p["thin_hi"],
                         "--histogram-tol", "1e-9", "--seed", seed, "--out", self._path("thinned")]),
            ("shifted", ["chain", "--variant", "shifted", "--epsilon", "0.2", "--base-lambda", "5",
                         "--range", "0", p["shift_hi"], "--seed", seed, "--out", self._path("shifted")]),
            ("sample", ["sample", "--process", "poisson", "--lambda", "5", "--window", "0,0,1,1",
                        "--replications", p["sample_reps"], "--seed", seed, "--out", self._path("sample")]),
        ]


WORKLOADS = {cls.name: cls for cls in (DeloneScan, TessPipeline, SamplingChains, VoronoiCells)}
