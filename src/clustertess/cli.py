"""Experiment runner.

Subcommands: sample, tessellate, validate, chain, stats, render.
Options may come from a flat key=value config file (--config); explicit
command-line flags win. The environment variable CLUSTER_TESS_SEED
provides the default seed.

Exit codes: 0 ok, 1 config error, 2 runtime error, 3 test failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import lru_cache, partial

import numpy as np

from .clusterprops import delone_property, extract_clusters, hardcore_property, voronoi_property
from .cutproject import _embed, _window_indices, deterministic_chain, shifted_chain, thinned_chain
from .errors import ClusterTessError, ConfigError
from .pointproc import (
    DiscreteIntensity,
    Window,
    barycentre_shift,
    canonical_atoms,
    deterministic_lattice,
    poisson_discrete_atoms,
    poisson_homogeneous_replications,
    replicate,
    sample_poisson_discrete,  # noqa: F401 -- bound here, where the benchmark's tracer wraps it
    sample_poisson_homogeneous,
)
from .randomness import mix_seed
from .records import (
    dump_configurations,
    dump_records,
    dumps_value,
    make_record,
    parse_records,
    read_records_file,
    record_to_objects,
    report_to_dict,
    write_text_atomic,
)
from .render import render_record
from .stats import cluster_intensity_scan, occupation_test, poisson_count_test, tile_length_histogram
from .tessellation import build_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_TESTFAIL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _Resolver:
    """Value lookup: command line first, then the config file."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, cast, default=None, required: bool = False):
        attr = {"lambda": "lam", "in": "input_path"}.get(key, key.replace("-", "_"))
        value = getattr(self.args, attr, None)
        if value is None and key in self.config:
            raw = self.config[key]
            try:
                value = cast(raw) if cast is not bool else raw.strip().lower() in ("1", "true", "yes")
            except ValueError as exc:
                raise ConfigError(f"bad config value {key}={raw!r}: {exc}") from exc
        if value is None:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{key}")
        return value

    def seed(self) -> int:
        value = self.get("seed", int)
        if value is None:
            env = os.environ.get("CLUSTER_TESS_SEED")
            value = int(env) if env else 0
        return value


def _read_config_file(path: str) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    config = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _parse_floats(text: str, what: str) -> list:
    """The comma-separated numbers of text; a ConfigError naming `what` otherwise."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def _parse_window(text: str, margin: float) -> Window:
    parts = _parse_floats(text, "window")
    if len(parts) % 2 != 0 or not parts:
        raise ConfigError(f"window needs an even number of coordinates, got {text!r}")
    d = len(parts) // 2
    return Window(tuple(parts[:d]), tuple(parts[d:]), margin)  # `main` reports a ValueError as a config error


def _emit(out_path, text: str) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        write_text_atomic(out_path, text)


def _read_input(path) -> list:
    if path in (None, "-"):
        return parse_records(sys.stdin.read())
    if not os.path.exists(path):
        raise ConfigError(f"input records not found: {path}")
    return read_records_file(path)


def _silver_sites(window: Window) -> np.ndarray:
    """The embedded silver-mean lattice points in a planar window, sorted
    by (u, v) as `lattice_sites_in_window` lists them."""
    if window.dimension != 2:
        raise ConfigError("lattice-based processes need a planar window")
    return _embed(*_window_indices(window))


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    margin = res.get("buffer-margin", float, 0.0)
    window = _parse_window(res.get("window", str, required=True), margin)
    process = res.get("process", str, required=True)
    reps = res.get("replications", int, 1)
    seed = res.seed()
    # every replication's atoms, stacked, then ordered, checked and written at once
    points, mult, sizes = _sampler(res, process, window)(seed, reps)
    points, mult = canonical_atoms(points, mult, window, sizes)
    _emit(res.get("out", str), dump_configurations(window, points, mult, sizes))
    return EXIT_OK


def _sampler(res, process: str, window: Window):
    """The replications of `process` in window from a base seed: a
    function of (seed, count) that returns stacked (points,
    multiplicities, sizes) arrays, each replication's atoms in any order;
    all else is resolved once."""
    if process == "poisson":
        lam = res.get("lambda", float, required=True)
        return partial(poisson_homogeneous_replications, lam, window)
    if process == "poisson_discrete":
        c = res.get("c", float, required=True)
        rho = DiscreteIntensity(_silver_sites(window), c)
        draw = partial(poisson_discrete_atoms, rho)
    elif process == "lattice":
        eta = deterministic_lattice(_silver_sites(window), window)

        def draw(rng):
            return eta.points, eta.multiplicities

    elif process == "barycentre":
        lam = res.get("lambda", float, required=True)
        epsilon = res.get("epsilon", float, required=True)
        try:
            inner = window.erode(epsilon)
        except ValueError as exc:
            raise ConfigError(f"epsilon too large for the window: {exc}") from exc
        sites = _silver_sites(inner)

        def draw(rng):
            eta = barycentre_shift(sample_poisson_homogeneous(lam, window, rng), sites, epsilon)
            return eta.points, eta.multiplicities

    else:
        raise ConfigError(f"unknown process {process!r}")
    return partial(replicate, draw, window.dimension)


def _build_property(res, window: Window):
    name = res.get("property", str, required=True)
    open_ball = bool(res.get("open-ball-mode", bool, False))
    if name == "hardcore":
        return hardcore_property(res.get("radius", float, required=True))
    if name == "delone":
        return delone_property(res.get("radius-cap", float, required=True), open_ball_mode=open_ball)
    if name == "voronoi":
        return voronoi_property(window, open_ball_mode=open_ball)
    raise ConfigError(f"unknown property {name!r}")


def cmd_tessellate(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    records = _read_input(res.get("in", str))
    certain_only = bool(res.get("certain-only", bool, False))
    n_samples = res.get("coverage-samples", int, 2000)
    seed = res.seed()
    out_records = []
    for rec in records:
        eta, _, _ = record_to_objects(rec)
        prop = _build_property(res, eta.window)
        cfg = extract_clusters(prop, eta)
        if certain_only:
            cfg = cfg.certain()
        report = build_report(cfg, n_samples, mix_seed(seed, int(rec["replication"])))
        out_records.append(make_record(int(rec["replication"]), eta, cfg, report))
    _emit(res.get("out", str), dump_records(out_records))
    return EXIT_OK


def cmd_validate(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    records = _read_input(res.get("in", str))
    n_samples = res.get("coverage-samples", int, 2000)
    seed = res.seed()
    lines = []
    failed = False
    for rec in records:
        eta, cfg, _ = record_to_objects(rec)
        if cfg is None:
            raise ConfigError("records carry no clusters; run tessellate first")
        report = build_report(cfg, n_samples, mix_seed(seed, int(rec["replication"])))
        if report.face_to_face is False:
            failed = True
        lines.append({"replication": int(rec["replication"]), **report_to_dict(report)})
    _emit(res.get("out", str), "".join(dumps_value(line) + "\n" for line in lines))
    return EXIT_TESTFAIL if failed else EXIT_OK


def cmd_chain(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    rng_value = res.get("range", str, required=True)
    if isinstance(rng_value, (list, tuple)):
        parts = [str(x) for x in rng_value]
    else:
        parts = rng_value.replace(",", " ").split()
    try:
        x_lo, x_hi = map(float, parts)
    except ValueError as exc:
        raise ConfigError(f"--range needs two numbers, got {rng_value!r}: {exc}") from exc
    variant = res.get("variant", str, "deterministic")
    seed = res.seed()
    if variant == "deterministic":
        chain = deterministic_chain(x_lo, x_hi)
    elif variant == "thinned":
        chain = thinned_chain(res.get("c", float, required=True), x_lo, x_hi, seed)
    elif variant == "shifted":
        lam = res.get("base-lambda", float, 5.0)
        chain = shifted_chain(
            res.get("epsilon", float, required=True),
            partial(sample_poisson_homogeneous, lam),
            x_lo, x_hi, seed,
        )
    else:
        raise ConfigError(f"unknown chain variant {variant!r}")
    vertices = np.array(chain.vertices, dtype=float)
    payload = {
        "variant": variant,
        "x_lo": x_lo,
        "x_hi": x_hi,
        "vertices": vertices,
        "tiles": np.diff(vertices),  # chain.tiles, as an array
    }
    tol = res.get("histogram-tol", float)
    if tol is not None:
        hist = tile_length_histogram(chain, tol)
        payload["tile_histogram"] = {
            f"{n}+{m}*sqrt2": count for (n, m), count in hist.counts.items()
        }
        payload["undecomposed"] = list(hist.undecomposed)
        payload["ambiguous"] = list(hist.ambiguous)
    _emit(res.get("out", str), dumps_value(payload) + "\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    test = res.get("test", str, required=True)
    seed = res.seed()
    if test == "poisson-count":
        report = poisson_count_test(
            res.get("lambda", float, required=True),
            _parse_window(res.get("window", str, required=True), 0.0),
            res.get("reps", int, 10_000),
            seed,
        )
    elif test == "occupation":
        report = occupation_test(
            res.get("c", float, required=True),
            res.get("sites", int, 1000),
            res.get("reps", int, 10),
            seed,
        )
    elif test == "intensity":
        sizes = _parse_floats(res.get("window-sizes", str, "1,2,3"), "window sizes")
        dimension = res.get("dimension", int, 2)
        name = res.get("property", str, required=True)
        if name == "hardcore":
            prop = hardcore_property(res.get("radius", float, required=True))
        elif name == "delone":
            prop = delone_property(res.get("radius-cap", float, required=True))
        else:
            raise ConfigError(f"intensity scan supports hardcore or delone, got {name!r}")
        report = cluster_intensity_scan(
            prop,
            res.get("lambda", float, required=True),
            sizes,
            res.get("reps", int, 20),
            seed,
            dimension=dimension,
        )
    else:
        raise ConfigError(f"unknown stats test {test!r}")
    _emit(res.get("out", str), dumps_value(dataclasses.asdict(report)) + "\n")
    return EXIT_OK if report.passed else EXIT_TESTFAIL


def cmd_render(args) -> int:
    res = _Resolver(args, _read_config_file(args.config))
    records = _read_input(res.get("in", str))
    index = res.get("replication", int, 0)
    if not 0 <= index < len(records):
        raise ConfigError(f"replication index {index} outside 0..{len(records) - 1}")
    svg = render_record(
        records[index],
        style=res.get("style", str, "points"),
        radius=res.get("radius", float),
        show_circumcircles=bool(res.get("show-circumcircles", bool, False)),
    )
    _emit(res.get("out", str), svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument("--seed", type=int, help="base seed (default: $CLUSTER_TESS_SEED or 0)")
    sub.add_argument("--out", help="output path, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clustertess", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample point configurations into a records file")
    p.add_argument("--process", choices=["poisson", "poisson_discrete", "lattice", "barycentre"])
    p.add_argument("--lambda", dest="lam", type=float, help="Poisson intensity")
    p.add_argument("--c", type=float, help="per-site mass of the discrete intensity")
    p.add_argument("--epsilon", type=float, help="barycentre shift radius")
    p.add_argument("--window", help="low and high corners, e.g. 0,0,1,1")
    p.add_argument("--buffer-margin", type=float)
    p.add_argument("--replications", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tessellate", help="extract clusters and report on the tessellation")
    p.add_argument("--in", dest="input_path", help="records file, '-' for stdin (default)")
    p.add_argument("--property", choices=["hardcore", "delone", "voronoi"])
    p.add_argument("--radius", type=float, help="hard-core radius r")
    p.add_argument("--radius-cap", type=float, help="circumradius cap R")
    p.add_argument("--open-ball-mode", action="store_true", default=None)
    p.add_argument("--certain-only", action="store_true", default=None)
    p.add_argument("--coverage-samples", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("validate", help="re-check tessellation reports of existing records")
    p.add_argument("--in", dest="input_path")
    p.add_argument("--coverage-samples", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chain", help="build a silver-mean chain variant")
    p.add_argument("--variant", choices=["deterministic", "thinned", "shifted"])
    p.add_argument("--range", nargs=2, metavar=("LO", "HI"))
    p.add_argument("--c", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--base-lambda", type=float)
    p.add_argument("--histogram-tol", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("stats", help="run a statistical verification test")
    p.add_argument("--test", choices=["poisson-count", "occupation", "intensity"])
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--window")
    p.add_argument("--reps", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--sites", type=int)
    p.add_argument("--property", choices=["hardcore", "delone"])
    p.add_argument("--radius", type=float)
    p.add_argument("--radius-cap", type=float)
    p.add_argument("--window-sizes")
    p.add_argument("--dimension", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="draw a record as a deterministic SVG")
    p.add_argument("--in", dest="input_path")
    p.add_argument("--style", choices=["points", "hardcore", "strip"])
    p.add_argument("--radius", type=float)
    p.add_argument("--replication", type=int)
    p.add_argument("--show-circumcircles", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_render)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except ValueError as exc:  # these read no records, so an option value is at fault
            if args.func not in (cmd_sample, cmd_chain, cmd_stats):
                raise
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"clustertess: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ClusterTessError, ValueError, KeyError, OSError) as exc:
        print(f"clustertess: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
