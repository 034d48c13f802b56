"""Newline-delimited records: one JSON object per replication.

Coordinates are written as 17-significant-digit decimals, which
round-trip IEEE doubles exactly, and dictionary keys keep a fixed
order, so identical runs produce byte-identical files. A record built
by `make_record` holds its coordinates and multiplicities as numpy
arrays, and each array's text is made in one formatting pass;
`dump_configurations` writes many configuration-only records in one.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .clusterprops import ClusterConfiguration
from .geometry import Cluster
from .pointproc import PointConfiguration, Window
from .tessellation import TessellationReport


# the string encoder json.dumps uses
_encode_str = json.encoder.encode_basestring_ascii


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"records hold finite numbers only, got {x}")
    return format(float(x), ".17g")


def _array_text(value: np.ndarray) -> str:
    """JSON text of an int or float array: nested lists, its values
    formatted in one `%` pass ("%.17g" gives format(x, ".17g"))."""
    item = "%d"
    if value.dtype.kind == "f":
        _check_finite(value)
        item = "%.17g"
    for size in reversed(value.shape):
        item = "[" + ",".join([item] * size) + "]"
    return item % tuple(value.ravel().tolist())


def _check_finite(value: np.ndarray) -> None:
    finite = np.isfinite(value)
    if not finite.all():
        _fmt_float(float(value[~finite][0]))  # raises the ValueError


def dumps_value(value) -> str:
    """Serialize to JSON text with deterministic float formatting."""
    if type(value) is float:  # exact types first: the bulk of a record
        return _fmt_float(value)
    if type(value) is np.ndarray and value.dtype.kind in "fiu":
        return _array_text(value)
    if type(value) is list:
        return "[" + ",".join(dumps_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_encode_str(str(k))}:{dumps_value(v)}" for k, v in value.items()) + "}"
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def window_to_dict(window: Window) -> dict:
    return {
        "low": list(window.low),
        "high": list(window.high),
        "buffer_margin": float(window.buffer_margin),
    }


def window_from_dict(data: dict) -> Window:
    return Window(tuple(data["low"]), tuple(data["high"]), float(data["buffer_margin"]))


def report_to_dict(report: TessellationReport) -> dict:
    return {
        "face_to_face": report.face_to_face,
        "violations": [list(v) for v in report.violations],
        "simplicial": report.simplicial,
        "covered_fraction": report.covered_fraction,
        "coverage_se": report.coverage_se,
        "holes_detected": report.holes_detected,
    }


def report_from_dict(data: dict) -> TessellationReport:
    return TessellationReport(
        face_to_face=data.get("face_to_face"),
        violations=tuple((int(i), int(j)) for i, j in data.get("violations", [])),
        simplicial=data.get("simplicial"),
        covered_fraction=data.get("covered_fraction"),
        coverage_se=data.get("coverage_se"),
        holes_detected=data.get("holes_detected"),
    )


def make_record(
    replication: int,
    eta: PointConfiguration,
    clusters: Optional[ClusterConfiguration] = None,
    report: Optional[TessellationReport] = None,
) -> dict:
    record = {
        "replication": int(replication),
        "window": window_to_dict(eta.window),
        "points": eta.points,
        "multiplicities": eta.multiplicities,
        "clusters": None,
        "report": None,
    }
    if clusters is not None:
        rows, ends = clusters.points, clusters.offsets.tolist()
        record["clusters"] = [
            {"points": rows[a:b], "boundary_uncertain": u}
            for a, b, u in zip(ends, ends[1:], clusters.uncertain.tolist())
        ]
    if report is not None:
        record["report"] = report_to_dict(report)
    return record


_FLOAT_MAX = float(np.finfo(float).max)


def _is_number(value) -> bool:
    """A float, or an int that converts to one without OverflowError."""
    return type(value) is float or (type(value) is int and abs(value) <= _FLOAT_MAX)


def _is_coordinate_list(value) -> bool:
    return type(value) is list and all(map(_is_number, value))


def _is_point_list(value) -> bool:
    """A list of coordinate lists, all of one length, or the (n, d)
    float array `make_record` puts there."""
    if type(value) is np.ndarray:
        return value.ndim == 2 and value.dtype == np.float64
    return type(value) is list and all(map(_is_coordinate_list, value)) and len(set(map(len, value))) <= 1


def _is_integer_list(value) -> bool:
    """A list of ints that each fit an int64, or the int64 array
    `make_record` puts there."""
    if type(value) is np.ndarray:
        return value.ndim == 1 and value.dtype == np.int64
    return type(value) is list and all(type(v) is int and -(2**63) <= v < 2**63 for v in value)


def _is_flag(value) -> bool:
    return value is None or type(value) is bool


def _is_optional_number(value) -> bool:
    return value is None or _is_number(value)


def _is_index_pairs(value) -> bool:
    return type(value) is list and all(
        type(p) is list and len(p) == 2 and all(type(i) is int for i in p) for p in value
    )


# the JSON content each record field, window field, cluster field and
# report field may hold; a report field may also be absent, which reads
# as its default
_RECORD_FIELDS = {
    "replication": lambda v: type(v) is int,
    "window": lambda v: type(v) is dict,
    "points": _is_point_list,
    "multiplicities": lambda v: v is None or _is_integer_list(v),
    "clusters": lambda v: v is None or type(v) is list,
    "report": lambda v: v is None or type(v) is dict,
}
_WINDOW_FIELDS = {"low": _is_coordinate_list, "high": _is_coordinate_list, "buffer_margin": _is_number}
_CLUSTER_FIELDS = {"points": _is_point_list, "boundary_uncertain": lambda v: type(v) is bool}
_REPORT_FIELDS = {
    "face_to_face": _is_flag, "violations": _is_index_pairs, "simplicial": _is_flag,
    "covered_fraction": _is_optional_number, "coverage_se": _is_optional_number, "holes_detected": _is_flag,
}


def _show(value) -> str:
    """The start of a value's JSON text, for an error message; a value
    JSON cannot hold, such as an array of an in-memory record, as str()."""
    return json.dumps(value, default=str)[:40]


def _check_shape(record) -> None:
    """Raise ValueError naming the first field of a parsed record whose
    JSON content `record_to_objects` cannot take: the points, the
    multiplicities, the window, each cluster (its points in the window's
    dimension) and the report included."""
    if type(record) is not dict:
        raise ValueError(f"a record must be a JSON object, got {_show(record)}")
    for field, valid in _RECORD_FIELDS.items():
        if not valid(record.get(field)):
            raise ValueError(f"record field {field!r} cannot be {_show(record.get(field))}")
    for key, valid in _WINDOW_FIELDS.items():
        value = record["window"].get(key)
        if not valid(value):
            raise ValueError(f"record field 'window.{key}' cannot be {_show(value)}")
    for k, entry in enumerate(record.get("clusters") or ()):
        if type(entry) is not dict:
            raise ValueError(f"record field 'clusters[{k}]' must be a JSON object, got {_show(entry)}")
        for key, valid in _CLUSTER_FIELDS.items():
            value = entry.get(key)
            if not valid(value):
                raise ValueError(f"record field 'clusters[{k}].{key}' cannot be {_show(value)}")
        if len(entry["points"]) and len(entry["points"][0]) != len(record["window"]["low"]):
            raise ValueError(f"record field 'clusters[{k}].points' must have the window's dimension")
    report = record.get("report") or {}
    for key, valid in _REPORT_FIELDS.items():
        if key in report and not valid(report[key]):
            raise ValueError(f"record field 'report.{key}' cannot be {_show(report[key])}")


def record_to_objects(
    record: dict,
) -> Tuple[PointConfiguration, Optional[ClusterConfiguration], Optional[TessellationReport]]:
    _check_shape(record)
    window = window_from_dict(record["window"])
    eta = PointConfiguration(record["points"], record["multiplicities"], window)
    clusters = None
    if record.get("clusters") is not None:
        clusters = ClusterConfiguration(
            [Cluster(c["points"]) for c in record["clusters"]],
            [bool(c["boundary_uncertain"]) for c in record["clusters"]],
            window,
        )
    report = None
    if record.get("report") is not None:
        report = report_from_dict(record["report"])
    return eta, clusters, report


def dump_records(records: Iterable[dict]) -> str:
    return "".join(dumps_value(r) + "\n" for r in records)


def dump_configurations(window: Window, points: np.ndarray, multiplicities: np.ndarray, sizes: Sequence[int]) -> str:
    """The text dump_records gives the records make_record(r, eta_r) of
    consecutive replications r = 0, 1, ..., whose canonical atoms are
    stacked in points (n, d) and multiplicities (n,), sizes[r] atoms
    each (`pointproc.canonical_atoms`).

    Every record is formatted in one `%` pass: the window's text is made
    once, each atom count gets one record template, and the values of
    all records are laid out in template order.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_finite(points)
    n, d = points.shape
    head = '{"replication":%d,"window":' + dumps_value(window_to_dict(window)) + ',"points":['
    templates = {}
    for size in set(sizes.tolist()):
        templates[size] = (
            head + ",".join(["[" + ",".join(["%.17g"] * d) + "]"] * size)
            + '],"multiplicities":[' + ",".join(["%d"] * size) + '],"clusters":null,"report":null}\n'
        )
    # record r holds atoms first[r]..ends[r]-1, and its values start at
    # r + (d + 1) * first[r]: its replication, d coordinates per atom,
    # then one multiplicity per atom
    ends = np.cumsum(sizes)
    first = ends - sizes
    record = np.repeat(np.arange(len(sizes)), sizes)
    atom = np.arange(n)
    values = np.empty(len(sizes) + n * (d + 1), dtype=object)
    values[np.arange(len(sizes)) + (d + 1) * first] = np.arange(len(sizes))
    values[(record + 1 + first[record] + atom * d)[:, None] + np.arange(d)] = points
    values[record + 1 + d * ends[record] + atom] = multiplicities
    return "".join([templates[size] for size in sizes.tolist()]) % tuple(values.tolist())


def parse_records(text: str) -> List[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; nothing is left behind
    on failure."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".clustertess-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_records_file(path: str) -> List[dict]:
    with open(path, "r") as fh:
        return parse_records(fh.read())
