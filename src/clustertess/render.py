"""Deterministic renderings of records: points, cluster hulls,
hard-core balls, and the cut-and-project strip picture."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateSimplex, UnsupportedDimension
from .cutproject import STRIP_HALF_WIDTH
from .geometry import Cluster, circumballs
from .records import record_to_objects
from .svg import SvgCanvas

_WIDTH = 640.0
_MARGIN = 24.0
_DOT = 2.5


class _WorldMap:
    """Window coordinates to canvas pixels, y axis pointing up."""

    def __init__(self, low, high):
        self.low = low
        self.high = high
        world_w = high[0] - low[0]
        world_h = (high[1] - low[1]) if len(low) > 1 else 0.0
        self.scale = (_WIDTH - 2 * _MARGIN) / world_w
        self.height = 2 * _MARGIN + (world_h * self.scale if world_h > 0 else 32.0)

    def x(self, wx: float) -> float:
        return _MARGIN + (wx - self.low[0]) * self.scale

    def y(self, wy: float) -> float:
        return self.height - _MARGIN - (wy - self.low[1]) * self.scale

    def axis_y(self) -> float:
        return self.height / 2.0


def render_record(
    record: dict,
    style: str = "points",
    radius: Optional[float] = None,
    show_circumcircles: bool = False,
) -> str:
    """One replication record as SVG text. Styles:

    points    window frame, atoms as dots, cluster hulls as polygons
    hardcore  atoms as dots plus radius/2 balls on cluster points
    strip     lattice dots, acceptance strip band, projection ticks
    """
    eta, clusters, _ = record_to_objects(record)
    d = eta.dimension
    if d not in (1, 2):
        raise UnsupportedDimension(f"rendering supports d in {{1, 2}}, got d = {d}")
    wm = _WorldMap(eta.window.low, eta.window.high)
    canvas = SvgCanvas(_WIDTH, wm.height)

    if style == "points":
        _frame(canvas, wm, d)
        if clusters is not None:
            circles = [None] * len(clusters)
            if show_circumcircles and d == 2:
                circles = _circumcircles(clusters)
            for cl, uncertain, circle in zip(clusters.clusters, clusters.boundary_uncertain, circles):
                _draw_cluster(canvas, wm, d, cl, uncertain, circle)
        _draw_atoms(canvas, wm, d, eta)
        return canvas.to_string()

    if style == "hardcore":
        if radius is None:
            raise ConfigError("hardcore style needs the hard-core radius")
        _frame(canvas, wm, d)
        _draw_atoms(canvas, wm, d, eta)
        if clusters is not None:
            for p in clusters.points.tolist():
                cx, cy = _locate(wm, d, p)
                canvas.circle(cx, cy, radius / 2.0 * wm.scale, stroke="steelblue")
        return canvas.to_string()

    if style == "strip":
        if d != 2:
            raise UnsupportedDimension("the strip picture needs a planar configuration")
        _frame(canvas, wm, d)
        top = wm.y(STRIP_HALF_WIDTH)
        bottom = wm.y(-STRIP_HALF_WIDTH)
        canvas.rect(
            wm.x(eta.window.low[0]),
            top,
            (eta.window.high[0] - eta.window.low[0]) * wm.scale,
            bottom - top,
            stroke="none",
            fill="lightsteelblue",
            opacity=0.5,
        )
        axis = wm.height - _MARGIN / 2.0
        canvas.line(_MARGIN, axis, _WIDTH - _MARGIN, axis)
        for p in eta.points:
            canvas.circle(wm.x(p[0]), wm.y(p[1]), _DOT, stroke="none", fill="black")
            if abs(p[1]) <= STRIP_HALF_WIDTH:
                canvas.line(wm.x(p[0]), axis - 5.0, wm.x(p[0]), axis + 5.0, stroke="firebrick")
        return canvas.to_string()

    raise ConfigError(f"unknown render style {style!r}")


def _frame(canvas: SvgCanvas, wm: _WorldMap, d: int) -> None:
    if d == 1:
        y = wm.axis_y()
        canvas.line(wm.x(wm.low[0]), y, wm.x(wm.high[0]), y)
    else:
        x0, y0 = wm.x(wm.low[0]), wm.y(wm.high[1])
        x1, y1 = wm.x(wm.high[0]), wm.y(wm.low[1])
        canvas.rect(x0, y0, x1 - x0, y1 - y0)


def _locate(wm: _WorldMap, d: int, p) -> tuple:
    if d == 1:
        return wm.x(p[0]), wm.axis_y()
    return wm.x(p[0]), wm.y(p[1])


def _draw_atoms(canvas: SvgCanvas, wm: _WorldMap, d: int, eta) -> None:
    for p in eta.points:
        cx, cy = _locate(wm, d, p)
        canvas.circle(cx, cy, _DOT, stroke="none", fill="black")


def _circumcircles(cfg) -> list:
    """Per cluster of a planar configuration, the (center, radius) of
    its circumball if it has three points, else None, from one
    `circumballs` call. A degenerate triangle raises DegenerateSimplex."""
    triangles = np.flatnonzero(np.diff(cfg.offsets) == 3)
    centers, radii, ok = circumballs(cfg.points[cfg.offsets[triangles, None] + np.arange(3)])
    if not ok.all():
        raise DegenerateSimplex("affinely dependent vertices")
    circles = [None] * len(cfg)
    for k, center, radius in zip(triangles.tolist(), centers.tolist(), radii.tolist()):
        circles[k] = (center, radius)
    return circles


def _draw_cluster(
    canvas: SvgCanvas, wm: _WorldMap, d: int, cluster: Cluster, uncertain: bool, circle: Optional[tuple]
) -> None:
    stroke = "silver" if uncertain else "forestgreen"
    pts = [_locate(wm, d, p) for p in cluster.points]
    if len(pts) == 1:
        canvas.circle(pts[0][0], pts[0][1], _DOT + 2.0, stroke=stroke)
    elif len(pts) == 2:
        canvas.line(pts[0][0], pts[0][1], pts[1][0], pts[1][1], stroke=stroke)
    else:
        canvas.polygon(pts, stroke=stroke)
    if circle is not None:
        (cx, cy), radius = circle
        canvas.circle(wm.x(cx), wm.y(cy), radius * wm.scale, stroke="goldenrod")
