"""Validation of cluster configurations as tessellations.

Face-to-face here follows the tiling convention that tolerates holes:
two intersecting tiles must meet in a whole common face, but the union
of tiles need not cover the window. Coverage is therefore measured
separately, by Monte Carlo, with a reported standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateSimplex, NonSimplicialInput, UnsupportedDimension
from .geometry import EPS_GEOM, Cluster, FaceRelation, _facet_halfspaces, common_face_check, is_full_simplex
from .clusterprops import ClusterConfiguration
from .pointproc import Window
from .randomness import make_rng


@dataclass
class TessellationReport:
    face_to_face: Optional[bool] = None
    violations: Tuple[Tuple[int, int], ...] = ()
    simplicial: Optional[bool] = None
    covered_fraction: Optional[float] = None
    coverage_se: Optional[float] = None
    holes_detected: Optional[bool] = None

    def __post_init__(self):
        if self.face_to_face is not None and self.face_to_face != (not self.violations):
            raise ValueError("violations must be empty exactly when face-to-face holds")
        if self.covered_fraction is not None and not (0.0 <= self.covered_fraction <= 1.0):
            raise ValueError("covered fraction must lie in [0, 1]")


def check_simplicial(cfg: ClusterConfiguration, d: int, eps: float = EPS_GEOM) -> bool:
    """True iff every cluster is d+1 affinely independent points."""
    return all(
        c.dimension == d and is_full_simplex(c, eps) for c in cfg.clusters
    )


def check_face_to_face(cfg: ClusterConfiguration, eps: float = EPS_GEOM) -> TessellationReport:
    """Pairwise face-to-face check over all clusters of the configuration.

    Pairs are pruned by bounding-box overlap; every surviving pair goes
    through the exact common-face test. The returned report carries the
    improper pairs as (i, j) indices into cfg.clusters.
    """
    clusters = cfg.clusters
    if not clusters:
        return TessellationReport(face_to_face=True, violations=(), simplicial=True)
    d = clusters[0].dimension
    if not check_simplicial(cfg, d, eps):
        raise NonSimplicialInput(
            "face-to-face checking needs discrete simplices; run check_simplicial first"
        )
    arrays = [c.as_array() for c in clusters]
    lows = np.array([a.min(axis=0) for a in arrays])
    highs = np.array([a.max(axis=0) for a in arrays])
    scale = max(1.0, float(np.abs(highs).max()), float(np.abs(lows).max()))
    atol = eps * scale
    violations = []
    for i in range(len(clusters)):
        overlap = np.all(
            (lows[i + 1 :] <= highs[i] + atol) & (highs[i + 1 :] >= lows[i] - atol),
            axis=1,
        )
        for j in np.nonzero(overlap)[0] + i + 1:
            relation = common_face_check(clusters[i], clusters[int(j)], eps)
            if relation is FaceRelation.IMPROPER:
                violations.append((i, int(j)))
    return TessellationReport(
        face_to_face=not violations,
        violations=tuple(violations),
        simplicial=True,
    )


def hull_contains_points(
    cluster: Cluster, queries: np.ndarray, eps: float = EPS_GEOM
) -> np.ndarray:
    """Membership of query points in the convex hull of a cluster.

    Supports intervals (d = 1), convex polygons (d = 2, any vertex
    count) and simplices in d = 3. Implemented with inward halfspace
    tests; the barycentric-coordinate route stays available to tests as
    an independent oracle.
    """
    pts = cluster.as_array()
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    d = cluster.dimension
    scale = max(1.0, float(np.abs(pts).max()))
    tol = eps * scale
    if d == 1:
        lo, hi = pts.min(), pts.max()
        return (q[:, 0] >= lo - tol) & (q[:, 0] <= hi + tol)
    if len(pts) < d + 1:
        return np.zeros(len(q), dtype=bool)  # measure-zero hull
    if d == 2:
        centroid = pts.mean(axis=0)
        angles = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
        ring = pts[np.argsort(angles, kind="stable")]
        inside = np.ones(len(q), dtype=bool)
        for k in range(len(ring)):
            a = ring[k]
            b = ring[(k + 1) % len(ring)]
            edge = b - a
            cross = edge[0] * (q[:, 1] - a[1]) - edge[1] * (q[:, 0] - a[0])
            inside &= cross >= -tol * max(1.0, float(np.linalg.norm(edge)))
        return inside
    if d == 3:
        if len(pts) != 4:
            raise UnsupportedDimension("3D hull membership is implemented for simplices only")
        try:
            halfspaces = _facet_halfspaces(cluster.points, eps)
        except DegenerateSimplex:
            return np.zeros(len(q), dtype=bool)  # flat simplex, measure-zero hull
        inside = np.ones(len(q), dtype=bool)
        for normal, offset in halfspaces:
            inside &= q @ normal <= offset + tol
        return inside
    raise UnsupportedDimension(f"hull membership not implemented for d = {d}")


def covered_fraction(
    cfg: ClusterConfiguration,
    window: Window,
    n_samples: int,
    seed: int,
    eps: float = EPS_GEOM,
) -> Tuple[float, float]:
    """Monte-Carlo estimate of the fraction of the (buffer-eroded)
    window covered by the union of the cluster hulls.

    Returns (fraction, standard error).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    region = window.erode(window.buffer_margin) if window.buffer_margin > 0 else window
    rng = make_rng(seed)
    samples = np.asarray(region.low) + rng.random((n_samples, region.dimension)) * region.extent()
    covered = np.zeros(n_samples, dtype=bool)
    for cluster in cfg.clusters:
        remaining = ~covered
        if not np.any(remaining):
            break
        hits = hull_contains_points(cluster, samples[remaining], eps)
        covered[np.nonzero(remaining)[0][hits]] = True
    fraction = float(covered.mean())
    se = float(np.sqrt(fraction * (1.0 - fraction) / n_samples))
    return fraction, se


def build_report(
    cfg: ClusterConfiguration,
    window: Window,
    d: int,
    n_samples: int = 2000,
    seed: int = 0,
    band: float = 4.0,
    eps: float = EPS_GEOM,
) -> TessellationReport:
    """Full report: simplicial check, face-to-face when applicable,
    Monte-Carlo coverage and the holes verdict at `band` standard errors."""
    simplicial = check_simplicial(cfg, d, eps)
    face_to_face = None
    violations: Tuple[Tuple[int, int], ...] = ()
    if simplicial:
        partial = check_face_to_face(cfg, eps)
        face_to_face = partial.face_to_face
        violations = partial.violations
    fraction, se = covered_fraction(cfg, window, n_samples, seed, eps)
    return TessellationReport(
        face_to_face=face_to_face,
        violations=violations,
        simplicial=simplicial,
        covered_fraction=fraction,
        coverage_se=se,
        holes_detected=bool(fraction + band * se < 1.0),
    )
