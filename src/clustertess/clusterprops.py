"""Cluster properties and extraction.

A cluster property couples a membership predicate on (cluster,
configuration) pairs with an enumerator that produces every candidate
cluster the property could admit for a given configuration. Extraction
filters the candidates through the predicate and flags each surviving
cluster as boundary-uncertain when unseen points outside the window
could have changed the verdict.

Two modes exist: clusters *in* a configuration are subsets of its
support (Delone simplices, hard-core singletons), clusters *for* a
configuration need not be (Voronoi cell vertex sets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Tuple

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .errors import DegenerateSimplex, NotSimple, UnsupportedDimension
from .geometry import EPS_GEOM, Ball, Cluster, circumball, is_discrete_polytope
from .pointproc import PointConfiguration, Window


class PropertyMode(Enum):
    IN_CONFIGURATION = "in_configuration"
    FOR_CONFIGURATION = "for_configuration"


@dataclass
class ClusterProperty:
    """Candidate enumerator plus membership predicate plus boundary rule.

    Invariant: every cluster the property admits for a configuration
    appears among the enumerated candidates, and in IN_CONFIGURATION
    mode every candidate is a subset of the support.

    `certainty_ball`, when present, returns the ball whose containment
    in the window is equivalent to the cluster being boundary-certain;
    the intensity scan uses it for border correction.
    """

    name: str
    mode: PropertyMode
    enumerate_candidates: Callable[[PointConfiguration], Iterable[Cluster]]
    membership: Callable[[Cluster, PointConfiguration], bool]
    boundary_uncertain: Callable[[Cluster, PointConfiguration], bool]
    certainty_ball: Optional[Callable[[Cluster, PointConfiguration], Optional[Ball]]] = None


class ClusterConfiguration:
    """Finite, canonically ordered collection of clusters with flags."""

    __slots__ = ("clusters", "boundary_uncertain", "source_window")

    def __init__(
        self,
        clusters: Iterable[Cluster],
        boundary_uncertain: Iterable[bool],
        source_window: Window,
    ):
        cl = tuple(clusters)
        flags = tuple(bool(f) for f in boundary_uncertain)
        if len(cl) != len(flags):
            raise ValueError("one boundary flag per cluster required")
        if len(set(cl)) != len(cl):
            raise ValueError("duplicate clusters in configuration")
        self.clusters = cl
        self.boundary_uncertain = flags
        self.source_window = source_window

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def certain(self) -> Tuple[Cluster, ...]:
        return tuple(c for c, u in zip(self.clusters, self.boundary_uncertain) if not u)

    def subset(self, certain_only: bool) -> "ClusterConfiguration":
        if not certain_only:
            return self
        pairs = [(c, u) for c, u in zip(self.clusters, self.boundary_uncertain) if not u]
        return ClusterConfiguration(
            [c for c, _ in pairs], [u for _, u in pairs], self.source_window
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClusterConfiguration)
            and self.clusters == other.clusters
            and self.boundary_uncertain == other.boundary_uncertain
            and self.source_window == other.source_window
        )

    def __repr__(self) -> str:
        n_unc = sum(self.boundary_uncertain)
        return f"ClusterConfiguration({len(self.clusters)} clusters, {n_unc} uncertain)"


def extract_clusters(
    prop: ClusterProperty,
    eta: PointConfiguration,
    mode: Optional[PropertyMode] = None,
) -> ClusterConfiguration:
    """All clusters the property admits, canonically sorted and flagged."""
    effective = prop.mode if mode is None else mode
    if effective is PropertyMode.IN_CONFIGURATION and not eta.is_simple:
        raise NotSimple("clusters in a configuration require a simple configuration")
    support_set = set(map(tuple, eta.points))
    seen = set()
    accepted = []
    for cand in prop.enumerate_candidates(eta):
        if cand in seen:
            continue
        seen.add(cand)
        if effective is PropertyMode.IN_CONFIGURATION and not all(
            p in support_set for p in cand.points
        ):
            continue
        if prop.membership(cand, eta):
            accepted.append(cand)
    accepted.sort()
    flags = [prop.boundary_uncertain(c, eta) for c in accepted]
    return ClusterConfiguration(accepted, flags, eta.window)


def cluster_count(cfg: ClusterConfiguration, certain_only: bool = False) -> int:
    if certain_only:
        return sum(1 for u in cfg.boundary_uncertain if not u)
    return len(cfg.clusters)


# ---------------------------------------------------------------------------
# hard-core singletons


def hardcore_property(r: float) -> ClusterProperty:
    """Singletons whose distance to every other configuration point is
    at least r; the radius-r/2 balls around them never intersect."""
    if r <= 0.0:
        raise ValueError(f"hard-core radius must be positive, got {r}")

    def enumerate_candidates(eta: PointConfiguration):
        for p in eta.points:
            yield Cluster([tuple(p)])

    def membership(cluster: Cluster, eta: PointConfiguration) -> bool:
        if len(cluster) != 1:
            return False
        a = np.asarray(cluster.points[0])
        if eta.n_atoms == 0:
            return True
        dists = np.linalg.norm(eta.points - a, axis=1)
        others = dists[dists > 0.0]
        return not np.any(others < r)

    def boundary_uncertain(cluster: Cluster, eta: PointConfiguration) -> bool:
        return eta.window.boundary_distance(cluster.points[0]) < r

    def certainty_ball(cluster: Cluster, eta: PointConfiguration) -> Ball:
        return Ball(cluster.points[0], r)

    return ClusterProperty(
        name=f"hardcore(r={r})",
        mode=PropertyMode.IN_CONFIGURATION,
        enumerate_candidates=enumerate_candidates,
        membership=membership,
        boundary_uncertain=boundary_uncertain,
        certainty_ball=certainty_ball,
    )


# ---------------------------------------------------------------------------
# Delone simplices with capped circumradius


def _delone_candidate_rows(
    eta: PointConfiguration, radius_cap: float, open_ball_mode: bool, eps: float
) -> np.ndarray:
    """Index rows, each ascending, of the Delone candidates: the Delaunay
    simplices (Qhull) whose circumradius fits under the cap. In d = 1
    the Delaunay simplices are the adjacent pairs of the sorted points.

    Closed-ball mode needs nothing more: a simplex whose closed
    circumball holds no other point is a Delaunay simplex of every
    triangulation, Qhull's included. Open-ball mode also admits the
    other simplices of a cocircular group, which Qhull triangulates one
    way only, so each simplex grows into every point within a few eps
    of its circumsphere and all (d+1)-subsets of that group become
    candidates. The scalar membership predicate has the final word on
    every candidate.

    Qhull resolves points only to about 1e-13 of the extent, so every
    (d+1)-subset within two cap radii of a point that has a neighbour
    within 1e-10 of the extent is a candidate too, unfiltered.
    """
    pts = eta.points
    n, d = pts.shape
    none = np.empty((0, d + 1), dtype=np.int64)
    if n < d + 1:
        return none
    if d == 1:
        idx = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    else:
        try:
            # centred input keeps Qhull's lifted coordinates small
            idx = np.sort(Delaunay(pts - pts.mean(axis=0)).simplices, axis=1)
        except QhullError:  # affinely degenerate input, e.g. all collinear
            idx = none
    idx = idx.astype(np.int64)
    simplices = pts[idx]  # (m, d+1, d)
    lhs = 2.0 * (simplices[:, 1:, :] - simplices[:, :1, :])
    rhs = (simplices[:, 1:, :] ** 2).sum(axis=2) - (simplices[:, :1, :] ** 2).sum(axis=2)
    # row-scaled, so a tiny but well-shaped simplex passes like a unit one
    rowscale = np.abs(lhs).max(axis=(1, 2))
    solvable = np.abs(np.linalg.det(lhs / rowscale[:, None, None])) > 1e-13**d
    idx = idx[solvable]
    centers = np.linalg.solve(lhs[solvable], rhs[solvable][:, :, None])[:, :, 0]
    radii = np.linalg.norm(pts[idx] - centers[:, None, :], axis=2).max(axis=1)
    # An admitted open-ball simplex S off Qhull's triangulation sits off
    # the sphere of a simplex T of its group by up to eps * vol(S) / vol(T).
    # In the plane one of the two triangles on a quadrilateral holds half
    # its area, so 2 eps covers that case; 8 eps leaves room for larger
    # groups and d = 3.
    slack = 1.0 + (8.0 if open_ball_mode else 1.0) * eps
    good = np.isfinite(radii) & (radii <= radius_cap * slack)
    idx, centers, radii = idx[good], centers[good], radii[good]
    tree = cKDTree(pts)
    if open_ball_mode:
        groups = tree.query_ball_point(centers, radii * slack, return_sorted=True)
        rows = {tuple(c) for g in set(map(tuple, groups)) for c in itertools.combinations(g, d + 1)}
        idx = np.array(sorted(rows), dtype=np.int64).reshape(-1, d + 1)
    crowded = np.unique(tree.query_pairs(1e-10 * np.ptp(pts, axis=0).max(), output_type="ndarray"))
    near = tree.query_ball_point(pts[crowded], 2.0 * radius_cap * slack)
    extra = {c for i, g in zip(crowded, near) for c in itertools.combinations(sorted(g), d + 1) if i in c}
    return np.concatenate([idx, np.array(sorted(extra), dtype=np.int64).reshape(-1, d + 1)])


def delone_property(
    radius_cap: float, open_ball_mode: bool = False, eps: float = EPS_GEOM
) -> ClusterProperty:
    """Full-dimensional simplices with circumradius at most the cap and
    an empty punctured circumball.

    Literal reading by default: the punctured ball is the closed
    circumball minus exactly the vertex set, so configuration points on
    the circumsphere block the cluster. `open_ball_mode` switches to the
    conventional open-ball Delaunay test.

    Candidates are the Delaunay simplices of the configuration from
    scipy's Qhull, filtered by the radius cap; in open-ball mode each
    is grown into its cocircular group (see `_delone_candidate_rows`).
    """
    if radius_cap <= 0.0:
        raise ValueError(f"radius cap must be positive, got {radius_cap}")

    def enumerate_candidates(eta: PointConfiguration):
        rows = _delone_candidate_rows(eta, radius_cap, open_ball_mode, eps)
        pts = eta.points
        return (Cluster(tuple(pts[j]) for j in row) for row in rows)

    def membership(cluster: Cluster, eta: PointConfiguration) -> bool:
        if len(cluster) != eta.dimension + 1:
            return False
        try:
            ball = circumball(cluster, eps)
        except DegenerateSimplex:
            return False
        if ball.radius > radius_cap:
            return False
        return not _punctured_ball_hit(ball, cluster, eta, open_ball_mode, eps)

    def boundary_uncertain(cluster: Cluster, eta: PointConfiguration) -> bool:
        ball = circumball(cluster, eps)
        return not eta.window.contains_ball(ball.center, ball.radius)

    def certainty_ball(cluster: Cluster, eta: PointConfiguration) -> Ball:
        return circumball(cluster, eps)

    return ClusterProperty(
        name=f"delone(R={radius_cap})" + (" [open ball]" if open_ball_mode else ""),
        mode=PropertyMode.IN_CONFIGURATION,
        enumerate_candidates=enumerate_candidates,
        membership=membership,
        boundary_uncertain=boundary_uncertain,
        certainty_ball=certainty_ball,
    )


def _punctured_ball_hit(
    ball: Ball,
    cluster: Cluster,
    eta: PointConfiguration,
    open_ball_mode: bool,
    eps: float,
) -> bool:
    """True iff some configuration point other than the cluster vertices
    lies in the (punctured) circumball, per the trichotomy predicate."""
    center = np.asarray(ball.center)
    dists = np.linalg.norm(eta.points - center, axis=1)
    band = eps * ball.radius
    if open_ball_mode:
        suspect = dists < ball.radius - band
    else:
        suspect = dists <= ball.radius + band
    if not np.any(suspect):
        return False
    vertex_rows = {p for p in cluster.points}
    for idx in np.nonzero(suspect)[0]:
        if tuple(eta.points[idx]) not in vertex_rows:
            return True
    return False


# ---------------------------------------------------------------------------
# Voronoi cell vertex sets (d = 2), by duality with empty circumballs


def _voronoi_cells(eta: PointConfiguration, cap: float, open_ball_mode: bool, eps: float):
    """Bounded Voronoi cells of a planar configuration, by duality.

    Returns {cell cluster: (center point, certain flag)}. The vertices
    of the cell of a center are the circumcenters of the empty-
    circumball triangles incident to it; a cell counts as bounded only
    when its triangle fan closes into a single ring.
    """
    if eta.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    delone = delone_property(cap, open_ball_mode=open_ball_mode, eps=eps)
    triangles = extract_clusters(delone, eta)
    index_of = {tuple(p): i for i, p in enumerate(eta.points)}
    incident: dict = {}
    for tri in triangles:
        ball = circumball(tri, eps)
        for p in tri.points:
            incident.setdefault(index_of[p], []).append((tri, ball))
    out = {}
    for ci, pairs in incident.items():
        if len(pairs) < 3:
            continue
        center = eta.points[ci]
        # every Delaunay edge at the center must be shared by exactly two
        # incident triangles, otherwise the fan is open (unbounded cell)
        degree: dict = {}
        for tri, _ in pairs:
            for p in tri.points:
                j = index_of[p]
                if j != ci:
                    degree[j] = degree.get(j, 0) + 1
        if any(v != 2 for v in degree.values()) or len(degree) != len(pairs):
            continue
        verts = np.array([b.center for _, b in pairs])
        angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
        order = np.argsort(angles, kind="stable")
        ordered = verts[order]
        scale = max(1.0, float(np.abs(ordered).max()))
        keep = [0]
        for k in range(1, len(ordered)):
            if np.linalg.norm(ordered[k] - ordered[keep[-1]]) > eps * scale:
                keep.append(k)
        if len(keep) > 1 and np.linalg.norm(ordered[keep[-1]] - ordered[keep[0]]) <= eps * scale:
            keep.pop()
        if len(keep) < 3:
            continue
        cell = Cluster(tuple(ordered[k]) for k in keep)
        radii = np.linalg.norm(ordered[keep] - center, axis=1)
        certain = all(
            eta.window.contains_ball(tuple(v), float(r))
            for v, r in zip(ordered[keep], radii)
        )
        out[cell] = (tuple(center), certain)
    return out


def voronoi_cell_centers(
    eta: PointConfiguration, window: Window, eps: float = EPS_GEOM
) -> dict:
    """Map from each bounded Voronoi cell cluster to its center point."""
    cap = 2.0 * window.diameter()
    return {c: ctr for c, (ctr, _) in _voronoi_cells(eta, cap, False, eps).items()}


def voronoi_property(
    window: Window, open_ball_mode: bool = False, eps: float = EPS_GEOM
) -> ClusterProperty:
    """Vertex sets of bounded Voronoi cells in the plane.

    Candidates come from duality with the empty-circumball triangles
    (radius capped at twice the window diameter, which cannot exclude
    any boundary-certain cell); vertices are ordered counterclockwise
    around the center starting from the smallest angle. Membership
    additionally requires the vertex set to be a discrete polytope. A
    cell is boundary-certain when, for every vertex, the ball around it
    reaching back to the center fits inside the window; only then is no
    unseen outside point able to displace that vertex.

    The property keeps the cells of the one configuration it was last
    asked about, matched by identity; nothing outlives the property.
    """
    if window.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    cap = 2.0 * window.diameter()
    last_eta, last_cells = None, {}

    def cells_of(eta: PointConfiguration) -> dict:
        nonlocal last_eta, last_cells
        if eta is not last_eta:
            last_eta, last_cells = eta, _voronoi_cells(eta, cap, open_ball_mode, eps)
        return last_cells

    def enumerate_candidates(eta: PointConfiguration):
        return list(cells_of(eta).keys())

    def membership(cluster: Cluster, eta: PointConfiguration) -> bool:
        return cluster in cells_of(eta) and is_discrete_polytope(cluster, eps)

    def boundary_uncertain(cluster: Cluster, eta: PointConfiguration) -> bool:
        return not cells_of(eta)[cluster][1]

    return ClusterProperty(
        name="voronoi",
        mode=PropertyMode.FOR_CONFIGURATION,
        enumerate_candidates=enumerate_candidates,
        membership=membership,
        boundary_uncertain=boundary_uncertain,
    )
