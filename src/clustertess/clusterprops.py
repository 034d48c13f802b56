"""Cluster properties and extraction.

A cluster property couples a membership predicate on (cluster,
configuration) pairs with an enumerator that produces every candidate
cluster the property could admit for a given configuration. Extraction
filters the candidates through the predicate and flags each surviving
cluster as boundary-uncertain when unseen points outside the window
could have changed the verdict.

The built-in properties decide a whole configuration at once. Each
builds one table per configuration, {candidate: (member, uncertain)},
from batched numpy and kd-tree work over index rows into the points,
and its callables read that table. A cluster that is not a candidate,
in particular one outside the support, reads non-member. The Delone
table also holds each candidate's circumball, its certainty ball.

Two modes exist: clusters *in* a configuration are subsets of its
support (Delone simplices, hard-core singletons), clusters *for* a
configuration need not be (Voronoi cell vertex sets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NotSimple, UnsupportedDimension
from .geometry import EPS_GEOM, Ball, Cluster, circumballs, is_discrete_polytope

# not called here: the benchmark's tracer still counts calls through
# this binding (`benchmarks/spans.py`), and fails when it is missing
from .geometry import circumball  # noqa: F401
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
    the intensity scan uses it for border correction. The Delone
    property reads it from its table, so there it is defined for
    candidates only.
    """

    name: str
    mode: PropertyMode
    enumerate_candidates: Callable[[PointConfiguration], Iterable[Cluster]]
    membership: Callable[[Cluster, PointConfiguration], bool]
    boundary_uncertain: Callable[[Cluster, PointConfiguration], bool]
    certainty_ball: Optional[Callable[[Cluster, PointConfiguration], Optional[Ball]]] = None


class ClusterConfiguration:
    """Finite, canonically ordered collection of clusters with flags,
    built for a point configuration in `source_window`.

    It is all that validation needs: the window, and with it the
    dimension d, come from `source_window`.
    """

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

    def certain(self) -> "ClusterConfiguration":
        """The boundary-certain clusters, in order, for the same window."""
        kept = [c for c, u in zip(self.clusters, self.boundary_uncertain) if not u]
        return ClusterConfiguration(kept, [False] * len(kept), self.source_window)

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


def extract_clusters(prop: ClusterProperty, eta: PointConfiguration) -> ClusterConfiguration:
    """All clusters the property admits, canonically sorted and flagged."""
    in_configuration = prop.mode is PropertyMode.IN_CONFIGURATION
    if in_configuration and not eta.is_simple:
        raise NotSimple("clusters in a configuration require a simple configuration")
    support_set = set(map(tuple, eta.points))
    seen = set()
    accepted = []
    for cand in prop.enumerate_candidates(eta):
        if cand in seen:
            continue
        seen.add(cand)
        if in_configuration and not all(p in support_set for p in cand.points):
            continue
        if prop.membership(cand, eta):
            accepted.append(cand)
    accepted.sort()
    flags = [prop.boundary_uncertain(c, eta) for c in accepted]
    return ClusterConfiguration(accepted, flags, eta.window)


# ---------------------------------------------------------------------------
# per-configuration tables

# kd-tree queries reach this far past a bound, so that their rounding drops
# no point the exact recheck admits (squares below 1e-300 lose precision)
_REACH = 1.0 + 1e-12
_REACH_FLOOR = 1e-150


def _memo(build: Callable) -> Callable[[PointConfiguration], dict]:
    """`build(eta)`, a dict {candidate: (member, uncertain, ...)} in
    enumeration order, built once for the configuration last asked
    about, matched by identity (configurations are immutable); nothing
    outlives the returned function."""
    last = [None, {}]

    def table_of(eta: PointConfiguration) -> dict:
        if eta is not last[0]:
            last[:] = eta, build(eta)
        return last[1]

    return table_of


def _table_property(name: str, mode: PropertyMode, table_of: Callable, certainty_ball=None) -> ClusterProperty:
    """A property whose callables read the table `table_of(eta)` (`_memo`)."""

    def enumerate_candidates(eta: PointConfiguration):
        return list(table_of(eta))

    def membership(cluster: Cluster, eta: PointConfiguration) -> bool:
        return table_of(eta).get(cluster, (False,))[0]

    def boundary_uncertain(cluster: Cluster, eta: PointConfiguration) -> bool:
        return table_of(eta)[cluster][1]

    return ClusterProperty(name, mode, enumerate_candidates, membership, boundary_uncertain, certainty_ball)


def _table(pts: np.ndarray, rows: np.ndarray, *columns: np.ndarray) -> dict:
    """{Cluster of pts[row]: (its entry of each column)}, one entry per
    index row; the columns start with member and uncertain."""
    return dict(zip(map(Cluster, pts[rows].tolist()), zip(*(c.tolist() for c in columns))))


# ---------------------------------------------------------------------------
# hard-core singletons


def hardcore_property(r: float) -> ClusterProperty:
    """Singletons whose distance to every other configuration point is
    at least r; the radius-r/2 balls around them never intersect.

    One kd-tree pair query decides the configuration: pairs within a
    padded r are measured again as the scalar test measures them; a
    pair closer than r, but not at distance zero, blocks both points.
    Singletons within r of the window boundary are uncertain.
    """
    if r <= 0.0:
        raise ValueError(f"hard-core radius must be positive, got {r}")

    def build(eta: PointConfiguration) -> dict:
        from scipy.spatial import cKDTree

        pts = eta.points
        i, j = cKDTree(pts).query_pairs(r * _REACH + _REACH_FLOOR, output_type="ndarray").T
        dist = np.linalg.norm(pts[j] - pts[i], axis=1)
        close = (dist > 0.0) & (dist < r)
        member = np.ones(len(pts), dtype=bool)
        member[i[close]] = member[j[close]] = False
        uncertain = eta.window.boundary_distance(pts) < r
        return _table(pts, np.arange(len(pts))[:, None], member, uncertain)

    def certainty_ball(cluster: Cluster, eta: PointConfiguration) -> Ball:
        return Ball(cluster.points[0], r)

    return _table_property(f"hardcore(r={r})", PropertyMode.IN_CONFIGURATION, _memo(build), certainty_ball)


# ---------------------------------------------------------------------------
# Delone simplices with capped circumradius


def _delone_candidate_rows(pts: np.ndarray, tree, radius_cap: float) -> np.ndarray:
    """Index rows of the Delone candidates, each ascending, unique and in
    lexicographic order.

    Each Delaunay simplex (Qhull; in d = 1 an adjacent pair) under the
    cap grows into every point within 8 EPS_GEOM of its circumsphere, and
    all (d+1)-subsets of that group become candidates. Qhull triangulates a
    cocircular group one way only, while the open ball admits all its
    simplices; and it resolves near-cocircular groups only to its own
    precision, which a thin simplex coarsens: of (0, 0), (1e-9, 0),
    (0.25, 0.25), (0, 0.5) it keeps the two triangles on (1e-9, 0) and
    (0, 0.5), but the closed-ball member is the third.

    Qhull resolves points only to about 1e-13 of the extent, so every
    (d+1)-subset within two cap radii of a point that has a neighbour
    within 1e-10 of the extent is a candidate too.
    """
    from scipy.spatial import Delaunay, QhullError

    n, d = pts.shape
    rows = np.empty((0, d + 1), dtype=np.intp)
    if n < d + 1:
        return rows
    if d == 1:
        rows = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    else:
        try:
            # centred input keeps Qhull's lifted coordinates small
            rows = Delaunay(pts - pts.mean(axis=0)).simplices
        except QhullError:  # affinely degenerate input, e.g. all collinear
            pass
    # An admitted open-ball simplex S off Qhull's triangulation sits off
    # the sphere of a simplex T of its group by up to EPS_GEOM * vol(S) /
    # vol(T). In the plane one of the two triangles on a quadrilateral
    # holds half its area, so 2 EPS_GEOM covers that case; 8 EPS_GEOM
    # leaves room for larger groups and d = 3.
    slack = 1.0 + 8.0 * EPS_GEOM
    centers, radii, ok = circumballs(pts[rows])
    good = ok & (radii <= radius_cap * slack)
    groups = tree.query_ball_point(centers[good], radii[good] * slack, return_sorted=True)
    grown = {c for g in set(map(tuple, groups)) for c in itertools.combinations(g, d + 1)}
    crowded = np.unique(tree.query_pairs(1e-10 * np.ptp(pts, axis=0).max(), output_type="ndarray"))
    near = tree.query_ball_point(pts[crowded], 2.0 * radius_cap * slack)
    grown |= {c for i, g in zip(crowded, near) for c in itertools.combinations(sorted(g), d + 1) if i in c}
    return np.unique(np.array(list(grown), dtype=np.intp).reshape(-1, d + 1), axis=0)


def _delone_table(eta: PointConfiguration, radius_cap: float, open_ball_mode: bool):
    """The Delone candidates under the cap, as (rows, centers, radii,
    member): index rows in lexicographic order, their circumballs (bit
    for bit `circumball`'s) and whether each punctured circumball is
    empty. Emptiness is the scalar trichotomy's: the kd-tree finds the
    points within a padded radius, their distances to the centre are
    measured again with the scalar's expression, and the vertices are
    excluded by index.
    """
    from scipy.spatial import cKDTree

    pts = eta.points
    tree = cKDTree(pts)
    rows = _delone_candidate_rows(pts, tree, radius_cap)
    centers, radii, ok = circumballs(pts[rows])
    under = ok & (radii <= radius_cap)
    rows, centers, radii = rows[under], centers[under], radii[under]
    band = EPS_GEOM * radii
    hits = tree.query_ball_point(centers, (radii + band) * _REACH + _REACH_FLOOR)
    owner = np.repeat(np.arange(len(rows)), [len(h) for h in hits])
    k = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=len(owner))
    dist = np.linalg.norm(pts[k] - centers[owner], axis=1)
    if open_ball_mode:
        inside = dist < (radii - band)[owner]
    else:
        inside = dist <= (radii + band)[owner]
    inside &= (rows[owner] != k[:, None]).all(axis=1)
    member = np.bincount(owner[inside], minlength=len(rows)) == 0
    return rows, centers, radii, member


def delone_property(radius_cap: float, open_ball_mode: bool = False) -> ClusterProperty:
    """Full-dimensional simplices with circumradius at most the cap and
    an empty punctured circumball.

    Literal reading by default: the punctured ball is the closed
    circumball minus exactly the vertex set, so configuration points on
    the circumsphere block the cluster. `open_ball_mode` switches to the
    conventional open-ball Delaunay test.

    Candidates grow out of the Delaunay simplices of the configuration
    (scipy's Qhull; see `_delone_candidate_rows`), and `_delone_table`
    decides those under the cap all at once. A cluster is
    boundary-uncertain when its circumball leaves the window. The table
    keeps each candidate's circumball next to its verdicts: it is the
    certainty ball.
    """
    if radius_cap <= 0.0:
        raise ValueError(f"radius cap must be positive, got {radius_cap}")

    def build(eta: PointConfiguration) -> dict:
        rows, centers, radii, member = _delone_table(eta, radius_cap, open_ball_mode)
        uncertain = ~eta.window.contains_ball(centers, radii)
        return _table(eta.points, rows, member, uncertain, centers, radii)

    table_of = _memo(build)

    def certainty_ball(cluster: Cluster, eta: PointConfiguration) -> Ball:
        _, _, center, radius = table_of(eta)[cluster]
        return Ball(center, radius)

    name = f"delone(R={radius_cap})" + (" [open ball]" if open_ball_mode else "")
    return _table_property(name, PropertyMode.IN_CONFIGURATION, table_of, certainty_ball)


# ---------------------------------------------------------------------------
# Voronoi cell vertex sets (d = 2), by duality with empty circumballs


def _voronoi_cells(eta: PointConfiguration, cap: float, open_ball_mode: bool):
    """Bounded Voronoi cells of a planar configuration, by duality.

    Returns {cell cluster: (center point, certain flag)}. The vertices
    of the cell of a center are the circumcenters of the Delone
    triangles (`_delone_table`) incident to it. Their fan closes into a
    single ring, and the cell is bounded, when there are at least three
    and each neighbour of the center in them appears in exactly two.
    """
    if eta.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    if not eta.is_simple:
        raise NotSimple("Voronoi cells by duality require a simple configuration")
    rows, centers, _, member = _delone_table(eta, cap, open_ball_mode)
    rows, centers = rows[member], centers[member]
    # (center, neighbour) incidences, one per triangle and ordered vertex pair
    pairs = rows[:, [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]].reshape(-1, 2)
    edges, uses = np.unique(pairs, axis=0, return_counts=True)
    closed = np.bincount(rows.ravel(), minlength=eta.n_atoms) >= 3
    closed[edges[uses != 2, 0]] = False
    # the triangles at each center, in row order
    incident = np.argsort(rows.ravel(), kind="stable") // 3
    start = np.searchsorted(np.sort(rows.ravel()), np.arange(eta.n_atoms + 1))
    out = {}
    for ci in np.nonzero(closed)[0]:
        center = eta.points[ci]
        verts = centers[incident[start[ci] : start[ci + 1]]]
        angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
        order = np.argsort(angles, kind="stable")
        ordered = verts[order]
        tol = EPS_GEOM * max(1.0, float(np.abs(ordered).max()))
        keep = [0]
        for k in range(1, len(ordered)):
            if np.linalg.norm(ordered[k] - ordered[keep[-1]]) > tol:
                keep.append(k)
        if len(keep) > 1 and np.linalg.norm(ordered[keep[-1]] - ordered[keep[0]]) <= tol:
            keep.pop()
        if len(keep) < 3:
            continue
        cell = Cluster(tuple(ordered[k]) for k in keep)
        radii = np.linalg.norm(ordered[keep] - center, axis=1)
        certain = bool(eta.window.contains_ball(ordered[keep], radii).all())
        out[cell] = (tuple(center), certain)
    return out


def voronoi_cell_centers(eta: PointConfiguration) -> dict:
    """Map from each bounded Voronoi cell cluster to its center point,
    under `voronoi_property(eta.window)`'s cap."""
    cap = 2.0 * eta.window.diameter()
    return {c: ctr for c, (ctr, _) in _voronoi_cells(eta, cap, False).items()}


def voronoi_property(window: Window, open_ball_mode: bool = False) -> ClusterProperty:
    """Vertex sets of bounded Voronoi cells in the plane.

    Candidates come from duality with the Delone table (radius capped
    at twice the window diameter, which cannot exclude any
    boundary-certain cell; see `_voronoi_cells`); vertices are ordered
    counterclockwise around the center starting from the smallest
    angle. Membership additionally requires the vertex set to be a
    discrete polytope. A cell is boundary-certain when, for every
    vertex, the ball around it reaching back to the center fits inside
    the window; only then is no unseen outside point able to displace
    that vertex.
    """
    if window.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    cap = 2.0 * window.diameter()

    def build(eta: PointConfiguration) -> dict:
        cells = _voronoi_cells(eta, cap, open_ball_mode)
        return {cell: (is_discrete_polytope(cell), not certain) for cell, (_, certain) in cells.items()}

    return _table_property("voronoi", PropertyMode.FOR_CONFIGURATION, _memo(build))
