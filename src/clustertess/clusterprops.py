"""Cluster properties and extraction.

A cluster property couples a membership predicate on (cluster,
configuration) pairs with an enumerator that produces every candidate
cluster the property could admit for a given configuration. Extraction
keeps the candidates the predicate admits and flags each as
boundary-uncertain when unseen points outside the window could have
changed the verdict. Clusters *in* a configuration are subsets of its
support (Delone simplices, hard-core singletons); clusters *for* a
configuration need not be (Voronoi cell vertex sets).

Each built-in property decides a whole configuration in one `table`:
all its candidates as one array-backed ClusterConfiguration in canonical
order, with a member mask, from batched numpy and kd-tree work over the
points; the Delone table decides the Delaunay simplices in one pass,
and Voronoi cells take one sorted pass over its triangles.
`_predicate_table` turns scalar predicates into the same table. No
`Cluster` object is built until `.clusters` is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .errors import NotSimple, UnsupportedDimension
from .geometry import EPS_GEOM, Ball, Cluster, _norm, circumballs, is_discrete_polytope

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

    `table(eta)`, which the built-in properties give alone, returns
    (candidates, member): the candidates as one ClusterConfiguration in
    canonical order, flagged, with certainty radii where the property
    has them, and a bool mask of the members. Without it, the scalar
    callables decide and flag; `certainty_ball`, when present, returns
    the ball whose containment in the window is equivalent to the
    cluster being boundary-certain. Its radius is the certainty radius,
    which the intensity scan uses for border correction.
    """

    name: str
    mode: PropertyMode
    enumerate_candidates: Optional[Callable[[PointConfiguration], Iterable[Cluster]]]
    membership: Optional[Callable[[Cluster, PointConfiguration], bool]]
    boundary_uncertain: Optional[Callable[[Cluster, PointConfiguration], bool]]
    certainty_ball: Optional[Callable[[Cluster, PointConfiguration], Optional[Ball]]] = None
    table: Optional[Callable[[PointConfiguration], Tuple["ClusterConfiguration", np.ndarray]]] = None


class ClusterConfiguration:
    """Finite, canonically ordered collection of clusters with flags,
    built for a point configuration in `source_window`, which gives
    validation the window and the dimension d.

    It is held in read-only arrays: `points` (N, d), the vertices of
    every cluster in cluster order, each cluster's in construction
    order; `offsets` (m+1,), cluster k being points[offsets[k]:
    offsets[k+1]]; the flags `uncertain` (m,), a tuple as
    `boundary_uncertain`; and `certainty_radii` (m,), or None. The
    constructor takes `Cluster` objects in the window's dimension and
    keeps their order; otherwise `.clusters` builds them when first read.
    """

    __slots__ = ("points", "offsets", "uncertain", "certainty_radii", "source_window", "_clusters")

    def __init__(
        self,
        clusters: Iterable[Cluster],
        boundary_uncertain: Iterable[bool],
        source_window: Window,
    ):
        cl = tuple(clusters)
        flags = [bool(f) for f in boundary_uncertain]
        if len(cl) != len(flags):
            raise ValueError("one boundary flag per cluster required")
        if len(set(cl)) != len(cl):
            raise ValueError("duplicate clusters in configuration")
        d = source_window.dimension
        if any(c.dimension != d for c in cl):
            raise ValueError(f"every cluster must have the window's dimension {d}")
        points = np.array([p for c in cl for p in c.points], dtype=float).reshape(-1, d)
        offsets = np.cumsum([0] + [len(c) for c in cl])
        self._set(points, offsets, np.array(flags, dtype=bool), None, source_window, cl)

    @classmethod
    def _of(cls, points, offsets, uncertain, certainty_radii, source_window, clusters=None) -> "ClusterConfiguration":
        """These arrays, unchecked: distinct clusters in canonical order, maybe built."""
        return cls.__new__(cls)._set(points, offsets, uncertain, certainty_radii, source_window, clusters)

    def _set(self, points, offsets, uncertain, certainty_radii, source_window, clusters) -> "ClusterConfiguration":
        for arr in (points, offsets, uncertain, certainty_radii):
            if arr is not None:
                arr.setflags(write=False)
        self.points, self.offsets, self.uncertain = points, offsets, uncertain
        self.certainty_radii, self.source_window, self._clusters = certainty_radii, source_window, clusters
        return self

    @property
    def clusters(self) -> Tuple[Cluster, ...]:
        if self._clusters is None:
            rows, ends = self.points.tolist(), self.offsets.tolist()
            self._clusters = tuple(Cluster(rows[a:b]) for a, b in zip(ends, ends[1:]))
        return self._clusters

    @property
    def boundary_uncertain(self) -> Tuple[bool, ...]:
        return tuple(self.uncertain.tolist())

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _select(self, keep: np.ndarray) -> "ClusterConfiguration":
        """The clusters where keep holds, in order, with their flags and radii."""
        sizes = np.diff(self.offsets)
        radii = None if self.certainty_radii is None else self.certainty_radii[keep]
        points, offsets = self.points[np.repeat(keep, sizes)], np.concatenate([[0], np.cumsum(sizes[keep])])
        clusters = None if self._clusters is None else tuple(itertools.compress(self._clusters, keep))
        return ClusterConfiguration._of(points, offsets, self.uncertain[keep], radii, self.source_window, clusters)

    def certain(self) -> "ClusterConfiguration":
        """The boundary-certain clusters, in order, for the same window."""
        return self._select(~self.uncertain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClusterConfiguration)
            and self.clusters == other.clusters
            and self.boundary_uncertain == other.boundary_uncertain
            and self.source_window == other.source_window
        )

    def __repr__(self) -> str:
        return f"ClusterConfiguration({len(self)} clusters, {int(self.uncertain.sum())} uncertain)"


def extract_clusters(prop: ClusterProperty, eta: PointConfiguration) -> ClusterConfiguration:
    """All clusters the property admits, in canonical order and flagged."""
    if prop.mode is PropertyMode.IN_CONFIGURATION and not eta.is_simple:
        raise NotSimple("clusters in a configuration require a simple configuration")
    candidates, member = prop.table(eta) if prop.table is not None else _predicate_table(prop, eta)
    return candidates._select(member)


def _predicate_table(prop: ClusterProperty, eta: PointConfiguration):
    """The table of a property given as scalar callables: its distinct admitted candidates
    (in IN_CONFIGURATION mode, those in the support), sorted, flagged, with any radii; all members."""
    support = set(map(tuple, eta.points))
    accepted = sorted(
        c
        for c in dict.fromkeys(prop.enumerate_candidates(eta))
        if (prop.mode is PropertyMode.FOR_CONFIGURATION or support.issuperset(c.points)) and prop.membership(c, eta)
    )
    cfg = ClusterConfiguration(accepted, [prop.boundary_uncertain(c, eta) for c in accepted], eta.window)
    if prop.certainty_ball is not None:
        radii = np.array([prop.certainty_ball(c, eta).radius for c in accepted], dtype=float)
        cfg = ClusterConfiguration._of(cfg.points, cfg.offsets, cfg.uncertain, radii, eta.window, cfg.clusters)
    return cfg, np.ones(len(accepted), dtype=bool)


# kd-tree queries reach this far past a bound, so that their rounding drops
# no point the exact recheck admits (squares below 1e-300 lose precision)
_REACH = 1.0 + 1e-12
_REACH_FLOOR = 1e-150


# ---------------------------------------------------------------------------
# hard-core singletons


def hardcore_property(r: float) -> ClusterProperty:
    """Singletons whose distance to every other configuration point is
    at least r; the radius-r/2 balls around them never intersect.

    One kd-tree pair query decides the configuration: pairs within a
    padded r are measured again as the scalar test measures them; a
    pair closer than r, but not at distance zero, blocks both points.
    Singletons within r of the window boundary are uncertain; r is
    each one's certainty radius. The support is lexsorted, so the
    singletons are in canonical order as they come.
    """
    if r <= 0.0:
        raise ValueError(f"hard-core radius must be positive, got {r}")

    def table(eta: PointConfiguration):
        from scipy.spatial import cKDTree

        pts = eta.points
        i, j = cKDTree(pts).query_pairs(r * _REACH + _REACH_FLOOR, output_type="ndarray").T
        dist = np.linalg.norm(pts[j] - pts[i], axis=1)
        close = (dist > 0.0) & (dist < r)
        member = np.ones(len(pts), dtype=bool)
        member[i[close]] = member[j[close]] = False
        uncertain = eta.window.boundary_distance(pts) < r
        radii = np.full(len(pts), float(r))
        return ClusterConfiguration._of(pts, np.arange(len(pts) + 1), uncertain, radii, eta.window), member

    return ClusterProperty(f"hardcore(r={r})", PropertyMode.IN_CONFIGURATION, None, None, None, table=table)


# ---------------------------------------------------------------------------
# Delone simplices with capped circumradius


def _empty_balls(tree, pts, rows, centers, radii, open_ball_mode: bool, grow: float = 1.0):
    """(member, owner, k): whether each row's punctured circumball is empty,
    as the scalar trichotomy measures the points the kd-tree finds off its
    vertices, and each such point k within r * grow of row owner's centre."""
    band = EPS_GEOM * radii
    hits = tree.query_ball_point(centers, np.maximum(radii * grow, (radii + band) * _REACH + _REACH_FLOOR))
    owner = np.repeat(np.arange(len(rows)), [len(h) for h in hits])
    k = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=len(owner))
    foreign = (rows[owner] != k[:, None]).all(axis=1)
    owner, k = owner[foreign], k[foreign]
    dist = np.linalg.norm(pts[k] - centers[owner], axis=1)
    inside = dist < (radii - band)[owner] if open_ball_mode else dist <= (radii + band)[owner]
    near = dist <= (radii * grow)[owner]
    return np.bincount(owner[inside], minlength=len(rows)) == 0, owner[near], k[near]


def _delone_table(eta: PointConfiguration, radius_cap: float, open_ball_mode: bool):
    """The Delone candidates under the cap, as (rows, centers, radii,
    member): ascending index rows in lexicographic order, their
    circumballs (bit for bit `circumball`'s) and whether each punctured
    circumball is empty.

    One `circumballs` call and one kd-tree query decide each Delaunay
    simplex (Qhull; in d = 1 an adjacent pair) and find its group, the
    points within 8 EPS_GEOM of its circumsphere. A larger group gives all
    its (d+1)-subsets: Qhull triangulates a cocircular group one way only,
    while the open ball admits all its simplices, and resolves
    near-cocircular groups only to its own precision, which a thin simplex
    coarsens: of (0, 0), (1e-9, 0), (0.25, 0.25), (0, 0.5) it keeps the
    two triangles on (1e-9, 0) and (0, 0.5), but the closed-ball member is
    the third. Qhull resolves points to about 1e-13 of the extent, so every
    (d+1)-subset within two cap radii of a point with a neighbour within
    1e-10 of the extent is a candidate too. Subsets take a second pass.
    """
    from scipy.spatial import Delaunay, QhullError, cKDTree

    pts = eta.points
    n, d = pts.shape
    tree = cKDTree(pts)
    rows = np.column_stack([np.arange(n - 1), np.arange(1, n)]) if d == 1 else np.empty((0, d + 1), dtype=np.intp)
    if d > 1 and n >= d + 1:
        try:
            # centred input keeps Qhull's lifted coordinates small
            rows = np.sort(Delaunay(pts - pts.mean(axis=0)).simplices.astype(np.intp), axis=1)
        except QhullError:  # affinely degenerate input, e.g. all collinear
            pass
    # An admitted open-ball simplex S off Qhull's triangulation sits off the
    # sphere of a simplex T of its group by up to EPS_GEOM * vol(S) / vol(T).
    # One of the two triangles on a quadrilateral holds half its area, so 2
    # EPS_GEOM covers that; 8 EPS_GEOM leaves room for larger groups and d = 3.
    slack = 1.0 + 8.0 * EPS_GEOM
    centers, radii, ok = circumballs(pts[rows])
    good = ok & (radii <= radius_cap * slack)
    rows, centers, radii = rows[good], centers[good], radii[good]
    member, owner, k = _empty_balls(tree, pts, rows, centers, radii, open_ball_mode, slack)
    ends = np.searchsorted(owner, np.arange(len(rows) + 1))
    groups = {tuple(sorted(rows[j].tolist() + k[ends[j] : ends[j + 1]].tolist())) for j in np.unique(owner)}
    grown = {c for g in groups for c in itertools.combinations(g, d + 1)}
    if n >= d + 1:
        crowded = np.unique(tree.query_pairs(1e-10 * np.ptp(pts, axis=0).max(), output_type="ndarray"))
        near = tree.query_ball_point(pts[crowded], 2.0 * radius_cap * slack)
        grown |= {c for i, g in zip(crowded, near) for c in itertools.combinations(sorted(g), d + 1) if i in c}
    if grown:
        more = np.array(list(grown), dtype=np.intp)
        c2, r2, ok2 = circumballs(pts[more])
        keep = ok2 & (r2 <= radius_cap)
        m2 = _empty_balls(tree, pts, more[keep], c2[keep], r2[keep], open_ball_mode)[0]
        parts = zip((rows, centers, radii, member), (more[keep], c2[keep], r2[keep], m2))
        rows, centers, radii, member = map(np.concatenate, parts)
    # the rows under the cap in lexicographic order; a grown row that is a simplex too is kept once
    order = np.flatnonzero(radii <= radius_cap)
    order = order[np.lexsort(rows[order].T[::-1])]
    order = order[(np.diff(rows[order], axis=0, prepend=-1) != 0).any(axis=1)]
    return rows[order], centers[order], radii[order], member[order]


def delone_property(radius_cap: float, open_ball_mode: bool = False) -> ClusterProperty:
    """Full-dimensional simplices with circumradius at most the cap and
    an empty punctured circumball.

    Literal reading by default: the punctured ball is the closed
    circumball minus exactly the vertex set, so configuration points on
    the circumsphere block the cluster. `open_ball_mode` switches to the
    conventional open-ball Delaunay test.

    Candidates grow out of the Delaunay simplices of the configuration
    (scipy's Qhull), and `_delone_table` decides those under the cap all
    at once. Their index rows are ascending and in lexicographic order,
    and the support is lexsorted, so the candidates are in canonical
    order as they come. A cluster is boundary-uncertain when its
    circumball leaves the window; its circumradius is its certainty
    radius.
    """
    if radius_cap <= 0.0:
        raise ValueError(f"radius cap must be positive, got {radius_cap}")

    def table(eta: PointConfiguration):
        rows, centers, radii, member = _delone_table(eta, radius_cap, open_ball_mode)
        uncertain = ~eta.window.contains_ball(centers, radii)
        points, offsets = eta.points[rows].reshape(-1, eta.dimension), np.arange(0, rows.size + 1, rows.shape[1])
        return ClusterConfiguration._of(points, offsets, uncertain, radii, eta.window), member

    name = f"delone(R={radius_cap})" + (" [open ball]" if open_ball_mode else "")
    return ClusterProperty(name, PropertyMode.IN_CONFIGURATION, None, None, None, table=table)


# ---------------------------------------------------------------------------
# Voronoi cell vertex sets (d = 2), by duality with empty circumballs


def _voronoi_cells(eta: PointConfiguration, cap: float, open_ball_mode: bool):
    """Bounded Voronoi cells of a planar configuration, by duality, with no
    `Cluster` built: (cells, member, sites), the flagged cells in canonical
    order, whether each is a discrete polytope, and each one's centre index.

    A centre's cell closes when it is in three or more Delone triangles
    (`_delone_table`) and each neighbour in them is in exactly two. Their
    circumcenters, by angle (ties in row order), merge into the last kept
    within tol = EPS_GEOM * max(min(1, the largest window corner
    magnitude), the largest vertex magnitude), and a last into the first.
    Three or more left surround the centre, so all are extreme when every
    turn is convex; a cell with a turn (cross product over edge lengths)
    of at most 1e-6 goes to `is_discrete_polytope`.
    """
    if eta.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    if not eta.is_simple:
        raise NotSimple("Voronoi cells by duality require a simple configuration")
    rows, centers, _, member = _delone_table(eta, cap, open_ball_mode)
    rows, centers = rows[member], centers[member]
    # (center, neighbour) incidences, center * n + neighbour, one per triangle and ordered vertex pair
    pairs = rows[:, [0, 0, 1, 1, 2, 2]] * eta.n_atoms + rows[:, [1, 2, 0, 2, 0, 1]]
    edges, uses = np.unique(pairs, return_counts=True)
    closed = np.bincount(rows.ravel(), minlength=eta.n_atoms) >= 3
    closed[edges[uses != 2] // eta.n_atoms] = False
    inc = np.flatnonzero(closed[rows.ravel()])
    site, verts = rows.ravel()[inc], centers[inc // 3]
    order = np.lexsort((np.arctan2(*(verts - eta.points[site]).T[::-1]), site))
    site, verts = site[order], verts[order]
    kept = np.diff(site, prepend=-1) != 0  # each cell's first vertex
    cell, starts = np.cumsum(kept) - 1, np.flatnonzero(kept)
    count, last = np.bincount(cell), starts.copy()
    floor = min(1.0, float(np.abs(eta.window.low + eta.window.high).max()))
    tol = EPS_GEOM * np.maximum(floor, np.maximum.reduceat(np.abs(verts).max(axis=1), starts))
    # the merge, one position of every cell at a time
    for k in (starts[count > j] + j for j in range(1, count.max(initial=0))):
        kept[k] = _norm(verts[k] - verts[last[cell[k]]]) > tol[cell[k]]
        last[cell[k[kept[k]]]] = k[kept[k]]
    kept[last[(last != starts) & (_norm(verts[last] - verts[starts]) <= tol)]] = False
    ring = kept & (np.bincount(cell[kept], minlength=len(starts)) >= 3)[cell]
    _, first, cell, size = np.unique(cell[ring], return_index=True, return_inverse=True, return_counts=True)
    points, site, offsets = verts[ring], site[ring][first], np.append(0, np.cumsum(size))
    radii = np.linalg.norm(points - eta.points[site[cell]], axis=1)
    uncertain = np.bincount(cell, ~eta.window.contains_ball(points, radii), len(site)) > 0
    # the turn at each vertex, from its incoming edge to its outgoing one
    i, lo, hi = np.arange(len(points)), offsets[cell], offsets[cell + 1]
    edge = points[np.where(i == hi - 1, lo, i + 1)] - points
    before = edge[np.where(i == lo, hi - 1, i - 1)]
    sharp = before[:, 0] * edge[:, 1] - before[:, 1] * edge[:, 0] <= 1e-6 * np.hypot(*before.T) * np.hypot(*edge.T)
    member = np.bincount(cell[sharp], minlength=len(site)) == 0
    for k in np.flatnonzero(~member):
        member[k] = is_discrete_polytope(Cluster(points[offsets[k] : offsets[k + 1]]))
    # canonical order: cells compared as their sorted vertex lists, as `Cluster` keys compare
    key = np.full((len(site), size.max(initial=1), 2), -np.inf)
    key[cell, i - lo] = points[np.lexsort((points[:, 1], points[:, 0], cell))]
    order = np.lexsort(key.reshape(-1, 2 * key.shape[1]).T[::-1])
    points = points[np.argsort(np.argsort(order)[cell], kind="stable")]
    cells = ClusterConfiguration._of(points, np.append(0, np.cumsum(size[order])), uncertain[order], None, eta.window)
    return cells, member[order], site[order]


def voronoi_cell_centers(eta: PointConfiguration) -> dict:
    """{bounded Voronoi cell: center}, polytope or not, under `voronoi_property(eta.window)`'s cap."""
    cells, _, site = _voronoi_cells(eta, 2.0 * eta.window.diameter(), False)
    return dict(zip(cells.clusters, map(tuple, eta.points[site])))


def voronoi_property(window: Window, open_ball_mode: bool = False) -> ClusterProperty:
    """Vertex sets of bounded Voronoi cells in the plane that are discrete
    polytopes, counterclockwise from the smallest angle around the center,
    by `_voronoi_cells` under a cap of twice the window diameter, which
    cannot exclude a boundary-certain cell. A cell is boundary-certain when
    each vertex's ball reaching back to the center fits inside the window,
    so that no unseen outside point can displace it. No certainty radius.
    """
    if window.dimension != 2:
        raise UnsupportedDimension("the Voronoi property is implemented for d = 2 only")
    cap = 2.0 * window.diameter()
    table = lambda eta: _voronoi_cells(eta, cap, open_ball_mode)[:2]  # noqa: E731
    return ClusterProperty("voronoi", PropertyMode.FOR_CONFIGURATION, None, None, None, table=table)
