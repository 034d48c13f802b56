"""Voronoi cell vertex sets: clusters *for* a configuration.

Voronoi cell vertices are generally not configuration points, so these
clusters live alongside the configuration rather than inside it. Each
bounded cell is recovered through duality: its vertices are the
circumcenters of the empty-circumball triangles around the center.
Cells whose vertices could be displaced by unseen points outside the
window are flagged uncertain; the certain ones tile their region
completely.

Run:  python3 demos/04_voronoi_cells.py
"""

from pathlib import Path

from clustertess import (
    Window,
    extract_clusters,
    sample_poisson_homogeneous,
    voronoi_cell_centers,
    voronoi_property,
)
from clustertess.records import make_record
from clustertess.render import render_record

OUT = Path(__file__).parent / "output"

window = Window((0.0, 0.0), (1.0, 1.0))
eta = sample_poisson_homogeneous(60.0, window, seed=15)
cells = extract_clusters(voronoi_property(window), eta)
centers = voronoi_cell_centers(eta)

print(f"{eta.n_atoms} points generate {len(cells)} bounded cells")
print(f"{len(cells.certain())} cells are boundary-certain")
sizes = sorted(len(c) for c in cells.clusters)
print(f"cell vertex counts range from {sizes[0]} to {sizes[-1]}")
example = cells.certain().clusters[0]
print("one certain cell, counterclockwise from the smallest angle:")
for v in example.points:
    print(f"   ({v[0]:.4f}, {v[1]:.4f})")
cx, cy = centers[example]
print(f"   around center ({cx:.4f}, {cy:.4f})")

OUT.mkdir(exist_ok=True)
path = OUT / "voronoi_cells.svg"
path.write_text(render_record(make_record(0, eta, cells)))
print(f"wrote {path}")
