"""Empty-circumball simplices: a Delone-style tessellation with holes.

A triangle of configuration points is a cluster when its closed
circumball contains no other configuration point and its circumradius
stays below the cap R. The result is face-to-face and simplicial, but
where the points thin out no triangle fits under the cap, so the
tessellation has holes; the coverage estimate makes them visible.

Run:  python3 demos/03_delone_tessellation.py
"""

from pathlib import Path

from clustertess import (
    Window,
    build_report,
    delone_property,
    extract_clusters,
    sample_poisson_homogeneous,
)
from clustertess.records import make_record
from clustertess.render import render_record

OUT = Path(__file__).parent / "output"

window = Window((0.0, 0.0), (1.0, 1.0))
radius_cap = 0.12
eta = sample_poisson_homogeneous(100.0, window, seed=4)
cfg = extract_clusters(delone_property(radius_cap), eta)
certain = cfg.certain()

report = build_report(certain, n_samples=4000, seed=99)
print(f"{eta.n_atoms} points, {len(cfg)} clusters ({len(certain)} boundary-certain)")
print(f"simplicial: {report.simplicial}, face-to-face: {report.face_to_face}")
print(
    f"covered fraction: {report.covered_fraction:.3f} +- {report.coverage_se:.3f}"
    f" -> holes detected: {report.holes_detected}"
)

OUT.mkdir(exist_ok=True)
path = OUT / "delone_tessellation.svg"
path.write_text(render_record(make_record(0, eta, certain, report)))
print(f"wrote {path}")

circles = OUT / "delone_circumballs.svg"
circles.write_text(
    render_record(make_record(0, eta, certain, report), show_circumcircles=True)
)
print(f"wrote {circles} (with circumcircles)")
