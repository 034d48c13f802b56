"""Random cluster tessellations.

Point processes on bounded windows, cluster extraction through cluster
properties (hard-core, Delone, Voronoi), tessellation validation, and
randomized silver-mean cut-and-project chains, with a statistical
verification harness on top.
"""

from .errors import (
    AmbiguousDecomposition,
    BallsOverlap,
    ClusterTessError,
    ConfigError,
    DegenerateSimplex,
    DuplicatePoints,
    EpsilonTooLarge,
    NonSimplicialInput,
    NotSimple,
    TooFewPoints,
    UnsupportedDimension,
)
from .geometry import (
    EPS_GEOM,
    Ball,
    Cluster,
    FaceRelation,
    circumball,
    circumballs,
    common_face_check,
    convex_hull_vertices,
    is_discrete_polytope,
)
from .pointproc import (
    DiscreteIntensity,
    PointConfiguration,
    Window,
    barycentre_shift,
    deterministic_lattice,
    min_pairwise_distance,
    sample_poisson_discrete,
    sample_poisson_homogeneous,
    support,
)
from .clusterprops import (
    ClusterConfiguration,
    ClusterProperty,
    PropertyMode,
    delone_property,
    extract_clusters,
    hardcore_property,
    voronoi_cell_centers,
    voronoi_property,
)
from .tessellation import (
    TessellationReport,
    build_report,
    check_face_to_face,
    check_simplicial,
    covered_fraction,
    hull_contains_points,
)
from .cutproject import (
    MIN_LATTICE_DISTANCE,
    SQRT2,
    STRIP_HALF_WIDTH,
    Chain,
    LatticeIndex,
    band_points,
    chain_from_points,
    decompose_length,
    deterministic_chain,
    lattice_sites_in_window,
    shifted_chain,
    strip_points,
    thinned_chain,
)
from .stats import (
    CHI2_MIN_EXPECTED,
    CHI2_SIGNIFICANCE,
    SIGMA_BAND,
    TestReport,
    TileHistogram,
    cluster_intensity_scan,
    occupation_test,
    poisson_chi_square,
    poisson_count_test,
    tile_length_histogram,
)
from .randomness import (
    INVERSION_CUTOFF,
    make_rng,
    mix_seed,
    poisson_count,
    poisson_counts,
    replication_batches,
    replication_rngs,
    replication_uniforms,
    splitmix64,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
