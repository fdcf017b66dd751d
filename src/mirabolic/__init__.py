"""Exact mirabolic coadjoint-orbit classification for GL(n) over R and C.

The package classifies mirabolic coadjoint orbits into (depth, head-orbit)
normal forms with exact rational arithmetic, computes moment-map images of
GL coadjoint orbits both by closed form and by an independent
conjugate-project-classify oracle, attaches symbolic unitary labels on both
sides, and machine-checks that restriction lands on the attachment of the
unique dense image orbit.
"""
from .exact_linalg import (
    ExactMatrix,
    SpectrumMismatch,
    block_diag,
    integer_rank,
    inverse,
    jordan_structure,
    rank,
)
from .partitions import Partition, partitions_of_weight
from .orbit_model import (
    COMPLEX,
    REAL,
    EigenvalueClass,
    MirabolicOrbitDatum,
    OrbitDatum,
    OrbitSpecError,
    jordan_block,
    orbit_from_json,
    orbit_from_matrix,
    pair_block,
    project_to_p_star,
    realize_normal_form,
    realize_orbit,
)
from .classify import (
    MalformedRepresentative,
    certificate_holds,
    classify,
    classify_certified,
    gl_centralizer_dim,
    point_stabilizer_dim,
    stabilizer_dim,
)
from .enumeration import (
    IndexSelection,
    enumerate_selections,
    selection_conjugator,
    selection_positions,
)
from .moment import (
    GeometryReport,
    check_geometry,
    dense_selection,
    oracle_image,
    symbolic_image,
)
from .rep_theory import (
    CHARACTER,
    SPEH,
    SPEH_CS,
    STEIN,
    Factor,
    MirabolicRepLabel,
    RepLabel,
    RestrictionReport,
    UnsupportedOrbitShape,
    adduce,
    all_sign_choices,
    attach_gl_rep,
    attach_mirabolic_rep,
    character,
    restrict_to_mirabolic,
    restriction_reports,
    sign_shape,
    speh,
    speh_complementary,
    stein,
    verify_restriction,
)

__version__ = "0.1.0"
