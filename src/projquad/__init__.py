"""Quadrangulations of projective spaces: construction, audit, and analysis.

The package builds antipodally symmetric coloured spheres whose quotients
are quadrangulations of real projective spaces, identifies the associated
graphs, verifies every structural property it relies on, and computes
exact chromatic numbers and mod-2 homology.

The import block below is the one list of the public API: `__all__` is the
sorted public names it binds, leaving out the submodules that importing
binds on the package.
"""

from types import ModuleType as _ModuleType

from .audits import (
    ball_check,
    boundary_operator_audit,
    cycle_parity_vs_homology,
    fineness_check,
    parity_audit,
    quadrangulation_check,
    sample_closed_walks,
    sphere_check,
    verify_ball_quadrangulation,
    verify_sphere_quadrangulation,
    verify_z2_map_to_box,
)
from .bundles import (
    Bundle,
    load_bundle,
    sphere_quad_from_bundle,
    verify_bundle,
    write_bundle,
)
from .coloring import ChiResult, chromatic_number
from .complexes import (
    Cell,
    Complex,
    ComplexBuilder,
    SimplicialBuilder,
    boundary_cells,
    complex_from_json,
    complex_to_json,
    dump_canonical,
    dump_complex,
    face_closure,
)
from .constructions import (
    BallQuad,
    SphereQuad,
    complete_graph_pipeline,
    cylinder_complete,
    double_to_sphere,
    mycielski_lift,
    mycielski_tower,
    odd_cycle_sphere,
    schrijver_pipeline,
    suspension,
)
from .errors import (
    BadDimension,
    BadParameters,
    BoundContradiction,
    BudgetExceeded,
    InputNotQuadrangulation,
    ParseError,
    ProjquadError,
    UnsupportedParameters,
    VerificationFailed,
)
from .gf2 import Gf2Solver, rank_gf2
from .graphs import (
    Graph,
    box_membership,
    common_neighbours,
    complete_graph,
    cycle_graph,
    graph_from_json,
    graph_to_json,
    kneser_graph,
    label_key,
    mycielskian,
    schrijver_graph,
    to_dimacs,
)
from .homology import (
    HomologyCalculator,
    boundary_of,
    boundary_squares_to_zero,
)
from .homomorphisms import (
    Homomorphism,
    compose_homomorphisms,
    cycle_to_stable_sets,
    homomorphism_from_json,
    homomorphism_to_json,
    iterated_schrijver_homomorphism,
    lift_homomorphism,
    schrijver_homomorphism,
    verify_homomorphism,
)
from .symmetry import (
    BLACK,
    WHITE,
    Involution,
    TwoColouring,
    associated_graph,
    bichromatic_edge_cells,
    double,
    identify_antipodes,
    quotient,
    validate_involution,
)
from .validation import AuditEntry, AuditReport, ValidationReport, Violation

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
