"""Variable-exponent Kirchhoff variational toolkit.

Luxemburg norms and modulars on variable-exponent spaces, the nonlocal
Kirchhoff energy with its exact discrete gradient and Hessian,
Rayleigh-quotient eigenvalue estimates, a numerical mountain-pass solver
with compactness threshold monitoring and a Morse-index report, and a
symmetry-aware multiplicity search, all on 1-D interval and 2-D
criss-cross triangle meshes.
"""

from .discretization import (
    GridFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    centroid_values,
    element_gradients,
    gradient_of,
    integrate,
)
from .energy import (
    ARReport,
    KirchhoffProblem,
    NonlinearitySpec,
    ar_condition_check,
    energy_J,
    gradient_J,
    hessian_J,
    kirchhoff_A,
    nonlinearity_eval,
)
from .errors import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    MaxIterations,
    MissingKey,
    ParseError,
    ShapeError,
)
from .exponents import (
    ExponentField,
    ValidationReport,
    build_exponent_field,
    constant_exponent,
    critical_exponent,
    default_theta,
    validate_problem_exponents,
)
from .modular_spaces import (
    ModularNormReport,
    check_modular_norm_relations,
    conjugate_field,
    holder_pairing,
    luxemburg_norm,
    modular,
    sobolev_norm,
)
from .solver import (
    GeometryReport,
    RayleighResult,
    SolveReport,
    find_negative_energy_point,
    laplace_eigenbasis,
    mountain_pass_solve,
    multiplicity_search,
    rayleigh_quotient_min,
    verify_mountain_geometry,
)

__version__ = "0.1.0"
