"""Spherical preferences: representation, axioms, rationalizability, cardinal decomposition."""

from types import ModuleType as _ModuleType

from .axioms import (
    AxiomReport,
    ComparisonOracle,
    antipodal_indifference,
    check_homotheticity,
    check_oioi,
    check_perp_diff,
    check_soioi,
    check_strict_convexity,
    find_monotone_direction,
    params_oracle,
    utility_comparison_oracle,
)
from .cardinal import (
    NotQuadraticLinear,
    QuadLinDecomposition,
    UtilityOracle,
    check_eventual_linearity,
    check_status_quo_independence,
    coefficient_oracle,
    decompose,
    extract_f,
    u_orthogonal,
    utility_oracle,
)
from .geometry import EXACT, FLOAT, DimensionMismatch, Scalar, Vec, dot, project_out, sq_norm
from .lp import Constraint, LinearProgram, LpOutcome
from .preference import (
    ANTI_EUCLIDEAN,
    EUCLIDEAN,
    INDIFFERENCE,
    LINEAR,
    Ordering,
    PreferenceClass,
    SphericalParams,
    canonicalize,
    classify,
    compare,
    preference_distance,
    sphere_normal,
    utility,
)
# `rationalize` (the function) is not re-exported: it would shadow the submodule cli.py and the tests import.
from .rationalize import (
    RESTRICT_ANTI_EUCLIDEAN,
    RESTRICT_EUCLIDEAN,
    RESTRICT_LINEAR,
    CertificateSearch,
    ObservationSet,
    RationalizabilityVerdict,
    certificate_lp,
    generate_dataset,
    verify_certificate,
    verify_witness,
)

__version__ = "0.1.0"

# Every name imported above, not the submodules those imports bind.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
