"""Propagation of Hilbert-space subspace frames and the decomposition of
their time evolution into holonomic and dynamical parts."""

from .dynamics import (
    Constant,
    FramePath,
    HamiltonianSpec,
    Sampled,
    TimeGrid,
    propagate_frame,
)
from .holonomy import (
    DecompositionReport,
    GeneratorPath,
    connection_path,
    kw_wf_residual,
    ordered_factor,
    separability_report,
    solve_anandan,
    trivial_shift_check,
    yu_tong_factors,
)
from .lambda_system import (
    LambdaParams,
    case_i_analytic,
    case_ii_analytic,
    case_iii_analytic,
    case_setup,
)
from .linalg import (
    Tolerances,
    commutator_norm,
    expm_skew,
    polar_decompose,
)
from .sections import (
    Custom,
    Fixed,
    InPhaseViolation,
    PhaseAnchored,
    SectionError,
    SectionPath,
    build_section,
    gauge_transform,
    u_matrix_path,
    w_path,
)

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "Custom",
    "DecompositionReport",
    "Fixed",
    "FramePath",
    "GeneratorPath",
    "HamiltonianSpec",
    "InPhaseViolation",
    "LambdaParams",
    "PhaseAnchored",
    "Sampled",
    "SectionError",
    "SectionPath",
    "TimeGrid",
    "Tolerances",
    "build_section",
    "case_i_analytic",
    "case_ii_analytic",
    "case_iii_analytic",
    "case_setup",
    "commutator_norm",
    "connection_path",
    "expm_skew",
    "gauge_transform",
    "kw_wf_residual",
    "ordered_factor",
    "polar_decompose",
    "propagate_frame",
    "separability_report",
    "solve_anandan",
    "trivial_shift_check",
    "u_matrix_path",
    "w_path",
    "yu_tong_factors",
]
