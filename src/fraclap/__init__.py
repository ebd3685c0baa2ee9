"""Spectral fractional Laplacian laboratory with mixed boundary conditions.

Two equivalent realizations of the fractional operator (eigenexpansion
power and weighted cylinder extension), constrained critical-quotient
minimization, boundary-moving and lambda-sweep experiments, and an
identity-based audit of computed solutions.
"""
from .mesh import (
    Mesh,
    Facet,
    BoundaryPartition,
    build_tensor_mesh,
    partition_boundary,
    moving_family,
)
from .spectral import (
    OperatorPair,
    SpectralBasis,
    assemble_operators,
    eigendecompose,
    quotient_operator,
)
from .fractional import (
    FracParams,
    Field,
    ConstantsReport,
    QuotientReport,
    TruncatedBasisError,
    mode_field,
    frac_apply,
    frac_norm,
    spectral_tail_bound,
    lambda1s,
    sobolev_constant,
    kappa_s,
    attainment_threshold,
    constants_report,
    critical_norm,
    test_function_quotient,
    extremal_bubble,
    cutoff_profile,
)
from .extension import (
    CylinderMesh,
    ExtensionField,
    build_cylinder,
    extend,
    dtn,
    x_norm,
)
from .critical import (
    MinimizeOptions,
    MinimizerReport,
    SolutionReport,
    SweepResult,
    MoveBoundaryResult,
    quotient,
    minimize_quotient,
    sobolev_constant_dirichlet,
    rescale_to_solution,
    sweep_lambda,
    move_boundary_experiment,
)
from .pohozaev import (
    NonlinearitySpec,
    PohozaevReport,
    NonexistenceReport,
    critical_power,
    linear_plus_critical,
    growth_defect,
    pohozaev_terms,
    nonexistence_check,
)
from .config import (
    ConfigError,
    load_config,
    apply_overrides,
    validate,
    config_hash,
    build_domain,
    resolve_lambda,
)
from .experiments import (
    ExperimentError,
    RunManifest,
    SUBCOMMANDS,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "Facet", "BoundaryPartition",
    "build_tensor_mesh", "partition_boundary", "moving_family",
    "OperatorPair", "SpectralBasis", "assemble_operators",
    "eigendecompose", "quotient_operator",
    "FracParams", "Field", "ConstantsReport", "QuotientReport",
    "TruncatedBasisError", "mode_field", "frac_apply", "frac_norm",
    "spectral_tail_bound", "lambda1s",
    "sobolev_constant", "kappa_s", "attainment_threshold",
    "constants_report", "critical_norm", "test_function_quotient",
    "extremal_bubble", "cutoff_profile",
    "CylinderMesh", "ExtensionField", "build_cylinder", "extend", "dtn",
    "x_norm",
    "MinimizeOptions", "MinimizerReport", "SolutionReport", "SweepResult",
    "MoveBoundaryResult", "quotient", "minimize_quotient",
    "sobolev_constant_dirichlet", "rescale_to_solution", "sweep_lambda",
    "move_boundary_experiment",
    "NonlinearitySpec", "PohozaevReport", "NonexistenceReport",
    "critical_power", "linear_plus_critical", "growth_defect",
    "pohozaev_terms", "nonexistence_check",
    "ConfigError", "load_config", "apply_overrides", "validate",
    "config_hash", "build_domain", "resolve_lambda",
    "ExperimentError", "RunManifest", "SUBCOMMANDS", "run",
    "__version__",
]
