"""The public names of ``fraclap``: a frozen list, each of which resolves."""
import fraclap

PUBLIC = [
    "BoundaryPartition", "ConfigError", "ConstantsReport", "CylinderMesh",
    "ExperimentError", "ExtensionField", "Facet", "Field", "FracParams",
    "Mesh", "MinimizeOptions", "MinimizerReport", "MoveBoundaryResult",
    "NonexistenceReport", "NonlinearitySpec", "OperatorPair",
    "PohozaevReport", "QuotientReport", "RunManifest", "SUBCOMMANDS",
    "SolutionReport", "SpectralBasis", "SweepResult", "TruncatedBasisError",
    "__version__", "apply_overrides", "assemble_operators",
    "attainment_threshold", "build_cylinder", "build_domain",
    "build_tensor_mesh", "config_hash", "constants_report", "critical_norm",
    "critical_power", "cutoff_profile", "dtn", "eigendecompose", "extend",
    "extremal_bubble", "frac_apply", "frac_norm", "growth_defect", "kappa_s",
    "lambda1s", "linear_plus_critical", "load_config", "minimize_quotient",
    "mode_field", "move_boundary_experiment", "moving_family",
    "nonexistence_check", "partition_boundary", "pohozaev_terms", "quotient",
    "quotient_operator", "rescale_to_solution", "resolve_lambda", "run",
    "sobolev_constant", "sobolev_constant_dirichlet", "spectral_tail_bound",
    "sweep_lambda", "test_function_quotient", "validate", "x_norm",
]


def test_all_is_frozen():
    # a name added to or dropped from the package shows here first
    assert len(PUBLIC) == 66
    assert sorted(fraclap.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fraclap, name) is not None
