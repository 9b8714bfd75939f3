"""The package's public names: adding or removing an export is deliberate."""

import types

import sftlearn

PUBLIC = {
    "CandidateScore", "ClassTooLargeError", "EXPERIMENT_IDS", "ExperimentConfig",
    "ExperimentReport", "GibbsChain", "Grammar", "IdentificationOutcome", "Lexicon",
    "OrderRelation", "PerronConvergenceError", "Potential", "Sample", "TransferMatrix",
    "ValidationError", "build_transfer", "chain_stack", "compare", "cylinder_log_measure",
    "default_config", "entropy_via_pressure_derivative", "enumerate_grammars",
    "expected_potential", "format_word", "gibbs_chain", "identify", "is_primitive",
    "parse_word", "periodic_orbit_potential", "perron", "pressure", "pressure_stack",
    "run_experiment", "sample", "score_candidates", "validate_word", "wielandt_exponent",
}


def test_the_package_exports_exactly_the_public_names():
    names = {name for name, value in vars(sftlearn).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 37
    assert names == PUBLIC
