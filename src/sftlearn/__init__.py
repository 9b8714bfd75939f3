"""Subshifts of finite type, Gibbs chains, and grammar identification."""

from .symbolic import (
    ClassTooLargeError,
    Grammar,
    Lexicon,
    OrderRelation,
    ValidationError,
    admits,
    all_words,
    compare,
    enumerate_grammars,
    format_word,
    is_primitive,
    parse_word,
    transition_closure,
    validate_word,
    wielandt_exponent,
)
from .gibbs import (
    GibbsChain,
    PerronConvergenceError,
    Potential,
    Sample,
    TransferMatrix,
    build_transfer,
    chain_stack,
    cylinder_log_measure,
    entropy_via_pressure_derivative,
    expected_potential,
    gibbs_chain,
    periodic_orbit_potential,
    perron,
    pressure,
    pressure_stack,
    sample,
)
from .identify import (
    CandidateScore,
    IdentificationOutcome,
    identify,
    identify_curve,
    score_candidates,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentReport,
    default_config,
    run_experiment,
    run_language_change,
    run_ml_misidentification,
    run_monotonicity_scan,
    run_smb,
)

__version__ = "0.1.0"
