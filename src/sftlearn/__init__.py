"""Subshifts of finite type, Gibbs chains, and grammar identification."""

from .symbolic import (
    ClassTooLargeError,
    Grammar,
    Lexicon,
    OrderRelation,
    ValidationError,
    compare,
    enumerate_grammars,
    format_word,
    is_primitive,
    parse_word,
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
    score_candidates,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentReport,
    default_config,
    run_experiment,
)

__version__ = "0.1.0"
