"""Seeded Monte Carlo experiments over the identification machinery.

Each runner freezes one question into a reproducible protocol:

* ``ml-convergence`` — does maximum likelihood settle on the true grammar
  as the sample grows?
* ``entropy-convergence`` — same for the minimum-entropy learner, plus an
  entropy-monotonicity sweep over scaled copies of the potential.
* ``language-change`` — with a reward on a periodic orbit that only the
  larger grammar allows, the minimum-entropy learner flips to the larger
  grammar once the reward crosses a threshold found by bisection.
* ``ml-misidentification`` — a penalty on the true grammar's extra
  transitions makes finite samples look like they came from the smaller
  grammar.
* ``monotonicity`` — exhaustive strict-pressure-monotonicity scan over all
  comparable primitive pairs of a lexicon under random potentials.
* ``smb`` — convergence of the per-symbol cylinder score to the entropy
  rate along sampled words.

Run ``i`` of an experiment uses seed ``base_seed + i``, and a report is a
pure function of its config, so repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .gibbs import (
    Potential,
    _log_measures,
    _pressure_family,
    _sample_counts,
    chain_stack,
    gibbs_chain,
    periodic_orbit_potential,
)
from .identify import (
    DEFAULT_TIE_TOL,
    _answer_sets,
    _check_tie_tol,
    _outcome,
    _scores,
    validate_checkpoints,
)
from .serialize import (
    _encode_float,
    _finite,
    _int,
    _strict,
    _tuple_of,
    encode_floats,
    grammar_from_dict,
    grammar_to_dict,
    outcome_to_dict,
    potential_from_dict,
    potential_to_dict,
)
from .symbolic import (
    Grammar,
    Lexicon,
    OrderRelation,
    ValidationError,
    compare,
    enumerate_grammars,
    format_word,
)

EXPERIMENT_IDS = (
    "ml-convergence",
    "entropy-convergence",
    "language-change",
    "ml-misidentification",
    "monotonicity",
    "smb",
)

DEFAULT_CHECKPOINTS = (10, 50, 200, 2000)

_GOLDEN_ROWS = ((1, 1), (1, 0))
_FULL_ROWS = ((1, 1), (1, 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a runner needs; unused fields are simply ignored.

    ``candidates=None`` means "enumerate every primitive grammar over the
    relevant lexicon".  Seeds for run ``i`` are ``base_seed + i``.
    """

    experiment: str
    theta: int | None = None
    true_grammar: Grammar | None = None
    lower: Grammar | None = None
    upper: Grammar | None = None
    potential: Potential | None = None
    candidates: tuple[Grammar, ...] | None = None
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    seeds: int = 200
    base_seed: int = 0
    tie_tol: float = DEFAULT_TIE_TOL
    # entropy-convergence: scale factors for the monotonicity sweep
    scales: tuple[float, ...] = ()
    # language-change
    reward: float | str = "auto"
    reward_margin: float = 2.0
    bisect_tol: float = 1e-6
    # ml-misidentification
    penalties: tuple[float, ...] = (10.0,)
    sample_length: int = 50
    # monotonicity scan
    n_potentials: int = 20
    value_bound: float = 2.0
    potential_ranges: tuple[int, ...] = (2, 3)
    # smb
    tolerance: float = 0.05

    def to_dict(self) -> dict:
        out = {f.name: _field_to_json(getattr(self, f.name)) for f in fields(self)}
        if self.candidates is None:
            out["candidates"] = "auto"
        return out

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Build a config from a flat JSON object.  Omitted fields, ``null``
        for a field whose default is ``None``, and ``"candidates": "auto"``
        take the default; any other bad value raises a ``ValidationError``
        naming its field."""
        if not isinstance(data, dict):
            raise ValidationError("experiment config must be a JSON object")
        if "experiment" not in data:
            raise ValidationError("experiment config is missing the 'experiment' field")
        known = {f.name: f.default for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValidationError(f"unknown experiment config field: {key!r}")
        kwargs: dict = {}
        for key, value in data.items():
            if (value is None and known[key] is None) or (key == "candidates" and value == "auto"):
                continue
            try:
                kwargs[key] = _FROM_JSON[key](value)
            except (TypeError, ValueError) as exc:  # ValidationError included
                raise ValidationError(f"experiment config field {key!r}: {exc}") from exc
        return cls(**kwargs)


# JSON value -> field value, one converter per ``ExperimentConfig`` field.
_FROM_JSON = {
    "experiment": _strict(str, str, "a string"),
    "theta": _int,
    "true_grammar": grammar_from_dict,
    "lower": grammar_from_dict,
    "upper": grammar_from_dict,
    "potential": potential_from_dict,
    "candidates": _tuple_of(grammar_from_dict),
    "checkpoints": _tuple_of(_int),
    "seeds": _int,
    "base_seed": _int,
    "tie_tol": _finite,
    "scales": _tuple_of(_finite),
    "reward": lambda v: v if v == "auto" else _finite(v),
    "reward_margin": _finite,
    "bisect_tol": _finite,
    "penalties": _tuple_of(_finite),
    "sample_length": _int,
    "n_potentials": _int,
    "value_bound": _finite,
    "potential_ranges": _tuple_of(_int),
    "tolerance": _finite,
}


def _field_to_json(value):
    if isinstance(value, Grammar):
        return grammar_to_dict(value)
    if isinstance(value, Potential):
        return potential_to_dict(value)
    if isinstance(value, tuple):
        return [_field_to_json(v) for v in value]
    return value


@dataclass
class ExperimentReport:
    """Curve, thresholds, per-candidate table, and run details.

    ``wall_time_s`` is kept on the object for interactive use but excluded
    from serialization so that identical configs render identical bytes.
    """

    experiment: str
    config: dict
    curve: list[dict]
    thresholds: dict = field(default_factory=dict)
    candidate_table: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return encode_floats({
            "experiment": self.experiment,
            "config": self.config,
            "curve": self.curve,
            "thresholds": self.thresholds,
            "candidate_table": self.candidate_table,
            "details": self.details,
        })

    def csv_rows(self) -> list[tuple]:
        return [(row["n"], row["frequency"], row.get("mean_score_gap"))
                for row in self.curve]


def default_config(experiment: str) -> ExperimentConfig:
    """The small two-symbol setups every experiment is calibrated on."""
    lex = Lexicon(2)
    golden = Grammar(lex, _GOLDEN_ROWS)
    full = Grammar(lex, _FULL_ROWS)
    if experiment in ("ml-convergence", "entropy-convergence"):
        return ExperimentConfig(experiment=experiment, true_grammar=golden)
    if experiment == "language-change":
        return ExperimentConfig(experiment=experiment, lower=golden, upper=full)
    if experiment == "ml-misidentification":
        return ExperimentConfig(experiment=experiment, lower=golden, upper=full,
                                penalties=(10.0,), sample_length=50, seeds=500)
    if experiment == "monotonicity":
        return ExperimentConfig(experiment=experiment, theta=2)
    if experiment == "smb":
        return ExperimentConfig(experiment=experiment, true_grammar=golden,
                                checkpoints=(100, 1000, 10000), seeds=50)
    raise ValidationError(f"unknown experiment id: {experiment!r}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_candidates(cfg: ExperimentConfig, lexicon: Lexicon) -> tuple[Grammar, ...]:
    if cfg.candidates is not None:
        for g in cfg.candidates:
            if g.lexicon != lexicon:
                raise ValidationError("candidate lexicon mismatch")
        return tuple(cfg.candidates)
    return tuple(enumerate_grammars(lexicon))


def _index_of(grammar: Grammar, candidates, role: str) -> int:
    for i, g in enumerate(candidates):
        if g == grammar:
            return i
    raise ValidationError(f"{role} grammar is not among the candidates")


def _comparable_pairs(grammars) -> np.ndarray:
    """``(P, 2)`` array of the index pairs ``(i, j)`` with grammar ``i``
    strictly below grammar ``j``; its columns index a whole class at once."""
    stack = np.stack([g.array for g in grammars])
    le = (stack[:, None] <= stack[None, :]).all(axis=(2, 3))
    eq = (stack[:, None] == stack[None, :]).all(axis=(2, 3))
    return np.argwhere(le & ~eq)


def _random_potentials(lexicon: Lexicon, count: int, ranges, bound: float,
                       base_seed: int) -> list[Potential]:
    """Full random tables, values uniform in [-bound, bound], ranges cycled."""
    rng = np.random.default_rng(base_seed)
    out = []
    for k in range(count):
        r = ranges[k % len(ranges)]
        words = list(itertools.product(lexicon.symbols, repeat=r))
        values = rng.uniform(-bound, bound, size=len(words))
        out.append(Potential.from_table(lexicon, r, dict(zip(words, map(float, values)))))
    return out


def _mean(values: list) -> float | None:
    """Mean of Python numbers, summed in order as Python floats so that its
    bits do not depend on numpy's summation order; None if there are none."""
    return sum(values) / len(values) if values else None


def _means(values: np.ndarray, where=True) -> list:
    """:func:`_mean` over seeds (axis 0) of the entries ``where`` holds, at
    each checkpoint (axis 1) of an ``(S, P)`` array."""
    where = np.broadcast_to(where, values.shape)
    return [_mean(v[w].tolist()) for v, w in zip(values.T, where.T)]


def _gap(values: np.ndarray) -> np.ndarray:
    """The largest entry minus the next one down, along the last axis (0 on
    a tie for the largest, inf for a single entry)."""
    best = values.max(axis=-1, keepdims=True)
    top = values == best
    second = np.where(top.sum(axis=-1, keepdims=True) > 1, best,
                      np.where(top, -np.inf, values).max(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore"):   # -inf - -inf where nothing is finite
        return (best - second)[..., 0]


def _entropy_gaps(admissible: np.ndarray, chains):
    """Second-least minus least entropy of the admissible candidates, and
    where two or more admit the word."""
    ents = np.array([c.entropy for c in chains])
    return _gap(np.where(admissible, -ents, -np.inf)), admissible.sum(axis=-1) >= 2


def _seeds(cfg: ExperimentConfig) -> range:
    return range(cfg.base_seed, cfg.base_seed + cfg.seeds)


def _study(cfg: ExperimentConfig, chains, truth: int, ends, n: int):
    """Draw the config's seeds' words of ``n`` symbols from ``chains[truth]``
    and score their prefixes of ``ends`` symbols under every chain: the
    ``(S, P, K)`` log likelihoods, their answer-set masks ``(admissible, ml,
    min_entropy)``, and the first seed's word."""
    _check_tie_tol(cfg.tie_tol)
    word = []
    lls = np.concatenate([_log_measures(chains, ends, heads, counts) for heads, counts
                          in _sample_counts(chains[truth], n, _seeds(cfg), ends, word)])
    return lls, _answer_sets(lls, [c.entropy for c in chains], cfg.tie_tol), word


def _report(cfg: ExperimentConfig, curve, **fields) -> ExperimentReport:
    return ExperimentReport(cfg.experiment, cfg.to_dict(), curve, **fields)


def _study_report(cfg, candidates, chains, end: int, lls, word, details: dict,
                  **report) -> ExperimentReport:
    """A study's report, with the candidate table of the last prefixes'
    scores (of ``end`` symbols) and the first seed's word and outcome."""
    final = lls[:, -1]
    table = [{"grammar": grammar_to_dict(g), "entropy": chain.entropy,
              "admit_frequency": _mean((ll > -np.inf).tolist()),
              "mean_log_likelihood": _encode_float(_mean(ll.tolist()))}
             for g, chain, ll in zip(candidates, chains, final.T)]
    outcome = _outcome(end, _scores(candidates, chains, final[0].tolist()), cfg.tie_tol)
    details["first_seed"] = {"seed": cfg.base_seed, "word": format_word(word),
                             "final_outcome": outcome_to_dict(outcome)}
    return _report(cfg, candidate_table=table, details=details, **report)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency of exact recovery along sample prefixes, by maximum
    likelihood (``ml-convergence``) or minimum entropy
    (``entropy-convergence``, plus a monotonicity sweep over ``scales``)."""
    procedure = "ml" if cfg.experiment == "ml-convergence" else "entropy"
    if cfg.true_grammar is None:
        raise ValidationError(f"{cfg.experiment} needs a true_grammar")
    lex = cfg.true_grammar.lexicon
    phi = cfg.potential if cfg.potential is not None else Potential.zero(lex)
    candidates = _resolve_candidates(cfg, lex)
    truth_idx = _index_of(cfg.true_grammar, candidates, "true")
    chains = chain_stack(candidates, phi)
    cps = validate_checkpoints(cfg.checkpoints)
    lls, (admissible, ml, me), word = _study(cfg, chains, truth_idx, cps,
                                             max(cps[-1], phi.range - 1))
    if procedure == "ml":
        defined = admissible.any(axis=-1) & (len(chains) > 1)   # a finite best, and a second
        chosen, gaps = ml, (_gap(lls), defined)
    else:
        chosen, gaps = me, _entropy_gaps(admissible, chains)
    success = chosen[..., truth_idx] & (chosen.sum(axis=-1) == 1)   # the truth alone
    curve = [{"n": cp, "frequency": f, "mean_score_gap": g}
             for cp, f, g in zip(cps, _means(success), _means(*gaps))]
    details = {"true_index": truth_idx}
    if procedure == "entropy" and cfg.scales:
        details["monotonicity"] = _entropy_monotonicity_sweep(candidates, phi, cfg.scales)
    return _study_report(cfg, candidates, chains, cps[-1], lls, word, details, curve=curve)


def _entropy_monotonicity_sweep(candidates, phi: Potential, scales) -> dict:
    lower, upper = _comparable_pairs(candidates).T
    rows, first_fail = [], None
    for s in sorted(scales):
        ents = np.array([c.entropy for c in chain_stack(candidates, phi.scaled(s))])
        deltas = ents[upper] - ents[lower]
        violations = int((deltas <= 0).sum())
        rows.append({"scale": s, "violations": violations,
                     "min_entropy_gap": float(deltas.min()) if len(deltas) else None})
        if violations and first_fail is None:
            first_fail = s
    return {"pairs": len(lower), "scales": rows, "first_failing_scale": first_fail}


def entropy_crossing(lower: Grammar, upper: Grammar, tol: float = 1e-6) -> float:
    """Smallest orbit reward at which the rewarded chain on ``upper`` drops
    below the entropy of ``lower``'s chain, located by bisection to within
    ``tol > 0`` or until no float lies between the ends.

    The reward potential vanishes on words admissible under ``lower``, so
    the comparison baseline is ``lower``'s topological entropy throughout,
    solved once.  The rewarded entropy tends to 0, below it, so a crossing exists.
    """
    if compare(lower, upper) is not OrderRelation.LESS:
        raise ValidationError("entropy_crossing needs lower strictly below upper")
    if not tol > 0:
        raise ValidationError(f"bisect_tol must be > 0, got {tol!r}")

    baseline = gibbs_chain(lower, periodic_orbit_potential(lower, upper, 0.0)).entropy

    def gap(reward: float) -> float:
        return gibbs_chain(upper, periodic_orbit_potential(lower, upper, reward)).entropy - baseline

    lo, hi = 0.0, 1.0
    if gap(lo) <= 0:
        raise RuntimeError("entropy of the larger grammar does not exceed the smaller at reward 0")
    while gap(hi) >= 0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):   # no float lies between the ends
            break
        if gap(mid) < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def run_language_change(config: ExperimentConfig) -> ExperimentReport:
    """Reward a periodic orbit outside the smaller language and watch the
    minimum-entropy learner switch to the larger grammar while maximum
    likelihood stays with the true (smaller) one."""
    cfg = config
    if cfg.lower is None or cfg.upper is None:
        raise ValidationError("language-change needs lower and upper grammars")
    lex = cfg.lower.lexicon
    crossing = entropy_crossing(cfg.lower, cfg.upper, cfg.bisect_tol)
    reward = crossing + cfg.reward_margin if cfg.reward == "auto" else float(cfg.reward)
    phi = periodic_orbit_potential(cfg.lower, cfg.upper, reward)
    candidates = _resolve_candidates(cfg, lex)
    lower_idx = _index_of(cfg.lower, candidates, "lower")
    upper_idx = _index_of(cfg.upper, candidates, "upper")
    chains = chain_stack(candidates, phi)
    cps = validate_checkpoints(cfg.checkpoints)
    lls, (admissible, ml, me), word = _study(cfg, chains, lower_idx, cps,
                                             max(cps[-1], phi.range - 1))
    flip = me[..., upper_idx] & ~me[..., lower_idx]
    ml_true = ml[..., lower_idx] & (ml.sum(axis=-1) == 1)
    curve = [{"n": cp, "frequency": f, "mean_score_gap": g, "ml_frequency": m}
             for cp, f, g, m in zip(cps, _means(flip), _means(*_entropy_gaps(admissible, chains)),
                                    _means(ml_true))]
    return _study_report(
        cfg, candidates, chains, cps[-1], lls, word,
        {"lower_index": lower_idx, "upper_index": upper_idx,
         "orbit_potential": potential_to_dict(phi)},
        curve=curve,
        thresholds={"entropy_crossing": crossing, "reward": reward,
                    "bisect_tol": cfg.bisect_tol},
    )


def run_ml_misidentification(config: ExperimentConfig) -> ExperimentReport:
    """Penalize the true grammar's extra transitions and measure how often a
    short sample is maximum-likelihood-attributed to the smaller grammar."""
    cfg = config
    if cfg.lower is None or cfg.upper is None:
        raise ValidationError("ml-misidentification needs lower and upper grammars")
    if compare(cfg.lower, cfg.upper) is not OrderRelation.LESS:
        raise ValidationError("ml-misidentification needs lower strictly below upper")
    lex = cfg.lower.lexicon
    candidates = _resolve_candidates(cfg, lex)
    lower_idx = _index_of(cfg.lower, candidates, "lower")
    upper_idx = _index_of(cfg.upper, candidates, "upper")
    extra = [(a, b) for a in lex.symbols for b in lex.symbols
             if cfg.upper.matrix[a][b] and not cfg.lower.matrix[a][b]]
    curve = []
    first = None
    n = cfg.sample_length
    for penalty in cfg.penalties:
        phi = Potential.from_table(lex, 2, {pair: -float(penalty) for pair in extra})
        chains = chain_stack(candidates, phi)
        lls, (admissible, ml, _), word = _study(cfg, chains, upper_idx, (n,), n)
        avoided = admissible[:, 0, lower_idx]
        hits = avoided & ml[:, 0, lower_idx] & ~ml[:, 0, upper_idx]
        gaps = lls[avoided, 0, lower_idx] - lls[avoided, 0, upper_idx]
        if first is None:
            first = {"seed": cfg.base_seed, "penalty": penalty, "word": format_word(word)}
        curve.append({"n": cfg.sample_length, "penalty": penalty,
                      "frequency": _mean(hits.tolist()), "mean_score_gap": _mean(gaps.tolist()),
                      "avoid_frequency": _mean(avoided.tolist())})
    return _report(cfg, curve, thresholds={"penalized_transitions": [list(p) for p in extra]},
                   details={"first_seed": first, "lower_index": lower_idx, "upper_index": upper_idx})


def run_monotonicity_scan(config: ExperimentConfig) -> ExperimentReport:
    """Strict pressure monotonicity over every comparable primitive pair of a
    lexicon, swept across the zero potential and random finite-range tables."""
    cfg = config
    if cfg.theta is None:
        raise ValidationError("monotonicity scan needs a theta")
    if cfg.n_potentials > 0 and not cfg.potential_ranges:
        raise ValidationError("potential_ranges must list at least one range when n_potentials > 0")
    lex = Lexicon(cfg.theta)
    grammars = enumerate_grammars(lex)
    lower, upper = _comparable_pairs(grammars).T
    potentials = [Potential.zero(lex)] + _random_potentials(
        lex, cfg.n_potentials, cfg.potential_ranges, cfg.value_bound, cfg.base_seed)
    values = _pressure_family(grammars, potentials)
    deltas = values[:, upper] - values[:, lower]
    violations = (deltas <= 0).sum(axis=1).tolist()
    gaps = deltas.min(axis=1, initial=math.inf).tolist()
    lams = np.array([math.exp(v) for v in values[0].tolist()])
    curve = [{"n": k, "range": phi.range, "frequency": v / len(lower) if len(lower) else 0.0,
              "mean_score_gap": gap}
             for k, (phi, v, gap) in enumerate(zip(potentials, violations, gaps))]
    return _report(
        cfg, curve,
        thresholds={"min_pressure_gap": min(gaps),
                    "min_lambda_gap_zero_potential":
                        float((lams[upper] - lams[lower]).min(initial=math.inf)),
                    "comparable_pairs": len(lower),
                    "grammars": len(grammars),
                    "violations": sum(violations)},
    )


def run_smb(config: ExperimentConfig) -> ExperimentReport:
    """Fraction of sampled words whose per-symbol cylinder score sits within
    a tolerance of the chain's entropy rate, along growing prefixes."""
    cfg = config
    if cfg.true_grammar is None:
        raise ValidationError("smb needs a true_grammar")
    lex = cfg.true_grammar.lexicon
    phi = cfg.potential if cfg.potential is not None else Potential.zero(lex)
    chain = gibbs_chain(cfg.true_grammar, phi)
    cps = validate_checkpoints(cfg.checkpoints)
    n = max(cps[-1], phi.range - 1)
    estimates = np.concatenate([_log_measures((chain,), cps, heads, counts)[..., 0]
                                for heads, counts in _sample_counts(chain, n, _seeds(cfg), cps)])
    estimates = -estimates / cps
    devs = np.abs(estimates - chain.entropy)
    curve = [{"n": cp, "frequency": f, "mean_score_gap": g}
             for cp, f, g in zip(cps, _means(devs <= cfg.tolerance), _means(devs))]
    return _report(cfg, curve, thresholds={"tolerance": cfg.tolerance, "entropy": chain.entropy},
                   details={"final_estimates": estimates[:, -1].tolist()})


_RUNNERS = {
    "ml-convergence": _run_convergence,
    "entropy-convergence": _run_convergence,
    "language-change": run_language_change,
    "ml-misidentification": run_ml_misidentification,
    "monotonicity": run_monotonicity_scan,
    "smb": run_smb,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a config to its runner by experiment id and time the run."""
    if config.experiment not in _RUNNERS:
        raise ValidationError(
            f"unknown experiment id {config.experiment!r}; expected one of {EXPERIMENT_IDS}")
    if config.seeds < 1:
        raise ValidationError("seeds must be a positive count of runs")
    if config.base_seed < 0:
        raise ValidationError(f"base_seed must be nonnegative, got {config.base_seed}")
    started = time.perf_counter()
    report = _RUNNERS[config.experiment](config)
    report.wall_time_s = time.perf_counter() - started
    return report
