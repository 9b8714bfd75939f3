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

import functools
import itertools
import math
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .gibbs import (_KERNEL_TERMS, Potential, _log_measures, _pressure_family, _sample_counts,
                    chain_stack, gibbs_chain, periodic_orbit_potential, sample)
from .identify import DEFAULT_TIE_TOL, _answer_sets, _check_tie_tol, _outcome, _scores
from .serialize import (CSV_HEADER, _int, _number, _read, _strict, _tuple_of, encode_floats,
                        grammar_from_dict, grammar_to_dict, outcome_to_dict, potential_from_dict,
                        potential_to_dict, word_to_json)
from .symbolic import (Grammar, Lexicon, OrderRelation, ValidationError, _integers, _real, compare,
                       enumerate_grammars)

DEFAULT_CHECKPOINTS = (10, 50, 200, 2000)

_GOLDEN_ROWS = ((1, 1), (1, 0))
_FULL_ROWS = ((1, 1), (1, 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a runner needs.  Every field's type is checked when the config
    is built, and the field holds its value converted by :func:`_converter`;
    ranges are checked only by the runners that read them.

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

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _read(vars(self), "experiment config", f.name, _converter(f.type)))

    def to_dict(self) -> dict:
        out = {f.name: _field_to_json(getattr(self, f.name)) for f in fields(self)}
        if self.candidates is None:
            out["candidates"] = "auto"
        return out

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Build a config from a flat JSON object.  Omitted fields, and
        ``"candidates": "auto"``, take the default; any bad value raises a
        ``ValidationError`` naming its field."""
        if not isinstance(data, dict):
            raise ValidationError("experiment config must be a JSON object")
        if "experiment" not in data:
            raise ValidationError("experiment config is missing the 'experiment' field")
        names = {f.name for f in fields(cls)}
        for key in data:
            if key not in names:
                raise ValidationError(f"unknown experiment config field: {key!r}")
        return cls(**{key: value for key, value in data.items()
                      if not (key == "candidates" and value == "auto")})


# field value, or its JSON form -> field value, by a config field's type.
_CONVERTERS = {
    str: _strict(str, str, "a string"),
    int: _int,
    float: _number,
    float | str: lambda v: v if v == "auto" else _number(v),
    Grammar: lambda v: v if isinstance(v, Grammar) else grammar_from_dict(v),
    Potential: lambda v: v if isinstance(v, Potential) else potential_from_dict(v),
}


@functools.cache
def _converter(hint):
    """The converter of a field annotated ``hint`` (a type: this module does not
    postpone annotations): a ``_CONVERTERS`` type, ``tuple[X, ...]`` of one, or
    ``X | None`` (``null`` reads ``None``).  Each takes its own output back unchanged."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        convert = _converter(inner)
        return lambda v: None if v is None else convert(v)
    if typing.get_origin(hint) is tuple and args[1:] == (...,):
        return _tuple_of(_converter(args[0]))
    return _CONVERTERS[hint]


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
        return encode_floats({k: v for k, v in vars(self).items() if k != "wall_time_s"})

    def csv_rows(self) -> list[tuple]:
        return [tuple(row.get(column) for column in CSV_HEADER) for row in self.curve]


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
    """The config's candidates, or every primitive grammar over ``lexicon``;
    a candidate over another lexicon is rejected by the class solve."""
    return tuple(enumerate_grammars(lexicon) if cfg.candidates is None else cfg.candidates)


def validate_checkpoints(checkpoints) -> list[int]:
    """Check that prefix lengths are nonempty, positive and strictly increasing."""
    cps = list(_integers(checkpoints, "checkpoint"))
    if not cps:
        raise ValidationError("checkpoints must list at least one prefix length")
    if cps[0] < 1:
        raise ValidationError("checkpoints must be at least 1 (the empty prefix is not scored)")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be strictly increasing")
    return cps


def _index_of(grammar: Grammar, candidates: tuple, role: str) -> int:
    if grammar not in candidates:
        raise ValidationError(f"{role} grammar is not among the candidates")
    return candidates.index(grammar)


def _order_gaps(values: np.ndarray, grammars) -> tuple[int, list, list]:
    """The number of pairs of ``grammars`` with ``lower`` strictly below ``upper``, and per row
    of a ``(rows, K)`` array how many of them have ``values[upper] <= values[lower]`` and the
    least ``values[upper] - values[lower]`` (inf with no pairs).  The grammars of each edge
    count are tested against those with more, ``lower & ~upper == 0`` on their incidence bits
    packed in 64-bit words, about ``_KERNEL_TERMS`` word tests (and their pairs) at a time."""
    bits = np.array([g.matrix for g in grammars], dtype=bool).reshape(len(grammars), -1)
    edges = bits.sum(axis=1)
    codes = np.packbits(np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64))), axis=1,
                        bitorder="little").view("<u8")
    count, violations, gaps = 0, np.zeros(len(values), np.int64), np.full(len(values), math.inf)
    for e in set(edges.tolist()):
        lowers, uppers = np.flatnonzero(edges == e), np.flatnonzero(edges > e)
        absent = ~codes[uppers]
        step = max(1, _KERNEL_TERMS // max(1, absent.size))
        for start in range(0, len(lowers), step):
            chunk = lowers[start:start + step]
            lo, up = np.nonzero(~(codes[chunk, None] & absent).any(axis=-1))
            deltas = values[:, uppers[up]] - values[:, chunk[lo]]
            count += len(lo)
            violations += (deltas <= 0).sum(axis=1)
            np.minimum(gaps, deltas.min(axis=1, initial=math.inf), out=gaps)
    return count, violations.tolist(), gaps.tolist()


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


def _mean(values) -> float | None:
    """Mean of numbers or bools added left to right from 0 by a cumulative sum, as Python 3.11's
    ``sum`` adds them (3.12's compensates), so that printed means do not depend on the Python
    version; None if there are none."""
    if not len(values):
        return None
    with np.errstate(all="ignore"):   # inf - inf reads nan, as in Python
        return float(np.cumsum(values)[-1] + 0.0) / len(values)   # from 0: -0.0 reads 0.0


def _means(values: np.ndarray, where=True) -> list:
    """:func:`_mean` over seeds (axis 0) of the entries ``where`` holds, at
    each checkpoint (axis 1) of an ``(S, P)`` array."""
    where = np.broadcast_to(where, values.shape)
    return [_mean(v[w]) for v, w in zip(values.T, where.T)]


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


def _study(cfg: ExperimentConfig, phi: Potential, candidates, truth: Grammar, role: str, ends):
    """The one study path: solve the candidates' chains under ``phi``, draw
    the config's seeds' words from the chain of ``truth`` (the ``role``
    grammar, one of the candidates), of ``ends[-1]`` symbols or one block,
    as counts, and score their prefixes of ``ends`` symbols under every chain.
    Returns the chains, the truth's index, the ``(S, P, K)`` log likelihoods
    and their answer-set masks ``(admissible, ml, min_entropy)``."""
    index = _index_of(truth, candidates, role)
    chains = chain_stack(candidates, phi)
    draws = _sample_counts(chains[index], max(ends[-1], phi.range - 1), _seeds(cfg), ends)
    lls = np.concatenate([_log_measures(chains, ends, heads, counts) for heads, counts in draws])
    return chains, index, lls, _answer_sets(lls, [c.entropy for c in chains], cfg.tie_tol)


def _first_word(cfg: ExperimentConfig, chain, n: int):
    """The JSON form of the first seed's word of a :func:`_study` of ``n`` symbols from ``chain``."""
    word = sample(chain, max(n, chain.potential.range - 1), cfg.base_seed).word
    return word_to_json(word, chain.grammar.lexicon)


def _report(cfg: ExperimentConfig, curve, **fields) -> ExperimentReport:
    return ExperimentReport(cfg.experiment, cfg.to_dict(), curve, **fields)


def _study_report(cfg, candidates, chains, index, lls, details: dict,
                  **report) -> ExperimentReport:
    """A study's report, with the candidate table of the scores at the last
    checkpoint and the first seed's word (from ``chains[index]``) and outcome."""
    final = lls[:, -1]
    table = [{"grammar": grammar_to_dict(g), "entropy": chain.entropy,
              "admit_frequency": _mean(ll > -np.inf), "mean_log_likelihood": _mean(ll)}
             for g, chain, ll in zip(candidates, chains, final.T)]
    outcome = _outcome(int(cfg.checkpoints[-1]), _scores(candidates, chains, final[0].tolist()),
                       cfg.tie_tol)
    details["first_seed"] = {"seed": cfg.base_seed,
                             "word": _first_word(cfg, chains[index], cfg.checkpoints[-1]),
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
    _check_tie_tol(cfg.tie_tol)
    cps = validate_checkpoints(cfg.checkpoints)
    lex = cfg.true_grammar.lexicon
    phi = cfg.potential if cfg.potential is not None else Potential.zero(lex)
    candidates = _resolve_candidates(cfg, lex)
    chains, truth_idx, lls, (admissible, ml, me) = _study(
        cfg, phi, candidates, cfg.true_grammar, "true", cps)
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
    return _study_report(cfg, candidates, chains, truth_idx, lls, details, curve=curve)


def _entropy_monotonicity_sweep(candidates, phi: Potential, scales) -> dict:
    scales = sorted(scales)
    ents = np.array([[c.entropy for c in chain_stack(candidates, phi.scaled(s))] for s in scales])
    pairs, violations, gaps = _order_gaps(ents, candidates)
    rows = [{"scale": s, "violations": v, "min_entropy_gap": g if pairs else None}
            for s, v, g in zip(scales, violations, gaps)]
    return {"pairs": pairs, "scales": rows,
            "first_failing_scale": next((s for s, v in zip(scales, violations) if v), None)}


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
    if not _real(tol, "bisect_tol") > 0:
        raise ValidationError(f"bisect_tol must be > 0, got {tol!r}")

    orbit = periodic_orbit_potential(lower, upper, 1.0)   # scaled(r) rewards r: 1.0 * r == r
    baseline = gibbs_chain(lower, orbit.scaled(0.0)).entropy

    def gap(reward: float) -> float:
        return gibbs_chain(upper, orbit.scaled(reward)).entropy - baseline

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


def _run_language_change(cfg: ExperimentConfig) -> ExperimentReport:
    """Reward a periodic orbit outside the smaller language and watch the
    minimum-entropy learner switch to the larger grammar while maximum
    likelihood stays with the true (smaller) one."""
    if cfg.lower is None or cfg.upper is None:
        raise ValidationError("language-change needs lower and upper grammars")
    _check_tie_tol(cfg.tie_tol)
    cps = validate_checkpoints(cfg.checkpoints)
    candidates = _resolve_candidates(cfg, cfg.lower.lexicon)
    lower_idx = _index_of(cfg.lower, candidates, "lower")
    upper_idx = _index_of(cfg.upper, candidates, "upper")
    auto = cfg.reward == "auto"   # the reward is then the crossing plus reward_margin
    reward = cfg.reward_margin if auto else cfg.reward
    crossing = entropy_crossing(cfg.lower, cfg.upper, cfg.bisect_tol)
    if auto:
        reward += crossing
    phi = periodic_orbit_potential(cfg.lower, cfg.upper, reward)
    chains, _, lls, (admissible, ml, me) = _study(cfg, phi, candidates, cfg.lower, "lower", cps)
    flip = me[..., upper_idx] & ~me[..., lower_idx]
    ml_true = ml[..., lower_idx] & (ml.sum(axis=-1) == 1)
    curve = [{"n": cp, "frequency": f, "mean_score_gap": g, "ml_frequency": m}
             for cp, f, g, m in zip(cps, _means(flip), _means(*_entropy_gaps(admissible, chains)),
                                    _means(ml_true))]
    return _study_report(
        cfg, candidates, chains, lower_idx, lls,
        {"lower_index": lower_idx, "upper_index": upper_idx,
         "orbit_potential": potential_to_dict(phi)},
        curve=curve,
        thresholds={"entropy_crossing": crossing, "reward": reward,
                    "bisect_tol": cfg.bisect_tol},
    )


def _run_ml_misidentification(cfg: ExperimentConfig) -> ExperimentReport:
    """Penalize the true grammar's extra transitions and measure how often a
    short sample is maximum-likelihood-attributed to the smaller grammar."""
    if cfg.lower is None or cfg.upper is None:
        raise ValidationError("ml-misidentification needs lower and upper grammars")
    if compare(cfg.lower, cfg.upper) is not OrderRelation.LESS:
        raise ValidationError("ml-misidentification needs lower strictly below upper")
    if not cfg.penalties:
        raise ValidationError("penalties must list at least one penalty")
    _check_tie_tol(cfg.tie_tol)
    n = cfg.sample_length
    if n < 1:   # the penalty potential has range 2, so its blocks are single symbols
        raise ValidationError(f"sample_length {n} is shorter than the block size 1")
    lex = cfg.lower.lexicon
    candidates = _resolve_candidates(cfg, lex)
    lower_idx = _index_of(cfg.lower, candidates, "lower")
    extra = [(a, b) for a in lex.symbols for b in lex.symbols
             if cfg.upper.matrix[a][b] and not cfg.lower.matrix[a][b]]
    curve, first = [], None
    for penalty in cfg.penalties:
        phi = Potential.from_table(lex, 2, {pair: -penalty for pair in extra})
        chains, upper_idx, lls, (admissible, ml, _) = _study(
            cfg, phi, candidates, cfg.upper, "upper", (n,))
        avoided = admissible[:, 0, lower_idx]
        hits = avoided & ml[:, 0, lower_idx] & ~ml[:, 0, upper_idx]
        gaps = lls[avoided, 0, lower_idx] - lls[avoided, 0, upper_idx]
        if first is None:
            first = {"seed": cfg.base_seed, "penalty": penalty,
                     "word": _first_word(cfg, chains[upper_idx], n)}
        curve.append({"n": n, "penalty": penalty,
                      "frequency": _mean(hits), "mean_score_gap": _mean(gaps),
                      "avoid_frequency": _mean(avoided)})
    return _report(cfg, curve, thresholds={"penalized_transitions": [list(p) for p in extra]},
                   details={"first_seed": first, "lower_index": lower_idx, "upper_index": upper_idx})


def _run_monotonicity_scan(cfg: ExperimentConfig) -> ExperimentReport:
    """Strict pressure monotonicity over every comparable primitive pair of a
    lexicon, swept across the zero potential and random finite-range tables."""
    if cfg.theta is None:
        raise ValidationError("monotonicity scan needs a theta")
    if cfg.n_potentials < 0:
        raise ValidationError(f"n_potentials must be nonnegative, got {cfg.n_potentials}")
    if cfg.n_potentials > 0 and not cfg.potential_ranges:
        raise ValidationError("potential_ranges must list at least one range when n_potentials > 0")
    if cfg.n_potentials > 0 and cfg.value_bound < 0:
        raise ValidationError(f"value_bound must be nonnegative, got {cfg.value_bound}")
    lex = Lexicon(cfg.theta)
    grammars = enumerate_grammars(lex)
    potentials = [Potential.zero(lex)] + _random_potentials(
        lex, cfg.n_potentials, cfg.potential_ranges, cfg.value_bound, cfg.base_seed)
    values = _pressure_family(grammars, potentials)
    lams = [math.exp(v) for v in values[0].tolist()]   # the zero potential's Perron roots
    n_pairs, violations, gaps = _order_gaps(np.vstack([values, lams]), grammars)
    curve = [{"n": k, "range": phi.range, "frequency": v / n_pairs if n_pairs else 0.0,
              "mean_score_gap": gap}
             for k, (phi, v, gap) in enumerate(zip(potentials, violations, gaps))]
    return _report(
        cfg, curve,
        thresholds={"min_pressure_gap": min(gaps[:-1]),
                    "min_lambda_gap_zero_potential": gaps[-1],
                    "comparable_pairs": n_pairs,
                    "grammars": len(grammars),
                    "violations": sum(violations[:-1])},
    )


def _run_smb(cfg: ExperimentConfig) -> ExperimentReport:
    """Fraction of sampled words whose per-symbol cylinder score sits within
    a tolerance of the chain's entropy rate, along growing prefixes."""
    if cfg.true_grammar is None:
        raise ValidationError("smb needs a true_grammar")
    cps = validate_checkpoints(cfg.checkpoints)
    phi = cfg.potential if cfg.potential is not None else Potential.zero(cfg.true_grammar.lexicon)
    [chain], _, lls, _ = _study(cfg, phi, (cfg.true_grammar,), cfg.true_grammar, "true", cps)
    estimates = -lls[..., 0] / cps
    devs = np.abs(estimates - chain.entropy)
    curve = [{"n": cp, "frequency": f, "mean_score_gap": g}
             for cp, f, g in zip(cps, _means(devs <= cfg.tolerance), _means(devs))]
    return _report(cfg, curve, thresholds={"tolerance": cfg.tolerance, "entropy": chain.entropy},
                   details={"final_estimates": estimates[:, -1].tolist()})


_RUNNERS = {
    "ml-convergence": _run_convergence,
    "entropy-convergence": _run_convergence,
    "language-change": _run_language_change,
    "ml-misidentification": _run_ml_misidentification,
    "monotonicity": _run_monotonicity_scan,
    "smb": _run_smb,
}
EXPERIMENT_IDS = tuple(_RUNNERS)


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
