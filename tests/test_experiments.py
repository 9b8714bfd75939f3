"""Experiment runners: protocols, determinism, and report structure."""

import csv
import dataclasses
import functools
import importlib
import io
import itertools
import json
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from sftlearn import (
    ExperimentConfig,
    Grammar,
    Lexicon,
    Potential,
    ValidationError,
    chain_stack,
    cylinder_log_measure,
    default_config,
    entropy_via_pressure_derivative,
    enumerate_grammars,
    gibbs_chain,
    identify,
    parse_word,
    periodic_orbit_potential,
    run_experiment,
    sample,
)
from sftlearn import experiments, gibbs
from sftlearn.experiments import EXPERIMENT_IDS, ExperimentReport, entropy_crossing
from sftlearn.serialize import (
    csv_text,
    dumps,
    encode_floats,
    grammar_to_dict,
    outcome_to_dict,
    potential_from_dict,
    potential_to_dict,
)
from sftlearn.symbolic import format_word

from helpers import comparable_pairs

PHI = (1 + math.sqrt(5)) / 2


def small(config, **overrides):
    """Shrink a default config so the runner stays fast under test."""
    return dataclasses.replace(config, **overrides)


def test_experiment_ids_have_default_configs_and_dispatch():
    for name in EXPERIMENT_IDS:
        cfg = default_config(name)
        assert cfg.experiment == name
    with pytest.raises(ValidationError):
        default_config("nope")
    with pytest.raises(ValidationError):
        run_experiment(small(default_config("smb"), experiment="nope"))
    with pytest.raises(ValidationError):
        run_experiment(small(default_config("smb"), seeds=0))


def test_config_round_trips_through_json():
    lex = Lexicon(2)
    golden, full = Grammar.from_rows([[1, 1], [1, 0]]), Grammar.from_rows([[1, 1], [1, 1]])
    # every field away from its default, so that every derived converter runs
    everything = ExperimentConfig(
        experiment="language-change", theta=2, true_grammar=golden, lower=golden, upper=full,
        potential=Potential.from_table(lex, 3, {(0, 1, 1): 0.5, (1, 1, 0): -1.25}),
        candidates=(golden, full), checkpoints=(5, 7), seeds=3, base_seed=4, tie_tol=1e-7,
        scales=(0.5, 2.0), reward=1.5, reward_margin=0.5, bisect_tol=1e-3,
        penalties=(1.0, -2.0), sample_length=9, n_potentials=4, value_bound=0.5,
        potential_ranges=(2, 4), tolerance=0.1)
    defaults = ExperimentConfig(experiment="smb")
    assert all(getattr(everything, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(ExperimentConfig))
    for cfg in (*map(default_config, EXPERIMENT_IDS), everything):
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg


def test_every_config_field_type_has_a_converter():
    for f in dataclasses.fields(ExperimentConfig):
        assert callable(experiments._converter(f.type)), f.name
    for unsupported in (dict[str, int], list[int], tuple[int, int], int | str | None):
        with pytest.raises((KeyError, ValueError)):
            experiments._converter(unsupported)


def test_config_from_dict_diagnostics():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"seeds": 3})
    with pytest.raises(ValidationError) as err:
        ExperimentConfig.from_dict({"experiment": "smb", "sample_size": 9})
    assert "sample_size" in str(err.value)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict(["smb"])


def test_ml_convergence_recovers_the_truth():
    report = run_experiment(small(default_config("ml-convergence"), seeds=40))
    assert [row["n"] for row in report.curve] == [10, 50, 200, 2000]
    freqs = [row["frequency"] for row in report.curve]
    assert freqs == sorted(freqs)
    assert freqs[-1] >= 0.95
    assert report.curve[-1]["mean_score_gap"] > 0
    # the recorded first-seed word reproduces the recorded final outcome
    word = parse_word(report.details["first_seed"]["word"])
    recorded = report.details["first_seed"]["final_outcome"]
    cfg = ExperimentConfig.from_dict(report.config)
    candidates = tuple(Grammar.from_rows(r["matrix"])
                       for r in (s["grammar"] for s in recorded["scores"]))
    redo = identify(word[:2000], Potential.zero(Lexicon(2)), candidates)
    assert list(redo.ml_indices) == recorded["ml_set"]
    assert cfg.base_seed == report.details["first_seed"]["seed"]


@pytest.fixture
def solve_once(monkeypatch):
    """Memoize ``identify``'s class solve, for oracles that identify many words
    against one class under one potential."""
    monkeypatch.setattr(importlib.import_module("sftlearn.identify"), "chain_stack",
                        functools.cache(chain_stack))


def test_ml_convergence_frequency_matches_the_exact_law_at_ten_symbols(golden, zero2, lex2,
                                                                       solve_once):
    # P(ML = {golden}) at n = 10, summed over all 2^10 words under the golden chain
    candidates = tuple(enumerate_grammars(lex2))
    truth, chains = candidates.index(golden), chain_stack(candidates, zero2)
    mass = exact = 0.0
    for word in itertools.product(lex2.symbols, repeat=10):
        p = math.exp(cylinder_log_measure(chains[truth], word))
        mass += p
        if identify(word, zero2, candidates).ml_indices == (truth,):
            exact += p
    assert abs(mass - 1.0) <= 1e-12
    assert f"{exact:.5f}" == "0.98823"
    row = run_experiment(default_config("ml-convergence")).curve[0]
    assert row["n"] == 10
    assert abs(row["frequency"] - exact) <= 4 * math.sqrt(exact * (1 - exact) / 200)


@pytest.mark.parametrize("experiment", ["ml-convergence", "entropy-convergence",
                                        "language-change"])
def test_ml_convergence_admit_frequencies_match_their_exact_law(experiment, golden, swapped,
                                                                zero2):
    # A candidate Q admits the truth's word of n symbols with probability
    # pi^T (P o 1_Q)^(n - 1) 1, a masked matrix power (Kemeny & Snell's absorbing
    # chains).  Config and allowance were fixed before the first run: the default
    # truth and candidates, checkpoints (5,), 500 seeds from base seed 0, 4 binomial
    # standard errors.  Only the alternating words avoid 00 and 11, so ((0,1),(1,1))
    # admits with probability 1/phi^4, and the other two grammars always.  The truth
    # is the golden mean in each study: language-change's orbit potential vanishes on
    # the lower grammar's words, so its truth chain is the zero potential's, and the
    # laws are the same.
    cfg = small(default_config(experiment), checkpoints=(5,), seeds=500)
    assert cfg.base_seed == 0
    report = run_experiment(cfg)
    if experiment == "language-change":
        assert cfg.lower == golden
        truth = gibbs_chain(golden, potential_from_dict(report.details["orbit_potential"]))
        assert truth.transition == pytest.approx(gibbs_chain(golden, zero2).transition,
                                                 abs=1e-12)
    else:
        assert cfg.true_grammar == golden
        truth = gibbs_chain(golden, zero2)
    assert truth.states == ((0,), (1,))   # range 2: a state is its symbol
    laws = {}
    for row in report.candidate_table:
        masked = truth.transition * np.array(row["grammar"]["matrix"])
        exact = min(truth.stationary @ np.linalg.matrix_power(masked, 4) @ np.ones(2), 1.0)
        laws[Grammar.from_rows(row["grammar"]["matrix"])] = exact
        error = math.sqrt(exact * (1 - exact) / cfg.seeds)
        assert abs(row["admit_frequency"] - exact) <= 4 * error
    assert len(laws) == 3
    assert laws.pop(swapped) == pytest.approx(PHI**-4, rel=1e-12)
    assert list(laws.values()) == pytest.approx([1.0, 1.0], rel=1e-12)


def test_entropy_convergence_and_scale_sweep():
    lex = Lexicon(2)
    # keep the reward on "11" far below the entropy crossing (~0.93), so the
    # minimum-entropy learner still recovers the truth
    cfg = small(default_config("entropy-convergence"),
                seeds=30,
                potential=Potential.from_table(lex, 2, {(1, 1): 0.1}),
                scales=(0.1, 40.0))
    report = run_experiment(cfg)
    assert report.curve[-1]["frequency"] >= 0.95
    sweep = report.details["monotonicity"]
    assert sweep["pairs"] == 2
    by_scale = {row["scale"]: row for row in sweep["scales"]}
    assert by_scale[0.1]["violations"] == 0    # sup-norm 0.01 here
    assert by_scale[0.1]["min_entropy_gap"] > 0
    # scaled up to an effective reward of 4, the full shift drops below the
    # golden-mean rate and monotonicity snaps
    assert by_scale[40.0]["violations"] == 1
    assert sweep["first_failing_scale"] == 40.0


def _closed_form_crossing():
    """The reward at which the rewarded full shift's entropy, from the 2x2
    closed form, falls to that of the golden mean."""
    def entropy_at(energy):
        w = math.exp(energy)
        lam = ((1 + w) + math.sqrt((w - 1) ** 2 + 4)) / 2
        dlam = (1 + (w - 1) / math.sqrt((w - 1) ** 2 + 4)) / 2
        return math.log(lam) - energy * w * dlam / lam

    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if entropy_at(mid) < math.log(PHI):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_entropy_crossing_matches_the_closed_form(golden, full2):
    found = entropy_crossing(golden, full2, tol=1e-6)
    assert found == pytest.approx(_closed_form_crossing(), abs=1e-6)


def test_entropy_crossing_stops_where_no_float_lies_between_the_ends(golden, full2,
                                                                       monkeypatch):
    real, families, chains = experiments._chain_arrays, [], []

    def counted(blocks, phi):
        families.append(phi)
        if len(families) > 200:
            raise RuntimeError("the bisection does not stop")
        return real(blocks, phi)

    def chain(grammar, phi):
        chains.append(phi)
        return gibbs_chain(grammar, phi)

    monkeypatch.setattr(experiments, "_chain_arrays", counted)
    monkeypatch.setattr(experiments, "gibbs_chain", chain)
    found = entropy_crossing(golden, full2, tol=1e-300)
    assert found == pytest.approx(_closed_form_crossing(), abs=1e-9)
    # the counter guards the family solves, which every round of the search runs; no
    # point is solved alone, and the one gibbs_chain is the baseline's
    assert families and len(chains) == 1


def _sequential_crossing(lower, upper, tol, visit=None):
    """:func:`entropy_crossing` as a bisection of one ``gibbs_chain`` solve per
    point, each reward it solves passed to ``visit``."""
    orbit = periodic_orbit_potential(lower, upper, 1.0)
    baseline = gibbs_chain(lower, orbit.scaled(0.0)).entropy

    def gap(reward):
        if visit:
            visit(reward)
        return gibbs_chain(upper, orbit.scaled(reward)).entropy - baseline

    lo, hi = 0.0, 1.0
    if gap(lo) <= 0:
        raise RuntimeError("entropy of the larger grammar does not exceed the smaller at reward 0")
    while gap(hi) >= 0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if gap(mid) < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_THETA3_DOUBLING = ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], [[1, 1, 1]] * 3)


@pytest.mark.parametrize("rows, tol", [
    *((([[1, 1], [1, 0]], [[1, 1], [1, 1]]), tol) for tol in (1e-6, 0.3, 1e-300)),
    (_THETA3_DOUBLING, 1e-6),
])
def test_entropy_crossing_has_the_bits_of_the_one_point_bisection(rows, tol):
    lower, upper = map(Grammar.from_rows, rows)
    assert entropy_crossing(lower, upper, tol) == _sequential_crossing(lower, upper, tol)


def test_reward_families_have_the_entropies_of_their_chains_alone(golden, full2):
    # (at reward 123 the theta=3 upper chain fails its certificate, alone as in a family)
    for lower, upper, rewards in ((golden, full2, [0.0, 1e-7, 0.5, 1.7, 123.0]),
                                  (*map(Grammar.from_rows, _THETA3_DOUBLING), [0.0, 1e-7, 1.7])):
        orbit = periodic_orbit_potential(lower, upper, 1.0)
        blocks = gibbs._class_blocks((upper,), orbit)
        rows = np.outer(rewards, orbit._at(blocks[3]))
        [(members, *_, entropy)] = gibbs._chain_arrays(blocks, rows)
        assert members == list(range(len(rewards)))
        assert entropy.tolist() == [gibbs_chain(upper, orbit.scaled(r)).entropy for r in rewards]


def _plant_at(monkeypatch, rewards):
    """Make every solve of a chain under an orbit reward in ``rewards`` fail its
    certificate: its matrix becomes ``diag(1, 0, ..., 0)``, in a family or alone."""
    real = gibbs._transfer_stack

    def planted(blocks, phi):
        for members, shifts, stack in real(blocks, phi):
            bad = [i for i, m in enumerate(members) if phi[m].max() in rewards]
            if bad:
                stack = stack.copy()
                stack[bad] = np.diag(np.eye(stack.shape[-1])[0])
            yield members, shifts, stack

    monkeypatch.setattr(gibbs, "_transfer_stack", planted)


def test_a_failing_family_raises_only_what_the_one_point_bisection_raises(golden, full2,
                                                                           monkeypatch):
    visited, solved, real = [], [], experiments._chain_arrays
    expected = _sequential_crossing(golden, full2, 1e-6, visited.append)

    def recorded(blocks, phi):   # each row's reward is its largest value
        solved.extend(phi.max(axis=1).tolist())
        return real(blocks, phi)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_chain_arrays", recorded)
        assert entropy_crossing(golden, full2, 1e-6) == expected
    unvisited = set(solved) - set(visited)
    assert len(unvisited) > 20 and set(visited) <= set(solved)
    # failures at points the search never visits fail their families, whose visited
    # points are then solved alone, and raise nothing
    with monkeypatch.context() as patch:
        _plant_at(patch, unvisited)
        assert entropy_crossing(golden, full2, 1e-6) == expected
    # a failure on the path raises as the one-point bisection does, at that point
    for reward in (visited[1], visited[6], visited[-1]):
        with monkeypatch.context() as patch:
            _plant_at(patch, {reward})
            with pytest.raises(gibbs.PerronConvergenceError) as want:
                _sequential_crossing(golden, full2, 1e-6)
            with pytest.raises(gibbs.PerronConvergenceError) as got:
                entropy_crossing(golden, full2, 1e-6)
            assert str(got.value) == str(want.value)


def test_entropy_crossing_doubles_its_bracket_past_reward_one():
    # every other crossing here lies near 0.93, inside the first bracket [0, 1]; this one,
    # a theta=3 grammar below the full shift, lies near 1.92, so the bracket doubles once
    lower = Grammar.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    upper = Grammar.from_rows([[1, 1, 1]] * 3)
    tol = 1e-6
    found = entropy_crossing(lower, upper, tol)
    assert found > 1
    orbit = periodic_orbit_potential(lower, upper, 1.0)
    baseline = gibbs_chain(lower, orbit.scaled(0.0)).entropy

    def gap(reward):
        return gibbs_chain(upper, orbit.scaled(reward)).entropy - baseline

    assert gap(found - tol) > 0 > gap(found + tol)


def test_entropy_crossing_requires_strict_order(golden, full2):
    with pytest.raises(ValidationError):
        entropy_crossing(full2, golden)


def test_entropy_crossing_builds_its_orbit_once(golden, full2, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return periodic_orbit_potential(*args)

    monkeypatch.setattr(experiments, "periodic_orbit_potential", counted)
    assert entropy_crossing(golden, full2, tol=1e-6) == pytest.approx(_closed_form_crossing(),
                                                                      abs=1e-6)
    assert calls == [(golden, full2, 1.0)]
    # scaling the unit orbit rewards r exactly, so the bisection sees the potentials it built before
    orbit = periodic_orbit_potential(golden, full2, 1.0)
    for reward in (0.0, 1e-7, 0.5, 1.7, 3.141592653589793, 1e6):
        assert orbit.scaled(reward) == periodic_orbit_potential(golden, full2, reward)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda g, f: Potential(g.lexicon, 2, (((0, 1), "1.5"),)),
                 "table word (0, 1): value must be a finite real number, got '1.5'",
                 id="potential-value-string"),
    pytest.param(lambda g, f: Potential(g.lexicon, 2, (((0, 1), True),)),
                 "table word (0, 1): value must be a finite real number, got True",
                 id="potential-value-bool"),
    pytest.param(lambda g, f: Potential.from_table(g.lexicon, 2, {(0, 1): 0.5}).scaled("2"),
                 "scale factor must be a finite real number, got '2'", id="scale-string"),
    pytest.param(lambda g, f: periodic_orbit_potential(g, f, "3"),
                 "reward must be a finite real number, got '3'", id="reward-string"),
    pytest.param(lambda g, f: identify((0, 1, 0), Potential.zero(g.lexicon), (g, f), tie_tol=True),
                 "tie tolerance tie_tol must be a finite real number, got True", id="tie-tol-bool"),
    pytest.param(lambda g, f: entropy_crossing(g, f, tol="1e-6"),
                 "bisect_tol must be a finite real number, got '1e-6'", id="tol-string"),
    pytest.param(lambda g, f: entropy_crossing(g, f, tol=True),
                 "bisect_tol must be a finite real number, got True", id="tol-bool"),
    *(pytest.param(lambda g, f, step=step: entropy_via_pressure_derivative(
                       g, Potential.zero(g.lexicon), step), message, id=f"step-{step}")
      for step, message in ((0, "step must be > 0, got 0"), (-1e-5, "step must be > 0, got -1e-05"),
                            (math.nan, "step must be a finite real number, got nan"))),
])
def test_numbers_from_callers_are_checked_not_coerced(golden, full2, call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(golden, full2)


def test_python_and_numpy_numbers_keep_their_values(golden, full2, lex2):
    for value in (1.5, np.float64(1.5), np.float32(1.5)):
        assert Potential(lex2, 2, (((0, 1), value),)).entries == (((0, 1), 1.5),)
    assert Potential(lex2, 2, (((0, 1), np.int64(-3)),)).entries == (((0, 1), -3.0),)
    phi = Potential.from_table(lex2, 2, {(0, 1): 0.5})
    assert phi.scaled(np.int64(2)) == phi.scaled(2) == Potential.from_table(lex2, 2, {(0, 1): 1.0})
    assert periodic_orbit_potential(golden, full2, np.float32(3.0)) == \
        periodic_orbit_potential(golden, full2, 3)
    outcome = identify((0, 1, 0), Potential.zero(lex2), (golden, full2), tie_tol=0)
    assert outcome.tie_tolerance == 0 and outcome.ml_indices == (0,)
    assert entropy_crossing(golden, full2, tol=np.float64(1e-3)) == \
        entropy_crossing(golden, full2, tol=1e-3)
    assert entropy_via_pressure_derivative(golden, phi, np.float64(1e-5)) == \
        entropy_via_pressure_derivative(golden, phi, 1e-5)


def test_study_means_add_left_to_right_whatever_the_python_version():
    # sum([0.1] * 10) is 0.9999999999999999 in order (Python 3.11) and 1.0 compensated
    # (3.12 on); the means keep the in-order bits, which the recorded digests hold
    assert experiments._mean([0.1] * 10) == 0.9999999999999999 / 10 != 0.1
    assert experiments._mean(np.full(10, 0.1)) == 0.9999999999999999 / 10
    assert math.copysign(1.0, experiments._mean([-0.0])) == 1.0   # 0 + -0.0 is 0.0
    assert experiments._mean(np.array([True, False, True])) == 2 / 3
    assert experiments._mean([]) is None


def test_language_change_flips_min_entropy_but_not_ml():
    report = run_experiment(small(default_config("language-change"),
                                  seeds=30, checkpoints=(10, 200)))
    assert report.thresholds["reward"] == pytest.approx(
        report.thresholds["entropy_crossing"] + 2.0)
    final = report.curve[-1]
    assert final["frequency"] >= 0.9          # min-entropy prefers the larger grammar
    assert final["ml_frequency"] >= 0.9       # ML stays with the truth
    assert report.details["orbit_potential"]["entries"][0]["word"] == "11"


def test_misidentification_needs_the_penalty():
    cfg = small(default_config("ml-misidentification"),
                seeds=60, penalties=(10.0, 0.0))
    report = run_experiment(cfg)
    with_penalty, without = report.curve
    assert with_penalty["penalty"] == 10.0
    assert with_penalty["frequency"] >= 0.9
    assert without["frequency"] <= 0.1
    assert report.thresholds["penalized_transitions"] == [[1, 1]]


def test_misidentification_avoid_frequency_matches_its_exact_law():
    # The truth's word of n symbols uses only lower's transitions with probability
    # pi^T (P o 1_lower)^(n - 1) 1, a masked matrix power (Kemeny & Snell's absorbing
    # chains).  Config and allowance were fixed before the first run: the default
    # grammars, 500 seeds and base seed, penalties 2 and 3, 4 binomial standard errors.
    cfg = small(default_config("ml-misidentification"), penalties=(2.0, 3.0))
    assert (cfg.seeds, cfg.base_seed) == (500, 0)
    report = run_experiment(cfg)
    lex, n = cfg.lower.lexicon, cfg.sample_length
    for row, penalty in zip(report.curve, cfg.penalties, strict=True):
        truth = gibbs_chain(cfg.upper, Potential.from_table(lex, 2, {(1, 1): -penalty}))
        assert truth.states == ((0,), (1,))   # range 2: a state is its symbol
        masked = truth.transition * np.array(cfg.lower.matrix)
        exact = truth.stationary @ np.linalg.matrix_power(masked, n - 1) @ np.ones(2)
        assert 0.3 < exact < 0.7
        assert abs(row["avoid_frequency"] - exact) <= 4 * math.sqrt(exact * (1 - exact) / 500)


def test_monotonicity_scan_is_clean_at_theta_two():
    report = run_experiment(default_config("monotonicity"))
    assert report.thresholds["grammars"] == 3
    assert report.thresholds["comparable_pairs"] == 2
    assert report.thresholds["violations"] == 0
    assert report.thresholds["min_pressure_gap"] > 1e-12
    # at zero potential the eigenvalue gaps are the classical ones:
    # lam(full) - lam(golden) = 2 - phi
    assert report.thresholds["min_lambda_gap_zero_potential"] == pytest.approx(
        2 - PHI, abs=1e-9)
    assert len(report.curve) == 21    # zero potential + twenty random tables


@pytest.mark.parametrize("experiment, overrides, name", [
    ("monotonicity", {"n_potentials": -3}, "n_potentials"),
    ("monotonicity", {"value_bound": -2.0}, "value_bound"),
    ("ml-misidentification", {"penalties": ()}, "penalties"),
    ("ml-misidentification", {"sample_length": 0}, "sample_length"),
    ("ml-misidentification", {"tie_tol": -1.0}, "tie_tol"),
    ("language-change", {"tie_tol": -1.0}, "tie_tol"),
    ("language-change", {"checkpoints": (5, 5)}, "checkpoints"),
    ("ml-convergence", {"checkpoints": ()}, "checkpoints"),
    ("language-change", {"candidates": (Grammar.from_rows([[1, 1], [1, 1]]),
                                        Grammar.from_rows([[0, 1], [1, 1]]))},
     "lower grammar is not among the candidates"),
    # a bool, a string or a float does not stand in for a number of another kind
    ("monotonicity", {"n_potentials": True}, "n_potentials"),
    ("monotonicity", {"value_bound": "2"}, "value_bound"),
    ("ml-misidentification", {"penalties": (10.0, True)}, "penalties"),
    ("ml-misidentification", {"sample_length": 50.0}, "sample_length"),
    ("language-change", {"reward": "3"}, "reward"),
    ("language-change", {"reward_margin": True}, "reward_margin"),
    ("smb", {"tolerance": True}, "tolerance"),
    ("smb", {"seeds": 2.0}, "seeds"),
    ("smb", {"base_seed": True}, "base_seed"),
    # checked by the runner before the bisection, which checks it again for direct callers
    ("language-change", {"lower": Grammar.from_rows([[1, 1], [1, 1]]),
                         "upper": Grammar.from_rows([[1, 1], [1, 0]])},
     "^language-change needs lower strictly below upper$"),
    # Potential would reject the range too, but only inside the runner, without the field's name
    ("monotonicity", {"potential_ranges": (2, 1)},
     "^potential_ranges entries must be >= 2, got 1$"),
    # a negative tolerance would report a frequency of 0 at every n
    ("smb", {"tolerance": -1}, "^tolerance must be nonnegative, got -1.0$"),
])
def test_bad_runner_fields_are_named_before_any_solve(monkeypatch, experiment, overrides, name):
    def no_solve(*args):
        raise AssertionError("solved before the config was checked")
    monkeypatch.setattr(experiments, "chain_stack", no_solve)
    monkeypatch.setattr(experiments, "gibbs_chain", no_solve)
    monkeypatch.setattr(experiments, "_pressure_family", no_solve)
    monkeypatch.setattr(experiments, "entropy_crossing", no_solve)
    with pytest.raises(ValidationError, match=name):
        run_experiment(small(default_config(experiment), **overrides))


def test_object_and_tuple_fields_of_a_config_built_in_code_are_checked():
    # a config built in code used to fail deep in a runner with an AttributeError or a
    # TypeError that named no field; it is now rejected when it is built
    golden = Grammar.from_rows([[1, 1], [1, 0]])
    for overrides, message in [
        ({"true_grammar": ((1, 1), (1, 0))}, r"^experiment config field 'true_grammar': .*\(\(1,"),
        ({"potential": {"theta": 2}}, r"^experiment config field 'potential': .*'range'"),
        ({"scales": ("a", 1.0)}, r"^experiment config field 'scales': .*real number, got 'a'$"),
        ({"scales": 5}, r"^experiment config field 'scales': expected a list, got 5$"),
        ({"candidates": (golden, ((1, 1), (1, 1)))},
         r"^experiment config field 'candidates': .*\(\(1, 1\), \(1, 1\)\)$"),
        ({"candidates": 5}, r"^experiment config field 'candidates': expected a list, got 5$"),
        # a set's members come in hash order, so a set is no list
        ({"scales": {1.0, 2.0}},
         r"^experiment config field 'scales': expected a list, got \{1\.0, 2\.0\}$"),
        ({"potential_ranges": frozenset({2})},
         r"^experiment config field 'potential_ranges': expected a list, got frozenset\(\{2\}\)$"),
        ({"potential_ranges": (2, "a")},
         r"^experiment config field 'potential_ranges': .*an integer, got 'a'$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            small(default_config("entropy-convergence"), **overrides)
    # an iterator hides whether its source keeps an order, so it is no list
    for name, values in [("candidates", iter([golden])), ("scales", (s for s in [2.0, 1.0]))]:
        with pytest.raises(ValidationError,
                           match=f"^experiment config field '{name}': expected a list, got <"):
            small(default_config("entropy-convergence"), **{name: values})
    # the runner reads what was checked
    report = run_experiment(small(default_config("entropy-convergence"), seeds=2,
                                  candidates=deque([golden, Grammar.from_rows([[1, 1], [1, 1]])]),
                                  scales=np.array([2.0, 1.0])))
    assert len(report.candidate_table) == 2
    assert [row["scale"] for row in report.details["monotonicity"]["scales"]] == [1.0, 2.0]


def test_a_potential_whose_entries_are_no_list_is_named_in_a_config():
    for entries in (5, None):
        message = f"'potential': potential field 'entries': expected a list, got {entries}$"
        with pytest.raises(ValidationError, match=f"^experiment config field {message}"):
            ExperimentConfig.from_dict({"experiment": "smb", "potential": {
                "theta": 2, "range": 2, "entries": entries}})


def test_a_config_built_in_code_holds_and_renders_what_its_json_would():
    # numpy numbers are read as Python ints and floats, so the report renders
    cfg = small(default_config("smb"), seeds=np.int64(3), checkpoints=(np.int64(10), 50),
                tie_tol=np.float32(1e-9), base_seed=np.uint8(4), potential_ranges=np.arange(2, 4))
    config = json.loads(dumps(run_experiment(cfg).to_dict()))["config"]
    assert (config["checkpoints"], config["potential_ranges"]) == ([10, 50], [2, 3])
    # a grammar field may hold its JSON form
    assert small(cfg, true_grammar=grammar_to_dict(cfg.true_grammar)) == cfg
    # an int given for a float field echoes as the float that JSON reads
    for experiment in ("smb", "ml-misidentification"):
        cfg = small(default_config(experiment), seeds=3, tolerance=1, penalties=(10,))
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert dumps(run_experiment(cfg).to_dict()) == dumps(run_experiment(clone).to_dict())


def test_every_field_of_a_config_built_in_code_is_checked_when_it_is_built():
    # smb reads few of these fields (n_potentials, say), but each is checked by its type
    for f in dataclasses.fields(ExperimentConfig):
        with pytest.raises(ValidationError, match=f"^experiment config field '{f.name}': "):
            small(default_config("smb"), **{f.name: 5 if f.name == "experiment" else "x"})


def test_runners_take_zero_counts_and_ignore_fields_they_do_not_use():
    # no random potentials: the bound and the ranges go unused, and only the zero potential
    # is scanned
    report = run_experiment(small(default_config("monotonicity"), n_potentials=0,
                                  value_bound=-1.0, potential_ranges=(1,)))
    assert len(report.curve) == 1
    # a zero bound makes every random table the zero potential
    report = run_experiment(small(default_config("monotonicity"), n_potentials=3,
                                  value_bound=0.0))
    gaps = [row["mean_score_gap"] for row in report.curve]
    assert gaps == pytest.approx([gaps[0]] * 4, rel=1e-12)
    run_experiment(small(default_config("smb"), seeds=2, penalties=(), n_potentials=-3,
                         value_bound=-1.0, tie_tol=-1.0))


def test_monotonicity_scan_requires_theta():
    with pytest.raises(ValidationError):
        run_experiment(small(default_config("monotonicity"), theta=None))


def _oracle_gaps(values, grammars):
    """What ``_order_gaps`` returns, from the brute-force pair list."""
    pairs = comparable_pairs(grammars)
    deltas = [[row[j] - row[i] for i, j in pairs] for row in values.tolist()]
    return (len(pairs), [sum(d <= 0 for d in row) for row in deltas],
            [min(row, default=math.inf) for row in deltas])


@pytest.mark.parametrize("one_row_chunks", [False, True])
@pytest.mark.parametrize("theta", [2, 3])
def test_order_gaps_match_the_pair_oracle(monkeypatch, theta, one_row_chunks):
    if one_row_chunks:
        monkeypatch.setattr(experiments, "_KERNEL_TERMS", 1)
    rng = np.random.default_rng(theta)
    grammars = enumerate_grammars(Lexicon(theta))
    # shuffled, and with a duplicate, which is not below its copy
    grammars = [grammars[i] for i in rng.permutation(len(grammars))] + grammars[:1]
    k = len(grammars)
    edges = np.array([g.array.sum() for g in grammars], dtype=float)
    values = np.stack([
        rng.normal(size=k),                          # violations, no ties
        rng.integers(0, 3, size=k).astype(float),    # exact ties, each a violation
        edges,                                       # strictly monotone, least gap 1
        np.zeros(k),                                 # every pair tied
    ])
    assert experiments._order_gaps(values, grammars) == _oracle_gaps(values, grammars)


def test_order_gaps_read_every_word_of_a_wide_lexicon(monkeypatch):
    monkeypatch.setattr(experiments, "_KERNEL_TERMS", 1)
    lex = Lexicon(9)   # 81 incidence bits: two 64-bit words

    def without(*cells):
        m = np.ones((9, 9), dtype=int)
        for cell in cells:
            m[cell] = 0
        return Grammar(lex, m.tolist())

    # early lacks bits 0 and 1 (first word) and late bit 80 (second word), so
    # early is below late in the first word alone, but not in both
    early, late = without((0, 0), (0, 1)), without((8, 8))
    values = np.array([[1.0, 2.0]])
    assert experiments._order_gaps(values, (early, late)) == (0, [0], [math.inf])
    grammars = (early, late, without((0, 0), (0, 1), (8, 8)), without())
    values = np.random.default_rng(9).normal(size=(3, 4))
    result = experiments._order_gaps(values, grammars)
    assert result == _oracle_gaps(values, grammars) and result[0] == 5


def test_order_gaps_count_theta_four_pairs_by_a_zeta_sum_in_bounded_memory():
    grammars = enumerate_grammars(Lexicon(4))
    bits = np.array([g.array.ravel() for g in grammars])
    codes = bits @ (1 << np.arange(16))
    # superset (zeta) sum over the 2^16 codes: above[c] counts the class's codes that hold c
    above = np.zeros(1 << 16, dtype=np.int64)
    above[codes] = 1
    for k in range(16):
        halves = above.reshape(-1, 2, 1 << k)
        halves[:, 0] += halves[:, 1]
    pairs = int((above[codes] - 1).sum())
    edges = bits.sum(axis=1).astype(float)
    values = np.stack([edges, -edges])
    tracemalloc.start()
    try:
        result = experiments._order_gaps(values, grammars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every grammar lies below the full one, so the widest edge gap is 16 - fewest edges
    assert result == (pairs, [0, pairs], [1.0, edges.min() - 16])
    assert pairs == 4_419_770
    # ceiling fixed before the first run; a 25 575^2 pair matrix alone is 654 MB of bools
    assert peak < 8 * 2**20


def test_smb_estimates_concentrate():
    report = run_experiment(small(default_config("smb"), seeds=10))
    assert report.curve[-1]["n"] == 10000
    assert report.curve[-1]["frequency"] == 1.0
    devs = [abs(e - report.thresholds["entropy"])
            for e in report.details["final_estimates"]]
    assert max(devs) < 0.05
    assert report.thresholds["entropy"] == pytest.approx(math.log(PHI), abs=1e-9)


@pytest.mark.parametrize("rows, table", [
    ([[1, 1], [1, 0]], {}),
    ([[1, 1], [1, 1]], {(0, 0, 0): 0.5, (0, 1, 1): -0.75, (1, 0, 1): 1.0, (1, 1, 0): 0.25,
                        (1, 1, 1): -0.5}),
], ids=["golden-zero", "full-range3"])
def test_smb_mean_score_matches_the_stationary_closed_form(rows, table):
    """A stationary chain has ``E[-log mu[w_1..w_n]] = H(pi) + (n - r + 1) h``,
    with ``H(pi)`` the entropy of its law on ``(r-1)``-blocks and ``h`` its
    entropy rate.  The seeds are fixed; the seeds' mean of ``-ll/n`` lies
    within 4 standard errors of that value over n."""
    g, n = Grammar.from_rows(rows), 1000
    phi = Potential.from_table(g.lexicon, 3 if table else 2, table)
    cfg = ExperimentConfig(experiment="smb", true_grammar=g, potential=phi, checkpoints=(n,),
                           seeds=2000, base_seed=0)
    estimates = np.array(run_experiment(cfg).details["final_estimates"])
    chain = gibbs_chain(g, phi)
    pi = chain.stationary
    expected = (-(pi * np.log(pi)).sum() + (n - phi.range + 1) * chain.entropy) / n
    error = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - expected) < 4 * error


def test_smb_default_mean_estimate_matches_the_stationary_closed_form():
    # The mean of -log mu[w_1..w_n] / n is (H(pi) + (n - r + 1) h) / n (Cover & Thomas
    # ch. 4).  Config and allowance were fixed before the first run: the default config
    # (golden mean, zero potential, n = 10 000, 50 seeds from base seed 0), 4 standard
    # errors from the sample standard deviation of the 50 estimates.
    cfg = default_config("smb")
    assert (cfg.potential, cfg.checkpoints[-1], cfg.seeds, cfg.base_seed) == (None, 10_000, 50, 0)
    estimates = np.array(run_experiment(cfg).details["final_estimates"])
    chain = gibbs_chain(cfg.true_grammar, Potential.zero(cfg.true_grammar.lexicon))
    pi, n = chain.stationary, cfg.checkpoints[-1]
    expected = (-(pi * np.log(pi)).sum() + (n - 1) * chain.entropy) / n
    assert f"{expected:.10f}" == "0.4812226553"
    error = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - expected) < 4 * error


def test_reports_are_deterministic_and_serializable():
    cfg = small(default_config("ml-convergence"), seeds=5, checkpoints=(10, 50))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.to_dict() == second.to_dict()
    assert dumps(first.to_dict()) == dumps(second.to_dict())
    rows = list(csv.reader(io.StringIO(csv_text(first.curve))))[1:]
    assert [r[0] for r in rows] == ["10", "50"]
    # wall time is measured but deliberately left out of the serialized form
    assert first.wall_time_s > 0
    assert "wall_time_s" not in first.to_dict()


@pytest.mark.parametrize("name", [n for n in EXPERIMENT_IDS if n != "monotonicity"])
def test_studies_read_the_first_seed_word_off_their_walk(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a study drew a word through sample")

    monkeypatch.setattr(gibbs, "sample", refuse)
    assert "sample" not in vars(experiments)
    report = run_experiment(default_config(name))
    if name != "smb":   # which reports no first seed, but samples too
        assert report.details["first_seed"]["seed"] == 0 and report.details["first_seed"]["word"]


def test_infinite_gaps_survive_serialization(golden, full2):
    cfg = ExperimentConfig(experiment="ml-convergence", true_grammar=golden,
                           candidates=(golden, full2), checkpoints=(5,), seeds=4)
    report = run_experiment(cfg)
    text = dumps(report.to_dict())
    assert json.loads(text)   # no NaN/Infinity literals sneak through


def test_encode_floats_spells_non_finite_floats_through_containers():
    for value, encoded in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
                           (np.float64(-math.inf), "-inf"), (None, None), (True, True),
                           (1.5, 1.5), (0, 0), ("inf", "inf")):
        assert encode_floats(value) == encoded and type(encode_floats(value)) is type(encoded)
    nested = {"a": [1.5, math.inf, (math.nan, {"b": -math.inf})], "c": (None, False)}
    assert encode_floats(nested) == {"a": [1.5, "inf", ["nan", {"b": "-inf"}]], "c": [None, False]}


@pytest.mark.parametrize("name, overrides, message", [
    ("ml-misidentification", {"sample_length": 0}, "shorter than the block size"),
    ("ml-convergence", {"tie_tol": -1e-9}, "tie tolerance"),
    ("language-change", {"tie_tol": -1e-9}, "tie tolerance"),
    ("ml-misidentification", {"tie_tol": -1e-9}, "tie tolerance"),
])
def test_runners_reject_a_short_sample_and_a_negative_tie_tolerance(name, overrides, message):
    with pytest.raises(ValidationError, match=message):
        run_experiment(small(default_config(name), seeds=3, **overrides))


# ---------------------------------------------------------------------------
# oracle: each report rebuilt seed by seed, the earlier way
# ---------------------------------------------------------------------------

def _old_mean(values):
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _old_ml_gap(outcome):
    lls = sorted((s.log_likelihood for s in outcome.scores), reverse=True)
    if len(lls) < 2 or lls[0] == -math.inf:
        return None
    return lls[0] - lls[1]


def _old_entropy_gap(outcome):
    ents = sorted(s.entropy for s in outcome.scores if s.admissible)
    return ents[1] - ents[0] if len(ents) >= 2 else None


def _old_study(cfg, candidates, chains, truth, phi, ends):
    """Per seed: ``sample`` one word from ``chains[truth]`` and ``identify``
    each prefix; returns the first seed's word and every seed's outcomes."""
    n = max(ends[-1], phi.range - 1)
    words = [sample(chains[truth], n, seed).word for seed in experiments._seeds(cfg)]
    return words[0], [[identify(w[:c], phi, candidates, cfg.tie_tol) for c in ends]
                      for w in words]


def _old_report(cfg, curve, outcomes=None, word=None, candidates=(), chains=(), **report):
    if outcomes is not None:
        finals = [per_seed[-1] for per_seed in outcomes]
        report["candidate_table"] = [
            {"grammar": grammar_to_dict(g), "entropy": chain.entropy,
             "admit_frequency": _old_mean([oc.scores[j].admissible for oc in finals]),
             "mean_log_likelihood": encode_floats(
                 _old_mean([oc.scores[j].log_likelihood for oc in finals]))}
            for j, (g, chain) in enumerate(zip(candidates, chains))]
        report["details"]["first_seed"] = {"seed": cfg.base_seed, "word": format_word(word),
                                           "final_outcome": outcome_to_dict(finals[0])}
    return dumps(ExperimentReport(cfg.experiment, cfg.to_dict(), curve, **report).to_dict())


def _old_convergence(cfg):
    lex = cfg.true_grammar.lexicon
    phi = cfg.potential or Potential.zero(lex)
    candidates = cfg.candidates or tuple(enumerate_grammars(lex))
    truth = candidates.index(cfg.true_grammar)
    chains = chain_stack(candidates, phi)
    cps = list(cfg.checkpoints)
    word, outcomes = _old_study(cfg, candidates, chains, truth, phi, cps)
    success, gaps = [[] for _ in cps], [[] for _ in cps]
    for per_seed in outcomes:
        for k, oc in enumerate(per_seed):
            if cfg.experiment == "ml-convergence":
                success[k].append(oc.ml_indices == (truth,))
                gaps[k].append(_old_ml_gap(oc))
            else:
                success[k].append(oc.min_entropy_indices == (truth,))
                gaps[k].append(_old_entropy_gap(oc))
    curve = [{"n": cp, "frequency": _old_mean(success[k]), "mean_score_gap": _old_mean(gaps[k])}
             for k, cp in enumerate(cps)]
    details = {"true_index": truth}
    if cfg.experiment == "entropy-convergence" and cfg.scales:
        details["monotonicity"] = experiments._entropy_monotonicity_sweep(
            candidates, phi, cfg.scales)
    return _old_report(cfg, curve, outcomes, word, candidates, chains, details=details)


def _old_language_change(cfg):
    crossing = entropy_crossing(cfg.lower, cfg.upper, cfg.bisect_tol)
    reward = crossing + cfg.reward_margin if cfg.reward == "auto" else float(cfg.reward)
    phi = periodic_orbit_potential(cfg.lower, cfg.upper, reward)
    candidates = cfg.candidates or tuple(enumerate_grammars(cfg.lower.lexicon))
    lower, upper = candidates.index(cfg.lower), candidates.index(cfg.upper)
    chains = chain_stack(candidates, phi)
    cps = list(cfg.checkpoints)
    word, outcomes = _old_study(cfg, candidates, chains, lower, phi, cps)
    flip, ml_true, gaps = [[] for _ in cps], [[] for _ in cps], [[] for _ in cps]
    for per_seed in outcomes:
        for k, oc in enumerate(per_seed):
            flip[k].append(upper in oc.min_entropy_indices
                           and lower not in oc.min_entropy_indices)
            ml_true[k].append(oc.ml_indices == (lower,))
            gaps[k].append(_old_entropy_gap(oc))
    curve = [{"n": cp, "frequency": _old_mean(flip[k]), "mean_score_gap": _old_mean(gaps[k]),
              "ml_frequency": _old_mean(ml_true[k])} for k, cp in enumerate(cps)]
    return _old_report(cfg, curve, outcomes, word, candidates, chains,
                       thresholds={"entropy_crossing": crossing, "reward": reward,
                                   "bisect_tol": cfg.bisect_tol},
                       details={"lower_index": lower, "upper_index": upper,
                                "orbit_potential": potential_to_dict(phi)})


def _old_misidentification(cfg):
    lex = cfg.lower.lexicon
    candidates = cfg.candidates or tuple(enumerate_grammars(lex))
    lower, upper = candidates.index(cfg.lower), candidates.index(cfg.upper)
    extra = [(a, b) for a in lex.symbols for b in lex.symbols
             if cfg.upper.matrix[a][b] and not cfg.lower.matrix[a][b]]
    curve, first = [], None
    for penalty in cfg.penalties:
        phi = Potential.from_table(lex, 2, {pair: -float(penalty) for pair in extra})
        chains = chain_stack(candidates, phi)
        word, outcomes = _old_study(cfg, candidates, chains, upper, phi, [cfg.sample_length])
        hits, avoided, gaps = [], [], []
        for [oc] in outcomes:
            ok_avoid = oc.scores[lower].admissible
            avoided.append(ok_avoid)
            hits.append(ok_avoid and lower in oc.ml_indices and upper not in oc.ml_indices)
            if ok_avoid:
                gaps.append(oc.scores[lower].log_likelihood - oc.scores[upper].log_likelihood)
        if first is None:
            first = {"seed": cfg.base_seed, "penalty": penalty, "word": format_word(word)}
        curve.append({"n": cfg.sample_length, "penalty": penalty, "frequency": _old_mean(hits),
                      "mean_score_gap": _old_mean(gaps), "avoid_frequency": _old_mean(avoided)})
    return _old_report(cfg, curve, thresholds={"penalized_transitions": [list(p) for p in extra]},
                       details={"first_seed": first, "lower_index": lower, "upper_index": upper})


def _old_smb(cfg):
    phi = cfg.potential or Potential.zero(cfg.true_grammar.lexicon)
    chain = gibbs_chain(cfg.true_grammar, phi)
    cps = list(cfg.checkpoints)
    within, devs, final = [[] for _ in cps], [[] for _ in cps], []
    for seed in experiments._seeds(cfg):
        word = sample(chain, max(cps[-1], phi.range - 1), seed).word
        for k, cp in enumerate(cps):
            est = -cylinder_log_measure(chain, word[:cp]) / cp
            dev = abs(est - chain.entropy)
            within[k].append(dev <= cfg.tolerance)
            devs[k].append(dev)
        final.append(est)
    curve = [{"n": cp, "frequency": _old_mean(within[k]), "mean_score_gap": _old_mean(devs[k])}
             for k, cp in enumerate(cps)]
    return _old_report(cfg, curve, details={"final_estimates": final},
                       thresholds={"tolerance": cfg.tolerance, "entropy": chain.entropy})


_OLD_RUNNERS = {"ml-convergence": _old_convergence, "entropy-convergence": _old_convergence,
                "language-change": _old_language_change,
                "ml-misidentification": _old_misidentification, "smb": _old_smb}


def _theta3_range3():
    """A theta=3 truth with 7 transitions, 13 candidates and a full range-3
    potential, so that the chains have up to 9 states and the words up to 27
    codes."""
    lex = Lexicon(3)
    words = list(itertools.product(range(3), repeat=3))
    values = np.random.default_rng(5).uniform(-1.0, 1.0, len(words))
    truth = Grammar.from_rows([[0, 1, 1], [1, 1, 1], [1, 1, 0]])
    return {"true_grammar": truth, "candidates": tuple(enumerate_grammars(lex)[::12]) + (truth,),
            "potential": Potential.from_table(lex, 3, dict(zip(words, values.tolist()))),
            "seeds": 9, "checkpoints": (1, 2, 5, 90), "scales": (0.5, 2.0)}


@pytest.mark.parametrize("name, overrides", [
    *(pytest.param(name, {"seeds": 1, "base_seed": 3}, id=f"{name}-1-seed")
      for name in _OLD_RUNNERS),
    # past one batch of seeds and one block of uniforms, with a prefix of one symbol
    *(pytest.param(name, {"seeds": 257, "base_seed": 40,
                          "checkpoints": (1, 9, 70, 1300 if name == "smb" else 130),
                          "sample_length": 70, "penalties": (0.5, 10.0)},
                   id=f"{name}-257-seeds") for name in _OLD_RUNNERS),
    # seeds on both sides of 2^128, where the batch seeding hands over to default_rng
    *(pytest.param(name, {"seeds": 6, "base_seed": 2**128 - 3}, id=f"{name}-seeds-past-2^128")
      for name in _OLD_RUNNERS),
    *(pytest.param(name, _theta3_range3(), id=f"{name}-theta3-range3")
      for name in ("ml-convergence", "entropy-convergence", "smb")),
    # a repeated candidate ties every score and entropy with its twin
    *(pytest.param(name, {"seeds": 20, "checkpoints": (1, 10, 50),
                          "candidates": tuple(Grammar.from_rows(rows) for rows in
                                              ([[1, 1], [1, 0]], [[1, 1], [1, 1]]) * 2)},
                   id=f"{name}-repeated-candidate")
      for name in ("ml-convergence", "entropy-convergence", "language-change")),
])
def test_study_reports_match_the_word_by_word_oracle(name, overrides, solve_once):
    cfg = small(default_config(name), **overrides)
    assert dumps(run_experiment(cfg).to_dict()) == _OLD_RUNNERS[name](cfg)
