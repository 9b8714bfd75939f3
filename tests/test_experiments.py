"""Experiment runners: protocols, determinism, and report structure."""

import dataclasses
import json
import math

import pytest

from sftlearn import (
    ExperimentConfig,
    Grammar,
    Lexicon,
    Potential,
    ValidationError,
    default_config,
    identify,
    parse_word,
    run_experiment,
    run_monotonicity_scan,
)
from sftlearn import experiments
from sftlearn.experiments import EXPERIMENT_IDS, entropy_crossing
from sftlearn.serialize import dumps

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
    cfg = default_config("language-change")
    clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert clone == cfg


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
    real, calls = experiments.chain_stack, []

    def counted(grammars, phi):
        calls.append(phi)
        if len(calls) > 200:
            raise RuntimeError("the bisection does not stop")
        return real(grammars, phi)

    monkeypatch.setattr(experiments, "chain_stack", counted)
    found = entropy_crossing(golden, full2, tol=1e-300)
    assert found == pytest.approx(_closed_form_crossing(), abs=1e-9)


def test_entropy_crossing_requires_strict_order(golden, full2):
    with pytest.raises(ValidationError):
        entropy_crossing(full2, golden)


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


def test_monotonicity_scan_is_clean_at_theta_two():
    report = run_monotonicity_scan(default_config("monotonicity"))
    assert report.thresholds["grammars"] == 3
    assert report.thresholds["comparable_pairs"] == 2
    assert report.thresholds["violations"] == 0
    assert report.thresholds["min_pressure_gap"] > 1e-12
    # at zero potential the eigenvalue gaps are the classical ones:
    # lam(full) - lam(golden) = 2 - phi
    assert report.thresholds["min_lambda_gap_zero_potential"] == pytest.approx(
        2 - PHI, abs=1e-9)
    assert len(report.curve) == 21    # zero potential + twenty random tables


def test_monotonicity_scan_requires_theta():
    with pytest.raises(ValidationError):
        run_monotonicity_scan(small(default_config("monotonicity"), theta=None))


def test_smb_estimates_concentrate():
    report = run_experiment(small(default_config("smb"), seeds=10))
    assert report.curve[-1]["n"] == 10000
    assert report.curve[-1]["frequency"] == 1.0
    devs = [abs(e - report.thresholds["entropy"])
            for e in report.details["final_estimates"]]
    assert max(devs) < 0.05
    assert report.thresholds["entropy"] == pytest.approx(math.log(PHI), abs=1e-9)


def test_reports_are_deterministic_and_serializable():
    cfg = small(default_config("ml-convergence"), seeds=5, checkpoints=(10, 50))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.to_dict() == second.to_dict()
    assert dumps(first.to_dict()) == dumps(second.to_dict())
    rows = first.csv_rows()
    assert [r[0] for r in rows] == [10, 50]
    # wall time is measured but deliberately left out of the serialized form
    assert first.wall_time_s > 0
    assert "wall_time_s" not in first.to_dict()


def test_infinite_gaps_survive_serialization(golden, full2):
    cfg = ExperimentConfig(experiment="ml-convergence", true_grammar=golden,
                           candidates=(golden, full2), checkpoints=(5,), seeds=4)
    report = run_experiment(cfg)
    text = dumps(report.to_dict())
    assert json.loads(text)   # no NaN/Infinity literals sneak through


@pytest.mark.parametrize("name, overrides, message", [
    ("ml-misidentification", {"sample_length": 0}, "shorter than the block size"),
    ("ml-convergence", {"tie_tol": -1e-9}, "tie tolerance"),
    ("language-change", {"tie_tol": -1e-9}, "tie tolerance"),
    ("ml-misidentification", {"tie_tol": -1e-9}, "tie tolerance"),
])
def test_runners_reject_a_short_sample_and_a_negative_tie_tolerance(name, overrides, message):
    with pytest.raises(ValidationError, match=message):
        run_experiment(small(default_config(name), seeds=3, **overrides))
