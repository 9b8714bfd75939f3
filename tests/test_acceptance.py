"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, each printing
a single PASS line (run with ``pytest -v -s tests/test_acceptance.py`` to see
them; a failed assertion marks the corresponding guarantee as FAIL).
"""

import dataclasses
import itertools
import json
import math
import subprocess
import sys

import numpy as np

from sftlearn import (
    Grammar,
    Lexicon,
    Potential,
    default_config,
    enumerate_grammars,
    entropy_via_pressure_derivative,
    expected_potential,
    gibbs_chain,
    pressure,
    run_experiment,
)
from sftlearn.experiments import _random_potentials, entropy_crossing

from conftest import primitive_by_graph
from helpers import comparable_pairs

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = Grammar.from_rows([[1, 1], [1, 0]])
FULL = Grammar.from_rows([[1, 1], [1, 1]])


def ok(num, message):
    print(f"acceptance {num:02d} PASS: {message}")


def test_01_enumeration_matches_independent_oracle():
    two = [g.matrix for g in enumerate_grammars(Lexicon(2))]
    assert two == [((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]
    three = [g.matrix for g in enumerate_grammars(Lexicon(3))]
    oracle = []
    for bits in itertools.product((0, 1), repeat=9):
        rows = [list(bits[3 * i:3 * i + 3]) for i in range(3)]
        if primitive_by_graph(rows):
            oracle.append(tuple(map(tuple, rows)))
    assert three == oracle
    ok(1, f"enumeration: 3 grammars at theta=2, {len(three)} at theta=3, "
          "matching the graph-theoretic oracle over all 512 matrices")


def test_02_pressure_eigenvalue_ground_truth():
    zero = Potential.zero(Lexicon(2))
    err_golden = abs(pressure(GOLDEN, zero) - math.log(PHI))
    err_full = abs(pressure(FULL, zero) - math.log(2))
    assert err_golden <= 1e-9
    assert err_full <= 1e-12
    ok(2, f"pressure ground truth: golden-mean off by {err_golden:.1e} (<=1e-9), "
          f"full shift off by {err_full:.1e} (<=1e-12)")


def _pressure_sweep(theta):
    """The shared sweep: every primitive grammar, zero + twenty random
    range-2/range-3 tables with values in [-2, 2]."""
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    potentials = [Potential.zero(lex)] + _random_potentials(lex, 20, (2, 3), 2.0, 0)
    return lex, grammars, potentials


def test_03_pressure_strict_monotonicity():
    worst = math.inf
    checked = 0
    for theta in (2, 3):
        _, grammars, potentials = _pressure_sweep(theta)
        pairs = comparable_pairs(grammars)
        for phi in potentials:
            values = [pressure(g, phi) for g in grammars]
            gaps = [values[j] - values[i] for i, j in pairs]
            worst = min(worst, min(gaps))
            checked += len(gaps)
    assert worst > 1e-12
    ok(3, f"pressure strictly monotone on all {checked} comparable-pair cases; "
          f"minimal gap {worst:.2e} > 1e-12")


def test_04_entropy_cross_formulas():
    worst_identity = 0.0
    worst_derivative = 0.0
    for theta in (2, 3):
        _, grammars, potentials = _pressure_sweep(theta)
        for phi in potentials:
            for g in grammars:
                chain = gibbs_chain(g, phi)
                identity = abs(chain.entropy
                               - (chain.pressure - expected_potential(chain, phi)))
                derivative = abs(chain.entropy
                                 - entropy_via_pressure_derivative(g, phi))
                worst_identity = max(worst_identity, identity)
                worst_derivative = max(worst_derivative, derivative)
    assert worst_identity <= 1e-8
    assert worst_derivative <= 1e-4
    ok(4, f"entropy formulas agree: pressure-minus-mean off by {worst_identity:.1e} "
          f"(<=1e-8), finite-difference off by {worst_derivative:.1e} (<=1e-4)")


def test_05_maximum_likelihood_convergence():
    report = run_experiment(default_config("ml-convergence"))
    freqs = [row["frequency"] for row in report.curve]
    assert [row["n"] for row in report.curve] == [10, 50, 200, 2000]
    assert freqs[-1] >= 0.99
    assert freqs == sorted(freqs)
    ok(5, "maximum likelihood: exact recovery frequency "
          f"{freqs} over 200 seeds, nondecreasing, final >= 0.99")


def test_06_minimum_entropy_convergence_and_monotonicity():
    report = run_experiment(default_config("entropy-convergence"))
    freqs = [row["frequency"] for row in report.curve]
    assert freqs[-1] >= 0.99

    violations = 0
    pairs_checked = 0
    rng = np.random.default_rng(2024)
    for theta in (2, 3):
        lex = Lexicon(theta)
        grammars = enumerate_grammars(lex)
        pairs = comparable_pairs(grammars)
        potentials = [Potential.zero(lex)]
        for r in (2, 3, 2, 3, 2):
            words = list(itertools.product(lex.symbols, repeat=r))
            values = rng.uniform(-1.0, 1.0, len(words))
            values *= 0.01 / np.abs(values).max()     # sup-norm exactly 0.01
            potentials.append(Potential.from_table(
                lex, r, dict(zip(words, map(float, values)))))
        for phi in potentials:
            entropies = [gibbs_chain(g, phi).entropy for g in grammars]
            violations += sum(1 for i, j in pairs if entropies[j] <= entropies[i])
            pairs_checked += len(pairs)
    assert violations == 0
    ok(6, f"minimum entropy: recovery frequency {freqs} over 200 seeds; "
          f"entropy monotone on all {pairs_checked} pair cases at sup-norm 0.01")


def test_07_language_change_splits_the_learners():
    found = entropy_crossing(GOLDEN, FULL, tol=1e-6)

    def entropy_closed(energy):
        w = math.exp(energy)
        lam = ((1 + w) + math.sqrt((w - 1) ** 2 + 4)) / 2
        dlam = (1 + (w - 1) / math.sqrt((w - 1) ** 2 + 4)) / 2
        return math.log(lam) - energy * w * dlam / lam

    lo, hi = 0.0, 4.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if entropy_closed(mid) < math.log(PHI):
            hi = mid
        else:
            lo = mid
    closed = (lo + hi) / 2
    assert abs(found - closed) <= 1e-6

    report = run_experiment(default_config("language-change"))
    final = report.curve[-1]
    assert final["n"] == 2000
    assert final["frequency"] >= 0.95       # min-entropy flips to the larger grammar
    assert final["ml_frequency"] >= 0.95    # maximum likelihood stays with the truth
    ok(7, f"language change: crossing {found:.6f} within "
          f"{abs(found - closed):.1e} of the closed form; at reward+2, "
          f"min-entropy flip rate {final['frequency']:.3f}, "
          f"ML retention {final['ml_frequency']:.3f} over 200 seeds")


def test_08_penalty_induced_misidentification():
    cfg = dataclasses.replace(default_config("ml-misidentification"),
                              penalties=(10.0, 0.0))
    report = run_experiment(cfg)
    penalized, unpenalized = report.curve
    assert penalized["penalty"] == 10.0 and unpenalized["penalty"] == 0.0
    assert penalized["frequency"] >= 0.9
    assert unpenalized["frequency"] <= 0.1
    ok(8, "misidentification at n=50 over 500 seeds: frequency "
          f"{penalized['frequency']:.3f} with the penalty (>=0.9), "
          f"{unpenalized['frequency']:.3f} without (<=0.1)")


def test_09_cylinder_scores_converge_to_entropy():
    rates = {}
    for rows in ([[1, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 1], [1, 1]]):
        grammar = Grammar.from_rows(rows)
        cfg = dataclasses.replace(default_config("smb"), true_grammar=grammar)
        report = run_experiment(cfg)
        final = report.curve[-1]
        assert final["n"] == 10000
        assert final["frequency"] >= 0.9
        rates[str(rows)] = final["frequency"]
    ok(9, f"per-symbol cylinder scores within 0.05 of the entropy rate at n=10^4: "
          f"hit rates {sorted(rates.values())} across the three grammars, 50 seeds each")


def test_10_cli_output_is_byte_identical(tmp_path):
    grammar_file = tmp_path / "golden.json"
    grammar_file.write_text(json.dumps({"theta": 2, "matrix": [[1, 1], [1, 0]]}))
    config_file = tmp_path / "smb.json"
    config_file.write_text(json.dumps({
        "experiment": "smb",
        "true_grammar": {"theta": 2, "matrix": [[1, 1], [1, 0]]},
        "checkpoints": [100, 400],
        "seeds": 8,
    }))
    invocations = [
        ["pressure", "--grammar", str(grammar_file)],
        ["sample", "--grammar", str(grammar_file), "--length", "500", "--seed", "5"],
        ["identify", "--sample", "0110"],
        ["enumerate", "--theta", "3"],
        ["experiment", "--config", str(config_file), "--format", "csv"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "sftlearn.cli", *argv],
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout
    ok(10, f"CLI determinism: {len(invocations)} invocations repeated, "
           "byte-identical standard output each time")
