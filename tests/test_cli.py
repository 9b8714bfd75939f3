"""Command-line behavior: outputs, exit codes, diagnostics, determinism."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sftlearn import (Grammar, enumerate_grammars, gibbs_chain, Lexicon, Potential,
                      pressure_stack, sample)
from sftlearn import experiments, gibbs
from sftlearn.cli import build_parser, main
from sftlearn.serialize import dumps, grammar_from_dict, potential_from_dict, potential_to_dict

PHI = (1 + math.sqrt(5)) / 2
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"theta": 2, "matrix": [[1, 1], [1, 0]]}))
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"theta": 2, "range": 2, "entries": []}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pressure_subcommand(capsys, golden_file, zero_file):
    code, out, err = run(capsys, "pressure", "--grammar", golden_file,
                         "--potential", zero_file)
    assert code == 0
    assert json.loads(out)["pressure"] == pytest.approx(math.log(PHI), abs=1e-9)
    assert "finished in" in err


def test_entropy_subcommand_defaults_to_zero_potential(capsys, golden_file):
    code, out, _ = run(capsys, "entropy", "--grammar", golden_file)
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(math.log(PHI), abs=1e-9)


def test_sample_subcommand_reports_word_and_chain(capsys, golden_file):
    code, out, _ = run(capsys, "sample", "--grammar", golden_file,
                       "--length", "64", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 64 and len(payload["word"]) == 64
    assert payload["seed"] == 3
    assert "11" not in payload["word"]
    assert payload["chain"]["lambda"] == pytest.approx(PHI, abs=1e-9)


def test_identify_auto_matches_the_hand_example(capsys, zero_file):
    code, out, _ = run(capsys, "identify", "--sample", "0110",
                       "--potential", zero_file)
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 4
    winners = [result["scores"][i]["grammar"]["matrix"] for i in result["ml_set"]]
    assert winners == [[[0, 1], [1, 1]]]
    by_matrix = {tuple(map(tuple, s["grammar"]["matrix"])): s for s in result["scores"]}
    assert by_matrix[((1, 1), (1, 0))]["log_likelihood"] == "-inf"
    assert by_matrix[((1, 1), (1, 0))]["entropy"] is None
    assert by_matrix[((1, 1), (1, 1))]["log_likelihood"] == pytest.approx(
        math.log(0.0625), abs=1e-9)


def test_identify_accepts_word_files_and_explicit_sets(capsys, tmp_path, zero_file):
    word_file = tmp_path / "word.json"
    word_file.write_text("[0, 1, 1, 0]")
    set_file = tmp_path / "set.json"
    set_file.write_text(json.dumps([{"theta": 2, "matrix": [[1, 1], [1, 1]]}]))
    code, out, _ = run(capsys, "identify", "--sample-file", str(word_file),
                       "--grammar-set", str(set_file))
    assert code == 0
    assert json.loads(out)["ml_set"] == [0]

    bad_word = tmp_path / "bad.json"
    bad_word.write_text('["a", "b"]')
    code, _, err = run(capsys, "identify", "--sample-file", str(bad_word))
    assert code == 1
    assert "word symbol must be an integer, got 'a'" in err


def test_a_bad_grammar_set_is_named_by_its_path(capsys, tmp_path):
    path = tmp_path / "set.json"
    for data, message in (([{"theta": 2, "matrix": [[1, 1.5], [1, 0]]}],
                           "grammar field 'matrix': value must be an integer, got 1.5"),
                          ([], "grammar set must be a nonempty JSON array")):
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "identify", "--sample", "0101", "--grammar-set", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"sftlearn: error: {path}: {message}"]


def test_enumerate_emits_reparsable_grammars(capsys):
    code, out, _ = run(capsys, "enumerate", "--theta", "2")
    assert code == 0
    parsed = [grammar_from_dict(item) for item in json.loads(out)]
    assert parsed == enumerate_grammars(Lexicon(2))


def test_sample_output_reparses_round_trip(capsys, golden_file):
    _, out, _ = run(capsys, "sample", "--grammar", golden_file, "--length", "16")
    payload = json.loads(out)
    assert grammar_from_dict(payload["grammar"]) == Grammar.from_rows([[1, 1], [1, 0]])
    assert potential_from_dict(payload["potential"]).entries == ()


def test_words_over_more_than_ten_symbols_are_written_as_integer_arrays(capsys, tmp_path):
    full = {"theta": 11, "matrix": [[1] * 11] * 11}
    chain = gibbs_chain(grammar_from_dict(full), Potential.zero(Lexicon(11)))
    grammar = tmp_path / "full11.json"
    grammar.write_text(json.dumps(full))
    code, out, _ = run(capsys, "sample", "--grammar", str(grammar), "--length", "30")
    assert code == 0
    assert json.loads(out)["word"] == list(sample(chain, 30, 0).word)
    assert max(json.loads(out)["word"]) >= 10
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"experiment": "ml-convergence", "true_grammar": full,
                                  "candidates": [full], "seeds": 3, "checkpoints": [5, 20]}))
    code, out, _ = run(capsys, "experiment", "--config", str(config))
    assert code == 0
    assert json.loads(out)["details"]["first_seed"]["word"] == list(sample(chain, 20, 0).word)


def test_a_potential_over_eleven_symbols_round_trips():
    phi = Potential.from_table(Lexicon(11), 2, {(10, 3): 0.5, (0, 1): -1.0})
    data = json.loads(dumps(potential_to_dict(phi)))
    assert [e["word"] for e in data["entries"]] == [[0, 1], [10, 3]]
    assert potential_from_dict(data) == phi


def test_output_flag_writes_the_file_instead_of_stdout(capsys, tmp_path, golden_file):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "pressure", "--grammar", golden_file,
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pressure"] == pytest.approx(
        math.log(PHI), abs=1e-9)


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_an_output_that_cannot_be_written_exits_1_and_names_the_path(capsys, tmp_path, where):
    target = tmp_path / "no-such-dir" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "enumerate", "--theta", "2", "--output", str(target))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sftlearn: error:") and str(target) in lines[0]


def test_importing_the_cli_does_not_import_numpy_random():
    # the CLI's start-up time counts on numpy.random being imported only when a
    # word is drawn
    probe = "import sys, sftlearn.cli; print('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True).stdout == "False\n"


@pytest.mark.parametrize("tie_tol", ["nan", "inf", "-1e-9"])
def test_identify_rejects_a_tie_tolerance_that_is_not_finite_and_nonnegative(capsys, tie_tol):
    code, out, err = run(capsys, "identify", "--sample", "0101101", f"--tie-tol={tie_tol}")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sftlearn: error:") and "tie_tol" in lines[0]


def test_nonprimitive_grammar_exits_1_and_names_the_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"theta": 2, "matrix": [[0, 1], [1, 0]]}))
    code, out, err = run(capsys, "pressure", "--grammar", str(bad))
    assert code == 1
    assert out == ""
    assert "not primitive" in err and "[[0, 1], [1, 0]]" in err


def test_malformed_json_exits_1_with_line_diagnostic(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"theta": 2,\n "matrix": [[1, 1], [1, 0]],}')
    code, _, err = run(capsys, "pressure", "--grammar", str(broken))
    assert code == 1
    assert "line 2" in err and "column" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "pressure", "--grammar", "no-such-file.json")
    assert code == 1
    assert "no-such-file.json" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pressure"])      # --grammar is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("pressure", "entropy", "sample", "identify", "experiment",
                 "enumerate"):
        assert name in out


def test_one_process_prints_what_a_fresh_process_prints_for_each_command(capsys, golden_file):
    assert build_parser() is build_parser()   # one parser per process
    sequence = [
        ["experiment", "--experiment", "ml-convergence"],
        ["experiment", "--experiment", "nope"],   # a bad command line: usage, exit 1
        ["pressure", "--grammar", golden_file],
        ["identify", "--sample", "0110"],
        ["--version"],
        ["experiment", "--experiment", "ml-convergence"],
    ]
    timing = re.compile(r"finished in \d+\.\d+s")
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "sftlearn.cli", *argv], capture_output=True)
        assert (code, out.encode(), timing.sub("", err)) \
            == (alone.returncode, alone.stdout, timing.sub("", alone.stderr.decode())), argv
        codes.append(code)
    assert codes == [0, 1, 0, 0, 0, 0]


def test_experiment_subcommand_json_and_csv(capsys, tmp_path):
    config = {
        "experiment": "smb",
        "true_grammar": {"theta": 2, "matrix": [[1, 1], [1, 0]]},
        "checkpoints": [50, 200],
        "seeds": 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "smb"
    assert [row["n"] for row in report["curve"]] == [50, 200]

    code, out, _ = run(capsys, "experiment", "--config", str(cfg),
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,frequency,mean_score_gap"
    assert len(lines) == 3


def test_experiment_seed_flag_overrides_base_seed(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "smb",
        "true_grammar": {"theta": 2, "matrix": [[1, 1], [1, 0]]},
        "checkpoints": [100],
        "seeds": 3,
    }))
    _, base_out, _ = run(capsys, "experiment", "--config", str(cfg))
    _, same, _ = run(capsys, "experiment", "--config", str(cfg))
    _, moved, _ = run(capsys, "experiment", "--config", str(cfg), "--seed", "9")
    assert base_out == same
    assert json.loads(moved)["config"]["base_seed"] == 9
    assert moved != base_out


@pytest.mark.parametrize("experiment", ["smb", "language-change"])
def test_negative_seeds_exit_1_before_any_work_and_name_the_field(capsys, tmp_path, monkeypatch,
                                                                  golden_file, experiment):
    # the seed is checked before the runner starts (language-change bisects first)
    monkeypatch.setitem(experiments._RUNNERS, experiment, lambda cfg: pytest.fail("ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "base_seed": -1,
                               "true_grammar": GOLDEN, "lower": GOLDEN, "upper": FULL}))
    for argv, name in ((["experiment", "--experiment", experiment, "--seed", "-1"], "base_seed"),
                       (["experiment", "--config", str(cfg)], "base_seed"),
                       (["sample", "--grammar", golden_file, "--length", "5", "--seed", "-3"],
                        "seed")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"sftlearn: error: {name} must be")


def test_underflow_exits_1_and_a_failed_certificate_exits_2(capsys, tmp_path,
                                                            monkeypatch):
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"theta": 2, "matrix": [[1, 1], [1, 1]]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"theta": 2, "range": 2,
                               "entries": [{"word": "11", "value": -1500}]}))
    code, out, err = run(capsys, "pressure", "--grammar", str(full), "--potential", str(phi))
    assert (code, out) == (1, "")
    assert "(1, 1)" in err and "span 1500" in err

    # no primitive grammar yields an uncertifiable matrix, so substitute one
    monkeypatch.setattr(gibbs, "_transfer_stack", lambda blocks, p: [
        ([0], np.zeros(1), np.diag([1.0, 0.0])[None])])
    code, out, err = run(capsys, "pressure", "--grammar", str(full))
    assert (code, out) == (2, "")
    assert "failed its certificate" in err


def test_a_bad_word_exits_1_before_its_class_fails_a_certificate(capsys, tmp_path):
    # this grammar's certificate fails under this potential (README "Numerical
    # notes"), but the word is bad input, which is checked before any solve
    grammars = tmp_path / "one.json"
    grammars.write_text(json.dumps([{"theta": 3, "matrix": [[0, 1, 1], [1, 0, 0], [0, 1, 0]]}]))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"theta": 3, "range": 2, "entries": [
        {"word": w, "value": v} for w, v in (("01", 60), ("10", 28), ("22", -120))]}))
    args = ("--grammar-set", str(grammars), "--potential", str(phi))
    assert run(capsys, "identify", "--sample", "015", *args) == (
        1, "", "sftlearn: error: symbol 5 outside lexicon of size 3\n")
    code, _, err = run(capsys, "identify", "--sample", "012", *args)
    assert code == 2 and "certificate" in err


def test_an_eig_that_does_not_converge_exits_2_naming_the_matrix(capsys, golden_file,
                                                                  monkeypatch):
    # whether LAPACK's geev converges depends on its build, so fail it by hand
    def eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(np.linalg, "eigvals", eig)
    code, out, err = run(capsys, "pressure", "--grammar", golden_file)
    assert (code, out) == (2, "")
    assert err == ("sftlearn: numerical failure: eigen-solve of a 2x2 matrix failed: "
                   "Eigenvalues did not converge\n")


def test_a_pressure_whose_shifted_solve_raises_exits_2_naming_the_matrix(capsys, golden_file,
                                                                         monkeypatch):
    # LinAlgError is a ValueError, which would exit 1; the pressure path reports a numerical failure
    def solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert run(capsys, "pressure", "--grammar", golden_file) == (
        2, "", "sftlearn: numerical failure: eigen-solve of a 2x2 matrix failed: Singular matrix\n")


def test_a_pressure_of_tiny_perron_entries_prints_its_exact_value(capsys, tmp_path):
    # lam^3 - e^88 lam - e^28 has the root e^44 (1 + e^-104 / 2 + ...), so P = 44 to the last bit;
    # h has an entry near e^-60 (README "Numerical notes").  A chain is certified by eig, which
    # resolves no such entry, so entropy still fails
    grammar = tmp_path / "g.json"
    grammar.write_text(json.dumps({"theta": 3, "matrix": [[0, 1, 1], [1, 0, 0], [0, 1, 0]]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"theta": 3, "range": 2, "entries": [
        {"word": w, "value": v} for w, v in (("01", 60), ("10", 28), ("22", -120))]}))
    args = ("--grammar", str(grammar), "--potential", str(phi))
    assert run(capsys, "pressure", *args)[:2] == (0, '{\n  "pressure": 44.0\n}\n')
    code, out, err = run(capsys, "entropy", *args)
    assert (code, out) == (2, "") and "failed its certificate" in err


def test_chain_commands_accept_pressures_past_the_float_range(capsys, tmp_path):
    # every range-2 word at 800: P = 800 + log 2, and exp(P) is no float
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"theta": 2, "matrix": [[1, 1], [1, 1]]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"theta": 2, "range": 2, "entries": [
        {"word": w, "value": 800} for w in ("00", "01", "10", "11")]}))
    args = ("--grammar", str(full), "--potential", str(phi))
    code, out, _ = run(capsys, "entropy", *args)
    assert code == 0 and json.loads(out)["entropy"] == pytest.approx(math.log(2), abs=1e-12)
    code, out, _ = run(capsys, "sample", *args, "--length", "8", "--seed", "1")
    chain = json.loads(out)["chain"]
    assert code == 0 and chain["lambda"] == "inf"
    assert chain["pressure"] == pytest.approx(800 + math.log(2), rel=1e-15)


def test_readme_cli_examples_match_the_code(capsys, golden_file):
    lines = README.read_text(encoding="utf-8").splitlines()

    def example(command):
        """Run a README command; return its stdout and the README's comment lines."""
        shown = []
        for line in lines[lines.index(command) + 1:]:
            if not line.startswith("# "):
                break
            shown.append(line[2:])
        argv = [golden_file if a == "golden.json" else a for a in command.split()[1:]]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return out, shown

    out, shown = example("sftlearn pressure --grammar golden.json")
    assert out.splitlines() == shown
    out, shown = example("sftlearn sample --grammar golden.json --length 12 --seed 7")
    assert f'"seed": 7, "word": "{json.loads(out)["word"]}"' in shown[0]
    out, shown = example("sftlearn experiment --experiment smb --format csv")
    assert out.splitlines() == shown


def test_readme_python_examples_hold_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    names = {}
    for block in blocks:
        exec(block, names)
    quick = blocks[0]
    assert "# 3 of them" in quick and len(names["grammars"]) == 3
    chain = names["chain"]
    assert "# 1.618..." in quick and chain.lam == pytest.approx(PHI, rel=1e-12)
    assert "# equal to pressure" in quick and chain.entropy == pytest.approx(chain.pressure,
                                                                             rel=1e-12)
    outcome, golden = names["outcome"], names["golden"]
    assert quick.count("# {golden}") == 2
    assert outcome.ml_set == outcome.min_entropy_set == {golden}


# SHA-256 of the stdout of ``sftlearn experiment --experiment X --seed S`` at
# seeds 11 and 2027, recorded before the experiments scored whole studies as
# arrays (numpy 2.4, x86-64).  Speed-ups must keep these bytes; a change
# that means to alter them re-records the table and says why.
RECORDED_SEEDS = (11, 2027)
RECORDED_EXPERIMENT_DIGESTS = {
    "ml-convergence": ("dcef4bed4c005c541a01e78fa3909b128012e18d1975bdc0a13b26f74de935a5",
                       "27ad5a05b1d310cf71a9684516e2f669294a3ea35f9d245328a41be150ac7354"),
    "entropy-convergence": ("5bdc317f289299eeb2fcc645551f1762e2efcb47d3783152401a0a079fbdf3ee",
                            "5f034a20fa747e502c78c1efe73735bad8386f02c96f082347096269517e38b0"),
    "language-change": ("b680ae6d27d2f8d4ef14f166408654a1b89214016c3b156c2708d9e928626ed9",
                        "f162da336bd5424d4b9bef987b144b27084347be27ccd8133e9a5d02e2ec9152"),
    "ml-misidentification": ("5cd5736ab6c73af54a64333d1f1cc4e7e4b24a730462a038ee5b317525342ff2",
                             "31cdda1bb3e669d99f4eddfc8a3ac24177c9fecb2e4f7202dc440e4c2103ff14"),
    "monotonicity": ("468d6750d37b32a9b7e884f3ee77ee7f0d2506fac86540e7c5a4681fa5596162",
                     "ef7f88c5d7eaa738197af3f416f8ddff4e906d63a23b16cfebae604712160167"),
    "smb": ("ba203a890406c0910d944e9b669796230e89b3e67d2f33123c0fe168b301b992",
            "3fadce62da72bcad70d073a674ced654ac77a760c07553b7a7a9e8af28c48e48"),
}


@pytest.mark.parametrize("experiment", sorted(RECORDED_EXPERIMENT_DIGESTS))
@pytest.mark.parametrize("k", range(len(RECORDED_SEEDS)))
def test_default_experiments_print_their_recorded_bytes(capsys, experiment, k):
    seed = RECORDED_SEEDS[k]
    code, out, _ = run(capsys, "experiment", "--experiment", experiment, "--seed", str(seed))
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == RECORDED_EXPERIMENT_DIGESTS[experiment][k]


# SHA-256 of the same runs with ``--format csv``.  The ml-convergence,
# entropy-convergence and smb tables equal the bytes of the three-column CSV
# that preceded per-experiment columns; the others append their own columns.
RECORDED_CSV_DIGESTS = {
    "ml-convergence": ("416333fae42e78ece26c7d1285a8d72b9b5cf125687daa9d79136eed260d5fcc",
                      "bf9f180f1328e696c227e46c6eebf96e5ab4d5cc912b6f2f1f0b2302f52fda2f"),
    "entropy-convergence": ("d62140c11ea20795bc2725b2ddb2bdb94ff65fff5ff0ebe4d431ac51ab34e94d",
                           "d62140c11ea20795bc2725b2ddb2bdb94ff65fff5ff0ebe4d431ac51ab34e94d"),
    "language-change": ("062be6c2c77d5f4da58dbfccb1c24c4ca923c2c27b94dcfdf9252d17101ba331",
                       "062be6c2c77d5f4da58dbfccb1c24c4ca923c2c27b94dcfdf9252d17101ba331"),
    "ml-misidentification": ("6c550dca6a6e6bb4f294d42a44acd7432681a936b399ed951a2488a884c94c86",
                            "42f0a586394d11e55930358d04040b63cffe5bc122382a9fa4122340507644ad"),
    "monotonicity": ("c48011dcf54b328cf7f88b87bcfb4e56fd9c95a74b20c8cd2f84a5b3c7b47f98",
                    "8b2c9cc9f9558cf47661b2a3fc724118ea143f7aa07bd9595c8a4042a6fd1aef"),
    "smb": ("070dc4e1860e1dae2c2cfc7e98379edc5f6af6ffd46db5ec92cb2fcfc3cc4fc2",
           "ce0c9ef989ce134a3932a48591bef404a38ca4a50d8287b73b1ff96066ba1ce7"),
}


@pytest.mark.parametrize("experiment", sorted(RECORDED_CSV_DIGESTS))
@pytest.mark.parametrize("k", range(len(RECORDED_SEEDS)))
def test_default_experiment_csvs_hold_every_curve_column(capsys, experiment, k):
    argv = ("experiment", "--experiment", experiment, "--seed", str(RECORDED_SEEDS[k]))
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED_CSV_DIGESTS[experiment][k]
    header, *cells = csv.reader(io.StringIO(out))
    report = experiments.run_experiment(
        dataclasses.replace(experiments.default_config(experiment), base_seed=RECORDED_SEEDS[k]))
    assert header[:3] == ["n", "frequency", "mean_score_gap"]
    assert header == list(report.curve[0])
    _, printed, _ = run(capsys, *argv)
    curve = json.loads(printed)["curve"]
    assert [dict(zip(header, row, strict=True)) for row in cells] == \
        [{key: "" if value is None else str(value) for key, value in row.items()} for row in curve]


def test_a_misidentification_csv_tells_its_penalties_apart(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "ml-misidentification",
                                "lower": {"theta": 2, "matrix": [[1, 1], [1, 0]]},
                                "upper": {"theta": 2, "matrix": [[1, 1], [1, 1]]},
                                "penalties": [2.0, 3.0], "seeds": 50}))
    code, out, _ = run(capsys, "experiment", "--config", str(path), "--format", "csv")
    assert code == 0
    assert [row["penalty"] for row in csv.DictReader(io.StringIO(out))] == ["2.0", "3.0"]


# SHA-256 of the stdout of ``sftlearn experiment --config C`` for the
# benchmark's theta=3 scan, ``{"experiment": "monotonicity", "theta": 3,
# "base_seed": S}``, at the same seeds, recorded before the scan solved its
# potentials as one family (numpy 2.4, x86-64).
RECORDED_THETA3_SCAN_DIGESTS = (
    "483968a6cdccde06422677ca7581fd71bc1b85c9b8ac9c279eacd05938e9cb94",
    "b4cadc42b5e3edd82af82f3ad546b2192dbc5f6b37af39ed97690db2bfdc864c",
)


@pytest.mark.parametrize("k", range(len(RECORDED_SEEDS)))
def test_theta3_scans_print_their_recorded_bytes(capsys, tmp_path, k):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"experiment": "monotonicity", "theta": 3,
                                "base_seed": RECORDED_SEEDS[k]}))
    code, out, _ = run(capsys, "experiment", "--config", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED_THETA3_SCAN_DIGESTS[k]


# SHA-256 of the stdout of the same scan with ``"value_bound"`` 5, 10 and 25 and base
# seed 7, recorded when their pressures first all certified (numpy 2.4, x86-64).  Each
# holds matrices whose first shifted solves fail and whose rescaled rounds certify.
RECORDED_WIDE_SCAN_DIGESTS = {
    5.0: "3dbc0a67dbf52c62fa17ed71ade63a1958b7c654232b5483a6e62e203bb793cd",
    10.0: "571c7b3cce8d4acd4af43c58848a887953b43cbbe64b4b6f022f00e99b7e5f3a",
    25.0: "fa2caebcc1a76a5981d02e70345081a8288a1dacf179cdd14bbc1342811b248e",
}


@pytest.mark.parametrize("bound", sorted(RECORDED_WIDE_SCAN_DIGESTS))
def test_theta3_scans_of_wider_values_print_their_recorded_bytes(capsys, tmp_path, bound):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"experiment": "monotonicity", "theta": 3, "value_bound": bound,
                                "base_seed": 7}))
    code, out, _ = run(capsys, "experiment", "--config", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED_WIDE_SCAN_DIGESTS[bound]


# SHA-256 of the stdout of a theta=3 ``ml-convergence`` over all 139 candidates,
# 50 seeds from base seed 11, of a range-3 potential on a 7-state chain and of a
# range-4 potential on the full shift's 27-state chain, recorded before the
# sampler stepped several columns per lookup (numpy 2.4, x86-64).  The
# checkpoints end inside the first block (1), at most one step past it (3),
# and off any power-of-two column (37, 300).
RECORDED_THETA3_STUDY_DIGESTS = {
    3: ([[1, 1, 1], [1, 0, 1], [1, 1, 0]],
        "bc3675fcfc2da336d44fdc644f797236755436e8bb5094067bd70abd6f9f2288"),
    4: ([[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        "1dac95070e0fe825216540f0f62a4456b71f593c41eca34d83850e70e190c20e"),
}


@pytest.mark.parametrize("r", sorted(RECORDED_THETA3_STUDY_DIGESTS))
def test_theta3_studies_of_large_chains_print_their_recorded_bytes(capsys, tmp_path, r):
    matrix, recorded = RECORDED_THETA3_STUDY_DIGESTS[r]
    words = ["".join(map(str, w)) for w in itertools.product(range(3), repeat=r)]
    entries = [{"word": w, "value": ((7 * i) % 11 - 5) / 4} for i, w in enumerate(words)]
    path = tmp_path / "study.json"
    path.write_text(json.dumps({
        "experiment": "ml-convergence", "theta": 3,
        "true_grammar": {"theta": 3, "matrix": matrix},
        "potential": {"theta": 3, "range": r, "entries": entries},
        "checkpoints": [1, 3, 37, 300], "seeds": 50, "base_seed": 11}))
    code, out, _ = run(capsys, "experiment", "--config", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded


@pytest.mark.parametrize("fields, code", [
    # potential 1 (range 3) overflows the span; potential 2, of the range that is
    # solved first, fails its certificate
    pytest.param({"value_bound": 720.0, "potential_ranges": [3, 2]}, 1, id="span"),
    # potential 1 (range 3) fails its certificate, and so does potential 2, of the range that
    # is solved first (a zero entry in h); neither eig nor eigvals raises on their matrices
    pytest.param({"value_bound": 700.0, "potential_ranges": [3, 2]}, 2, id="certificate"),
])
def test_a_failing_scan_exits_like_a_loop_over_its_potentials(capsys, tmp_path, fields, code):
    config = {"experiment": "monotonicity", "theta": 3, "n_potentials": 8, **fields}
    cfg = experiments.ExperimentConfig.from_dict(config)
    lex = Lexicon(3)
    grammars = enumerate_grammars(lex)
    potentials = [Potential.zero(lex)] + experiments._random_potentials(
        lex, cfg.n_potentials, cfg.potential_ranges, cfg.value_bound, cfg.base_seed)
    with pytest.raises((ValueError, RuntimeError)) as loop:
        for phi in potentials:
            pressure_stack(grammars, phi)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    kind = "error" if code == 1 else "numerical failure"
    assert run(capsys, "experiment", "--config", str(path)) == (
        code, "", f"sftlearn: {kind}: {loop.value}\n")


GOLDEN = {"theta": 2, "matrix": [[1, 1], [1, 0]]}
FULL = {"theta": 2, "matrix": [[1, 1], [1, 1]]}


@pytest.mark.parametrize("config, name", [
    pytest.param({"experiment": "smb", "wat": 1}, "wat", id="wat"),
    pytest.param({"experiment": "smb", "seeds": None}, "seeds", id="seeds-null"),
    pytest.param({"experiment": "smb", "checkpoints": 5}, "checkpoints", id="checkpoints-scalar"),
    pytest.param({"experiment": "ml-convergence", "candidates": 5}, "candidates",
                 id="candidates-scalar"),
    pytest.param({"experiment": "smb", "true_grammar": GOLDEN, "checkpoints": []},
                 "checkpoints", id="smb-checkpoints-empty"),
    pytest.param({"experiment": "smb", "true_grammar": GOLDEN, "checkpoints": [0, 10]},
                 "checkpoints", id="smb-checkpoints-zero"),
    pytest.param({"experiment": "monotonicity", "theta": 2, "potential_ranges": []},
                 "potential_ranges", id="potential-ranges-empty"),
    pytest.param({"experiment": "smb", "seeds": 2.7}, "seeds", id="seeds-float"),
    pytest.param({"experiment": "smb", "checkpoints": "123"}, "checkpoints",
                 id="checkpoints-string"),
    pytest.param({"experiment": "smb", "tolerance": True}, "tolerance", id="tolerance-bool"),
    *(pytest.param({"experiment": "language-change", "lower": GOLDEN, "upper": FULL,
                    "bisect_tol": value}, "bisect_tol", id=f"bisect-tol-{value}")
      for value in (0, -1, math.nan, math.inf)),
    *(pytest.param({"experiment": "ml-convergence", "true_grammar": GOLDEN, "tie_tol": value},
                   "tie_tol", id=f"tie-tol-{value}") for value in (math.nan, math.inf)),
    # every float field must be finite, an integer past the float range included
    *(pytest.param({"experiment": experiment, **setup, name: wrap(value)}, name,
                   id=f"{name}-{label}")
      for experiment, setup, name, wrap in (
          ("smb", {"true_grammar": GOLDEN}, "tolerance", lambda v: v),
          ("monotonicity", {"theta": 2}, "value_bound", lambda v: v),
          ("language-change", {"lower": GOLDEN, "upper": FULL}, "reward_margin", lambda v: v),
          ("language-change", {"lower": GOLDEN, "upper": FULL}, "reward", lambda v: v),
          ("ml-misidentification", {"lower": GOLDEN, "upper": FULL}, "penalties",
           lambda v: [10.0, v]),
          ("entropy-convergence", {"true_grammar": GOLDEN}, "scales", lambda v: [1.0, v]))
      for value, label in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                           (10**400, "int-1e400"))),
    # values a runner used to take silently, or report only in numpy's words
    pytest.param({"experiment": "monotonicity", "theta": 2, "n_potentials": -3},
                 "n_potentials", id="n-potentials-negative"),
    pytest.param({"experiment": "monotonicity", "theta": 2, "value_bound": -2},
                 "value_bound", id="value-bound-negative"),
    pytest.param({"experiment": "ml-misidentification", "lower": GOLDEN, "upper": FULL,
                  "penalties": []}, "penalties", id="penalties-empty"),
])


def test_unknown_config_field_is_named(capsys, tmp_path, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "experiment", "--config", str(cfg))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sftlearn: error:")
    assert name in lines[0]


ZERO2 = {"theta": 2, "range": 2, "entries": []}


@pytest.mark.parametrize("grammar, potential, name", [
    pytest.param({"theta": 2, "matrix": [[1, 1], [1, 0.5]]}, ZERO2, "matrix", id="entry-half"),
    pytest.param({"theta": 2, "matrix": [[1, "1"], [1, 0]]}, ZERO2, "matrix", id="entry-string"),
    pytest.param({"theta": 2, "matrix": [[1, True], [1, 0]]}, ZERO2, "matrix", id="entry-bool"),
    pytest.param({"theta": "2", "matrix": [[1, 1], [1, 0]]}, ZERO2, "theta", id="theta-string"),
    pytest.param({"theta": 2.7, "matrix": [[1, 1], [1, 0]]}, ZERO2, "theta", id="theta-float"),
    pytest.param({"theta": True, "matrix": [[1, 1], [1, 0]]}, ZERO2, "theta", id="theta-bool"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2, "entries": [{"word": [0, 1.9], "value": 1}]},
                 "word", id="word-float"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2, "entries": [{"word": "0a", "value": 1}]},
                 "word", id="word-not-digits"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2, "entries": [{"word": "01", "value": True}]},
                 "value", id="value-bool"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2,
                          "entries": [{"word": "01", "value": 10**400}]},
                 "value", id="value-int-1e400"),
    pytest.param(GOLDEN, {"theta": "2", "range": 2, "entries": []}, "theta",
                 id="potential-theta-string"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2.5, "entries": []}, "range",
                 id="potential-range-float"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2, "entries": 5}, "entries", id="entries-int"),
    pytest.param(GOLDEN, {"theta": 2, "range": 2, "entries": None}, "entries", id="entries-null"),
])
def test_loaders_reject_coerced_values_and_name_the_field(capsys, tmp_path, grammar,
                                                          potential, name):
    g, p = tmp_path / "g.json", tmp_path / "p.json"
    g.write_text(json.dumps(grammar))
    p.write_text(json.dumps(potential))
    code, out, err = run(capsys, "pressure", "--grammar", str(g), "--potential", str(p))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sftlearn: error:")
    assert f"field '{name}'" in lines[0]


@pytest.mark.parametrize("flag", ["--grammar", "--potential", "--grammar-set", "--sample-file",
                                  "--config"])
def test_an_undecodable_file_is_named(capsys, tmp_path, golden_file, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    argv = {"--grammar": ["pressure", "--grammar", str(bad)],
            "--potential": ["pressure", "--grammar", golden_file, "--potential", str(bad)],
            "--grammar-set": ["identify", "--sample", "0110", "--grammar-set", str(bad)],
            "--sample-file": ["identify", "--sample-file", str(bad)],
            "--config": ["experiment", "--config", str(bad)]}[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"sftlearn: error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


@pytest.mark.parametrize("flag", ["--grammar", "--config"])
def test_a_file_nested_too_deep_for_the_json_parser_is_bad_input(capsys, tmp_path, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"--grammar": ["pressure", "--grammar", str(deep)],
            "--config": ["experiment", "--config", str(deep)]}[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"sftlearn: error: {deep}: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1


def test_repeated_invocations_are_byte_identical(capsys, golden_file):
    _, first, _ = run(capsys, "sample", "--grammar", golden_file,
                      "--length", "200", "--seed", "1")
    _, second, _ = run(capsys, "sample", "--grammar", golden_file,
                       "--length", "200", "--seed", "1")
    assert first == second
