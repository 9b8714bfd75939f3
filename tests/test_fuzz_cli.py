"""The CLI meets malformed input with an error line, never a traceback.

A derandomized hypothesis property runs ``cli.main`` in process on one mutation of one valid
input of a call, the call's other inputs left valid.  A mutation replaces a JSON node with a
value of ``POOL``, deletes a key, adds an unknown key, truncates the text, or writes bytes
that are not UTF-8.  Each call must exit 0, 1 or 2 within ``WALL_S`` and raise nothing; on
exit 1 its last stderr line is the error, and on exit 2 stderr names the numerical failure.
The property covers malformed input, not large valid input, whose cost is what its caller
asked for: no pool value is large.
"""

import copy
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlearn.cli import main

POOL = (None, True, 0, -1, 2, 1.5, "x", "", [], {}, [0], {"x": 1})
WALL_S = 2.0   # per call: a stall before an error would show here
FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

GOLDEN = {"theta": 2, "matrix": [[1, 1], [1, 0]]}
FULL = {"theta": 2, "matrix": [[1, 1], [1, 1]]}
POTENTIAL = {"theta": 2, "range": 2, "entries": [{"word": "01", "value": 0.25}]}
STUDY = {"seeds": 4, "checkpoints": [10, 50], "base_seed": 1}
CONFIGS = {
    "ml-convergence": {"true_grammar": GOLDEN, "candidates": [GOLDEN, FULL], **STUDY},
    "entropy-convergence": {"true_grammar": GOLDEN, "scales": [1.0, 2.0], **STUDY},
    "language-change": {"lower": GOLDEN, "upper": FULL, **STUDY},
    "ml-misidentification": {"lower": GOLDEN, "upper": FULL, "seeds": 4, "sample_length": 50,
                             "penalties": [1.0, 2.0]},
    "monotonicity": {"theta": 2, "n_potentials": 3, "potential_ranges": [2, 3]},
    "smb": {"true_grammar": GOLDEN, "potential": POTENTIAL, "tolerance": 0.1, **STUDY},
}
# Each call's argv, in which "{name}" stands for its input of that name: the path of a JSON
# file after a file flag, else the flag's text.
CALLS = {
    "pressure": (["pressure", "--grammar", "{grammar}", "--potential", "{potential}"],
                 {"grammar": GOLDEN, "potential": POTENTIAL}),
    "entropy": (["entropy", "--grammar", "{grammar}", "--potential", "{potential}"],
                {"grammar": GOLDEN, "potential": POTENTIAL}),
    "sample": (["sample", "--grammar", "{grammar}", "--potential", "{potential}",
                "--length", "{length}", "--seed", "{seed}"],
               {"grammar": GOLDEN, "potential": POTENTIAL, "length": 20, "seed": 3}),
    "identify": (["identify", "--sample", "{word}", "--grammar-set", "{grammar_set}",
                  "--potential", "{potential}"],
                 {"word": "0110", "grammar_set": [GOLDEN, FULL], "potential": POTENTIAL}),
    "identify-file": (["identify", "--sample-file", "{word_file}", "--theta", "{theta}"],
                      {"word_file": [0, 1, 1, 0], "theta": 2}),
    "enumerate": (["enumerate", "--theta", "{theta}"], {"theta": 2}),
    **{f"experiment-{name}": (["experiment", "--config", "{config}"],
                              {"config": {"experiment": name, **config}})
       for name, config in CONFIGS.items()},
}
FILE_FLAGS = {"--grammar", "--potential", "--grammar-set", "--sample-file", "--config"}
INPUTS = [(call, name) for call, (_, inputs) in CALLS.items() for name in inputs]
ERROR_LINE = re.compile(r"^sftlearn( \w+)?: error: ")


def _is_file(call: str, name: str) -> bool:
    argv = CALLS[call][0]
    return argv[argv.index(f"{{{name}}}") - 1] in FILE_FLAGS


def _text(value, is_file: bool) -> str:
    """A file's JSON text, or a flag's text (a string as it is, any other value as JSON)."""
    return value if isinstance(value, str) and not is_file else json.dumps(value)


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _mutated(draw, value, is_file: bool) -> bytes:
    """The bytes of one mutation of ``value``'s text."""
    paths = list(_paths(value))
    keyed = [p for p in paths if p and isinstance(_at(value, p[:-1]), dict)]
    dicts = [p for p in paths if isinstance(_at(value, p), dict)]
    kinds = ["replace", "truncate"] + ["delete"] * bool(keyed) + ["add"] * bool(dicts) \
        + ["bytes"] * is_file
    kind = draw(st.sampled_from(kinds))
    raw = _text(value, is_file).encode()
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "bytes":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    doc = copy.deepcopy(value)
    if kind == "replace":
        path, new = draw(st.sampled_from(paths)), draw(st.sampled_from(POOL))
        if not path:
            return _text(new, is_file).encode()
        _at(doc, path[:-1])[path[-1]] = new
    elif kind == "delete":
        path = draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, draw(st.sampled_from(dicts)))["unknown"] = 1
    return _text(doc, is_file).encode()


def _run(argv: list[str]) -> tuple[int, str, float]:
    """``main(argv)``'s exit status, its stderr and its wall time; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - started


def _argv(call: str, folder, texts: dict) -> list[str]:
    """The call's argv with each input in place, a file input written under ``folder``."""
    argv = list(CALLS[call][0])
    for name, data in texts.items():
        slot = argv.index(f"{{{name}}}")
        if _is_file(call, name):
            path = folder / f"{name}.json"
            path.write_bytes(data)
            argv[slot] = str(path)
        else:
            argv[slot] = data.decode()
    return argv


def _valid(call: str) -> dict:
    """The bytes of each input of a call, unmutated."""
    return {name: _text(value, _is_file(call, name)).encode()
            for name, value in CALLS[call][1].items()}


@pytest.mark.parametrize("call", CALLS)
def test_every_valid_input_runs(tmp_path, call):
    code, err, _ = _run(_argv(call, tmp_path, _valid(call)))
    assert code == 0, err


@pytest.mark.parametrize("call, name", INPUTS, ids=[f"{c}-{n}" for c, n in INPUTS])
def test_a_malformed_input_meets_an_error_line_never_a_traceback(tmp_path_factory, call, name):
    folder = tmp_path_factory.mktemp(f"{call}-{name}")
    inputs, valid = CALLS[call][1], _valid(call)

    @FUZZ
    @given(_mutated(inputs[name], _is_file(call, name)))
    def check(data):
        code, err, wall = _run(_argv(call, folder, {**valid, name: data}))
        lines = err.splitlines()
        assert code in (0, 1, 2), err
        assert not any(line.startswith("Traceback") for line in lines), err
        if code == 1:
            assert lines and ERROR_LINE.match(lines[-1]), err
        if code == 2:
            assert "numerical failure" in err, err
        assert wall < WALL_S, (wall, err)

    check()
