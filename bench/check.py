"""Correctness checker for the CLI's outputs.

An output passes when it parses, when it matches the output recorded in
``bench/reference/`` for the same input set, and when it satisfies
invariants the benchmark derives on its own (see ``oracle.py``).  Matching
the reference means: every non-float value (grammars, words, indices,
counts, ``n`` columns, keys, strings such as ``"-inf"``) is equal, and every
float agrees within ``FLOAT_RTOL`` relative (``FLOAT_ATOL`` absolute near
zero).  Byte equality with the reference is reported separately.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

import oracle
from inputs import EXPERIMENT_IDS, potential_table

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12
TIE_TOL = 1e-9  # the CLI's default --tie-tol

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close(a, b) -> bool:
    if not isinstance(a, (int, float)) or isinstance(a, bool):
        return False
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def _split(obj, floats: list):
    """The object with every float replaced by a marker; floats in order."""
    if isinstance(obj, float):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, dict):
        return {k: _split(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_split(v, floats) for v in obj]
    return obj


def reference_entry(text: str) -> dict:
    floats: list = []
    skeleton = _split(json.loads(text), floats)
    return {"sha256": digest(text),
            "skeleton": digest(json.dumps(skeleton, sort_keys=True)),
            "floats": floats}


def load_reference(name: str, instance: int):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"].get(str(instance))


def corrupted(text: str, seed: int) -> str:
    """``text`` with one byte changed: the first character inside one
    seed-chosen JSON string (a key or a string value).  Every such change
    alters non-float content, so a sound checker must reject it."""
    quotes = [i for i, c in enumerate(text) if c == '"'][::2]
    pos = quotes[random.Random(seed).randrange(len(quotes))] + 1
    return text[:pos] + ("Z" if text[pos] != "Z" else "Y") + text[pos + 1:]


class Checker:
    """Judges the outputs of one generated workload, operation by operation."""

    def __init__(self, workload, reference):
        self.wl = workload
        self.reference = reference
        self._cache: dict = {}

    def bytes_identical(self, k: int, text: str) -> bool:
        return self.reference is not None and digest(text) == self.reference[k]["sha256"]

    def problems(self, k: int, text: str) -> list[str]:
        try:
            obj = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        return self._reference_problems(k, text, obj) + self.invariant_problems(k, obj)

    def _reference_problems(self, k: int, text: str, obj) -> list[str]:
        if self.reference is None:
            return [f"no reference recorded for input set {self.wl.instance}"]
        ref = self.reference[k]
        if digest(text) == ref["sha256"]:
            return []
        floats: list = []
        skeleton = _split(obj, floats)
        if digest(json.dumps(skeleton, sort_keys=True)) != ref["skeleton"]:
            return ["non-float content differs from the reference"]
        if len(floats) != len(ref["floats"]):
            return [f"{len(floats)} floats where the reference has {len(ref['floats'])}"]
        return [f"float #{i} is {a!r}, reference {b!r}"
                for i, (a, b) in enumerate(zip(floats, ref["floats"])) if not close(a, b)][:5]

    def invariant_problems(self, k: int, obj) -> list[str]:
        check = getattr(self, "_" + self.wl.name.replace("-", "_"))
        try:
            return check(k, obj)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            return [f"output does not have the expected shape: {exc!r}"]

    def _once(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    # ---- one method per workload ----------------------------------------

    def _identify_long(self, k, obj):
        word = self.wl.facts["word"]
        table = potential_table(self.wl.facts["potential"])
        grammars = self._once("g3", lambda: oracle.primitive_grammars(3))
        out = []
        if obj["n"] != len(word):
            out.append(f"n is {obj['n']}, the word has {len(word)} symbols")
        scores = obj["scores"]
        if [s["grammar"] for s in scores] != [{"theta": 3, "matrix": g} for g in grammars]:
            return out + ["candidates are not the sorted primitive theta=3 grammars"]
        pairs = set(zip(word, word[1:]))
        lls, ents = [], []
        for i, (g, s) in enumerate(zip(grammars, scores)):
            if not all(g[a][b] for a, b in pairs):
                if s["log_likelihood"] != "-inf" or s["entropy"] is not None:
                    out.append(f"candidate {i} does not admit the word but scores it")
                lls.append(-math.inf)
                continue
            states, tr, st, _ = oracle.gibbs_markov(g, table, 3)
            ll = oracle.log_likelihood(word, 3, states, tr, st)
            h = oracle.chain_entropy(tr, st)
            if not close(s["log_likelihood"], ll):
                out.append(f"candidate {i}: log likelihood {s['log_likelihood']!r}, oracle {ll!r}")
            if not close(s["entropy"], h):
                out.append(f"candidate {i}: entropy {s['entropy']!r}, oracle {h!r}")
            lls.append(s["log_likelihood"])
            ents.append((s["entropy"], i))
        if not ents:
            return out + ["no candidate admits the word"]
        best = max(lls)
        if obj["ml_set"] != [i for i, v in enumerate(lls) if v >= best - TIE_TOL]:
            out.append("ml_set is not the set of maximal log likelihoods")
        low = min(e for e, _ in ents)
        if obj["min_entropy_set"] != [i for e, i in ents if e <= low + TIE_TOL]:
            out.append("min_entropy_set is not the set of minimal admissible entropies")
        if obj["none_admissible"] is not False:
            out.append("none_admissible is set although candidates admit the word")
        return out

    def _experiments(self, k, obj):
        x = EXPERIMENT_IDS[k]
        seed = self.wl.facts["seed"]
        cfg = obj["config"]
        out = []
        if obj["experiment"] != x or cfg["base_seed"] != seed:
            out.append(f"report is for {obj['experiment']} seed {cfg['base_seed']}")
        for row in obj["curve"]:
            for key in ("frequency", "ml_frequency", "avoid_frequency"):
                v = row.get(key)
                if v is not None and not 0.0 <= v <= 1.0:
                    out.append(f"{key} {v!r} outside [0, 1]")
        ns = [row["n"] for row in obj["curve"]]
        if x == "ml-misidentification":
            length = cfg["sample_length"]
            if set(ns) != {length}:
                out.append(f"n column {ns} is not the sample length {length}")
            out += _word_problems(obj["details"]["first_seed"], seed, length, "01", None)
        elif x == "monotonicity":
            out += self._monotonicity(obj)
        else:
            if ns != cfg["checkpoints"]:
                out.append(f"n column {ns} is not the checkpoints {cfg['checkpoints']}")
        if x in ("ml-convergence", "entropy-convergence", "language-change"):
            # the true (or lower) grammar is the golden mean, which forbids "11"
            out += _word_problems(obj["details"]["first_seed"], seed, max(cfg["checkpoints"]),
                                  "01", "11")
        if x in ("ml-convergence", "entropy-convergence"):
            grammars = oracle.primitive_grammars(2)
            rows = obj["candidate_table"]
            if [r["grammar"]["matrix"] for r in rows] != grammars:
                out.append("candidate table is not the sorted primitive theta=2 grammars")
            for g, r in zip(grammars, rows):
                h = math.log(oracle.perron_root(np.array(g, dtype=float)))
                if not close(r["entropy"], h):
                    out.append(f"entropy of {g} is {r['entropy']!r}, topological {h!r}")
                if not 0.0 <= r["admit_frequency"] <= 1.0:
                    out.append(f"admit_frequency {r['admit_frequency']!r} outside [0, 1]")
        if x == "smb":
            h = math.log((1 + math.sqrt(5)) / 2)
            if not close(obj["thresholds"]["entropy"], h):
                out.append(f"golden-mean entropy {obj['thresholds']['entropy']!r}, exact {h!r}")
            est = obj["details"]["final_estimates"]
            if len(est) != cfg["seeds"] or not all(0 < e < math.log(2) + 1 for e in est):
                out.append("final estimates are missing or out of range")
        return out

    def _monotonicity(self, obj):
        cfg = obj["config"]
        scan = self._once(("scan", cfg["theta"], cfg["base_seed"]), lambda: oracle.monotonicity_scan(
            cfg["theta"], cfg["n_potentials"], cfg["potential_ranges"], cfg["value_bound"],
            cfg["base_seed"]))
        curve, th = obj["curve"], obj["thresholds"]
        out = []
        if len(curve) != len(scan["rows"]):
            return [f"{len(curve)} curve rows, expected {len(scan['rows'])}"]
        for k, (row, exp) in enumerate(zip(curve, scan["rows"])):
            if row["n"] != k or row["range"] != exp["range"]:
                out.append(f"row {k} has n={row['n']} range={row['range']}")
            if not close(row["frequency"], exp["violations"] / scan["pairs"]):
                out.append(f"row {k}: violation frequency {row['frequency']!r}")
            if not close(row["mean_score_gap"], exp["gap"]):
                out.append(f"row {k}: minimum pressure gap {row['mean_score_gap']!r}, "
                           f"eigvals {exp['gap']!r}")
        if th["violations"] != 0:
            out.append(f"{th['violations']} violations of strict pressure monotonicity")
        if th["comparable_pairs"] != scan["pairs"] or th["grammars"] != scan["grammars"]:
            out.append(f"{th['grammars']} grammars and {th['comparable_pairs']} pairs, expected "
                       f"{scan['grammars']} and {scan['pairs']}")
        if not close(th["min_pressure_gap"], min(r["gap"] for r in scan["rows"])):
            out.append(f"min_pressure_gap {th['min_pressure_gap']!r}")
        if not close(th["min_lambda_gap_zero_potential"], scan["lambda_gap"]):
            out.append(f"min_lambda_gap_zero_potential {th['min_lambda_gap_zero_potential']!r}")
        return out

    def _pressure_scan(self, k, obj):
        cfg = obj["config"]
        out = []
        if (obj["experiment"], cfg["theta"], cfg["base_seed"]) != \
                ("monotonicity", 3, self.wl.facts["seed"]):
            out.append("report is not the theta=3 monotonicity scan of this seed")
        return out + self._monotonicity(obj)


def _word_problems(record, seed, length, alphabet, forbidden) -> list[str]:
    out = []
    word = record["word"]
    if record["seed"] != seed:
        out.append(f"sample seed {record['seed']}, expected {seed}")
    if len(word) != length:
        out.append(f"sampled word has {len(word)} symbols, expected {length}")
    if not set(word) <= set(alphabet):
        out.append(f"sampled word uses symbols outside {alphabet}")
    if forbidden is not None and forbidden in word:
        out.append(f"sampled word contains the forbidden block {forbidden}")
    return out
