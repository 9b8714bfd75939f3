"""Workload table and the deterministic input generator.

Every input a workload feeds the CLI is made here from the workload seed,
before any timing starts, with numpy alone: the program under test never
helps make its own inputs.  A seed selects one of ``INSTANCES`` input sets
(``seed % INSTANCES``); a run gives its successive passes successive seeds.
``bench/reference/`` holds the CLI output that each of those sets produced
when the benchmark was defined, so every run on every seed is compared with
recorded bytes as well as with the invariants in ``check.py``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

INSTANCES = 64

EXPERIMENT_IDS = (
    "ml-convergence",
    "entropy-convergence",
    "language-change",
    "ml-misidentification",
    "monotonicity",
    "smb",
)

# identify-long: a theta=3 grammar with 7 of its 9 transitions (it forbids
# "00" and "22").  Exactly 4 of the 139 primitive theta=3 grammars contain it.
IDENTIFY_GRAMMAR = ((0, 1, 1), (1, 1, 1), (1, 1, 0))
IDENTIFY_LENGTH = 100_000
IDENTIFY_RANGE = 3
IDENTIFY_BOUND = 1.0

WORKLOADS = {
    "identify-long": "scoring dominates: a 100000-symbol word validated and scored against "
                     "the 139 theta=3 candidates, of which 4 admit it",
    "experiments": "the six default studies at one seed: many short words sampled from "
                   "2-state chains and scored against 3 candidates",
    "pressure-scan": "the theta=3 monotonicity scan: 2919 small pressure solves (d <= 9), "
                     "with no sampling or scoring",
}


@dataclass
class Workload:
    """Generated inputs of one run: the CLI argv of each operation in order,
    plus what the checker needs to judge the outputs."""

    name: str
    instance: int
    ops: list[list[str]]
    facts: dict = field(default_factory=dict)


def _rng(name: str, instance: int) -> np.random.Generator:
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(name))
    return np.random.default_rng([tag, instance])


def random_potential(rng, theta: int, rng_range: int, bound: float) -> dict:
    """A full table on every length-``rng_range`` word, values uniform in
    [-bound, bound), as a potential JSON object.  A draw of exactly 0.0 is
    nudged so the table stays full after the library drops zero entries."""
    words = list(itertools.product(range(theta), repeat=rng_range))
    values = rng.uniform(-bound, bound, size=len(words))
    values[values == 0.0] = bound / 2
    return {
        "theta": theta,
        "range": rng_range,
        "entries": [{"word": "".join(map(str, w)), "value": float(v)}
                    for w, v in zip(words, values)],
    }


def potential_table(pot: dict) -> dict[tuple[int, ...], float]:
    return {tuple(int(c) for c in e["word"]): float(e["value"]) for e in pot["entries"]}


def sample_word(rng, states, transition, stationary, n: int) -> list[int]:
    """Inverse-CDF sampling of ``n`` symbols from a block chain."""
    cur = min(bisect.bisect_left(np.cumsum(stationary).tolist(), rng.random()),
              len(states) - 1)
    word = list(states[cur])
    rows = [np.cumsum(row).tolist() for row in transition]
    for x in rng.random(n - len(word)).tolist():
        row = rows[cur]
        j = min(bisect.bisect_left(row, x * row[-1]), len(row) - 1)
        while transition[cur, j] == 0.0:  # x == 0 lands left of the support
            j += 1
        cur = j
        word.append(states[cur][-1])
    return word


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    instance = seed % INSTANCES
    rng = _rng(name, instance)
    os.makedirs(workdir, exist_ok=True)
    p = lambda f: os.path.join(workdir, f)  # noqa: E731

    if name == "identify-long":
        pot = random_potential(rng, 3, IDENTIFY_RANGE, IDENTIFY_BOUND)
        table = potential_table(pot)
        states, transition, stationary, _ = oracle.gibbs_markov(IDENTIFY_GRAMMAR, table,
                                                                IDENTIFY_RANGE)
        word = sample_word(rng, states, transition, stationary, IDENTIFY_LENGTH)
        ops = [["identify", "--sample-file", _write(p("word.json"), word), "--theta", "3",
                "--potential", _write(p("potential.json"), pot)]]
        return Workload(name, instance, ops, {"word": word, "potential": pot})

    if name == "experiments":
        s = int(rng.integers(0, 1_000_000))
        ops = [["experiment", "--experiment", x, "--seed", str(s)] for x in EXPERIMENT_IDS]
        return Workload(name, instance, ops, {"seed": s})

    s = int(rng.integers(0, 1_000_000))
    config = {"experiment": "monotonicity", "theta": 3, "base_seed": s}
    ops = [["experiment", "--config", _write(p("config.json"), config)]]
    return Workload(name, instance, ops, {"seed": s})
