"""Span tracer that wraps the library's functions from outside.

``Tracer.install`` replaces every binding of each function in ``TRACED`` in
every ``sftlearn.*`` module namespace with a wrapper that records a span:
the function's name, start and end in integer nanoseconds, the span that
was open when it was called, and at most two counters read from its
arguments or result.  Spans stay in memory until ``dump`` writes them.

``layer_metrics`` turns the spans of one traced pass into the per-layer
table.  A span's self time is its duration minus the time its direct
children cover, so the self times of all spans of a pass add up to the
pass's root span exactly.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import sys
import time
from array import array

ROOT = "bench.pass"


def _len_result(args, kwargs, result):
    return len(result), 0


def _len_word(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["word"]), 0


def _sample_length(args, kwargs, result):
    return len(result.word), 0


def _states(args, kwargs, result):
    return len(result.states), 0


def _scores(args, kwargs, result):
    return len(result), sum(1 for s in result if s.admissible)


# function -> counter.  Each counter returns (c1, c2); their meaning per
# function is fixed by ``layer_metrics``.
TRACED = {
    "symbolic.enumerate_grammars": None,
    "symbolic.is_primitive": None,
    "symbolic.validate_word": _len_result,
    "gibbs.build_transfer": _states,
    "gibbs.perron": None,
    "gibbs.gibbs_chain": None,
    "gibbs.pressure": None,
    "gibbs.sample": _sample_length,
    "gibbs.cylinder_log_measure": _len_word,
    "identify.score_candidates": _scores,
    "identify.identify": None,
    "experiments.run_experiment": None,
    "serialize.dumps": _len_result,
    "serialize.csv_text": None,
    "serialize.encode_floats": None,
    "serialize.outcome_to_dict": None,
    "serialize.sample_to_dict": None,
    "serialize.chain_summary": None,
    "serialize.grammar_to_dict": None,
    "serialize.grammar_from_dict": None,
    "serialize.potential_to_dict": None,
    "serialize.potential_from_dict": None,
    "cli.main": None,
}


class Tracer:
    """In-memory span recorder.  Spans are stored column-wise."""

    def __init__(self):
        self.names = [ROOT] + list(TRACED)
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.c1 = array("q")
        self.c2 = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.c1.append(0)
        self.c2.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, nid: int, counter):
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.c1[idx], self.c2[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in every sftlearn module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sftlearn" or name.startswith("sftlearn.")}
        for nid, qual in enumerate(self.names[1:], start=1):
            home, attr = qual.split(".")
            fn = getattr(modules[f"sftlearn.{home}"], attr)
            wrapper = self._wrap(fn, nid, TRACED[qual])
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self):
        """The span of one whole pass; every other span nests inside one."""
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def dump(self, path: str) -> None:
        data = {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(), "c1": self.c1.tolist(), "c2": self.c2.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(data, fh)


def load(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# Per-layer metrics in output order, with their units.  Every traced run
# reports all of them.  A layer that a workload never calls reports 0 calls,
# 0 counted items and 0 self seconds; a ratio whose denominator is then 0
# (``ns_per_symbol``, ``admit_ratio``) reports ``UNDEFINED`` rather than a
# 0 that would read as a measured value.
UNDEFINED = -1.0
LAYER_METRICS = {
    "symbolic.enumerate_grammars.self_s": "s",
    "symbolic.is_primitive.calls": "count",
    "symbolic.is_primitive.self_s": "s",
    "symbolic.validate_word.symbols": "count",
    "symbolic.validate_word.self_s": "s",
    "gibbs.cylinder_log_measure.calls": "count",
    "gibbs.cylinder_log_measure.symbols": "count",
    "gibbs.cylinder_log_measure.self_s": "s",
    "gibbs.cylinder_log_measure.ns_per_symbol": "ns",
    "gibbs.pressure.calls": "count",
    "gibbs.pressure.self_s": "s",
    "gibbs.perron.calls": "count",
    "gibbs.perron.self_s": "s",
    "gibbs.build_transfer.calls": "count",
    "gibbs.build_transfer.states": "count",
    "gibbs.build_transfer.self_s": "s",
    "gibbs.solve.dim_max": "count",
    "gibbs.gibbs_chain.calls": "count",
    "gibbs.gibbs_chain.self_s": "s",
    "gibbs.sample.calls": "count",
    "gibbs.sample.symbols": "count",
    "gibbs.sample.self_s": "s",
    "gibbs.sample.ns_per_symbol": "ns",
    "identify.score_candidates.candidates": "count",
    "identify.score_candidates.self_s": "s",
    "identify.identify.calls": "count",
    "identify.admit_ratio": "ratio",
    "experiments.run_experiment.calls": "count",
    "experiments.run_experiment.self_s": "s",
    "serialize.dumps.calls": "count",
    "serialize.dumps.bytes": "count",
    "serialize.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_identical": "ratio",
    "trace.overhead_s": "s",
}


def pass_tables(spans: dict) -> list[tuple[int, dict]]:
    """Per traced pass: the root span's duration in ns, and
    ``{function: [calls, self_ns, c1_sum, c1_max, c2_sum]}``."""
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    start, end = spans["start_ns"], spans["end_ns"]
    c1, c2 = spans["c1"], spans["c2"]
    child_ns = [0] * len(nid)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    passes: list[tuple[int, dict]] = []
    for i, n in enumerate(nid):
        if n == 0:
            passes.append((end[i] - start[i], {}))
        row = passes[-1][1].setdefault(names[n], [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += end[i] - start[i] - child_ns[i]
        row[2] += c1[i]
        row[3] = max(row[3], c1[i])
        row[4] += c2[i]
    return passes


def _table_metrics(table: dict) -> dict:
    def get(fn):
        return table.get(fn, [0, 0, 0, 0, 0])

    def self_s(fn):
        return get(fn)[1] / 1e9

    def per_symbol(fn):
        _, ns, symbols, _, _ = get(fn)
        return ns / symbols if symbols else UNDEFINED

    sc = get("identify.score_candidates")
    bt = get("gibbs.build_transfer")
    return {
        "symbolic.enumerate_grammars.self_s": self_s("symbolic.enumerate_grammars"),
        "symbolic.is_primitive.calls": get("symbolic.is_primitive")[0],
        "symbolic.is_primitive.self_s": self_s("symbolic.is_primitive"),
        "symbolic.validate_word.symbols": get("symbolic.validate_word")[2],
        "symbolic.validate_word.self_s": self_s("symbolic.validate_word"),
        "gibbs.cylinder_log_measure.calls": get("gibbs.cylinder_log_measure")[0],
        "gibbs.cylinder_log_measure.symbols": get("gibbs.cylinder_log_measure")[2],
        "gibbs.cylinder_log_measure.self_s": self_s("gibbs.cylinder_log_measure"),
        "gibbs.cylinder_log_measure.ns_per_symbol": per_symbol("gibbs.cylinder_log_measure"),
        "gibbs.pressure.calls": get("gibbs.pressure")[0],
        "gibbs.pressure.self_s": self_s("gibbs.pressure"),
        "gibbs.perron.calls": get("gibbs.perron")[0],
        "gibbs.perron.self_s": self_s("gibbs.perron"),
        "gibbs.build_transfer.calls": bt[0],
        "gibbs.build_transfer.states": bt[2],
        "gibbs.build_transfer.self_s": self_s("gibbs.build_transfer"),
        "gibbs.solve.dim_max": bt[3],
        "gibbs.gibbs_chain.calls": get("gibbs.gibbs_chain")[0],
        "gibbs.gibbs_chain.self_s": self_s("gibbs.gibbs_chain"),
        "gibbs.sample.calls": get("gibbs.sample")[0],
        "gibbs.sample.symbols": get("gibbs.sample")[2],
        "gibbs.sample.self_s": self_s("gibbs.sample"),
        "gibbs.sample.ns_per_symbol": per_symbol("gibbs.sample"),
        "identify.score_candidates.candidates": sc[2],
        "identify.score_candidates.self_s": self_s("identify.score_candidates"),
        "identify.identify.calls": get("identify.identify")[0],
        "identify.admit_ratio": sc[4] / sc[2] if sc[2] else UNDEFINED,
        "experiments.run_experiment.calls": get("experiments.run_experiment")[0],
        "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
        "serialize.dumps.calls": get("serialize.dumps")[0],
        "serialize.dumps.bytes": get("serialize.dumps")[2],
        "serialize.self_s": sum(row[1] for fn, row in table.items()
                                if fn.startswith("serialize.")) / 1e9,
        "cli.main.calls": get("cli.main")[0],
        "cli.main.self_s": self_s("cli.main"),
    }


def layer_metrics(runs: list[dict]) -> tuple[dict, dict]:
    """The median over traced passes of each per-layer metric derived from
    the spans of each traced process, and the median self seconds of every
    traced function that was called."""
    tables = [t for spans in runs for t in pass_tables(spans)]
    for root_ns, table in tables:
        total = sum(row[1] for row in table.values())
        if total != root_ns:
            raise AssertionError(f"self times sum to {total} ns, pass took {root_ns} ns")
    per_pass = [_table_metrics(t) for _, t in tables]
    merged = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    fns = sorted({fn for _, t in tables for fn in t})
    self_s = {fn: statistics.median(t.get(fn, [0, 0])[1] / 1e9 for _, t in tables)
              for fn in fns}
    return merged, self_s
