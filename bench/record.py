"""Record the reference outputs the checker compares against.

    python3 bench/record.py

Runs every operation of every workload on each of the ``INSTANCES`` input
sets with the library in ``src/``, in ``JOBS`` processes, refuses any output
that fails the checker's own invariants, and writes
``bench/reference/<workload>.json``.  Re-record only
when a change is meant to alter the CLI's output.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
JOBS = 2  # one process per core of a 2-core machine, each on one BLAS thread

import check  # noqa: E402
import inputs  # noqa: E402


def _record(task):
    from sftlearn import cli

    name, instance = task
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as tmp:
        wl = inputs.generate(name, instance, tmp)
        checker = check.Checker(wl, None)
        entries = []
        for k, argv in enumerate(wl.ops):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv))
            text = out.getvalue()
            problems = checker.invariant_problems(k, json.loads(text)) if rc == 0 else \
                [f"exit code {rc}"]
            if problems:
                raise RuntimeError(f"{name} input set {instance} op {k}: {problems}")
            entries.append(check.reference_entry(text))
    return name, instance, entries


def main() -> int:
    tasks = [(n, i) for n in inputs.WORKLOADS for i in range(inputs.INSTANCES)]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    results: dict = {n: {} for n in inputs.WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, instance, entries in pool.imap_unordered(_record, tasks):
            results[name][str(instance)] = entries
            print(f"{name} {instance}", flush=True)
    for name, instances in results.items():
        # one input set per line, so a re-recording diffs line by line
        lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(instances[k])}"
                           for k in sorted(instances, key=int))
        with open(os.path.join(check.REFERENCE_DIR, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(f'{{"workload": {json.dumps(name)}, "instances": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
