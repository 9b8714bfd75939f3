"""Benchmark of the sftlearn command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (any directory works; paths are resolved from
this file).  One run:

1. runs passes back to back.  Pass ``n`` runs the input set of seed
   ``--seed + n`` (of ``--seed + n // 2`` with ``--trace 1``, so a traced
   and an untraced pass share inputs), generated under ``.bench_work/``
   before the pass, untimed; see ``inputs.py`` for the workloads and why
   each was chosen.  Each pass runs in a fresh worker interpreter
   (``worker.py``) that imports the CLI and calls ``sftlearn.cli.main(argv)``
   for each operation in order: a closed loop with one client.  No pass
   starts that would end after ``--seconds``.  With ``--trace 1`` every
   second pass runs under the module-namespace tracer (``tracer.py``).
   Before each pass, ``SETUP_PER_PASS`` fresh interpreters are timed to the
   end of ``import sftlearn.cli`` (after one untimed warm-up launch at the
   start), so set-up time is sampled across the whole run like pass time.
   Passes and set-up launches are timed under ``pace.Pacer``, which also
   reports their time at a reference core speed;
2. checks every distinct output against the recorded reference and the
   benchmark's own invariants (``check.py``), and checks that the checker
   rejects one output with a corrupted byte.

BLAS and OpenMP are pinned to one thread in every process.  Earlier lines of
standard output describe the run; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The end-to-end times are at the reference speed: ``pass_s`` is the mean
over a run's untraced passes, so that the run averages over as many input
sets as it has passes, and ``setup_s`` is the median over its launches.
Plain wall times drift with the load that other tenants put on the host and
are printed beside them as ``wall_s`` and ``setup_wall_s``.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PER_PASS = 2
WORKER_TIMEOUT_S = 120
SETUP_PROBE = ("import pace, statistics; p = pace.Pacer(pace.IMPORT_PERIOD_S); p.start(); "
               "import sftlearn.cli; "
               "p.stop(); print(p.readings[0][0], p.wall_s, p.work_s, "
               "statistics.median(p.kernel_s[1:-1] or p.kernel_s))")


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def _summary(values) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def setup_seconds(env) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the end of
    ``import sftlearn.cli``, on the wall and at the reference speed.  A
    launch is short enough to run at one speed, so all of it is scaled by
    the median of the pacer's readings during the import, against
    ``pace.REF_IMPORT_KERNEL_S``.  Start-up, before the pacer starts,
    includes loading numpy, which the kernel uses."""
    env = dict(env, PYTHONPATH=os.pathsep.join([HERE, env["PYTHONPATH"]]))
    spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    first, wall, work, kernel = map(float, proc.stdout.split())
    return first - spawn + wall, (first - spawn + work) * pace.REF_IMPORT_KERNEL_S / kernel


def run_passes(args, env, outdir) -> tuple[list[tuple[float, float]], list[dict], list]:
    """One worker process per pass, each after ``SETUP_PER_PASS`` set-up
    launches, passes back to back until one more pass (a traced and an
    untraced one when tracing) would end after the budget.  Returns the
    set-up seconds, the passes and the workload of each pass."""
    step = 2 if args.trace else 1
    setup, passes, workloads = [], [], []
    setup_seconds(env)  # warm-up
    begin = time.monotonic()
    while True:
        n = len(passes)
        start = time.monotonic()
        if n % step == 0:
            wl = inputs.generate(args.workload, args.seed + n // step,
                                 os.path.join(outdir, f"inputs-{n // step}"))
        spec = os.path.join(outdir, f"spec-{n}.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"ops": wl.ops, "trace": args.trace and n % 2, "outdir": outdir,
                       "src": SRC}, fh)
        workloads.append(wl)
        setup += [setup_seconds(env) for _ in range(SETUP_PER_PASS)]
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec, str(n)],
                       env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
        cost = time.monotonic() - start
        with open(os.path.join(outdir, f"pass-{n}.json"), encoding="utf-8") as fh:
            passes.append(json.load(fh))
        if len(passes) % step == 0 and time.monotonic() - begin + step * cost > args.seconds:
            return setup, passes, workloads


def judge(workloads, passes, outdir, seed) -> dict:
    """Check every distinct output of each input set once; tally the
    operations of all passes."""
    checkers = {wl.instance: check.Checker(wl, check.load_reference(wl.name, wl.instance))
                for wl in workloads}
    ops = [(n, (wl.instance, k, op["sha256"]), op)
           for n, (wl, p) in enumerate(zip(workloads, passes)) for k, op in enumerate(p["ops"])]
    texts, verdicts = {}, {}
    for _, key, _ in ops:
        if key not in verdicts:
            instance, k, sha = key
            with open(os.path.join(outdir, f"{k}-{sha}.out"), encoding="utf-8",
                      newline="") as fh:
                texts[key] = fh.read()
            verdicts[key] = (checkers[instance].problems(k, texts[key]),
                             checkers[instance].bytes_identical(k, texts[key]))
    failed = identical = 0
    problems = []
    for n, key, op in ops:
        found, same = verdicts[key]
        if op["exit"] != 0:
            found = [f"exit code {op['exit']}: {op['stderr'].strip()[-300:]}"] + found
        failed += bool(found)
        identical += same
        problems += [f"pass {n} op {key[1]}: {msg}" for msg in found]
    # The checker must reject an output with one corrupted byte.
    good = [key for key, (found, _) in verdicts.items() if not found]
    selftest = "skipped: no output passed"
    if good:
        key = good[seed % len(good)]
        caught = checkers[key[0]].problems(key[1], check.corrupted(texts[key], seed))
        selftest = f"rejected: {caught[0]}" if caught else "NOT REJECTED"
    return {"attempted": len(ops), "failed": failed, "identical": identical,
            "problems": problems[:10], "selftest": selftest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(inputs.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sftlearn", "cli.py")):
        print(f"run.py: no sftlearn package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    outdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    setup, passes, workloads = run_passes(args, env, outdir)
    verdict = judge(workloads, passes, outdir, args.seed)
    if not verdict["problems"]:  # keep inputs and outputs only for a failed check
        for f in os.listdir(outdir):
            if f.startswith("inputs-"):
                shutil.rmtree(os.path.join(outdir, f))
            elif f.endswith(".out"):
                os.remove(os.path.join(outdir, f))

    wl = workloads[0]
    _emit({"workload": wl.name, "why": inputs.WORKLOADS[wl.name], "seed": args.seed,
           "input_sets": [w.instance for w in workloads[::2 if args.trace else 1]],
           "ops_of_first_set": [" ".join(os.path.relpath(a, ROOT) if os.sep in a else a
                                         for a in argv) for argv in wl.ops],
           "client": "closed loop, 1 client"})
    _emit({"run": {"python": platform.python_version(), "numpy": np.__version__,
                   "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
                   "blas_threads": BLAS_PINS, "src_lines": _src_lines(),
                   "setup_launches": len(setup), "passes": len(passes)}})
    plain = [p for p in passes if not p["traced"]]
    ref = [p["ref_s"] for p in plain]
    setup_ref = [r for _, r in setup]
    rss = [p["maxrss_kb"] / 1024 for p in plain]
    e2e = {
        "pass_s": {"value": statistics.fmean(ref), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    _emit({"end_to_end": {
        "pass_s": dict(_summary(ref), mean=statistics.fmean(ref)),
        "setup_s": _summary(setup_ref), "peak_rss_mb": _summary(rss),
        "wall_s": _summary([p["wall_s"] for p in plain]),
        "setup_wall_s": _summary([w for w, _ in setup]),
        "pace_kernel_s": _summary([p["kernel_median_s"] for p in plain]),
        "pace_ref_kernel_s": pace.REF_KERNEL_S,
        "error_rate": verdict["failed"] / verdict["attempted"],
        "per_op_median_s": [statistics.median(p["ops"][k]["seconds"] for p in plain)
                            for k in range(len(wl.ops))]}})
    _emit({"check": {"bytes_identical": f"{verdict['identical']}/{verdict['attempted']}",
                     "checker_selftest": verdict["selftest"], "problems": verdict["problems"],
                     "float_rtol": check.FLOAT_RTOL}})
    metrics = e2e
    if args.trace:
        traced = [p["ref_s"] for p in passes if p["traced"]]
        layers, self_s = tracer.layer_metrics(
            [tracer.load(os.path.join(outdir, f"spans-{n}.json.gz"))
             for n, p in enumerate(passes) if p["traced"]])
        layers["cli.bytes_identical"] = verdict["identical"] / verdict["attempted"]
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced, ref))  # pairs share their inputs
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
        _emit({"trace": {"traced_pass_s": _summary(traced),
                         "self_s_by_function": dict(ranked),
                         "dominant": ranked[0][0],
                         "not_called": [fn for fn in tracer.TRACED if fn not in self_s],
                         "undefined_value": tracer.UNDEFINED,
                         "self_times_sum_to_pass": f"exactly, in all {len(traced)} traced passes",
                         "spans_dir": os.path.relpath(outdir, ROOT)}})
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.LAYER_METRICS.items()}
    _emit({"elapsed_s": time.monotonic() - started})
    correct = verdict["failed"] == 0 and verdict["selftest"].startswith("rejected")
    _emit({"correct": correct, "attempted": verdict["attempted"], "failed": verdict["failed"],
           "metrics": metrics})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
