"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py SPEC.json INDEX

Imports ``sftlearn.cli``, then calls ``cli.main(argv)`` for each operation
of the workload in order, each after the previous one returned: a closed
loop with one client.  Each operation's standard output and error are
captured in memory.  After the pass, outside its timed region, each output
not yet on disk is written to the spec's ``outdir`` under its digest.  With
``trace`` set, the pass runs under the tracer and its spans are written to
``spans-INDEX.json.gz``.  Every pass runs under a ``pace.Pacer``, whose
readings (under 2% of the pass) fall inside the spans that are open when
they are taken.  ``pass-INDEX.json`` holds the pass's wall time, its time
without the pacer's readings and at the pacer's reference speed, each
operation's exit code, time and output digest, and the process's peak
resident set size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import pace


def _run(cli, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing operation counts as failed; the pass goes on
        rc = -1
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> int:
    spec_path, index = sys.argv[1], int(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from sftlearn import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sftlearn was imported from {cli.__file__}, not from {src}")
    outdir = spec["outdir"]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    pacer = pace.Pacer()
    pacer.start()
    with tracer.root() if tracer else contextlib.nullcontext():
        results = [_run(cli, argv) for argv in spec["ops"]]
    pacer.stop()
    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(outdir, f"spans-{index}.json.gz"))
    ops = []
    for k, (rc, seconds, text, err) in enumerate(results):
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path = os.path.join(outdir, f"{k}-{sha}.out")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        ops.append({"exit": rc, "seconds": seconds, "sha256": sha,
                    "stderr": err[-2000:] if rc != 0 else ""})
    with open(os.path.join(outdir, f"pass-{index}.json"), "w", encoding="utf-8") as fh:
        json.dump({"traced": bool(tracer), "wall_s": pacer.wall_s, "work_s": pacer.work_s,
                   "ref_s": pacer.ref_s, "kernel_median_s": statistics.median(pacer.kernel_s),
                   "ops": ops,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
