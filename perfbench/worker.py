"""One pass of a workload, in a fresh interpreter.

Reads a JSON spec on stdin ({"workload", "seed", "smoke", "trace"}), runs
the workload's jobs in-process through ``wishartcond.cli.main`` in the
current directory, then checks their outputs outside the timed section,
and prints one JSON result line.  With "trace" set, the wrappers of
tracing.py are installed before the first job and the spans are written
to spans.json when the pass ends.

Run by run.py with PYTHONPATH pointing at the source tree and BLAS pinned
to one thread; not meant to be called by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads


def _bytes_written(job: workloads.Job, stdout_text: str) -> int:
    size = len(stdout_text.encode())
    for path in workloads.output_files(job):
        with contextlib.suppress(FileNotFoundError):
            size += os.path.getsize(path)
    return size


def _environment() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        **{k: os.environ.get(k) for k in ("WISHARTCOND_THREADS", "OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(spec: dict) -> dict:
    started = time.perf_counter()
    import wishartcond.cli as cli
    import_s = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install("wishartcond")

    jobs = workloads.jobs_for(spec["workload"], spec["seed"], spec["smoke"])
    records = []
    first = time.perf_counter()
    for job in jobs:
        out = io.StringIO()
        span = tracer.begin_job(job.name) if tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(list(job.argv))
            except Exception:  # a traceback is a failed job, not a dead pass
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_job(span)
        records.append({"name": job.name, "exit": code, "seconds": seconds,
                        "bytes": _bytes_written(job, out.getvalue())})
    wall = time.perf_counter() - first

    # checks run after the timed section and outside the trace
    info = {}
    for job, rec in zip(jobs, records):
        if rec["exit"] != 0:
            rec["ok"], rec["detail"] = False, f"exit code {rec['exit']}"
            continue
        try:
            ok, detail, extra = workloads.check(job)
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail, extra = False, f"check raised {exc!r}", {}
        rec["ok"], rec["detail"] = bool(ok), detail
        if extra:
            info[job.name] = extra

    result = {"import_s": import_s, "wall_s": wall, "jobs": records, "info": info,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": _environment()}
    if tracer:
        tracer.write("spans.json")
        result["layers"] = tracing.layer_metrics(
            tracer.spans, sum(r["bytes"] for r in records))
        result["spans"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.load(sys.stdin))))
