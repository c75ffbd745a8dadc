"""Benchmark of the wishartcond command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload figure-n50 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run measures one workload (see workloads.py).  Each pass runs the whole
job list in a fresh interpreter (worker.py), so table caches start cold as
they do for a user, with BLAS pinned to one thread so that the only
parallelism is WISHARTCOND_THREADS.  Passes repeat while another one fits
in --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh ``import wishartcond.cli``), and the medians over passes of the
job-list wall time, the median and slowest job, and peak RSS.
--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass plus the tracing overhead.

The last line of stdout is the result JSON; the line before it holds the
environment, sample counts, check details and the figures' finite-n gap.
--smoke runs every workload at a small size, checks that each metric in
BENCHMARK.json is printed with its unit, and that per-layer counts repeat
exactly across two traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "wishartcond"
OUT = ROOT / ".perfbench_out"
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# a run must end within 180 s; leave room for set-up and reporting
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _child_env(workload: str) -> dict:
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in BLAS_PIN})
    env["WISHARTCOND_THREADS"] = str(workloads.threads_for(workload))
    env.pop("WISHARTCOND_LOG", None)
    return env


def _setup_probe(env: dict, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    wishartcond.cli.  The child reads the same system-wide monotonic clock,
    so neither interpreter teardown nor the wait for it is counted."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, wishartcond.cli; print(repr(time.monotonic()))"],
        env=env, cwd=ROOT, check=True, timeout=timeout, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout) - started


def _run_pass(workload: str, seed: int, smoke: bool, trace: bool, tag: str,
              deadline: float) -> dict:
    where = OUT / workload / tag
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    spec = json.dumps({"workload": workload, "seed": seed, "smoke": smoke, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=spec,
                              stdout=subprocess.PIPE, text=True, cwd=where,
                              env=_child_env(workload),
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {tag} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {tag} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(passes: list[dict]) -> list[str]:
    return [f"{rec['name']}: {rec['detail']}"
            for p in passes for rec in p["jobs"] if not rec["ok"]]


def _tally(passes: list[dict]) -> dict:
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = len(_failures(passes))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def _environment(workload: str, first: dict) -> dict:
    env = {"nproc": workloads.nproc(), "workload": workload}
    env.update(first["environment"])
    return env


def measure_end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
                       deadline: float):
    env = _child_env(workload)
    _setup_probe(env, 60.0)  # warm-up: file cache, and bytecode where it is written
    probes = [_setup_probe(env, 60.0) for _ in range(1 if smoke else SETUP_PROBES)]

    passes = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(_run_pass(workload, seed, smoke, False, f"pass{len(passes)}", deadline))
        last = time.monotonic() - t0
        now = time.monotonic()
        if now - started + last > seconds or now + last > deadline:
            break

    per_pass_jobs = [[r["seconds"] for r in p["jobs"]] for p in passes]
    jobs = len(per_pass_jobs[0])
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_p50_s": (statistics.median(statistics.median(js) for js in per_pass_jobs), "s"),
        "job_max_s": (statistics.median(max(js) for js in per_pass_jobs), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    samples = {"setup_s": f"median of {len(probes)} fresh interpreters",
               "wall_s": f"median of {len(passes)} passes",
               "job_p50_s": f"median job of {jobs} per pass, median of {len(passes)} passes",
               "job_max_s": f"slowest job of {jobs} per pass, median of {len(passes)} passes",
               "peak_rss_mb": f"median of {len(passes)} pass processes"}
    details = {"environment": _environment(workload, passes[0]),
               "seed": seed, "passes": len(passes), "jobs_per_pass": jobs,
               "samples": samples, "failures": _failures(passes),
               "job_seconds": {r["name"]: [p["jobs"][i]["seconds"] for p in passes]
                               for i, r in enumerate(passes[0]["jobs"])},
               "info": passes[0]["info"]}
    return metrics, _tally(passes), details


def _layers(plain: dict, traced: dict) -> dict:
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics


def measure_layers(workload: str, seed: int, deadline: float):
    plain = _run_pass(workload, seed, False, False, "untraced", deadline)
    traced = _run_pass(workload, seed, False, True, "traced", deadline)
    details = {"environment": _environment(workload, traced), "seed": seed,
               "passes": 2, "spans": traced["spans"],
               "samples": {"per-layer": "one traced pass; trace.overhead_s against "
                                        "one untraced pass"},
               "notes": {"sampler.batch_bytes.n50": "computed, not measured: one chunk "
                                                    "of draws (chunk x m x n x 16 B) plus "
                                                    "its Gram stack (chunk x n x n x 16 B)",
                         "zero": "a layer the workload does not call reads 0"},
               "failures": _failures([plain, traced]),
               "spans_file": str((OUT / workload / "traced" / "spans.json")
                                 .relative_to(ROOT))}
    return _layers(plain, traced), _tally([plain, traced]), details


def _result(metrics: dict, tally: dict) -> dict:
    return {**tally, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _require_package():
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no package source at {PACKAGE.relative_to(ROOT)}; "
                         "run from the repository root")


def smoke() -> int:
    """Every workload at a small size: one untraced and two traced passes.
    Checks names and units against BENCHMARK.json, and that per-layer
    counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"end-to-end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per-layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        deadline = time.monotonic() + RUN_BUDGET_S
        e2e, tally, details = measure_end_to_end(workload, 1, 0.0, True, deadline)
        traced = [_run_pass(workload, 1, True, True, f"traced-{k}", deadline) for k in "ab"]
        plain = {"wall_s": e2e["wall_s"][0]}
        first, second = (_layers(plain, t) for t in traced)
        for kind, got in (("end-to-end", e2e), ("per-layer", first)):
            for name, unit in want[kind].items():
                if name not in got:
                    problems.append(f"{workload}: {kind} metric {name} missing")
                elif got[name][1] != unit:
                    problems.append(f"{workload}: {name} has unit {got[name][1]}, want {unit}")
            extra = sorted(set(got) - set(want[kind]))
            if extra:
                problems.append(f"{workload}: {kind} metrics not in BENCHMARK.json: {extra}")
        for name, (value, unit) in first.items():
            if unit == "count" and second[name][0] != value:
                problems.append(f"{workload}: {name} {value} then {second[name][0]}")
        problems += [f"{workload}: {f}" for f in details["failures"] + _failures(traced)]
        counts = sum(1 for _, unit in first.values() if unit == "count")
        print(f"{workload}: {tally['attempted']} jobs, wall_s={e2e['wall_s'][0]:.3f}, "
              f"samples={details['samples']}, {counts} counts compared", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a small size and check the output")
    args = parser.parse_args(argv)
    try:
        _require_package()
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required without --smoke")
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            metrics, tally, details = measure_layers(args.workload, args.seed, deadline)
        else:
            metrics, tally, details = measure_end_to_end(
                args.workload, args.seed, args.seconds, False, deadline)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(_result(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
