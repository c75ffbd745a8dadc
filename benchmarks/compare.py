"""Before/after benchmark of two source trees, written to a BENCH_*.json file.

Run from the repository root:

    python3 benchmarks/compare.py --workload figure-n50 --seed 101 \
        --base HEAD~1 --out BENCH_7.json

The base tree is a git revision exported with ``git archive`` into a
temporary directory; the head tree is the checkout itself, as it is on disk.
Pair i of 10 runs ``perfbench/run.py --workload W --seed SEED+i --trace 0``
once on each tree, in turns (the base first in even pairs, the head first
in odd ones), so slow drift of the host speed hits both sides alike.  Both
sides run the perfbench of their own tree, with its own run length.

For every end-to-end metric the output holds each side's values, median and
quartiles, and how many pairs the head won (lower is better for all of
them), together with the seeds, the failed checks, the passes each run
made and the jobs in one pass (the failed share is len(failed) over the sum
of passes times jobs_per_pass), and the environment block of the first
run.  Results for other workloads already in --out are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
METRICS = ("wall_s", "job_p50_s", "job_max_s", "peak_rss_mb", "setup_s")
PAIRS = 10


def _export(rev: str, into: Path) -> Path:
    """Files of a git revision, unpacked into the empty directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _revision(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="git revision of the base tree")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    base_dir = Path(tempfile.mkdtemp(prefix="wishartcond-bench-"))
    try:
        trees = {"base": _export(args.base, base_dir), "head": ROOT}
        values = {side: {m: [] for m in METRICS} for side in trees}
        failed = {side: [] for side in trees}
        passes = {side: [] for side in trees}
        jobs_per_pass = {side: [] for side in trees}
        seeds, environment = [], None
        for i in range(PAIRS):
            seed = args.seed + i
            seeds.append(seed)
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                started = time.monotonic()
                details, result = _run(trees[side], args.workload, seed)
                environment = environment or details["environment"]
                for m in METRICS:
                    values[side][m].append(result["metrics"][m]["value"])
                failed[side] += [f"seed {seed}: {f}" for f in details["failures"]]
                passes[side].append(details["passes"])
                jobs_per_pass[side].append(details["jobs_per_pass"])
                print(f"pair {i + 1}/{PAIRS} {side} seed={seed} "
                      f"wall_s={result['metrics']['wall_s']['value']:.3f} "
                      f"failed={result['failed']} ({time.monotonic() - started:.0f} s)",
                      flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    entry = {
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --trace 0",
        "pairs": PAIRS, "seeds": seeds,
        "order": "base first in even pairs (0-based), head first in odd pairs",
        "base": {"revision": _revision(args.base), "failed": failed["base"],
                 "passes": passes["base"], "jobs_per_pass": jobs_per_pass["base"],
                 **{m: _summary(values["base"][m]) for m in METRICS}},
        "head": {"revision": "checkout", "failed": failed["head"],
                 "passes": passes["head"], "jobs_per_pass": jobs_per_pass["head"],
                 **{m: _summary(values["head"][m]) for m in METRICS}},
        "head_wins": {m: sum(h < b for h, b in zip(values["head"][m], values["base"][m]))
                      for m in METRICS},
        "environment": environment,
    }
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report[args.workload] = entry
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
