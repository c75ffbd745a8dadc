"""The benchmark's workloads: lists of CLI jobs made from a seed, and the
check each job's output has to pass.

A job is the argv a user would type after ``wishartcond``.  Jobs write
their files under the pass directory they run in, so every path in an
argv is relative.  The seed fixes every job seed; the program sees only
the argv.

Why these three (each one exercises a layer the others leave alone):

* figure-n50: the only workload where the sampler runs at n=50, where a
  draw is bound by the dense reduction, and where ``asymptotic`` runs.
* mc-exact-n4: the sampler at n=4, where a draw is bound by per-index
  Philox and Box-Muller, scored against exact CDFs built from one table
  per dims.
* exact-curves: many dims with few points each, so table builds and cold
  caches count; it crosses EXTENDED_N_THRESHOLD (kappa-e and lambda-2 at
  n=13).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("figure-n50", "mc-exact-n4", "exact-curves")

# sampler chunk size (the default of sampler.mc_collect)
CHUNK = 4096
# KS critical value at level 1e-4: a dozen correct cases all pass except
# about once in 800 runs
KS_CHECK = 2.23
# asymptotic 1% critical value, the noise floor reported beside the
# finite-n gap of the figures
KS_NOISE = 1.63

MC_METRICS = ("kappa-d", "kappa-e", "lambda-min", "lambda-2")
MC_ALPHAS = (0, 1, 2)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its output must pass."""

    name: str
    argv: tuple[str, ...]
    check: str
    params: tuple = ()


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def threads_for(workload: str) -> int:
    """WISHARTCOND_THREADS for the workload: every CPU for the n=50
    figures, one worker elsewhere."""
    return nproc() if workload == "figure-n50" else 1


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _figure_jobs(seed: int, smoke: bool) -> list[Job]:
    # at least two chunks per worker so that every thread has work
    samples = CHUNK if smoke else 2 * CHUNK * threads_for("figure-n50")
    # 2b builds the kappa-e limit CDF (about 13 s) whatever the sample
    # count; the smoke size swaps in 2a (n=10, alpha=0) to stay short
    ids = ("1b", "2a") if smoke else ("1b", "2b")
    return [Job(f"figure-{fid}",
                ("figure", "--id", fid, "--samples", str(samples),
                 "--seed", str(s), "--out", f"fig{fid}"),
                "figure")
            for fid, s in zip(ids, _seeds("figure-n50", seed, len(ids)))]


def _mc_jobs(seed: int, smoke: bool) -> list[Job]:
    samples = 2000 if smoke else 20_000
    cases = [(m, a) for m in MC_METRICS for a in MC_ALPHAS]
    jobs = []
    for (metric, alpha), s in zip(cases, _seeds("mc-exact-n4", seed, len(cases))):
        name = f"mc-{metric}-a{alpha}"
        jobs.append(Job(name,
                        ("mc", "--kind", "exact", "--metric", metric, "--n", "4",
                         "--alpha", str(alpha), "--samples", str(samples),
                         "--seed", str(s), "--format", "json", "--out", f"{name}.json"),
                        "mc-ks"))
    return jobs


def _curve_jobs(smoke: bool) -> list[Job]:
    # density and mgf jobs take no seed: their cost depends on the grid,
    # so a fixed grid keeps run-to-run spread down to timing noise
    mgf_points = 11 if smoke else 21
    n13_points = 2 if smoke else 3
    specs = [
        # (metric, n, alpha, lo, hi, points)
        ("kappa-d", 4, 1, 4.2, 40.0, 200),
        ("kappa-d", 20, 2, 20.5, 200.0, 200),
        ("kappa-e", 8, 1, 7.2, 60.0, 100),
        ("kappa-e", 13, 1, 12.5, 80.0, n13_points),
        ("lambda-2", 6, 1, 0.01, 3.0, 100),
        # the extended lambda-2 path is the only caller of det_signedlog
        ("lambda-2", 13, 1, 0.05, 1.0, 2),
        ("lambda-min", 20, 2, 0.0005, 0.5, 100),
    ]
    jobs = []
    for metric, n, alpha, lo, hi, points in specs:
        name = f"density-{metric}-n{n}"
        jobs.append(Job(name,
                        ("density", "--metric", metric, "--n", str(n),
                         "--alpha", str(alpha), "--grid", f"{lo}:{hi}:{points}",
                         "--out", f"{name}.csv"),
                        "density", (metric, n, alpha)))
    for metric, n, alpha in (("kappa-d", 3, 1), ("kappa-e", 4, 1)):
        # s = 0 is the first grid point: the mgf(0) = 1 check needs it
        name = f"mgf-{metric}-n{n}"
        jobs.append(Job(name,
                        ("mgf", "--metric", metric, "--n", str(n), "--alpha", str(alpha),
                         "--grid", f"0:0.4:{mgf_points}", "--out", f"{name}.csv"),
                        "mgf", (metric, n, alpha)))
    return jobs


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    if workload == "figure-n50":
        return _figure_jobs(seed, smoke)
    if workload == "mc-exact-n4":
        return _mc_jobs(seed, smoke)
    if workload == "exact-curves":
        return _curve_jobs(smoke)
    raise ValueError(f"unknown workload {workload!r}")


def output_files(job: Job) -> list[str]:
    """Files the job writes, relative to its pass directory."""
    if job.check == "figure":
        prefix = job.argv[job.argv.index("--out") + 1]
        return [f"{prefix}_{part}" for part in ("curve.csv", "hist.csv", "report.json")]
    return [job.argv[job.argv.index("--out") + 1]]


# ---------------------------------------------------------------------------
# checks: each returns (ok, detail, info); they import the package lazily
# because they run in the workload process after the timed jobs


def _read_csv(path: str):
    import numpy as np

    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def _rel_gap(a, b) -> float:
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _check_mc(job: Job):
    import json

    with open(output_files(job)[0], encoding="ascii") as fh:
        res = json.load(fh)["results"]
    bound = KS_CHECK / math.sqrt(res["samples"])
    ok = res["ks_statistic"] <= bound
    detail = f"ks={res['ks_statistic']:.5f} bound={bound:.5f}"
    return ok, detail, {"ks": res["ks_statistic"], "ks_bound": bound}


def _check_figure(job: Job):
    import json

    import numpy as np
    from wishartcond.exact import Dims, cdf_kappa_d_interp

    with open(output_files(job)[2], encoding="ascii") as fh:
        res = json.load(fh)["results"]
    n, alpha, count = res["n"], res["alpha"], res["samples"]
    mu = res["meta"]["mu"]
    scale = res["meta"]["scale"]
    edges = np.asarray(res["bin_edges"])
    masses = np.asarray(res["bin_masses"])
    # the finite-n gap to the limit law is information, not a failure
    info = {"n": n, "alpha": alpha, "samples": count,
            "ks_to_limit": res["ks_statistic"],
            "ks_noise_floor": KS_NOISE / math.sqrt(count)}
    if res["metric"] == "kappa-d":
        ys = edges * scale
        cdf = cdf_kappa_d_interp(Dims(n, alpha), float(ys[-1]) * (1.0 + 1e-9))
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        dist = float(np.max(np.abs(cum - cdf(ys))))
        bound = KS_CHECK / math.sqrt(count)
        # KS over the bin edges only: a lower bound of the full distance
        info["ks_to_exact_at_bin_edges"] = dist
        return dist <= bound, f"edge distance to exact CDF {dist:.5f} bound={bound:.5f}", info
    edge = (n - 1) / (mu * n ** 3)
    ok = bool(edges[0] > edge)
    return ok, f"lowest bin edge {edges[0]:.6g} vs support edge {edge:.6g}", info


def _check_density(job: Job):
    import numpy as np
    from wishartcond import exact

    metric, n, alpha = job.params
    dims = exact.Dims(n, alpha)
    xs, ys = _read_csv(output_files(job)[0])
    if not (np.all(np.isfinite(ys)) and np.all(ys >= 0.0)):
        return False, "non-finite or negative density value", {}
    # a few interior points, compared with an independent route at the
    # tolerances selftest uses
    pick = np.unique(np.linspace(0, len(xs) - 1, 5).round().astype(int)[1:-1])
    pts, vals = xs[pick], ys[pick]
    gaps = {}
    if metric == "kappa-d":
        if alpha <= 1:
            gaps["theorem-vs-closed"] = (_rel_gap(
                exact.pdf_kappa_d_grid(pts, dims, mode="theorem"),
                exact.pdf_kappa_d_grid(pts, dims, mode="closed")), 1e-10)
        gaps["min-connection"] = (_rel_gap(
            [exact.pdf_via_min_connection(y, dims) for y in pts], vals), 1e-8)
    elif metric == "kappa-e" and n <= 8:
        gaps["lambda2-connection"] = (_rel_gap(
            [exact.pdf_via_lambda2_connection(y, dims) for y in pts], vals), 1e-8)
    elif metric == "lambda-2" and n <= 8:
        # the connection route integrates the lambda-2 joint density; it
        # must reproduce kappa-e at the same dims
        kes = np.array([n + 0.7, 2.0 * n, 3.5 * n]) - 1.0
        gaps["lambda2-connection"] = (_rel_gap(
            [exact.pdf_via_lambda2_connection(y, dims) for y in kes],
            [exact.pdf_kappa_e(y, dims) for y in kes]), 1e-8)
    elif metric == "lambda-min":
        # the min-eigenvalue polynomial, pushed through the inverse Laplace
        # step, must reproduce kappa-d; and its double evaluation (all
        # coefficients one-signed) must match the extended one
        kds = np.array([n + 0.5, 2.0 * n, 5.0 * n])
        gaps["min-connection"] = (_rel_gap(
            [exact.pdf_via_min_connection(y, dims) for y in kds],
            exact.pdf_kappa_d_grid(kds, dims)), 1e-8)
        gaps["double-vs-auto"] = (_rel_gap(
            exact.pdf_lambda_min_grid(pts, dims, precision="double"), vals), 1e-10)
    bad = [f"{k} {g:.2e} > {tol:g}" for k, (g, tol) in gaps.items() if not g <= tol]
    detail = ", ".join(f"{k} {g:.1e}" for k, (g, _) in gaps.items()) or "finite, >= 0"
    return not bad, "; ".join(bad) or detail, {k: g for k, (g, _) in gaps.items()}


def _check_mgf(job: Job):
    import numpy as np

    ss, vals = _read_csv(output_files(job)[0])
    at0 = float(vals[0]) if ss[0] == 0.0 else float("nan")
    ok = (abs(at0 - 1.0) <= 1e-12 and bool(np.all(np.isfinite(vals)))
          and bool(np.all(vals > 0.0)) and bool(np.all(np.diff(vals) <= 0.0)))
    detail = f"mgf(0)-1={at0 - 1.0:.1e}" + ("" if ok else "; or not positive and non-increasing")
    return ok, detail, {"mgf0_minus_1": at0 - 1.0}


_CHECKS = {"mc-ks": _check_mc, "figure": _check_figure,
           "density": _check_density, "mgf": _check_mgf}


def check(job: Job):
    """(ok, detail, info) for a job whose files sit in the working directory."""
    return _CHECKS[job.check](job)
