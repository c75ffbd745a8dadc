"""Command-line surface for the condition-number distribution toolkit.

Subcommands evaluate density curves and moment generating functions, run
Monte Carlo validation sweeps against the analytic formulas, emit the
built-in comparison figures as plain data files, and run a self-test
sweep over the library's cross-module invariants.

Files are written atomically (write to a sibling, then rename), so an
interrupted run never leaves a truncated artifact behind.  All CSV
numbers carry 17 significant digits so a regression diff survives a
double round-trip.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .asymptotic import (
    KAPPA_D_ALPHA_CAP,
    KAPPA_E_ALPHA_CAP,
    ScaledParams,
    cdf_v_error_bound,
    cdf_v_kappa_d_interp,
    cdf_v_kappa_e_interp,
    pdf_v_kappa_d_grid,
    pdf_v_kappa_e_grid,
)
from .detkit import lemma_a1_det_int, lemma_a1_rhs_int, lemma_a2_det_int, lemma_a2_rhs_int
from .exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_MIN,
    METRICS,
    Dims,
    cdf_kappa_d_interp,
    cdf_kappa_e_interp,
    cdf_lambda2_interp,
    cdf_lambda_min_interp,
    mgf_kappa_d,
    mgf_kappa_e,
    pdf_kappa_d,
    pdf_kappa_d_grid,
    pdf_kappa_e,
    pdf_kappa_e_grid,
    pdf_lambda2_grid,
    pdf_lambda_min_grid,
    pdf_via_lambda2_connection,
    pdf_via_min_connection,
)
from .sampler import (
    SamplerError,
    build_report,
    ks_compare,
    ks_threshold,
    mc_collect,
)

log = logging.getLogger("wishartcond")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_SELFTEST = 3

THREADS_ENV = "WISHARTCOND_THREADS"

# most points parse_grid accepts: 8 MB per array of a grid, and each
# output line of a density or mgf is about 40 bytes of CSV
MAX_GRID_POINTS = 1_000_000

# figure id -> (metric, alpha, n, mu, curve range); the ranges cover all but
# ~0.1% of the scaled mass at the default sample count
_FIGURES = {
    "1a": (METRIC_KAPPA_D, 1, 50, 4.0, (0.005, 10.0)),
    "1b": (METRIC_KAPPA_D, 2, 50, 4.0, (0.005, 1.5)),
    "2a": (METRIC_KAPPA_E, 0, 10, 4.0, (0.004, 0.8)),
    "2b": (METRIC_KAPPA_E, 1, 50, 4.0, (0.003, 0.25)),
}
_FIGURE_CURVE_POINTS = 400


class UsageError(ValueError):
    """Bad flags or flag combinations; exits with status 1."""


@dataclass
class RunConfig:
    """Everything a run needs; reports carry it as their ``config``."""

    command: str
    metric: str | None = None
    kind: str = "exact"
    n: int | None = None
    alpha: int | None = None
    mu: float | None = None
    grid: str | None = None
    s: float | None = None
    figure_id: str | None = None
    samples: int = 100_000
    seed: int = 1
    bins: int = 60
    out: str | None = None
    format: str = "csv"

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# small plumbing


def parse_grid(spec: str) -> np.ndarray:
    """start:stop:points, inclusive on both ends."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:points, got {spec!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"could not parse grid spec {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError("grid start and stop must be finite")
    if not start < stop:
        raise UsageError("grid start must be strictly below stop")
    if points < 2:
        raise UsageError("grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise UsageError(f"grid has {points} points, more than the {MAX_GRID_POINTS} allowed")
    return np.linspace(start, stop, points)


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: str, text: str):
    tmp = f"{path}.part"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _curve_csv(xs, ys) -> str:
    lines = ["x,pdf"]
    lines.extend(f"{_fmt17(x)},{_fmt17(y)}" for x, y in zip(xs, ys))
    return "\n".join(lines) + "\n"


def _hist_csv(edges, masses) -> str:
    lines = ["bin_lo,bin_hi,mass"]
    lines.extend(f"{_fmt17(lo)},{_fmt17(hi)},{_fmt17(m)}"
                 for lo, hi, m in zip(edges[:-1], edges[1:], masses))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(cfg: RunConfig, text: str):
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(cfg.out, text)


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if count < 1:
        raise UsageError(f"{THREADS_ENV} must be >= 1, got {count}")
    return count


def _need_dims(cfg: RunConfig) -> Dims:
    if cfg.n is None or cfg.alpha is None:
        raise UsageError("this command needs both --n and --alpha")
    if cfg.metric == METRIC_KAPPA_E and cfg.n == 2:
        raise UsageError(
            "kappa-e needs n >= 3: at n=2 the second-smallest eigenvalue is "
            "already the largest, so use kappa-d instead")
    return Dims(cfg.n, cfg.alpha)


def _need_scaled(cfg: RunConfig) -> ScaledParams:
    if cfg.n is not None:
        raise UsageError(
            "the asymptotic kind describes the large-n limit and takes no --n; "
            "drop --n or switch to --kind exact")
    if cfg.alpha is None:
        raise UsageError("the asymptotic kind needs --alpha")
    if cfg.metric not in (METRIC_KAPPA_D, METRIC_KAPPA_E):
        raise UsageError("asymptotic curves exist for kappa-d and kappa-e only")
    return ScaledParams(cfg.mu if cfg.mu is not None else 1.0, cfg.alpha)


# ---------------------------------------------------------------------------
# commands


def cmd_density(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise UsageError("density needs --grid start:stop:points")
    xs = parse_grid(cfg.grid)
    if cfg.kind == "exact":
        dims = _need_dims(cfg)
        if cfg.metric == METRIC_KAPPA_D:
            ys = pdf_kappa_d_grid(xs, dims)
        elif cfg.metric == METRIC_KAPPA_E:
            ys = pdf_kappa_e_grid(xs, dims)
        elif cfg.metric == METRIC_LAMBDA_MIN:
            ys = pdf_lambda_min_grid(xs, dims)
        else:
            ys = pdf_lambda2_grid(xs, dims)
        meta = {}
    else:
        params = _need_scaled(cfg)
        if cfg.metric == METRIC_KAPPA_D:
            ys = pdf_v_kappa_d_grid(xs, params)
        else:
            ys = pdf_v_kappa_e_grid(xs, params)
        meta = {"alpha": params.alpha}
    if cfg.format == "json":
        _emit(cfg, _json_text({"config": cfg.to_dict(), "x": xs.tolist(),
                               "pdf": ys.tolist(), "meta": meta}))
    else:
        _emit(cfg, _curve_csv(xs, ys))
    return EXIT_OK


def cmd_mgf(cfg: RunConfig) -> int:
    if cfg.kind != "exact":
        raise UsageError("the moment generating function is exact-only; drop --kind")
    dims = _need_dims(cfg)
    mgf = {METRIC_KAPPA_D: mgf_kappa_d, METRIC_KAPPA_E: mgf_kappa_e}.get(cfg.metric)
    if mgf is None:
        raise UsageError("mgf supports kappa-d and kappa-e only")
    if (cfg.s is None) == (cfg.grid is None):
        raise UsageError("mgf needs exactly one of --s or --grid")
    if cfg.s is not None:
        value = mgf(cfg.s, dims)
        if cfg.out is None and cfg.format == "csv":
            sys.stdout.write(f"{_fmt17(value)}\n")
        elif cfg.format == "json":
            _emit(cfg, _json_text({"config": cfg.to_dict(), "s": cfg.s,
                                   "value": float(value)}))
        else:
            _emit(cfg, _curve_csv([cfg.s], [value]))
        return EXIT_OK
    xs = parse_grid(cfg.grid)
    ys = mgf(xs, dims)
    if cfg.format == "json":
        _emit(cfg, _json_text({"config": cfg.to_dict(), "x": xs.tolist(), "pdf": ys.tolist()}))
    else:
        _emit(cfg, _curve_csv(xs, ys))
    return EXIT_OK


def _exact_cdf(metric: str, dims: Dims):
    if metric == METRIC_KAPPA_D:
        return cdf_kappa_d_interp(dims)
    if metric == METRIC_KAPPA_E:
        return cdf_kappa_e_interp(dims)
    if metric == METRIC_LAMBDA_MIN:
        return cdf_lambda_min_interp(dims)
    return cdf_lambda2_interp(dims)


def _mc_run(cfg: RunConfig, threshold: float | None = None) -> dict:
    """The ``results`` of the report for one MC configuration.  The flags
    are checked and the CDF is built before the first draw."""
    dims = _need_dims(cfg)
    if cfg.samples < 1:
        raise UsageError("--samples must be >= 1")
    if cfg.bins < 1:
        raise UsageError("--bins must be >= 1")
    if cfg.kind == "asymptotic":
        if cfg.metric not in (METRIC_KAPPA_D, METRIC_KAPPA_E):
            raise UsageError("asymptotic comparison exists for kappa-d and kappa-e only")
        mu = cfg.mu if cfg.mu is not None else 1.0
        params = ScaledParams(mu, dims.alpha)
        if cfg.metric == METRIC_KAPPA_D:
            cdf = cdf_v_kappa_d_interp(params)
        else:
            cdf = cdf_v_kappa_e_interp(params)
        meta = {"kind": "asymptotic", "mu": mu, "scale": mu * dims.n ** 3,
                "cdf_error_bound": cdf_v_error_bound(cfg.metric, params)}
    else:
        cdf = _exact_cdf(cfg.metric, dims)
        meta = {"kind": "exact"}
    started = time.perf_counter()
    stages: dict = {}
    draws = mc_collect(cfg.metric, dims, cfg.samples, cfg.seed, workers=_workers(),
                       stage_s=stages)
    sample_s = time.perf_counter() - started
    cost = {"sample_s": sample_s, "draws_per_s": cfg.samples / sample_s, **stages}
    log.debug("mc_collect %s n=%d alpha=%d: sample_s=%.4f draws_per_s=%.0f",
              cfg.metric, dims.n, dims.alpha, sample_s, cost["draws_per_s"])
    if "scale" in meta:
        draws = draws / meta["scale"]
    results = build_report(cfg.metric, dims, draws, cfg.seed, cdf,
                           bins=cfg.bins, threshold=threshold)
    results["meta"].update(meta, **cost)
    return results


def cmd_mc(cfg: RunConfig) -> int:
    res = _mc_run(cfg)
    if cfg.format == "csv":
        _emit(cfg, _hist_csv(res["bin_edges"], res["bin_masses"]))
    else:
        _emit(cfg, _json_text({"config": cfg.to_dict(), "results": res}))
    log.info("mc %s n=%d alpha=%d: ks=%.5f threshold=%.5f %s",
             cfg.metric, res["n"], res["alpha"], res["ks_statistic"],
             res["ks_threshold"], "pass" if res["passed"] else "FAIL")
    return EXIT_OK


def cmd_figure(cfg: RunConfig) -> int:
    if cfg.figure_id not in _FIGURES:
        raise UsageError(f"unknown figure id {cfg.figure_id!r}; "
                         f"pick one of {sorted(_FIGURES)}")
    metric, alpha, n, mu, (v_lo, v_hi) = _FIGURES[cfg.figure_id]
    prefix = cfg.out if cfg.out is not None else f"figure_{cfg.figure_id}"
    run = RunConfig(command="mc", metric=metric, kind="asymptotic", n=n,
                    alpha=alpha, mu=mu, samples=cfg.samples, seed=cfg.seed,
                    bins=cfg.bins)
    # the acceptance allowance: finite-n bias on top of sampling noise
    threshold = 0.03 if n <= 10 else 0.02
    res = _mc_run(run, threshold=threshold)

    vs = np.linspace(v_lo, v_hi, _FIGURE_CURVE_POINTS)
    params = ScaledParams(mu, alpha)
    if metric == METRIC_KAPPA_D:
        pdf = pdf_v_kappa_d_grid(vs, params)
    else:
        pdf = pdf_v_kappa_e_grid(vs, params)

    curve_path = f"{prefix}_curve.csv"
    hist_path = f"{prefix}_hist.csv"
    report_path = f"{prefix}_report.json"
    _write_atomic(curve_path, _curve_csv(vs, pdf))
    _write_atomic(hist_path, _hist_csv(res["bin_edges"], res["bin_masses"]))
    res["files"] = [curve_path, hist_path]
    _write_atomic(report_path, _json_text({"config": cfg.to_dict(), "results": res}))
    print(f"figure {cfg.figure_id}: metric={metric} n={n} alpha={alpha} mu={mu:g} "
          f"ks={res['ks_statistic']:.5f} threshold={threshold:g} "
          f"{'pass' if res['passed'] else 'FAIL'} -> {prefix}_*")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest: one deterministic check per cross-module invariant


def _rel_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _st_kd_modes():
    for n in (2, 4):
        for alpha in (0, 1):
            dims = Dims(n, alpha)
            ys = np.linspace(n + 0.2, 6.0 * n, 40)
            gap = _rel_gap(pdf_kappa_d_grid(ys, dims, mode="theorem"),
                           pdf_kappa_d_grid(ys, dims, mode="closed"))
            assert gap < 1e-10, f"n={n} alpha={alpha} gap={gap:.2e}"


def _st_exact_total_mass():
    # each CDF at +inf is its table's exact total mass, rounded once
    for n, alpha in ((3, 1), (5, 2), (13, 1), (20, 2)):
        dims = Dims(n, alpha)
        for metric in METRICS:
            total = _exact_cdf(metric, dims)(np.array([np.inf]))[0]
            assert abs(total - 1.0) <= 2 * np.finfo(float).eps, \
                f"{metric} n={n} alpha={alpha}: {total!r}"


def _st_limit_tables():
    # building a table raises on a negative exact weight
    for metric, cap in ((METRIC_KAPPA_D, KAPPA_D_ALPHA_CAP), (METRIC_KAPPA_E, KAPPA_E_ALPHA_CAP)):
        for alpha in range(cap + 1):
            tail = cdf_v_error_bound(metric, ScaledParams(1.0, alpha))
            assert 0.0 <= tail < 1e-30, f"{metric} alpha={alpha}: tail {tail!r}"


def _st_kd_limit_bessel():
    # alpha 1: mu u^2 e^-u I2; alpha 2: mu u^2 e^-u (I2 I4 - I3^2 + I2 I3 / sqrt(u)),
    # all at 2 sqrt(u), from the positive series I_k = u^(k/2) sum_j u^j / (j! (j + k)!)
    vs = np.linspace(0.05, 8.0, 20)
    for alpha in (1, 2):
        want = []
        for u in 1.0 / vs:
            i2, i3, i4 = (u ** (k / 2) * math.fsum(u ** j / (math.factorial(j) * math.factorial(j + k))
                                                  for j in range(80)) for k in (2, 3, 4))
            det = i2 if alpha == 1 else i2 * i4 - i3 * i3 + i2 * i3 / math.sqrt(u)
            want.append(u ** 2 * math.exp(-u) * det)
        gap = _rel_gap(pdf_v_kappa_d_grid(vs, ScaledParams(1.0, alpha)), want)
        assert gap < 1e-12, f"alpha={alpha} gap={gap:.2e}"


def _st_limit_cdf_identity():
    # at alpha = 0 the kappa-d limit is Edelman's exp(-1/(mu v))
    mu = 4.0
    xs = np.linspace(0.8, 6.0, 20)
    got = cdf_v_kappa_d_interp(ScaledParams(mu, 0))(xs * xs / (4.0 * mu))
    gap = float(np.max(np.abs(got - np.exp(-4.0 / (xs * xs)))))
    assert gap < 1e-12, f"gap {gap:.2e}"


def _st_integer_lemmas():
    rng = random.Random(7)
    for _ in range(60):
        alpha = rng.randint(1, 5)
        n = rng.randint(2, 6)
        jvec = [rng.randint(0, n + alpha - 1 - l) for l in range(1, alpha + 1)]
        assert lemma_a1_det_int(jvec, n, alpha) == lemma_a1_rhs_int(jvec, n, alpha)
    for _ in range(60):
        alpha = rng.randint(1, 4)
        n = rng.randint(2, 6)
        lvec = [rng.randint(0, n + alpha - j) for j in (1, 2)]
        lvec += [rng.randint(0, n + alpha + 2 - k) for k in range(3, alpha + 3)]
        assert lemma_a2_det_int(lvec, n, alpha) == lemma_a2_rhs_int(lvec, n, alpha)


def _st_sampler_determinism():
    # draws are fixed by (seed, index) whatever the workers and chunks; the
    # trace, kappa-d times lambda-min, is Gamma(mn) with mean mn
    dims, count = Dims(6, 1), 3000
    kd = mc_collect(METRIC_KAPPA_D, dims, count, seed=5)
    again = mc_collect(METRIC_KAPPA_D, dims, count, seed=5, workers=2, chunk=777)
    assert np.array_equal(kd, again), "draws depend on the worker count or chunk size"
    mean = float(np.mean(kd * mc_collect(METRIC_LAMBDA_MIN, dims, count, seed=5)))
    assert abs(mean - dims.mn) < 4.0 * math.sqrt(dims.mn / count), f"mean trace {mean!r}"


def _st_mc_exact_agreement():
    dims = Dims(3, 0)
    draws = mc_collect(METRIC_KAPPA_D, dims, 4000, seed=11)
    cdf = cdf_kappa_d_interp(dims)
    stat = ks_compare(draws, cdf)
    bound = ks_threshold(len(draws))
    assert stat < bound, f"ks={stat:.4f} >= {bound:.4f}"


def _st_connection_identities():
    for n in (3, 4):
        for alpha in (0, 1):
            dims = Dims(n, alpha)
            for y in (n + 0.7, 2.0 * n, 3.5 * n):
                gap = _rel_gap(pdf_via_min_connection(y, dims), pdf_kappa_d(y, dims))
                assert gap < 1e-8, f"kappa-d n={n} alpha={alpha} y={y}: {gap:.2e}"
                gap = _rel_gap(pdf_via_lambda2_connection(y - 1.0, dims),
                               pdf_kappa_e(y - 1.0, dims))
                assert gap < 1e-8, f"kappa-e n={n} alpha={alpha} y={y - 1.0}: {gap:.2e}"


_SELFTEST_CHECKS = (
    ("kappa-d nested sums vs closed form", _st_kd_modes),
    ("exact CDFs reach 1 at +inf", _st_exact_total_mass),
    ("limit tables: weights >= 0, tail < 1e-30", _st_limit_tables),
    ("asymptotic kappa-d table vs Bessel closed forms", _st_kd_limit_bessel),
    ("alpha=0 limit CDF identity", _st_limit_cdf_identity),
    ("integer determinant lemmas", _st_integer_lemmas),
    ("sampler determinism and mean trace", _st_sampler_determinism),
    ("Monte Carlo vs exact CDF at n=3", _st_mc_exact_agreement),
    ("connection identities", _st_connection_identities),
)


def cmd_selftest(cfg: RunConfig) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        started = time.perf_counter()
        try:
            check()
        except Exception as exc:  # every failure becomes a report line
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}  ({time.perf_counter() - started:.1f}s)")
    if failures:
        print(f"{failures} of {len(_SELFTEST_CHECKS)} checks failed")
        return EXIT_SELFTEST
    print(f"all {len(_SELFTEST_CHECKS)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_shared(sub, *, mu=False):
    sub.add_argument("--n", type=int, help="matrix columns")
    sub.add_argument("--alpha", type=int, help="rows minus columns")
    if mu:
        sub.add_argument("--mu", type=float, help="scale constant of the limit variable")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)


@functools.cache  # built once per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wishartcond",
                     description="Condition-number distributions of complex "
                                 "Gaussian Gram matrices.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("density", help="evaluate a density curve on a grid")
    p.add_argument("--metric", choices=METRICS, required=True)
    p.add_argument("--kind", choices=("exact", "asymptotic"), default="exact")
    p.add_argument("--grid", required=True, help="start:stop:points")
    _add_shared(p, mu=True)

    p = commands.add_parser("mgf", help="evaluate a moment generating function")
    p.add_argument("--metric", choices=(METRIC_KAPPA_D, METRIC_KAPPA_E), required=True)
    p.add_argument("--s", type=float, help="single transform argument")
    p.add_argument("--grid", help="start:stop:points over transform arguments")
    _add_shared(p)

    p = commands.add_parser("mc", help="Monte Carlo draws scored against a curve")
    p.add_argument("--metric", choices=METRICS, required=True)
    p.add_argument("--kind", choices=("exact", "asymptotic"), default="exact")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bins", type=int, default=60)
    _add_shared(p, mu=True)

    p = commands.add_parser("figure", help="emit a built-in comparison figure "
                                           "as data files")
    p.add_argument("--id", dest="figure_id", choices=sorted(_FIGURES), required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--out", help="output path prefix")

    commands.add_parser("selftest", help="run the cross-module invariant suite")
    return parser


_DEFAULT_FORMATS = {"density": "csv", "mgf": "csv", "mc": "json"}


def _join_negative_grid(argv) -> list:
    """Rewrite ``--grid -1:5:4`` as ``--grid=-1:5:4``.

    argparse reads a token that starts with '-' as an option, so a grid
    with a negative start would not reach ``--grid`` as its value.  Grid
    specs contain ':', which no option does.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--grid" and tok.startswith("-") and ":" in tok:
            out[-1] = f"--grid={tok}"
        else:
            out.append(tok)
    return out


def config_from_args(argv) -> RunConfig:
    space = build_parser().parse_args(_join_negative_grid(argv))
    values = vars(space)
    if values.get("format") is None:
        values["format"] = _DEFAULT_FORMATS.get(values["command"], "csv")
    known = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in values.items() if k in known})


_COMMANDS = {
    "density": cmd_density,
    "mgf": cmd_mgf,
    "mc": cmd_mc,
    "figure": cmd_figure,
    "selftest": cmd_selftest,
}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("WISHARTCOND_LOG", "WARNING"))
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # ArithmeticError covers ConvergenceError, FloatingPointError and OverflowError
    except (SamplerError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
