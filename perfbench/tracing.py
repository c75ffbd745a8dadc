"""Per-layer tracing from outside the program.

Every public function of the library modules is wrapped where another
module of the package looks it up (``from .numkit import integrate_finite``
binds the name in ``exact``; the wrapper replaces that binding), so a span
is recorded at each layer boundary and calls inside one module stay
untouched.  Wrappers pass arguments and results through unchanged; the
integrand given to the quadrature routines is wrapped only to count the
points it is evaluated at.  Spans stay in memory and are written once,
when the traced pass ends.

Layers, top to bottom: cli -> sampler / exact / asymptotic -> numkit,
detkit.  The cli layer is the job itself, timed by the workload process.
"""

from __future__ import annotations

import inspect
import json
import threading
import time

LIBRARY_MODULES = ("sampler", "exact", "asymptotic", "numkit", "detkit")
CONSUMER_MODULES = ("cli",) + LIBRARY_MODULES

_QUADRATURE = ("integrate_finite", "integrate_semi_infinite")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self.job: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- jobs are the cli-layer spans -------------------------------------

    def begin_job(self, name: str) -> dict:
        span = {"id": self._new_id(), "layer": "cli", "name": name, "parent": None,
                "job": None, "start": time.perf_counter()}
        self.job = span["id"]
        self.recording = True
        return span

    def end_job(self, span: dict):
        span["end"] = time.perf_counter()
        self.recording = False
        self.job = None
        self.spans.append(span)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        describe = _DESCRIBERS.get(name)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = {"id": tracer._new_id(), "layer": layer, "name": name,
                    "parent": stack[-1] if stack else tracer.job, "job": tracer.job}
            if name in _QUADRATURE:
                args, kwargs = _count_integrand(args, kwargs, span)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(describe(bound.arguments))
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self, package: str):
        """Wrap every public function of the library modules in each other
        module of the package that binds it."""
        import importlib

        modules = {m: importlib.import_module(f"{package}.{m}") for m in CONSUMER_MODULES}
        for layer in LIBRARY_MODULES:
            owner = modules[layer]
            for name, fn in vars(owner).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != owner.__name__
                        or inspect.isgeneratorfunction(fn)):
                    # generators return before doing their work, so a span
                    # around them would time nothing
                    continue
                wrapper = None
                for consumer, mod in modules.items():
                    if consumer == layer or vars(mod).get(name) is not fn:
                        continue
                    wrapper = wrapper or self.wrap(layer, name, fn)
                    setattr(mod, name, wrapper)

    def write(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def _count_integrand(args, kwargs, span):
    """Swap the integrand (the first parameter, ``f``, of both quadrature
    routines) for a proxy that counts points and calls it unchanged."""
    f = kwargs["f"] if "f" in kwargs else args[0]
    span["evals"] = 0

    def counted(x, *rest, **kw):
        span["evals"] += getattr(x, "size", 1)
        return f(x, *rest, **kw)

    if "f" in kwargs:
        return args, {**kwargs, "f": counted}
    return (counted,) + tuple(args[1:]), kwargs


def _dims_info(arguments) -> dict:
    dims = arguments.get("dims")
    return {} if dims is None else {"n": dims.n, "m": dims.m}


def _grid_info(key: str):
    def describe(arguments):
        import numpy as np

        info = _dims_info(arguments)
        info["points"] = int(np.size(arguments[key]))
        return info
    return describe


def _mc_info(arguments) -> dict:
    info = _dims_info(arguments)
    info["count"] = arguments["count"]
    info["chunk"] = arguments["chunk"]
    return info


_DESCRIBERS = {
    "mc_collect": _mc_info,
    "pdf_kappa_d_grid": _grid_info("ys"),
    "pdf_kappa_e_grid": _grid_info("ys"),
    "pdf_lambda2_grid": _grid_info("xs"),
    "pdf_lambda_min_grid": _grid_info("xs"),
    "pdf_v_kappa_d_grid": _grid_info("vs"),
    "pdf_v_kappa_e_grid": _grid_info("vs"),
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

EXACT_CDF = {"kappa-d": "cdf_kappa_d_interp", "kappa-e": "cdf_kappa_e_interp",
             "lambda-min": "cdf_lambda_min_interp", "lambda-2": "cdf_lambda2_interp"}
EXACT_PDF = {"kappa-d": "pdf_kappa_d_grid", "kappa-e": "pdf_kappa_e_grid",
             "lambda-min": "pdf_lambda_min_grid", "lambda-2": "pdf_lambda2_grid"}
EXACT_PDF_POINTS = (("kappa-d", 20), ("kappa-e", 8), ("kappa-e", 13),
                    ("lambda-2", 6), ("lambda-2", 13), ("lambda-min", 20))
ASYMPTOTIC = {"kappa-d": ("cdf_v_kappa_d_interp", "pdf_v_kappa_d_grid"),
              "kappa-e": ("cdf_v_kappa_e_interp", "pdf_v_kappa_e_grid")}
MGF = {"kappa-d": "mgf_kappa_d", "kappa-e": "mgf_kappa_e"}
SAMPLER_N = (50, 4)
COMPLEX_BYTES = 16


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], bytes_written: int) -> dict:
    """Per-layer metric values, name -> (value, unit).

    A layer the workload never calls reads 0.  Times sum over the pass;
    per-point and per-call figures divide by the points or calls made.
    """
    by_id = {s["id"]: s for s in spans}
    jobs = [s for s in spans if s["layer"] == "cli"]
    lib = [s for s in spans if s["layer"] != "cli"]

    def named(layer, name):
        return [s for s in lib if s["layer"] == layer and s["name"] == name]

    def total(group):
        return sum(_dur(s) for s in group)

    def outermost(group):
        # drop spans nested in a span of the same function (the mgf_kappa_e
        # integrand runs integrate_finite inside integrate_finite)
        def nested(s):
            p = by_id.get(s["parent"])
            while p is not None:
                if p["name"] == s["name"] and p["layer"] == s["layer"]:
                    return True
                p = by_id.get(p["parent"])
            return False
        return [s for s in group if not nested(s)]

    out = {}
    mc = named("sampler", "mc_collect")
    out["sampler.mc_collect_s"] = (total(mc), "s")
    for n in SAMPLER_N:
        group = [s for s in mc if s.get("n") == n]
        secs = total(group)
        rate = sum(s["count"] for s in group) / secs if secs > 0 else 0.0
        out[f"sampler.draws_per_s.n{n}"] = (rate, "1/s")
    big = [s for s in mc if s.get("n") == 50]
    # computed, not measured: one chunk of dense complex draws plus its
    # Gram stack
    batch = max((min(s["chunk"], s["count"]) * (s["m"] * s["n"] + s["n"] * s["n"])
                 * COMPLEX_BYTES for s in big), default=0)
    out["sampler.batch_bytes.n50"] = (batch, "B")
    out["sampler.build_report_s"] = (total(named("sampler", "build_report")), "s")

    for metric, fn in EXACT_CDF.items():
        out[f"exact.cdf_build_s.{metric}"] = (total(named("exact", fn)), "s")
    for metric, n in EXACT_PDF_POINTS:
        group = [s for s in named("exact", EXACT_PDF[metric]) if s.get("n") == n]
        points = sum(s["points"] for s in group)
        out[f"exact.pdf_point_us.{metric}.n{n}"] = (
            1e6 * total(group) / points if points else 0.0, "us")
    for metric, fn in MGF.items():
        group = named("exact", fn)
        out[f"exact.mgf_eval_ms.{metric}"] = (
            1e3 * total(group) / len(group) if group else 0.0, "ms")

    for metric, (cdf_fn, pdf_fn) in ASYMPTOTIC.items():
        out[f"asymptotic.cdf_build_s.{metric}"] = (total(named("asymptotic", cdf_fn)), "s")
        group = named("asymptotic", pdf_fn)
        points = sum(s["points"] for s in group)
        out[f"asymptotic.pdf_point_us.{metric}"] = (
            1e6 * total(group) / points if points else 0.0, "us")

    for fn in _QUADRATURE:
        group = named("numkit", fn)
        out[f"numkit.{fn}.calls"] = (len(group), "count")
        out[f"numkit.{fn}.evals"] = (sum(s["evals"] for s in group), "count")
    out["numkit.integrate_finite.s"] = (
        total(outermost(named("numkit", "integrate_finite"))), "s")
    bessel = named("numkit", "bessel_i_log_block")
    out["numkit.bessel_i_log_block.calls"] = (len(bessel), "count")
    out["numkit.bessel_i_log_block.s"] = (total(bessel), "s")
    out["numkit.signed_log_sum.calls"] = (len(named("numkit", "signed_log_sum")), "count")
    out["detkit.det_signedlog.calls"] = (len(named("detkit", "det_signedlog")), "count")

    # cli self time: job time not covered by a library call the job made
    job_ids = {s["id"] for s in jobs}
    library = total(s for s in lib if s["parent"] in job_ids)
    out["cli.self_s"] = (total(jobs) - library, "s")
    out["cli.bytes_written"] = (bytes_written, "B")
    return out
