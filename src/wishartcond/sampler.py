"""Monte Carlo ground truth for the analytic densities.

Sampling is deterministic by construction: draw i under seed s owns a fixed
range of counters in the one Philox stream keyed by s, so the same draw
comes out bit-identical whether the batch runs on one worker or eight, and
any single draw can be regenerated in isolation.

Two sampling paths:

* ``sample_matrix``: dense matrices whose complex entries come from
  Box-Muller with unit variance (1/2 per real part).  With LAPACK
  ``np.linalg.eigvalsh`` on A*A it is the independent check of the
  bidiagonal model below.
* ``mc_collect``: the bidiagonal beta = 2 Laguerre model (Dumitriu and
  Edelman, J. Math. Phys. 43 (2002) 5830).  A*A has the eigenvalue law of
  B B^T, with B n x n lower bidiagonal and independent Gamma squared
  entries.  Sturm bisection on the tridiagonal B B^T gives the one or two
  smallest eigenvalues; the trace is the sum of the squared entries.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    METRIC_LAMBDA_MIN,
    METRICS,
    Dims,
)

_ONE_BITS = np.uint64(0x3FF0000000000000)  # exponent bits of 1.0
_PIVMIN = 1e-290
# raw words held at once per worker while drawing Gamma variates (8 MiB)
_VARIATE_BLOCK_WORDS = 1 << 20


class SamplerError(RuntimeError):
    """Eigensolver breakdown or an impossible sample, with its index."""


@dataclass(frozen=True)
class ComplexMatrix:
    """One Gaussian draw: entries are iid complex standard normals."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2:
            raise ValueError("need a 2-d entry array")
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


def _row_words(count: int) -> int:
    """Stream words a draw of count words owns: whole 4-word Philox blocks."""
    return 4 * -(-count // 4)


def _keyed_raw(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """count raw words per draw k in start..stop-1, one row each: the words
    [k w, k w + count), w = ``_row_words(count)``, of the Philox4x64-10
    stream keyed (seed mod 2**64, 0).  Draw k starts on Philox block k w / 4,
    so one generator at the first row's counter makes the whole block."""
    w = _row_words(count)
    bg = np.random.Philox(key=seed % 2 ** 64, counter=start * w // 4)
    return bg.random_raw((stop - start) * w).reshape(-1, w)[:, :count]


def _uniform(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words to uniforms in (0, 1], so that log(u) is finite, in
    place: the top 52 bits of a word fill the mantissa of x in [1, 2), and
    u = 2 - x.  Returns the float64 view of ``raw``."""
    raw >>= 12
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    return np.subtract(2.0, u, out=u)


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Interleaved raw 64-bit words, used up in place, to complex standard normals."""
    # u1 in (0, 1] keeps the log finite; u2 in [0, 1)
    u1 = _uniform(raw[..., 0::2])
    u2 = 1.0 - _uniform(raw[..., 1::2])  # x - 1, exactly
    r = np.sqrt(-np.log(u1))
    ang = (2.0 * math.pi) * u2
    return r * np.cos(ang) + 1j * (r * np.sin(ang))


def sample_matrix(dims: Dims, seed: int, index: int = 0) -> ComplexMatrix:
    """The index-th matrix draw of the given shape under this seed."""
    z = _box_muller(_keyed_raw(seed, index, index + 1, 2 * dims.mn)[0])
    return ComplexMatrix(z.reshape(dims.m, dims.n))


# ---------------------------------------------------------------------------
# bidiagonal Laguerre model + Sturm bisection


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below x, per batch member."""
    q = d[:, 0] - x
    q = np.where(np.abs(q) < _PIVMIN, -_PIVMIN, q)
    cnt = (q < 0).astype(np.int64)
    for i in range(1, d.shape[1]):
        q = d[:, i] - x - e2[:, i - 1] / q
        q = np.where(np.abs(q) < _PIVMIN, -_PIVMIN, q)
        cnt += q < 0
    return cnt


def _kth_smallest(d: np.ndarray, e2: np.ndarray, kth: int) -> np.ndarray:
    """kth smallest eigenvalue (1-based) of each tridiagonal in the stack."""
    n = d.shape[1]
    if n == 1:
        return d[:, 0].copy()
    e = np.sqrt(e2)
    r = np.zeros_like(d)
    r[:, :-1] += e
    r[:, 1:] += e
    lo = (d - r).min(axis=1)
    hi = (d + r).max(axis=1)
    hi = hi + 1e-12 * np.maximum(np.abs(hi), 1.0)
    # each lane freezes on its own tolerance, so a sample's bisection path
    # never depends on what else shares the batch
    for _ in range(130):
        live = hi - lo > 1e-14 * np.maximum(np.abs(hi), 1e-30)
        if not np.any(live):
            break
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(d, e2, mid) >= kth
        hi = np.where(live & below, mid, hi)
        lo = np.where(live & ~below, mid, lo)
    return 0.5 * (lo + hi)


def _laguerre_tridiagonal(dims: Dims, seed: int, start: int, stop: int):
    """(d, e2, trace) of B B^T for draws start..stop-1 of the bidiagonal model.

    Draw k sums -log(u) over fixed segments of its m*n uniforms: lengths m,
    m-1, ..., m-n+1 give the squared diagonal a_i^2 ~ Gamma(m - i), lengths
    n-1, ..., 1 the squared subdiagonal b_i^2 ~ Gamma(n - 1 - i).  Each
    Erlang sum is an exact Gamma variate.
    """
    n, mn = dims.n, dims.mn
    lengths = [dims.m - i for i in range(n)] + [n - 1 - i for i in range(n - 1)]
    offsets = np.cumsum([0] + lengths[:-1])
    gam = np.empty((stop - start, len(lengths)))
    # rows are independent, so the block size changes memory, not values
    block = max(1, _VARIATE_BLOCK_WORDS // _row_words(mn))
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        logu = _uniform(_keyed_raw(seed, lo, hi, mn))
        np.log(logu, out=logu)
        gam[lo - start:hi - start] = -np.add.reduceat(logu, offsets, axis=1)
    a2, b2 = gam[:, :n], gam[:, n:]
    d = a2.copy()
    d[:, 1:] += b2
    return d, a2[:, :-1] * b2, gam.sum(axis=1)


def _chunk_values(metric: str, dims: Dims, seed: int, start: int, stop: int,
                  debug: bool) -> np.ndarray:
    d, e2, tr = _laguerre_tridiagonal(dims, seed, start, stop)
    # only the order statistic the metric reads is bisected
    kth = 2 if metric in (METRIC_KAPPA_E, METRIC_LAMBDA_2) else 1
    lam = _kth_smallest(d, e2, kth)
    bad = ~np.isfinite(lam) | (lam <= 0)
    if np.any(bad):
        idx = start + int(np.argmax(bad))
        raise SamplerError(f"eigensolver failed for sample index {idx}")
    if debug:
        _debug_check(d, e2, tr, lam, kth, start)
    return tr / lam if metric in (METRIC_KAPPA_D, METRIC_KAPPA_E) else lam


def _debug_check(d, e2, tr, lam, kth: int, start: int):
    # LAPACK on each dense tridiagonal: agreement with the trace and with
    # both bisection values, the one computed and the other order statistic
    k, n = d.shape
    lam1 = lam if kth == 1 else _kth_smallest(d, e2, 1)
    lam2 = lam if kth == 2 else (_kth_smallest(d, e2, 2) if n >= 2 else None)
    diag = np.arange(n)
    T = np.zeros((k, n, n))
    T[:, diag, diag] = d
    e = np.sqrt(e2)
    T[:, diag[1:], diag[:-1]] = e
    T[:, diag[:-1], diag[1:]] = e
    vals = np.linalg.eigvalsh(T)
    tol = 1e-8 * np.maximum(vals[:, -1], 1e-300)
    bad = (np.abs(vals[:, 0] - lam1) > tol) | (np.abs(vals.sum(axis=1) - tr) > tol)
    if lam2 is not None:
        bad |= np.abs(vals[:, 1] - lam2) > tol
    if np.any(bad):
        raise SamplerError(
            f"eigenvalue paths disagree at sample index {start + int(np.argmax(bad))}")


def mc_collect(metric: str, dims: Dims, count: int, seed: int,
               workers: int = 1, chunk: int = 4096,
               debug: bool = False) -> np.ndarray:
    """count draws of the chosen statistic, bit-deterministic in (seed, index).

    The sample index space is split into fixed chunks; workers only change
    how chunks are scheduled, never what any index produces.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if metric in (METRIC_KAPPA_E, METRIC_LAMBDA_2) and dims.n < 2:
        raise ValueError("second-smallest eigenvalue needs n >= 2")
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda sp: _chunk_values(metric, dims, seed, sp[0], sp[1], debug),
                spans))
    else:
        parts = [_chunk_values(metric, dims, seed, s, t, debug) for s, t in spans]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# empirical comparison


def ks_compare(draws, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between draws and a CDF."""
    xs = np.sort(np.asarray(draws, dtype=float))
    if len(xs) == 0:
        raise ValueError("need at least one draw")
    fs = np.asarray(cdf(xs), dtype=float)
    if np.any(np.diff(fs) < -1e-12):
        raise ValueError("cdf is not monotone over the sample range")
    n = len(xs)
    grid = np.arange(1, n + 1) / n
    return float(max((grid - fs).max(), (fs - (grid - 1.0 / n)).max()))


def ks_threshold(count: int) -> float:
    """Asymptotic 1% critical value for the KS statistic."""
    return 1.63 / math.sqrt(count)


@dataclass
class McReport:
    """One Monte Carlo validation run against an analytic curve."""

    dims: Dims
    metric: str
    samples: int
    seed: int
    bins: int
    edges: np.ndarray
    masses: np.ndarray
    ks_statistic: float
    ks_threshold: float
    passed: bool
    meta: dict = field(default_factory=dict)


def build_report(metric: str, dims: Dims, draws, seed: int, cdf,
                 bins: int = 60, threshold: float | None = None) -> McReport:
    """Histogram the draws and score them against the analytic CDF."""
    draws = np.asarray(draws, dtype=float)
    if threshold is None:
        threshold = ks_threshold(len(draws))
    counts, edges = np.histogram(draws, bins=bins)
    masses = counts / len(draws)
    stat = ks_compare(draws, cdf)
    return McReport(dims=dims, metric=metric, samples=len(draws), seed=seed,
                    bins=bins, edges=edges, masses=masses, ks_statistic=stat,
                    ks_threshold=threshold, passed=stat <= threshold)
