"""Monte Carlo ground truth for the analytic densities.

Sampling is deterministic by construction: draw i under seed s owns a fixed
range of counters in the Philox stream keyed by s (and a fixed counter of a
second key for each rare exhausted Gamma variate), so the same draw comes
out bit-identical whether the batch runs on one worker or eight, and any
single draw can be regenerated in isolation.

``mc_collect`` samples the bidiagonal beta = 2 Laguerre model (Dumitriu
and Edelman, J. Math. Phys. 43 (2002) 5830).  A*A has the eigenvalue law
of B B^T, with B n x n lower bidiagonal and independent Gamma squared
entries; the trace is the sum of the squared entries.  A Gamma shape up to
``_ERLANG_MAX_SHAPE`` (8) is an Erlang sum of that many uniforms; a larger
one is a Marsaglia-Tsang variate from four words of the row (a Box-Muller
pair for the normals of two tries and their two uniforms), and the rare
variate whose both tries are rejected is an Erlang sum from a second
stream keyed (seed mod 2^64) + 2^64.  A draw reads m n words while m <= 8,
and 407 at (50, 1), where m n is 2550.  The one eigenvalue the metric
reads (the smallest or the second smallest) comes from Laguerre steps on
the LDL^T (Sturm) recurrence of the tridiagonal B B^T, on the lanes still
moving; for the second smallest, one Laguerre step from 0 gives the pole
below lambda_1 that is divided out.  A lane stops when its step, or the
next step that cubic convergence predicts, falls to the tolerance.  Two
Sturm counts at x -/+ 4 eps ||T|| certify each value to that absolute
tolerance, as LAPACK dstebz's ABSTOL does; the few lanes that fail are
finished by Sturm bisection.

A chunk holds its tridiagonals lane-major, D (n, lanes) and E2 (n - 1,
lanes), (2n - 1) x lanes doubles written straight from each Philox
block's Gamma rows through buffers of one block's rows; the search adds
one work copy of D, and a buffer for the E2 of the live lanes once fewer
than half are live.  Every step acts elementwise per lane, so neither
layout nor block nor chunk changes a draw.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

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
_EPS = np.finfo(float).eps
# Laguerre sweeps per search, and probes for a point between lambda_1 and
# lambda_2, before a lane is left to certification and bisection
_LAGUERRE_SWEEPS = 40
_GAP_PROBES = 60
# raw words held at once per worker while drawing Gamma variates (1 MiB)
_VARIATE_BLOCK_WORDS = 1 << 17
# largest Gamma shape drawn as an Erlang sum of uniforms; larger shapes take
# Marsaglia-Tsang tries
_ERLANG_MAX_SHAPE = 8

log = logging.getLogger("wishartcond")
# per thread: the last search's counts and bytes, for the chunk log line
_search_stats = threading.local()
# per thread: (Marsaglia-Tsang variates, second tries, exhausted, bytes held)
# of the last rows
_variate_stats = threading.local()


class SamplerError(RuntimeError):
    """Eigensolver breakdown or an impossible sample, with its index."""


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


def _box_muller_polar(u: np.ndarray, w: np.ndarray, var: float):
    """Box-Muller on two arrays of uniforms in (0, 1] from ``_uniform``, used
    up in place: (r, angle) with r cos(angle) and r sin(angle) independent
    normals of variance var."""
    # u in (0, 1] keeps the log finite; the angle starts from 1 - w in [0, 1)
    np.log(u, out=u)
    u *= -2.0 * var
    np.sqrt(u, out=u)
    np.subtract(1.0, w, out=w)  # x - 1 of the word's x in [1, 2), exactly
    w *= 2.0 * math.pi
    return u, w


# ---------------------------------------------------------------------------
# bidiagonal Laguerre model + certified Laguerre search for one eigenvalue
#
# Every function below works on the tridiagonals in column-major form: D is
# (n, lanes) and E2 (n - 1, lanes), so one column of the LDL^T recurrence is
# one contiguous row.  Only elementwise operations touch a lane, so a lane's
# value depends on its own (d, e2) row alone, never on its batch.


def _sturm_counts(D: np.ndarray, E2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below x, per lane (x may carry leading
    axes, which broadcast against the lanes).  Each row is written into the
    same few lane-sized buffers."""
    q = np.subtract(D[0], x)
    t, a = np.empty_like(q), np.empty_like(q)
    tiny, neg = np.empty(q.shape, dtype=bool), np.empty(q.shape, dtype=bool)
    cnt = np.zeros(q.shape, dtype=np.int64)
    for i in range(D.shape[0]):
        if i:
            np.divide(E2[i - 1], q, out=t)
            np.subtract(D[i], x, out=q)
            q -= t
        np.less(np.abs(q, out=a), _PIVMIN, out=tiny)
        np.copyto(q, -_PIVMIN, where=tiny)
        cnt += np.less(q, 0.0, out=neg)
    return cnt


def _bisect(D, E2, kth: int) -> np.ndarray:
    """kth smallest eigenvalue by Sturm bisection from the Gershgorin interval."""
    e = np.sqrt(E2)
    r = np.zeros_like(D)
    r[:-1] += e
    r[1:] += e
    lo = (D - r).min(axis=0)
    hi = (D + r).max(axis=0)
    hi = hi + 1e-12 * np.maximum(np.abs(hi), 1.0)
    # each lane freezes on its own tolerance
    for _ in range(130):
        live = hi - lo > 1e-14 * np.maximum(np.abs(hi), 1e-30)
        if not np.any(live):
            break
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(D, E2, mid) >= kth
        hi = np.where(live & below, mid, hi)
        lo = np.where(live & ~below, mid, lo)
    return 0.5 * (lo + hi)


def _laguerre_sums(Q, E2, x):
    """(count below x, G, H) per lane, G = sum 1/(x - l_j), H = sum 1/(x - l_j)^2.

    Q holds the diagonal on entry and the pivots q_i on return.  With
    t = e_{i-1}^2 / q_{i-1}, the pivot q_i = d_i - x - t has the
    log-derivative r_i = q_i'/q_i = (t r_{i-1} - 1) / q_i, and
    s_i = -r_i' = r_i^2 + t (s_{i-1} + r_{i-1}^2) / q_i; G = sum r_i and
    H = sum s_i, since det(T - x) is the product of the pivots.  No pivot
    guard: a zero pivot makes G or H non-finite, and the lane stops there.
    """
    Q -= x
    q = Q[0]
    r = -1.0 / q
    rsq = r * r
    g = r.copy()
    h = rsq.copy()
    s = rsq.copy()
    t, u = np.empty_like(x), np.empty_like(x)
    for i in range(1, Q.shape[0]):
        np.divide(E2[i - 1], q, out=t)
        q = np.subtract(Q[i], t, out=Q[i])
        s += rsq
        s *= t
        s /= q
        np.multiply(t, r, out=u)
        u -= 1.0
        np.divide(u, q, out=r)
        np.multiply(r, r, out=rsq)
        s += rsq
        g += r
        h += s
    return np.count_nonzero(Q < 0, axis=0), g, h


def _laguerre_search(D, E2, x, kth: int, atol, work, pole=None, max_sweeps=_LAGUERRE_SWEEPS):
    """Laguerre steps from x, a point between the (kth - 1)th and the kth
    eigenvalue, toward the kth: (values, lane-sweeps taken, lanes stopped
    by the predicted bound, bytes of the gather buffer).

    The Sturm count tells which side of the kth eigenvalue x is on: below
    it the step is k / (R - G), above it -k / (R + G), R = sqrt((k-1)(k H -
    G^2)).  For a real-rooted polynomial either step stays on its side of
    the root and converges cubically; rounding, or a pole off its root, may
    carry x across, and the next step comes back.  With a pole, a point at
    or below the lower root is divided out first (k = n - 1); the kth root
    is still a root of what is left, however rough the pole.  Where that
    cancels more than six digits of H, the Newton step -1/G is taken
    instead.  A lane leaves the live set when its step s_k is not finite,
    falls to atol, or is predicted to make the next one fall to atol under
    cubic convergence, |s_k|^3 <= atol |s_{k-1}|^2 (Laguerre steps only).

    While more than half the lanes are live, all are swept in the work
    copy of D and the live ones read off; below that the live lanes are
    gathered into it, and their E2 into a buffer sized at its first use.
    """
    n, lanes = D.shape
    k = n - 1 if pole is not None else n
    ids = np.arange(lanes)
    out = x.copy()
    prev = np.zeros(lanes)  # each lane's last step; 0 predicts nothing
    gather = None
    sweeps = predicted = 0
    for _ in range(max_sweeps):
        m = len(ids)
        if m == 0:
            break
        sweeps += m
        if 2 * m > lanes:
            np.copyto(work, D)
            cnt, G, H = (a[ids] for a in _laguerre_sums(work, E2, out))
        else:
            gather = np.empty((n - 1) * m) if gather is None else gather
            # clip mode: a raise-mode take with out= buffers a copy of out
            Q = np.take(D, ids, axis=1, mode="clip", out=work.ravel()[:n * m].reshape(n, m))
            e2 = np.take(E2, ids, axis=1, mode="clip", out=gather[:(n - 1) * m].reshape(n - 1, m))
            cnt, G, H = _laguerre_sums(Q, e2, out[ids])
        x = out[ids]
        if pole is not None:
            p = 1.0 / (x - pole[ids])
            G -= p
            p *= p
            trusted = H - p > 1e-6 * H
            H -= p
        root = np.sqrt((k - 1) * np.maximum(k * H - G * G, 0.0))
        step = np.where(cnt < kth, k / (root - G), -k / (root + G))
        if pole is not None:
            step = np.where(trusted, step, -1.0 / G)
        stay = np.isfinite(step)
        out[ids] = np.where(stay, x + step, x)
        size = np.abs(step)
        tol = atol[ids]
        stay &= size > tol
        last = prev[ids]
        cubic = size ** 3 <= tol * last * last
        if pole is not None:
            cubic &= trusted
        cubic &= stay
        predicted += int(np.count_nonzero(cubic))
        prev[ids] = size
        ids = ids[stay & ~cubic]
    return out, sweeps, predicted, 0 if gather is None else gather.nbytes


def _kth_smallest(D: np.ndarray, E2: np.ndarray, kth: int) -> np.ndarray:
    """kth smallest eigenvalue (1-based, kth <= 2) of each tridiagonal in the
    stack, lane-major: diagonals D (n, lanes) and squared off-diagonals E2
    (n - 1, lanes).

    lambda_1 comes from Laguerre steps from 0, below the spectrum of a
    positive definite B B^T.  For lambda_2, one Laguerre step from 0 gives a
    pole below lambda_1; then the probe twice the pole, bisected on the
    lanes whose count is not exactly 1, gives a point in (lambda_1,
    lambda_2), and Laguerre steps with the pole divided out go on from
    there.  Two Sturm counts certify each result x: fewer than kth
    eigenvalues below x - delta, at least kth below x + delta, with delta =
    4 eps ||T|| for the largest Gershgorin row sum ||T|| (the absolute
    tolerance of LAPACK dstebz).  The lanes that fail, whether a step or
    the predicted stop left them short, are bisected from their Gershgorin
    interval.  ``_search_stats.last`` gets (pole sweeps, gap probes, final
    sweeps, all per lane; lanes stopped by the predicted bound, fallback
    lanes; bytes of the work copy and gather buffer) for the chunk log line.
    """
    n, lanes = D.shape
    if n == 1:
        _search_stats.last = (0.0, 0.0, 0.0, 0, 0, 0)
        return D[0].copy()
    # ||T|| as the largest Gershgorin row sum |d_i| + e_i + e_{i-1}, a row at a time
    norm = e_last = zero = np.zeros(lanes)
    for i in range(n):
        e = np.sqrt(E2[i]) if i < n - 1 else zero
        norm = np.maximum(norm, np.abs(D[i]) + e + e_last)
        e_last = e
    atol = _EPS * norm
    work = np.empty(D.shape)  # the one work copy of D, shared by both searches
    pole_sweeps = probes = 0
    with np.errstate(all="ignore"):
        if kth == 1:
            x, sweeps, predicted, gathered = _laguerre_search(D, E2, zero, 1, atol, work)
        else:
            pole, pole_sweeps, _, _ = _laguerre_search(D, E2, zero, 1, atol, work, max_sweeps=1)
            x, probes = _gap_point(D, E2, pole)
            x, sweeps, predicted, gathered = _laguerre_search(D, E2, x, 2, atol, work, pole=pole)
        delta = 4.0 * atol
        cnt = _sturm_counts(D, E2, np.stack([x - delta, x + delta]))
    bad = ~((cnt[0] < kth) & (cnt[1] >= kth))
    fallbacks = int(np.count_nonzero(bad))
    if fallbacks:
        x[bad] = _bisect(D[:, bad], E2[:, bad], kth)
    _search_stats.last = (pole_sweeps / lanes, probes / lanes, sweeps / lanes, predicted,
                          fallbacks, work.nbytes + gathered)
    return x


def _gap_point(D, E2, pole):
    """A point with exactly one eigenvalue below it, from a pole <= lambda_1,
    and the lane-probes taken: twice the pole, then bisection (doubling
    while unbounded) on the lanes whose count is not 1.  Lanes with no such
    point (lambda_1 = lambda_2) get NaN."""
    x = 2.0 * pole
    lo = pole.copy()
    hi = np.full_like(x, np.inf)
    ids = np.arange(len(x))
    probes = 0
    for _ in range(_GAP_PROBES):
        probes += len(ids)
        # the first probe reads every lane, in place
        live = (D, E2) if len(ids) == len(x) else (D[:, ids], E2[:, ids])
        cnt = _sturm_counts(*live, x[ids])
        off = cnt != 1
        ids, cnt = ids[off], cnt[off]
        if len(ids) == 0:
            return x, probes
        lo[ids] = np.where(cnt == 0, x[ids], lo[ids])
        hi[ids] = np.where(cnt >= 2, x[ids], hi[ids])
        x[ids] = np.where(hi[ids] < np.inf, 0.5 * (lo[ids] + hi[ids]), 2.0 * x[ids])
    x[ids] = np.nan
    return x, probes


def _variate_layout(dims: Dims):
    """(shapes, nd, ns, offsets, words) of one draw's row.

    shapes are the 2n - 1 Gamma shapes: m, m-1, ..., m-n+1 for the squared
    diagonal of B, then n-1, ..., 1 for the squared subdiagonal.  The first
    nd diagonal and the first ns subdiagonal shapes exceed
    ``_ERLANG_MAX_SHAPE``.  The row holds the other shapes' Erlang segments
    in column order (offsets are their starts), then, for the nd + ns large
    shapes, four groups of as many words: the Box-Muller pair whose cos and
    sin normals drive the first and the second Marsaglia-Tsang try, and the
    two tries' uniforms.
    """
    n = dims.n
    shapes = np.array([dims.m - i for i in range(n)] + [n - 1 - i for i in range(n - 1)])
    large = shapes > _ERLANG_MAX_SHAPE
    nd, ns = int(large[:n].sum()), int(large[n:].sum())
    lengths = shapes[~large]
    return shapes, nd, ns, np.cumsum(lengths) - lengths, int(lengths.sum()) + 4 * (nd + ns)


def _mt_accept(x, v, u, d, lv=None, tmp=None):
    """Marsaglia-Tsang acceptance of d v, v = (1 + c x)^3, as a Gamma(d + 1/3)
    variate: v > 0 and log u < x^2 / 2 + d - d v + d log v (in the buffers
    lv and tmp, if given).  v <= 0 makes the bound NaN or -inf: rejected."""
    with np.errstate(invalid="ignore", divide="ignore"):
        lv = np.log(v, out=lv)
    lv -= v
    lv += 1.0
    lv *= d
    lv += np.multiply(np.multiply(0.5, x, out=tmp), x, out=tmp)
    return np.log(u, out=tmp) < lv


def _mt_try(x, u, d, c, v=None, y=None, tmp=None):
    """One Marsaglia-Tsang try per lane: (accepted, d (1 + c x)^3), in the
    buffers v, y and tmp, if given."""
    v = np.multiply(c, x, out=v)
    v += 1.0
    y = np.multiply(v, v, out=y)
    y *= v
    ok = _mt_accept(x, y, u, d, v, tmp)
    y *= d
    return ok, y


def _exhausted_gamma(seed: int, index: int, variate: int, shape: int) -> float:
    """Gamma(shape) for a variate whose two Marsaglia-Tsang tries were both
    rejected: an Erlang sum of shape uniforms from the Philox stream keyed
    (seed mod 2**64) + 2**64, run from the counter (index << 128) +
    (variate << 64) that the draw and the variate fix."""
    bg = np.random.Philox(key=seed % 2 ** 64 + 2 ** 64, counter=(index << 128) + (variate << 64))
    return float(-np.log(_uniform(bg.random_raw(shape))).sum())


def _gamma_blocks(dims: Dims, seed: int, start: int, stop: int):
    """The 2n - 1 Gamma variates of draws start..stop-1, one row each, as
    (first draw, rows) per block of ``_VARIATE_BLOCK_WORDS`` raw words: shapes
    m, m-1, ..., m-n+1 for the squared diagonal of B, then n-1, ..., 1 for
    the squared subdiagonal.  The rows, and every temporary, live in buffers
    of min(block, stop - start) rows that the next block overwrites.

    A shape up to ``_ERLANG_MAX_SHAPE`` is the Erlang sum -sum log(u) over
    its own segment of the row; with m at most that, the row is the m n
    uniforms in column order.  A larger shape takes
    Marsaglia and Tsang's tries (ACM TOMS 26 (2000) 363), the second only
    where the first is rejected, and an Erlang sum from ``_exhausted_gamma``
    where both are.  Each is an exact Gamma variate.  Counts of both tries
    and of the exhaustions, and the bytes of one block's buffers and raw
    words, go to ``_variate_stats.last``.
    """
    shapes, nd, ns, offsets, words = _variate_layout(dims)
    n, nl = dims.n, nd + ns
    ne = words - 4 * nl
    cols = np.r_[0:nd, n:n + ns]  # the large shapes' columns
    d = shapes[cols] - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    # rows are independent, so the block size changes memory, not values
    block = max(1, _VARIATE_BLOCK_WORDS // _row_words(words))
    rows = min(block, stop - start)
    gam = np.empty((rows, len(shapes)))
    # with every column an Erlang sum, the sums are the rows
    red = np.empty((rows, len(offsets))) if nl else gam
    mt = np.empty((4, rows, nl))  # cos(angle) r, then _mt_try's v, y and tmp
    held = gam.nbytes + mt.nbytes + (red is not gam) * red.nbytes + 8 * rows * _row_words(words)
    retries = exhausted = 0
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        raw = _keyed_raw(seed, lo, hi, words)
        # the second tries' words are rarely read, and made into uniforms then
        u = _uniform(raw[:, :ne + 3 * nl])
        out = gam[:hi - lo]
        if ne:
            np.log(u[:, :ne], out=u[:, :ne])
            sums = np.add.reduceat(u[:, :ne], offsets, axis=1, out=red[:hi - lo])
            np.negative(sums[:, :n - nd], out=out[:, nd:n])
            np.negative(sums[:, n - nd:], out=out[:, n + ns:])
        if nl:
            x, v, y, tmp = mt[:, :hi - lo]
            r, ang = _box_muller_polar(u[:, ne:ne + nl], u[:, ne + nl:ne + 2 * nl], 1.0)
            np.cos(ang, out=x)
            x *= r
            ok, y = _mt_try(x, u[:, ne + 2 * nl:ne + 3 * nl], d, c, v, y, tmp)
            np.logical_not(ok, out=ok)
            i, j = np.divmod(np.flatnonzero(ok), nl)
            if len(i):
                x = r[i, j] * np.sin(ang[i, j])
                ok, y[i, j] = _mt_try(x, _uniform(raw[i, ne + 3 * nl + j]), d[j], c[j])
                retries += len(i)
                exhausted += len(i) - int(np.count_nonzero(ok))
                for row, t in zip(i[~ok].tolist(), j[~ok].tolist()):
                    y[row, t] = _exhausted_gamma(seed, lo + row, int(cols[t]), int(shapes[cols[t]]))
            out[:, :nd] = y[:, :nd]
            out[:, n:n + ns] = y[:, nd:]
        yield lo, out
        raw = u = r = ang = None  # the next block's words replace these, not join them
    _variate_stats.last = ((stop - start) * nl, retries, exhausted, held)


def _laguerre_tridiagonal(dims: Dims, seed: int, start: int, stop: int):
    """(D, E2, trace) of B B^T for draws start..stop-1 of the bidiagonal
    model, lane-major as the eigenvalue search reads them: D (n, lanes) and
    E2 (n - 1, lanes), each block of ``_gamma_blocks`` written straight in."""
    n, lanes = dims.n, stop - start
    D, E2, trace = np.empty((n, lanes)), np.empty((n - 1, lanes)), np.empty(lanes)
    for lo, gam in _gamma_blocks(dims, seed, start, stop):
        s = slice(lo - start, lo - start + len(gam))
        a2, b2 = gam[:, :n].T, gam[:, n:].T
        D[0, s] = a2[0]
        np.add(a2[1:], b2, out=D[1:, s])
        np.multiply(a2[:-1], b2, out=E2[:, s])
        gam.sum(axis=1, out=trace[s])
    return D, E2, trace


def _chunk_values(metric: str, dims: Dims, seed: int, start: int, stop: int) -> np.ndarray:
    timed = log.isEnabledFor(logging.DEBUG)
    if timed:
        started = time.perf_counter()
    D, E2, tr = _laguerre_tridiagonal(dims, seed, start, stop)
    # only the order statistic the metric reads is searched for
    kth = 2 if metric in (METRIC_KAPPA_E, METRIC_LAMBDA_2) else 1
    if timed:
        drawn = time.perf_counter()
    lam = _kth_smallest(D, E2, kth)
    if timed:
        tries, retries, exhausted, block_bytes = _variate_stats.last
        pole, probes, final, predicted, fallbacks, search_bytes = _search_stats.last
        log.debug("mc chunk %d-%d %s n=%d: variates %.4f s (%d Marsaglia-Tsang, %d second "
                  "tries, %d exhausted), eigenvalue search %.4f s, per lane %.2f pole "
                  "sweeps, %.2f gap probes and %.2f final sweeps, %d predicted stops, "
                  "%d fallback lanes; %d bytes held", start, stop - 1, metric, dims.n,
                  drawn - started, tries, retries, exhausted, time.perf_counter() - drawn,
                  pole, probes, final, predicted, fallbacks,
                  D.nbytes + E2.nbytes + block_bytes + search_bytes)
    bad = ~np.isfinite(lam) | (lam <= 0)
    if np.any(bad):
        idx = start + int(np.argmax(bad))
        raise SamplerError(f"eigensolver failed for sample index {idx}")
    return tr / lam if metric in (METRIC_KAPPA_D, METRIC_KAPPA_E) else lam


def mc_collect(metric: str, dims: Dims, count: int, seed: int,
               workers: int = 1, chunk: int = 4096) -> np.ndarray:
    """count draws of the chosen statistic, bit-deterministic in (seed, index).

    The sample index space is split into fixed chunks of ``chunk`` draws;
    ``workers`` threads only change how chunks are scheduled, never what
    any index produces.  Each searched eigenvalue is certified by two
    Sturm counts (``_kth_smallest``), and one that is not finite and
    positive raises SamplerError with its sample index.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if metric in (METRIC_KAPPA_E, METRIC_LAMBDA_2) and dims.n < 2:
        raise ValueError("second-smallest eigenvalue needs n >= 2")
    spans = [(s, min(s + chunk, count)) for s in range(0, count, chunk)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda sp: _chunk_values(metric, dims, seed, *sp), spans))
    else:
        parts = [_chunk_values(metric, dims, seed, s, t) for s, t in spans]
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


def build_report(metric: str, dims: Dims, draws, seed: int, cdf,
                 bins: int = 60, threshold: float | None = None) -> dict:
    """Histogram the draws and score them against the analytic CDF: the
    ``results`` of a JSON report, with an empty ``meta`` for the caller."""
    draws = np.asarray(draws, dtype=float)
    threshold = ks_threshold(len(draws)) if threshold is None else float(threshold)
    counts, edges = np.histogram(draws, bins=bins)
    stat = ks_compare(draws, cdf)
    return {"metric": metric, "n": dims.n, "alpha": dims.alpha,
            "samples": len(draws), "seed": seed, "bins": bins,
            "bin_edges": edges.tolist(), "bin_masses": (counts / len(draws)).tolist(),
            "ks_statistic": stat, "ks_threshold": threshold,
            "passed": stat <= threshold, "meta": {}}
