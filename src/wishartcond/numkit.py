"""Exact combinatorics, exact polynomials and quadrature.

The densities are finite sums whose coefficients are exact rationals,
built from integer rising factorials, Laguerre coefficients and the
Bessel-entry series sum_p (p + l)^(k-1) t^p / (p! (p + l + 1)!) of the
limit laws.  Exact polynomials (``FPoly``) keep integer numerators over
factorial denominators; products, truncated products and determinants of
them stay exact without rational arithmetic.

mixture_sum evaluates the finite Beta mixtures behind the trace-ratio
CDFs and MGF integrands one term at a time, each power inside its term's
exponent, so that factorials and powers far outside the double range never
form.  GammaMix is every positive Gamma mixture, the two eigenvalue laws
and the two limit laws; it sums its density and tails as Poisson sums by
the recurrence pois_i = pois_(i-1) u / i (poisson_sum).  The quadrature
routine is adaptive Gauss-Legendre, on rules found by Newton's method on
the Legendre recurrence: order doubling first, panel bisection when
doubling stalls.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to meet its tolerance."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature exhausted its refinement budget."""


# ---------------------------------------------------------------------------
# combinatorial special values


def pochhammer_int(a: int, count: int) -> int:
    """Exact integer rising factorial for integer a."""
    out = 1
    for i in range(count):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# signed logs of exact numbers and mixtures summed in logs


_LN2 = math.log(2.0)


def _sign(x) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def _log_int(n: int) -> float:
    """log n for a positive integer of any size."""
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * _LN2


def _sign_log(q: Fraction) -> tuple[int, float]:
    """(sign, log |q|) of a rational of any size; (0, 0.0) at zero."""
    return (_sign(q), _log_int(abs(q.numerator)) - _log_int(q.denominator)) if q else (0, 0.0)


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for positive integers of any size, with an error of a
    few units in the last place of the result."""
    k = num.bit_length() - den.bit_length()
    if k > 0:
        den <<= k
    else:
        num <<= -k
    return math.log(num / den) + k * _LN2


def mixture_sum(x: np.ndarray, y: np.ndarray, terms) -> np.ndarray:
    """sum_j c_j exp(l_j + a_j x + b_j y), elementwise in x and y, one term
    (c_j, l_j, a_j, b_j) at a time: a sign, the log of a weight outside the
    double range and two integer powers, of the Beta terms t^a_j (1 - t)^b_j
    in x = log t, y = log(1 - t)."""
    out = np.zeros_like(x)
    for c, lw, a, b in terms:
        out += c * np.exp(lw + a * x + b * y)
    return out


# ---------------------------------------------------------------------------
# positive Gamma mixtures


# a CDF's lower Poisson list stops where the terms past it weigh below _DROP
# of the CDF at the mean
_DROP = 2.0 ** -60


def poisson_sum(u: np.ndarray, weights) -> np.ndarray:
    """sum_i weights[i] pois_i(u), pois_i(u) = e^{-u} u^i / i!, u >= 0, by
    pois_i = pois_(i-1) u / i from e^{-u}: no pois_i exceeds 1, so nothing
    overflows.  With positive weights the sum keeps a relative ~1e-15 while
    e^{-u} is a normal double (u up to about 708); past u = 745 it is 0."""
    p = np.exp(-u)
    out = weights[0] * p
    for i in range(1, len(weights)):
        p *= u
        p /= i
        if weights[i]:
            out += weights[i] * p
    return out


class GammaMix(NamedTuple):
    """A law sum_k w_k Gamma(k + 1, rate), every w_k >= 0, in u = rate x.

    weights are the w_k, k = 0..K; lower and upper the poisson_sum weights
    W_(i-1) and 1 - W_(i-1) of its CDF and of its upper tail, W_k = w_0 +
    ... + w_k and W_(-1) = 0; mean its mean in u; tail the exact remainder
    1 - W_K, rounded once.  pdf and sf are sums of positive terms, accurate as
    poisson_sum is."""

    rate: int
    weights: tuple
    mean: float
    lower: tuple
    upper: tuple
    tail: float

    def pdf(self, u) -> np.ndarray:
        """Density in u: sum_k w_k pois_k(u)."""
        return poisson_sum(u, self.weights)

    def sf(self, u) -> np.ndarray:
        """P(U > u) as sum_i pois_i(u) (1 - W_(i-1)), i = 0..K + 1: the
        upper tail with the mass tail put at Gamma(K + 2), so within tail."""
        return poisson_sum(u, self.upper)

    def cdf(self, xs) -> np.ndarray:
        """The CDF in x, each point on one list of positive Poisson terms in
        u: up to the mean, where it is near 1/2 or less, sum_i pois_i(u)
        W_(i-1); past it 1 - sf(u), which there loses under a digit.  Both
        tails keep their relative accuracy."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        out[xs == np.inf] = 1.0
        u = self.rate * xs
        low, high = (u > 0) & (u <= self.mean), (u > self.mean) & (u < np.inf)
        out[low] = poisson_sum(u[low], self.lower)
        out[high] = 1.0 - self.sf(u[high])
        return out


def gamma_mix(rate: int, den: int, nums: list) -> GammaMix:
    """The mixture with w_k = nums[k] / (den rate^(k+1)), k = 0..K, each
    double rounded once from exact integers; past K, W stays W_K.  As
    pois_i(u) / pois_j(u), i > j, grows with u, the lower terms left out
    weigh less, relative to the CDF, anywhere below the mean than at it,
    where the list stops once the Poisson mass past it is below _DROP of
    the CDF.  A negative weight raises ArithmeticError."""
    if min(nums) < 0:
        raise ArithmeticError(f"negative Gamma mixture weight at power {nums.index(min(nums))}")
    weights, below, above, run, scale = [], [0.0], [1.0], 0, den
    for c in nums:
        run, scale = run * rate + c, scale * rate
        weights.append(c / scale)
        below.append(run / scale)
        above.append((scale - run) / scale)
    mean = math.fsum((k + 1) * w for k, w in enumerate(weights))
    lower, p, at_mean = [], math.exp(-mean), 0.0
    for i in itertools.count():
        lower.append(below[min(i, len(below) - 1)])
        at_mean += p * lower[-1]
        p *= mean / (i + 1)
        # the pois_j(mean), j > i, sum to at most 2 p once i + 2 > 2 mean
        if i + 2 > 2 * mean and 2 * p <= _DROP * at_mean:
            break
    return GammaMix(rate, tuple(weights), mean, tuple(lower), tuple(above), above[-1])


# ---------------------------------------------------------------------------
# exact polynomials with factorial denominators
#
# Every polynomial the densities are built from (Laguerre polynomials at a
# negated argument, truncated Bessel ascending series) has coefficients
# nums[p] / (p! (p + shift)!) with integer nums[p].  Shifts add under
# multiplication, and coefficient d of a product comes back over
# d! (d + shift)! with integer binomial weights, so every sum of products
# over one set of columns (a determinant) shares its denominators and the
# algebra runs exactly on Python integers, with no gcd.


class FPoly(NamedTuple):
    """sum_p nums[p] x^p / (p! (p + shift)!), constant term first; no nums is 0."""

    shift: int
    nums: tuple

    def fractions(self) -> list[Fraction]:
        return [Fraction(c, math.factorial(p) * math.factorial(p + self.shift))
                for p, c in enumerate(self.nums)]


@functools.lru_cache(maxsize=2048)
def _fpoly_weights(ka: int, kb: int, d: int) -> tuple:
    # d! (d+ka+kb)! / (p! (p+ka)! (d-p)! (d-p+kb)!) for p = 0..d
    return tuple(math.comb(d, p) * math.comb(d + ka + kb, p + ka) for p in range(d + 1))


def _fpoly_terms(a: FPoly, b: FPoly, d: int) -> list:
    """Numerators of the terms a_p b_(d-p) of coefficient d of a b, by p."""
    x, y = a.nums, b.nums
    w = _fpoly_weights(a.shift, b.shift, d)
    lo, hi = max(0, d - len(y) + 1), min(d, len(x) - 1)
    return [0] * lo + [x[p] * y[d - p] * w[p] for p in range(lo, hi + 1)]


def fpoly_mul(a: FPoly, b: FPoly, deg: int | None = None) -> FPoly:
    """Product, truncated above degree deg when given."""
    top = len(a.nums) + len(b.nums) - 2
    if deg is not None:
        top = min(top, deg)
    return FPoly(a.shift + b.shift, tuple(sum(_fpoly_terms(a, b, d)) for d in range(top + 1)))


def fpoly_add(a: FPoly, b: FPoly, sign: int = 1) -> FPoly:
    if not b.nums:
        return a
    if not a.nums:
        return FPoly(b.shift, tuple(sign * c for c in b.nums))
    if a.shift != b.shift:
        raise ValueError("only polynomials with one shift add exactly")
    out = list(a.nums) + [0] * (len(b.nums) - len(a.nums))
    for i, c in enumerate(b.nums):
        out[i] += sign * c
    return FPoly(a.shift, tuple(out))


def _fpoly_minors(mat, deg: int | None = None) -> dict:
    """Every maximal minor of a tall matrix of FPoly entries, by row tuple.

    Cofactor expansion along the last column, one column at a time: each
    minor on the first c columns is c products of minors on the first
    c - 1, which are shared instead of expanded again.
    """
    minors = {(): FPoly(0, (1,))}
    for col in range(len(mat[0]) if mat else 0):
        grown = {}
        for sub in itertools.combinations(range(len(mat)), col + 1):
            total = FPoly(0, ())
            for idx, row in enumerate(sub):
                term = fpoly_mul(mat[row][col], minors[sub[:idx] + sub[idx + 1:]], deg)
                total = fpoly_add(total, term, -1 if (idx + col) % 2 else 1)
            grown[sub] = total
        minors = grown
    return minors


def fpoly_det(mat, deg: int | None = None) -> FPoly:
    det = _fpoly_minors(mat, deg)[tuple(range(len(mat)))]
    nums = list(det.nums)
    while nums and nums[-1] == 0:
        nums.pop()
    return FPoly(det.shift, tuple(nums))


def fpoly_split_det(pairs, block, deg: int | None = None):
    """Determinant of rows [f_r(z x), g_r(z x), block[r](x)] in powers of x and z.

    pairs[r] = (f_r, g_r).  Laplace expansion along the first two columns:
    their 2 x 2 minors are series in z x, so the z power always equals
    their share of the x power, and the complementary minors depend on x
    alone.  Returns (shift, nums): nums[d][e] is the numerator of the
    coefficient of x^d z^e over d! (d + shift)!, for d up to deg.
    """
    size = len(pairs)
    shift = pairs[0][0].shift + pairs[0][1].shift + sum(f.shift for f in block[0])
    minors = _fpoly_minors(block, deg)
    nums: list = []
    for r1, r2 in itertools.combinations(range(size), 2):
        pair = fpoly_add(fpoly_mul(pairs[r1][0], pairs[r2][1], deg),
                         fpoly_mul(pairs[r2][0], pairs[r1][1], deg), -1)
        minor = minors[tuple(r for r in range(size) if r not in (r1, r2))]
        if not pair.nums or not minor.nums:
            continue
        sign = (-1) ** (r1 + r2 + 1)    # rows r1, r2 times columns 0, 1
        top = len(pair.nums) + len(minor.nums) - 2
        if deg is not None:
            top = min(top, deg)
        while len(nums) <= top:
            nums.append([0] * (len(nums) + 1))
        for d in range(top + 1):
            row = nums[d]
            for e, term in enumerate(_fpoly_terms(pair, minor, d)):
                row[e] += sign * term
    return shift, nums


def divide_by_one_minus(poly, power: int) -> list:
    """Exact quotient of poly(z) by (1 - z)^power, constant term first:
    poly = (1 - z) r  <=>  r_k = poly_0 + ... + poly_k, with no remainder.
    ArithmeticError if a step leaves one."""
    for step in range(power):
        run = list(itertools.accumulate(poly))
        if run and run[-1]:
            raise ArithmeticError(f"polynomial not divisible by (1 - z)^{step + 1}")
        poly = run[:-1]
    return list(poly)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature


# Newton steps allowed per rule; from the cosine start a few suffice
_NEWTON_CAP = 50


def _legendre(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_order(x), P_order'(x)) by the three-term recurrence, |x| < 1."""
    prev, cur = np.ones_like(x), x
    for k in range(2, order + 1):
        xc = x * cur
        prev, cur = cur, xc + (k - 1) / k * (xc - prev)
    return cur, order * (x * cur - prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=32)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the Gauss-Legendre rule on (-1, 1), nodes
    ascending.  Newton's method on P_order from x_i = cos(pi (i - 1/4) /
    (order + 1/2)) finds the positive nodes, the weights are
    2 / ((1 - x^2) P_order'(x)^2), and the negative half is their mirror;
    the middle node of an odd order is exactly 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    half = order // 2
    x = np.cos(np.pi * (np.arange(1, half + 1) - 0.25) / (order + 0.5))
    for _ in range(_NEWTON_CAP):
        p, dp = _legendre(order, x)
        step = p / dp
        x -= step
        if np.all(np.abs(step) <= 1e-14):
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes of order {order} did not converge")
    if order % 2:
        x = np.append(x, 0.0)
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


DEFAULT_ORDER = 64
_ORDER_CAP = 1024
_MAX_DEPTH = 200


def _panel_estimate(f, a: float, b: float, order: int) -> float:
    nodes, weights = gauss_legendre_rule(order)
    half = 0.5 * (b - a)
    est = half * float(weights @ np.asarray(f(0.5 * (a + b) + half * nodes), dtype=float))
    if not math.isfinite(est):
        raise QuadratureError(f"integrand not finite on the panel ({a!r}, {b!r})")
    return est


def integrate_finite(f, a: float, b: float, rtol: float = 1e-9) -> float:
    """Integrate f over the finite interval (a, b); f takes an array of
    nodes and returns the integrand at each.

    Order doubling from DEFAULT_ORDER handles analytic integrands; when
    doubling stalls (integrable endpoint singularities after the
    semi-infinite mapping) the panel is bisected and the error budget
    split between the halves.  Raises QuadratureError as soon as a panel
    estimate is not finite, and if the accumulated error estimate ends up
    above tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    rough = _panel_estimate(f, a, b, 128)
    scale = abs(rough)
    tiny = 1e-300
    budget = rtol * max(scale, tiny)

    total = 0.0
    err_total = 0.0
    # stack of (lo, hi, abs budget, depth)
    stack = [(a, b, budget, 0)]
    while stack:
        lo, hi, tol_abs, depth = stack.pop()
        prev = _panel_estimate(f, lo, hi, DEFAULT_ORDER)
        cur_order = DEFAULT_ORDER
        accepted = False
        est = prev
        err = math.inf
        while cur_order * 2 <= _ORDER_CAP:
            cur_order *= 2
            est = _panel_estimate(f, lo, hi, cur_order)
            err = abs(est - prev)
            if err <= tol_abs or err <= 0.25 * rtol * abs(est):
                accepted = True
                break
            # stalled convergence means a singularity: bisect instead
            if err > 0.0 and prev != 0.0 and err > abs(est) * 1e-14 and cur_order >= 4 * DEFAULT_ORDER:
                break
            prev = est
        if accepted:
            total += est
            err_total += err
            continue
        if depth >= _MAX_DEPTH:
            # give up refining; count the disagreement toward the error
            total += est
            err_total += err
            continue
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, 0.5 * tol_abs, depth + 1))
        stack.append((mid, hi, 0.5 * tol_abs, depth + 1))

    if err_total > 10.0 * rtol * max(abs(total), scale, tiny):
        raise QuadratureError(
            f"quadrature error estimate {err_total:.3e} above tolerance for integral {total:.6e}"
        )
    return total
