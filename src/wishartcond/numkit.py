"""Log-domain scalar arithmetic, special functions and quadrature.

Everything downstream (exact densities, asymptotic densities, moment
generating functions) is assembled from products of factorials, powers and
polynomial coefficients whose magnitudes overflow double precision long
before the assembled density does.  The primitives here therefore work with
sign / log-magnitude pairs (``SignedLog``) and only exponentiate once a full
term has been combined.

Two numeric backends are supported through :class:`NumericContext`:

* double precision (the default), with compensated summation for the
  alternating sums that appear in the density formulas;
* an extended software-float backend (mpmath), used where a sum cancels
  too much to keep its digits in double.

The special functions are the ones the densities are built from: exact
integer rising factorials, Stirling numbers and Laguerre coefficients, a
Laguerre evaluation in sign/log form and a generalized hypergeometric
series.  Exact polynomials (``FPoly``) keep integer numerators over
factorial denominators; products, truncated products and determinants of
them stay exact without rational arithmetic.

The quadrature routine is adaptive Gauss-Legendre: order doubling first,
panel bisection when doubling stalls.  poisson_mix sums a Poisson mixture
one term at a time, in logs.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

_LN2 = math.log(2.0)


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to meet its tolerance."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature exhausted its refinement budget."""


# ---------------------------------------------------------------------------
# numeric backends


class NumericContext:
    """Scalar backend: double precision, or mpmath with ``dps`` digits."""

    def __init__(self, dps: int | None = None):
        if dps is not None and dps < 30:
            raise ValueError("extended mode needs at least 30 digits")
        self.dps = dps

    @property
    def extended(self) -> bool:
        return self.dps is not None

    def workprec(self):
        """Context manager pinning the mpmath precision while we compute."""
        if self.extended:
            return mpmath.workdps(self.dps)
        return nullcontext()

    def real(self, x):
        return mpmath.mpf(x) if self.extended else float(x)

    def log(self, x):
        return mpmath.log(x) if self.extended else math.log(x)

    def log_int(self, n: int):
        """log(n) for a positive integer of any size."""
        if n <= 0:
            raise ValueError("positive integer required")
        if self.extended:
            return mpmath.log(mpmath.mpf(n))
        if n.bit_length() <= 53:
            return math.log(n)
        shift = n.bit_length() - 53
        return math.log(n >> shift) + shift * _LN2

    def lgamma(self, x):
        if x <= 0:
            raise ValueError("lgamma argument must be positive")
        if self.extended:
            return mpmath.loggamma(mpmath.mpf(x))
        return math.lgamma(x)

    def __repr__(self):
        return f"NumericContext(dps={self.dps})"


DOUBLE = NumericContext()


def _is_mp(x) -> bool:
    return isinstance(x, mpmath.mpf)


def _exp(x):
    return mpmath.exp(x) if _is_mp(x) else math.exp(x)


def _log(x):
    return mpmath.log(x) if _is_mp(x) else math.log(x)


def _log1p(x):
    return mpmath.log1p(x) if _is_mp(x) else math.log1p(x)


# ---------------------------------------------------------------------------
# signed log-magnitude scalars


class SignedLog:
    """A real number stored as (sign, log of magnitude).

    sign is -1, 0 or +1; logmag is a float (or an mpmath float in extended
    mode) and is meaningless when sign == 0.  Multiplication is exact in this
    representation up to rounding of the log; addition goes through a
    max-shifted compensated sum.
    """

    __slots__ = ("sign", "logmag")

    def __init__(self, sign: int, logmag=0.0):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        self.sign = sign
        self.logmag = logmag

    @staticmethod
    def zero() -> "SignedLog":
        return SignedLog(0, 0.0)

    @staticmethod
    def one() -> "SignedLog":
        return SignedLog(1, 0.0)

    @staticmethod
    def from_real(x, ctx: NumericContext = DOUBLE) -> "SignedLog":
        if x == 0:
            return SignedLog.zero()
        s = 1 if x > 0 else -1
        return SignedLog(s, ctx.log(abs(ctx.real(x))))

    @staticmethod
    def from_fraction(q: Fraction | int, ctx: NumericContext = DOUBLE) -> "SignedLog":
        """Exact rational (arbitrary size) to sign/log form."""
        q = Fraction(q)
        if q == 0:
            return SignedLog.zero()
        s = 1 if q > 0 else -1
        return SignedLog(s, ctx.log_int(abs(q.numerator)) - ctx.log_int(q.denominator))

    def to_real(self):
        """Back to an ordinary number.  Raises OverflowError past the range."""
        if self.sign == 0:
            return 0.0
        return self.sign * _exp(self.logmag)

    def to_float(self) -> float:
        return float(self.to_real())

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        s = self.sign * other.sign
        if s == 0:
            return SignedLog.zero()
        return SignedLog(s, self.logmag + other.logmag)

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.logmag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        return signed_log_sum((self, other))

    def __sub__(self, other: "SignedLog") -> "SignedLog":
        return signed_log_sum((self, -other))

    def inverse(self) -> "SignedLog":
        if self.sign == 0:
            raise ZeroDivisionError("inverse of zero")
        return SignedLog(self.sign, -self.logmag)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        return self * other.inverse()

    def pow_int(self, k: int) -> "SignedLog":
        if k == 0:
            return SignedLog.one()
        if self.sign == 0:
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return SignedLog.zero()
        s = self.sign if k % 2 else 1
        return SignedLog(s, k * self.logmag)

    def scaled_by_log(self, delta) -> "SignedLog":
        """Multiply by exp(delta) without leaving the log domain."""
        if self.sign == 0:
            return self
        return SignedLog(self.sign, self.logmag + delta)

    def __repr__(self):
        return f"SignedLog(sign={self.sign}, logmag={self.logmag})"


def signed_log_sum(terms) -> SignedLog:
    """Sum of SignedLog terms via a max-shifted compensated sum.

    In double the inner accumulation is Neumaier-compensated, which keeps
    the relative error of heavily cancelling sums near the level set by the
    largest term rather than growing with the term count.
    """
    live = [t for t in terms if t.sign != 0]
    if not live:
        return SignedLog.zero()
    m = live[0].logmag
    for t in live[1:]:
        if t.logmag > m:
            m = t.logmag
    if _is_mp(m):
        total = mpmath.fsum(t.sign * mpmath.exp(t.logmag - m) for t in live)
        if total == 0:
            return SignedLog.zero()
        s = 1 if total > 0 else -1
        return SignedLog(s, m + mpmath.log(abs(total)))
    acc = 0.0
    comp = 0.0
    for t in live:
        x = t.sign * math.exp(t.logmag - m)
        tmp = acc + x
        if abs(acc) >= abs(x):
            comp += (acc - tmp) + x
        else:
            comp += (x - tmp) + acc
        acc = tmp
    total = acc + comp
    if total == 0.0:
        return SignedLog.zero()
    s = 1 if total > 0 else -1
    return SignedLog(s, m + math.log(abs(total)))


# ---------------------------------------------------------------------------
# combinatorial special values


def pochhammer_int(a: int, count: int) -> int:
    """Exact integer rising factorial for integer a."""
    out = 1
    for i in range(count):
        out *= a + i
    return out


def stirling2(p: int, q: int) -> int:
    """Stirling number of the second kind: set partitions of p into q blocks."""
    if p < 0 or q < 0 or q > p:
        raise ValueError("need 0 <= q <= p")
    total = 0
    for j in range(q + 1):
        total += (-1) ** (q - j) * math.comb(q, j) * j**p
    fac = math.factorial(q)
    assert total % fac == 0
    return total // fac


_LOG_FACT = np.zeros(1)  # _LOG_FACT[m] = log m!, grown on demand


def log_factorials(nmax: int) -> np.ndarray:
    """Table of log m! for m = 0..nmax (at least); shared, grow-only."""
    global _LOG_FACT
    if len(_LOG_FACT) <= nmax:
        old = len(_LOG_FACT)
        steps = np.log(np.arange(old, nmax + 64, dtype=float))
        _LOG_FACT = np.concatenate([_LOG_FACT, _LOG_FACT[-1] + np.cumsum(steps)])
    return _LOG_FACT


def poisson_mix(us: np.ndarray, coeffs: np.ndarray, offset: int, power: int = 0) -> np.ndarray:
    """u^power sum_k coeffs[k] pois_{k+offset}(u) for u > 0, one k at a time,
    with pois_i(u) = e^{-u} u^i / i!; coeffs may have either sign.

    The factor u^power goes into each exponent, so that huge u gives 0, not
    inf times 0."""
    lu = np.log(us)
    lf = log_factorials(len(coeffs) + offset)
    out = np.zeros_like(us)
    for k, c in enumerate(coeffs):
        if c != 0:
            i = k + offset
            out += c * np.exp((i + power) * lu - us - lf[i])
    return out


# ---------------------------------------------------------------------------
# generalized Laguerre polynomials

# Coefficient of z^j in L_N^(rho) for integer rho >= 0, as an exact rational:
#   (-1)^j (N+rho)! / ((N-j)! (rho+j)! j!)


def laguerre_coeff_fractions(deg: int, rho: int) -> list[Fraction]:
    if deg < 0 or rho < 0:
        raise ValueError("need deg >= 0 and integer rho >= 0")
    top = math.factorial(deg + rho)
    out = []
    for j in range(deg + 1):
        num = (-1) ** j * top
        den = math.factorial(deg - j) * math.factorial(rho + j) * math.factorial(j)
        out.append(Fraction(num, den))
    return out


def laguerre_eval(deg: int, rho: int, z, ctx: NumericContext = DOUBLE) -> SignedLog:
    """Value of the generalized Laguerre polynomial L_deg^(rho) at z."""
    coeffs = laguerre_coeff_fractions(deg, rho)
    zsl = SignedLog.from_real(z, ctx)
    terms = []
    zp = SignedLog.one()
    for j, c in enumerate(coeffs):
        if j > 0:
            zp = zp * zsl
        terms.append(SignedLog.from_fraction(c, ctx) * zp)
    return signed_log_sum(terms)


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


# ---------------------------------------------------------------------------
# generalized hypergeometric series


def pfq(a_params, b_params, z: float, rtol: float = 1e-15, max_terms: int = 200_000) -> float:
    """Generalized hypergeometric pFq via the term-ratio recurrence.

    Upper parameters may be negative integers (the series then terminates).
    Nonpositive-integer lower parameters are rejected.  For p = q + 1 the
    series only converges for |z| < 1.
    """
    a_params = [float(a) for a in a_params]
    b_params = [float(b) for b in b_params]
    for b in b_params:
        if b <= 0 and b == int(b):
            raise ValueError("nonpositive integer lower parameter")
    if len(a_params) > len(b_params) + 1:
        raise ValueError("series diverges: p > q + 1")
    if len(a_params) == len(b_params) + 1 and abs(z) >= 1:
        raise ValueError("p = q + 1 series needs |z| < 1")
    total = 1.0
    term = 1.0
    small_streak = 0
    for k in range(max_terms):
        num = 1.0
        for a in a_params:
            num *= a + k
        if num == 0.0:
            return total  # terminating series
        den = k + 1.0
        for b in b_params:
            den *= b + k
        term *= num * z / den
        total += term
        if math.isinf(total) or math.isnan(total):
            raise OverflowError("hypergeometric sum left the double range")
        if abs(term) <= rtol * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise ConvergenceError("hypergeometric series did not converge")


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature


@dataclass(frozen=True)
class Quadrature:
    """A fixed quadrature rule on (-1, 1): open, positive weights."""

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=32)
def gauss_legendre_rule(order: int) -> Quadrature:
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return Quadrature("legendre", order, nodes, weights)


DEFAULT_ORDER = 64
DEFAULT_ORDER_CAP = 1024
DEFAULT_MAX_DEPTH = 200


def _panel_estimate(f, a: float, b: float, order: int, vectorized: bool) -> float:
    rule = gauss_legendre_rule(order)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * rule.nodes
    if vectorized:
        vals = np.asarray(f(xs), dtype=float)
    else:
        vals = np.array([f(x) for x in xs], dtype=float)
    return half * float(rule.weights @ vals)


def integrate_finite(
    f,
    a: float,
    b: float,
    rtol: float = 1e-9,
    order: int = DEFAULT_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
    max_depth: int = DEFAULT_MAX_DEPTH,
    vectorized: bool = False,
) -> float:
    """Integrate f over the finite interval (a, b).

    Order doubling handles analytic integrands; when doubling stalls
    (integrable endpoint singularities after the semi-infinite mapping) the
    panel is bisected and the error budget split between the halves.  Raises
    QuadratureError if the accumulated error estimate ends up above
    tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    rough = _panel_estimate(f, a, b, min(128, order_cap), vectorized)
    scale = abs(rough)
    tiny = 1e-300
    budget = rtol * max(scale, tiny)

    total = 0.0
    err_total = 0.0
    # stack of (lo, hi, abs budget, depth)
    stack = [(a, b, budget, 0)]
    while stack:
        lo, hi, tol_abs, depth = stack.pop()
        prev = _panel_estimate(f, lo, hi, order, vectorized)
        cur_order = order
        accepted = False
        est = prev
        err = math.inf
        while cur_order * 2 <= order_cap:
            cur_order *= 2
            est = _panel_estimate(f, lo, hi, cur_order, vectorized)
            err = abs(est - prev)
            if err <= tol_abs or err <= 0.25 * rtol * abs(est):
                accepted = True
                break
            # stalled convergence means a singularity: bisect instead
            if err > 0.0 and prev != 0.0 and err > abs(est) * 1e-14 and cur_order >= 4 * order:
                break
            prev = est
        if accepted:
            total += est
            err_total += err
            continue
        if depth >= max_depth:
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
