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
* an extended software-float backend (mpmath) used automatically for large
  matrix dimensions, where alternating sums lose too many digits in double.

The special functions are the ones the densities are built from: exact
integer rising factorials, Stirling numbers and Laguerre coefficients, a
Laguerre evaluation in sign/log form, log I_order(z) for a block of orders
at once, and a generalized hypergeometric series.

The quadrature routines are adaptive Gauss-Legendre: order doubling first,
panel bisection when doubling stalls.  Semi-infinite integrals are mapped to
(0, 1) with a logarithmic substitution.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

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
# modified Bessel function of the first kind, integer order


_LOG_FACT = np.zeros(1)  # _LOG_FACT[m] = log m!, grown on demand


def log_factorials(nmax: int) -> np.ndarray:
    """Table of log m! for m = 0..nmax (at least); shared, grow-only."""
    global _LOG_FACT
    if len(_LOG_FACT) <= nmax:
        old = len(_LOG_FACT)
        steps = np.log(np.arange(old, nmax + 64, dtype=float))
        _LOG_FACT = np.concatenate([_LOG_FACT, _LOG_FACT[-1] + np.cumsum(steps)])
    return _LOG_FACT


def bessel_i_log_block(nmax: int, zs) -> np.ndarray:
    """log I_order(z) for every order 0..nmax jointly, over an array of z > 0.

    Ascending series sum_k (z/2)^(order+2k) / (k! (order+k)!), summed with a
    max-shift per (order, z) pair; every term is positive, so nothing
    cancels.  The order and term axes are vectorized together
    (integer-argument factorials come from a shared table), which is what
    the determinant entry ladders in the asymptotic module want: many
    consecutive orders at one or a few arguments.  Returns shape
    (nmax + 1, len(zs)).
    """
    zs = np.asarray(zs, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("need z > 0")
    half = float(np.max(zs)) / 2.0
    nk = int(half + 12.0 * math.sqrt(half + 4.0) + 25.0)
    lf = log_factorials(nmax + nk + 1)
    k = np.arange(nk + 1)
    orders = np.arange(nmax + 1)
    lh = np.log(zs / 2.0)
    base = -(lf[k][None, :] + lf[np.add.outer(orders, k)])   # (no, nk)
    powr = np.add.outer(orders, 2.0 * k)
    lt = base[:, :, None] + powr[:, :, None] * lh[None, None, :]
    peak = lt.max(axis=1)
    return peak + np.log(np.exp(lt - peak[:, None, :]).sum(axis=1))


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


def integrate_semi_infinite(
    f,
    decay: float,
    rtol: float = 1e-9,
    order: int = DEFAULT_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
    max_depth: int = DEFAULT_MAX_DEPTH,
    vectorized: bool = False,
) -> float:
    """Integrate f over (0, inf) assuming |f(x)| falls off like exp(-decay x).

    Substituting x = -log(u)/decay maps the integral to (0, 1); the mapped
    integrand is bounded up to logarithmic factors, which the adaptive
    bisection in integrate_finite resolves near u = 0.
    """
    if decay <= 0:
        raise ValueError("decay must be positive")

    if vectorized:

        def mapped(us):
            us = np.asarray(us, dtype=float)
            xs = -np.log(us) / decay
            return np.asarray(f(xs), dtype=float) / (us * decay)

    else:

        def mapped(u):
            x = -math.log(u) / decay
            return f(x) / (u * decay)

    return integrate_finite(
        mapped, 0.0, 1.0, rtol=rtol, order=order, order_cap=order_cap,
        max_depth=max_depth, vectorized=vectorized,
    )
