"""Exact finite-dimension densities, CDFs and moment generating functions.

The two condition metrics of a complex Wishart matrix W = A* A (A of size
m x n with independent standard complex Gaussian entries, alpha = m - n)
studied here are

* kappa-d squared: trace(W) / smallest eigenvalue,
* kappa-e squared: trace(W) / second-smallest eigenvalue,

together with the densities of the smallest and second-smallest eigenvalues
themselves.  Both trace-ratio laws are finite sums of terms

    coeff * (y - edge)^power * y^(-mn),   edge < y <= hi,

with exact rational coefficients, built once per dimension in integer
arithmetic and grouped into pieces of one edge each (_EdgePowerTable).
kappa-d is one piece on (n, inf).  kappa-e is two: a near piece on
(n - 1, n] at edge n - 1 and a tail piece on (n, inf) at edge n, whose
coefficients are all positive.  Both eigenvalue laws are finite sums of
terms

    coeff * x^power * exp(-rate x),   x > 0,

grouped into pieces of one rate each (_ExpPiece): the smallest
eigenvalue is one piece at rate n with positive coefficients, the
second-smallest two pieces at rates n - 1 and n.

Each trace-ratio law is the image of its eigenvalue law under the
inverse-Laplace pair exp(-r s) s^(-k) -> (y - r)^(k-1) / Gamma(k) on
y > r, which takes c x^k exp(-r x) to c (mn - 1)! / p! (y - r)^p y^(-mn),
p = mn - 2 - k (_trace_ratio_law).  The second-smallest eigenvalue comes
from one (alpha + 2) x (alpha + 2) Laguerre determinant, whose rows are
expanded, divided by (1 - z)^alpha and shifted to w = 1 - z into integer
products (_ke_row_products).  Every table build logs one DEBUG line: the
law, the dims, the terms of each piece and the seconds it took.

In t = 1 - edge / y a term of a piece is a multiple of a Beta(power + 1,
mn - power - 1) density, so every trace-ratio density is edge / y^2 times
a sum of Beta terms in t, every CDF a finite sum of binomial probabilities
in t and every moment generating function one finite quadrature in t per
piece and s, the s grid sharing each piece's t-density at every node
array.  In t no exponent is near mn log y, whose rounding would cost
digits that no cancellation measure sees.  Each trace-ratio density, CDF
and MGF integrand is one list of numkit.mixture_sum terms, which
_signed_rows sums as one array for the densities.  Every density is
summed in double, with the digits lost to cancellation, log10 of
sum |term| / |sum term|, measured in the same pass: a trace-ratio sum
loses at most half a digit (only the kappa-e near piece has signs), and a
point past 3 raises ArithmeticError.

Both eigenvalue laws are also positive one-rate mixtures sum_k w_k
Gamma(k + 1, n) (_GammaMix): the smallest eigenvalue's terms directly,
the second-smallest's two pieces after exp(-(n - 1) x) = exp(-n x)
exp(x), a series cut where its exact remainder is below 1e-30.  Both
eigenvalue CDFs are Poisson sums over those weights, with no signs in
either tail.  The two second-smallest pieces cancel near x = 0, by alpha +
3 orders: the density points that lose more than a digit there are
summed again from the weights.

The connection routes (pdf_via_min_connection, pdf_via_lambda2_connection)
push the eigenvalue densities through the inverse-Laplace pair in double,
in another order, as cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .detkit import vandermonde_int
from .numkit import (FPoly, _log_ratio, _sign, _sign_log, divide_by_one_minus, fpoly_det,
                     fpoly_split_det, integrate_finite, mixture_sum, pochhammer_int,
                     poisson_sum)

log = logging.getLogger("wishartcond")

METRIC_KAPPA_D = "kappa-d"
METRIC_KAPPA_E = "kappa-e"
METRIC_LAMBDA_MIN = "lambda-min"
METRIC_LAMBDA_2 = "lambda-2"
METRICS = (METRIC_KAPPA_D, METRIC_KAPPA_E, METRIC_LAMBDA_MIN, METRIC_LAMBDA_2)

# largest alpha of the nested-sum kappa-d table
_NESTED_SUM_ALPHA_CAP = 4
# relative tolerance of every quadrature: the mgfs and the lambda-2 route
_RTOL = 1e-9
# digits lost to cancellation past which a trace-ratio density raises, and
# past which an eigenvalue-density point is summed again from its weights
_LOST_LIMIT, _RESUM_LIMIT = 3.0, 1.0
# the lambda-2 Gamma weights stop where the mass past them is below
# 10^-_WEIGHT_TAIL_DIGITS; eigenvalue CDFs leave out terms below _DROP of them
_WEIGHT_TAIL_DIGITS, _DROP = 30, 2.0 ** -60
# elements of one (points x terms) block of a density in double
_BLOCK = 1 << 20


# ---------------------------------------------------------------------------
# basic types


@dataclass(frozen=True)
class Dims:
    """Matrix shape: the Gaussian factor is (n + alpha) x n."""

    n: int
    alpha: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def m(self) -> int:
        return self.n + self.alpha

    @property
    def mn(self) -> int:
        return self.m * self.n


def _signed_rows(x: np.ndarray, y: np.ndarray, terms):
    """Per point, (sum_j c_j exp(l_j + a_j x + b_j y), log10 of sum_j |.| /
    |sum_j .|) in double, over the mixture_sum terms (c_j, l_j, a_j, b_j) at
    coordinate arrays x and y; a point whose exponents are all -inf gives
    (0, 0).  The grid is one (points x terms) array, each row scaled by its
    largest exponent, and each row of a block of at most _BLOCK elements is
    summed on its own, never across the grid."""
    c, lw, a, b = np.fromiter(itertools.chain.from_iterable(terms), float,
                              4 * len(terms)).reshape(-1, 4).T
    out, lost = np.zeros((2, x.size))
    step = max(1, _BLOCK // max(c.size, 1))
    for lo in range(0, x.size, step):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = lw + a * x[lo:lo + step, None] + b * y[lo:lo + step, None]
            shift = t.max(axis=1, initial=-np.inf)
            live = shift > -np.inf
            scaled = np.exp(t[live] - shift[live, None])
            acc = (scaled * c).sum(axis=1)
            lost[lo:lo + step][live] = np.log10((scaled * np.abs(c)).sum(axis=1) / np.abs(acc))
        out[lo:lo + step][live] = acc * np.exp(shift[live])
    return out, lost


# ---------------------------------------------------------------------------
# inverse Laplace kernel


def _laplace_density(terms, mn: int, y: float) -> float:
    """Gamma(mn) y^(-mn) sum_j c_j L^{-1}{exp(-a_j s) s^(d_j - mn + 1)}(y).

    terms holds (a_j, d_j, sign c_j, log |c_j|) for a Laplace-domain
    function sum_j c_j exp(-a_j s) s^(d_j); the pair exp(-a s) s^(-k) ->
    (y - a)^(k-1) / Gamma(k) on y > a turns an eigenvalue density into a
    trace-ratio density term by term.  The terms are scaled by the largest
    and added by math.fsum, in double.
    """
    live = []
    for a, d, sign, lc in terms:
        k = mn - 1 - d
        if y > a:
            live.append((sign, lc + (k - 1) * math.log(y - a) - math.lgamma(k)))
        elif y == a and k == 1:
            live.append((sign, lc))
    if not live:
        return 0.0
    top = max(lt for _, lt in live)
    total = math.fsum(sign * math.exp(lt - top) for sign, lt in live)
    if total == 0.0:
        return 0.0
    return math.copysign(
        math.exp(top + math.log(abs(total)) + math.lgamma(mn) - mn * math.log(y)), total)


# ---------------------------------------------------------------------------
# edge power tables
#
# A law is a tuple of pieces; its density at y sums the terms of every piece
# with edge < y <= hi.  In t = 1 - edge/y,
#   c (y - edge)^p y^(-N) dy = a_p t^p (1 - t)^(N-2-p) dt,  a_p = c edge^(p+1-N),
# a multiple of the Beta(p+1, N-p-1) density with mass a_p p! (N-2-p)! / (N-1)!,
# whose CDF at t is P(Binomial(N-1, t) >= p+1).


@dataclass(frozen=True)
class _EdgePowerTable:
    """One piece of a law: sum_j fracs[j] (y - edge)^powers[j] y^(-mn) on
    edge < y <= hi, with exact Fraction coefficients."""

    mn: int
    edge: int
    hi: float
    powers: tuple
    fracs: tuple

    @functools.cached_property
    def t_density(self) -> list:
        """Terms (sign, log |a_p|, p, mn-2-p) of the t-density sum_p a_p t^p (1-t)^(mn-2-p)."""
        edge_mn = self.edge ** self.mn
        return [(_sign(f), _log_ratio(abs(f.numerator) * self.edge ** (p + 1),
                                      f.denominator * edge_mn), p, self.mn - 2 - p)
                for p, f in zip(self.powers, self.fracs) if f]

    @functools.cached_property
    def t_cdf(self):
        """(terms, mass): the CDF in t is sum_j b_j t^j (1-t)^(mn-1-j) over
        mixture_sum terms (sign, log |b_j|, j, mn - 1 - j), b_j = C(mn-1, j)
        times the mass of the terms with p < j, and mass is the piece's total."""
        mn = self.mn
        den = math.lcm(*(f.denominator for f in self.fracs))
        # masses over the common denominator den edge^mn (mn-1)!
        mass = {p: f.numerator * (den // f.denominator) * self.edge ** (p + 1)
                * math.factorial(p) * math.factorial(mn - 2 - p)
                for p, f in zip(self.powers, self.fracs)}
        common = den * self.edge ** mn * math.factorial(mn - 1)
        terms = []
        run = 0
        for j in range(min(self.powers) + 1, mn):
            run += mass.get(j - 1, 0)
            if run:
                terms.append((_sign(run), _log_ratio(abs(run) * math.comb(mn - 1, j), common),
                              j, mn - 1 - j))
        return terms, float(Fraction(run, common))


def _log_t(edge, y: np.ndarray):
    """(log t, log(1 - t)) at t = 1 - edge / y, edge < y < inf, from the
    smaller of t and 1 - t, each rounded once: edge / y where it is below
    1/2, and (y - edge) / y elsewhere, y - edge being exact there."""
    r = edge / y
    near = r >= 0.5
    small = np.where(near, (y - edge) / y, r)
    log_small, log_large = np.log(small), np.log1p(-small)
    return np.where(near, log_small, log_large), np.where(near, log_large, log_small)


def _law_values(law, ys: np.ndarray):
    """Density of a law on a grid in double, with the digits each point
    loses to cancellation: the points of each piece (the pieces are
    disjoint) are edge / y^2 times its t-density, the whole grid at once."""
    out, lost = np.zeros((2, ys.size))
    for piece in law:
        on = (ys > piece.edge) & (ys <= piece.hi) & (ys < np.inf)
        y = ys[on]
        values, lost[on] = _signed_rows(*_log_t(piece.edge, y), piece.t_density)
        out[on] = values * (piece.edge / y / y)
    return out, lost


def _law_density(law, ys, what: str) -> np.ndarray:
    """Density of a trace-ratio law on a grid.  No sum loses half a digit,
    so a point past _LOST_LIMIT means a broken table: ArithmeticError."""
    values, lost = _law_values(law, np.asarray(ys, dtype=float))
    if lost.size:
        log.info("%s: worst cancellation %.1f digits", what, float(lost.max()))
    if np.any(lost > _LOST_LIMIT):
        raise ArithmeticError(f"{what} cancels past {_LOST_LIMIT:g} digits in double")
    return values


def _law_cdf(law):
    """Exact CDF of a law: per piece, a binomial sum in t at min(y, hi)."""
    parts = [(t.edge, t.hi, *t.t_cdf) for t in law]

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        out = np.zeros(ys.shape)
        for edge, hi, terms, mass in parts:
            y = np.minimum(ys, hi)
            out[y == np.inf] += mass
            live = (y > edge) & (y < np.inf)
            out[live] += mixture_sum(*_log_t(edge, y[live]), terms)
        return out

    return cdf


def _law_mgf(law, s, what: str):
    """E[exp(-s Y)], a float at a scalar s and an array of s's shape
    otherwise: exactly 1.0 at s = 0, else one adaptive quadrature in t per
    piece and s of exp(-s edge / (1 - t)) times the piece's t-density.  That
    density and edge / (1 - t) are computed once per node array in the call
    and shared by every s.  NaN or negative s raise before any quadrature."""
    ss = np.asarray(s, dtype=float)
    if not np.all(ss >= 0):
        raise ValueError("s must be >= 0 and not NaN (the trace ratio has a heavy right tail)")
    started = time.perf_counter()
    nodes: dict = {}    # (piece index, node bytes) -> (edge / (1 - t), t-density)
    calls = []

    def integrand(i, sv, ts):
        calls.append(i)
        key = (i, ts.tobytes())
        if key not in nodes:
            nodes[key] = (law[i].edge / (1.0 - ts),
                          mixture_sum(np.log(ts), np.log1p(-ts), law[i].t_density))
        w, dens = nodes[key]
        # a huge s overflows s w to inf, whose exp is the right 0
        with np.errstate(over="ignore"):
            return np.exp(-sv * w) * dens

    values = [sum(integrate_finite(functools.partial(integrand, i, sv), 0.0,
                                   1.0 - piece.edge / piece.hi, rtol=_RTOL)
                  for i, piece in enumerate(law)) if sv else 1.0 for sv in ss.ravel()]
    log.debug("%s: %d s values, %d integrand calls on %d distinct node arrays, "
              "%d t-density evaluations, %.4f s", what, ss.size, len(calls), len(nodes),
              sum(w.size for w, _ in nodes.values()), time.perf_counter() - started)
    return float(values[0]) if ss.ndim == 0 else np.reshape(values, ss.shape)


# ---------------------------------------------------------------------------
# exp power tables
#
# An eigenvalue law is a tuple of pieces; its density at x > 0 sums
# c x^k exp(-rate x) over the terms of every piece.  A term is c k! / rate^(k+1)
# times the Gamma(k + 1, rate) density, whose upper tail at x is
# sum_{i <= k} pois_i(rate x).


class _ExpPiece(NamedTuple):
    """sum_j fracs[j] x^powers[j] exp(-rate x), exact Fraction coefficients."""

    rate: int
    powers: tuple
    fracs: tuple


def _exp_law_values(law, xs: np.ndarray):
    """Density of an eigenvalue law on a grid in double, the whole grid at
    once, with the digits each point loses to cancellation."""
    out, lost = np.zeros((2, xs.size))
    on = xs > 0
    x = xs[on]
    out[on], lost[on] = _signed_rows(np.log(x), -x, [(*_sign_log(c), k, rate)
                                                     for rate, powers, fracs in law
                                                     for k, c in zip(powers, fracs) if c])
    return out, lost


class _GammaMix(NamedTuple):
    """An eigenvalue law as sum_k w_k Gamma(k + 1, rate), every w_k >= 0:
    weights are the w_k, lower and upper the numkit.poisson_sum weights
    W_(i-1) and 1 - W_(i-1) of its CDF and its upper tail, W_k = w_0 + ...
    + w_k and W_(-1) = 0, and mean is its mean in u = rate x."""

    rate: int
    weights: tuple
    mean: float
    lower: tuple
    upper: tuple

    def cdf(self, xs) -> np.ndarray:
        """The CDF, each point on one list of positive Poisson terms in u:
        up to the mean, where it is near 1/2 or less, sum_i pois_i(u)
        W_(i-1); past it 1 - sum_i pois_i(u) (1 - W_(i-1)), which there
        loses under a digit.  Both tails keep their relative accuracy."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        out[xs == np.inf] = 1.0
        u = self.rate * xs
        low, high = (u > 0) & (u <= self.mean), (u > self.mean) & (u < np.inf)
        out[low] = poisson_sum(u[low], self.lower)
        out[high] = 1.0 - poisson_sum(u[high], self.upper)
        return out


def _gamma_mix(rate: int, den: int, nums: list) -> _GammaMix:
    """The mixture with w_k = nums[k] / (den rate^(k+1)), k = 0..K, and mass
    1, each double rounded once from exact integers; past K, W stays W_K.
    As pois_i(u) / pois_j(u), i > j, grows with u, the lower terms left out
    weigh less, relative to the CDF, anywhere below the mean than at it,
    where the list stops once the Poisson mass past it is below _DROP of
    the CDF.  The upper list stops where 1 - W_(i-1) falls below that.  A
    negative weight raises ArithmeticError."""
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
    upper = itertools.takewhile(lambda rest: rest >= _DROP * at_mean, above)
    return _GammaMix(rate, tuple(weights), mean, tuple(lower), tuple(upper))


def _exp_law_density(law, mix: _GammaMix, xs, what: str) -> np.ndarray:
    """Density of an eigenvalue law on a grid in double.  The points that
    lose more than _RESUM_LIMIT digits are summed again as rate sum_k w_k
    pois_k(rate x), which has no signs but stops at K: it serves near x = 0,
    where the pieces cancel, and not in the right tail."""
    xs = np.asarray(xs, dtype=float)
    values, lost = _exp_law_values(law, xs)
    redo = lost > _RESUM_LIMIT
    if redo.any():
        values[redo] = mix.rate * poisson_sum(mix.rate * xs[redo], mix.weights)
    if xs.size:
        log.info("%s: %d of %d points re-summed from the one-rate weights, worst "
                 "cancellation %.1f digits", what, int(redo.sum()), xs.size, float(lost.max()))
    return values


def _log_build(law: str, dims: Dims, pieces, started: float) -> None:
    """One DEBUG line per exact table build: the law, its dims, the nonzero
    terms of each piece (a sequence of coefficients) and the seconds since
    started.  With DEBUG off it costs one isEnabledFor call."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s table n=%d alpha=%d: %d pieces of %s terms, built in %.4f s",
                  law, dims.n, dims.alpha, len(pieces),
                  "/".join(str(sum(map(bool, p))) for p in pieces), time.perf_counter() - started)


def _lagneg(deg: int, rho: int) -> FPoly:
    """L_deg^(rho)(-w) in w: (deg+rho)! / ((deg-j)! j! (rho+j)!), all positive.
    deg < 0 -> zero."""
    return FPoly(rho, tuple(math.perm(deg + rho, rho + j) for j in range(deg + 1)))


# ---------------------------------------------------------------------------
# smallest eigenvalue and kappa-d


@functools.cache
def _min_eig_fracs(dims: Dims) -> tuple[Fraction, ...]:
    """Exact coefficients c_d of the smallest-eigenvalue density
    sum_d c_d x^(d + alpha) exp(-n x).

    The polynomial is n! / (n + alpha - 1)! times the determinant of an
    alpha x alpha matrix of Laguerre polynomials taken at negated argument.
    """
    started = time.perf_counter()
    n, alpha = dims.n, dims.alpha
    det = fpoly_det([[_lagneg(n + k - l - 1, l + 1) for l in range(1, alpha + 1)]
                     for k in range(1, alpha + 1)])
    lead = Fraction(math.factorial(n), math.factorial(n + alpha - 1))
    fracs = tuple(lead * c for c in det.fractions())
    _log_build("lambda-min", dims, [fracs], started)
    return fracs


def _lambda_min_law(dims: Dims) -> tuple:
    """The smallest-eigenvalue law, one piece at rate n."""
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    powers, fracs = zip(*((d + dims.alpha, c) for d, c in enumerate(_min_eig_fracs(dims)) if c))
    return (_ExpPiece(dims.n, powers, fracs),)


@functools.cache
def _lambda_min_mix(dims: Dims) -> _GammaMix:
    """The smallest-eigenvalue law as a Gamma mixture: c x^k exp(-n x) is
    c k! / n^(k+1) times the Gamma(k + 1, n) density."""
    (rate, powers, fracs), = _lambda_min_law(dims)
    den = math.lcm(*(c.denominator for c in fracs))
    nums = [0] * (max(powers) + 1)
    for k, c in zip(powers, fracs):
        nums[k] = c.numerator * (den // c.denominator) * math.factorial(k)
    return _gamma_mix(rate, den, nums)


def pdf_lambda_min_grid(xs, dims: Dims, precision: str = "auto") -> np.ndarray:
    """Density of the smallest eigenvalue on a grid of points.  precision
    changes nothing; it is accepted for callers that still pass it."""
    return _exp_law_density(_lambda_min_law(dims), _lambda_min_mix(dims), xs,
                            "lambda-min density")


@functools.cache
def _kd_nested_table(dims: Dims) -> _EdgePowerTable:
    """Exact coefficient table for the nested-sum form of the kappa-d density.

    The multiple finite sums collapse, after grouping by the total index sum
    r, into coefficients on (y - n)^(mn - alpha - 2 - r) y^(-mn).
    """
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    bounds = [n + alpha - 1 - k for k in range(1, alpha + 1)]
    rmax = sum(bounds)
    acc = [Fraction(0)] * (rmax + 1)
    for jvec in itertools.product(*(range(b + 1) for b in bounds)):
        delta = vandermonde_int([l + j for l, j in enumerate(jvec, start=1)])
        if delta == 0:
            continue
        num = delta
        den = 1
        for k, j in enumerate(jvec, start=1):
            num *= (-1) ** j * pochhammer_int(-(n + alpha - k - 1), j)
            den *= pochhammer_int(k + 2, j) * math.factorial(j)
        if num:
            acc[sum(jvec)] += Fraction(num, den)
    front = Fraction(math.factorial(mn - 1))
    for k in range(alpha + 1):
        front *= Fraction(n + k, math.factorial(k + 1))
    powers, fracs = [], []
    for r, a in enumerate(acc):
        if a == 0:
            continue
        powers.append(mn - alpha - 2 - r)
        fracs.append(front * a / math.factorial(mn - alpha - 2 - r))
    return _EdgePowerTable(mn, n, math.inf, tuple(powers), tuple(fracs))


@functools.cache
def _kd_closed_table(dims: Dims) -> _EdgePowerTable:
    """Closed-form coefficient table for the kappa-d density, alpha in {0, 1}."""
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    if alpha == 0:
        return _EdgePowerTable(mn, n, math.inf, (n * n - 2,), (Fraction(n * (n * n - 1)),))
    if alpha == 1:
        powers, fracs = [], []
        front = Fraction(math.factorial(mn - 1) * n * (n + 1), 2)
        for i in range(n):
            c = front * Fraction(
                (-1) ** i * pochhammer_int(-n + 1, i),
                pochhammer_int(3, i) * math.factorial(i) * math.factorial(mn - i - 3),
            )
            powers.append(mn - 3 - i)
            fracs.append(c)
        return _EdgePowerTable(mn, n, math.inf, tuple(powers), tuple(fracs))
    raise ValueError("closed mode covers alpha 0 and 1 only")


_KD_CHECKS = {"theorem": _kd_nested_table, "closed": _kd_closed_table}


def _kd_law(dims: Dims, mode: str = "auto") -> tuple:
    """The kappa-d law, one piece.  'auto' maps the smallest-eigenvalue law
    (_trace_ratio_law); 'theorem' (nested sums, 26 s at n = 30, alpha = 4) and
    'closed' (alpha <= 1) are the independent constructions it is checked against."""
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    if mode == "auto":
        return _trace_ratio_law(METRIC_KAPPA_D, dims)
    if mode not in _KD_CHECKS:
        raise ValueError("mode must be 'auto', 'theorem' or 'closed'")
    if mode == "theorem" and dims.alpha > _NESTED_SUM_ALPHA_CAP:
        raise ValueError(f"alpha={dims.alpha} above the nested-sum cap {_NESTED_SUM_ALPHA_CAP}")
    return (_KD_CHECKS[mode](dims),)


def pdf_kappa_d_grid(ys, dims: Dims, mode: str = "auto") -> np.ndarray:
    """Density of trace / smallest eigenvalue on a grid.  Support is y > n."""
    return _law_density(_kd_law(dims, mode), ys, "kappa-d density")


def pdf_kappa_d(y: float, dims: Dims) -> float:
    return float(pdf_kappa_d_grid(np.array([y]), dims)[0])


def pdf_via_min_connection(y: float, dims: Dims) -> float:
    """kappa-d density through the smallest-eigenvalue route.

    The smallest-eigenvalue density is a polynomial times exp(-n x); pushing
    that representation through the shared inverse-Laplace step must agree
    with the direct density, which makes this an end-to-end cross-check of
    both pipelines.
    """
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    terms = [(dims.n, d + dims.alpha, *_sign_log(c))
             for d, c in enumerate(_min_eig_fracs(dims)) if c]
    return _laplace_density(terms, dims.mn, y)


def mgf_kappa_d(s, dims: Dims):
    """Moment generating function E[exp(-s * kappa_d^2)] for s >= 0, at a
    scalar s (a float) or on an array of s (an array, sharing node work).

    At s = 0 this is the total mass of the law and returns exactly 1.0.
    For s > 0 the value comes from quadrature to a relative 1e-9.
    """
    return _law_mgf(_kd_law(dims), s, "kappa-d mgf")


# ---------------------------------------------------------------------------
# second-smallest eigenvalue and kappa-e
#
# The determinant whose rows mix Laguerre polynomials at argument -(s z)
# (first two columns) and -s (remaining alpha columns) expands into a
# bivariate polynomial sum_{d,e} c[d][e] s^d z^e, once per dimension and
# exactly (numkit.fpoly_split_det).  The kappa-e density is
#   (mn-1)! y^(-mn) sum_{d,e} c[d][e] / (mn-5-d)!
#       * int_{max(0, n-y)}^1 (y - n + z)^(mn-5-d) z^(e+2) (1-z)^(-alpha) dz.


@functools.cache
def _ke_det(dims: Dims):
    """(shift, nums): nums[d][e] / (d! (d + shift)!) is c[d][e]."""
    n, size = dims.n, dims.alpha + 2
    return fpoly_split_det(
        [[_lagneg(n + i - j - 2, j + 1) for j in (1, 2)] for i in range(1, size + 1)],
        [[_lagneg(n + i - k, k - 1) for k in range(3, size + 1)] for i in range(1, size + 1)])


@functools.cache
def _ke_bivariate_fracs(dims: Dims):
    """Exact bivariate coefficients c[d][e] of the kappa-e determinant.

    Returns (c, dmax, emax) with c a dict mapping (d, e) to a Fraction, d the
    power of s and e the power of z.
    """
    shift, nums = _ke_det(dims)
    c = {(d, e): Fraction(num, math.factorial(d) * math.factorial(d + shift))
         for d, row in enumerate(nums) for e, num in enumerate(row) if num}
    return c, max(d for d, _ in c), max(e for _, e in c)


@functools.cache
def _ke_bivariate_w_fracs(dims: Dims):
    """Same determinant re-expanded around z = 1: coefficients of s^d w^e
    with w = 1 - z.

    As z -> 1 two of the z columns collide with two of the fixed columns and
    the determinant vanishes to order >= alpha; in this basis that
    cancellation happens exactly (the offending coefficients are zero
    fractions), which keeps the z-integral stable in double precision near
    the upper endpoint.
    """
    c, _, _ = _ke_bivariate_fracs(dims)
    cw: dict = {}
    for (d, e), f in c.items():
        for ep in range(e + 1):
            keyw = (d, ep)
            cw[keyw] = cw.get(keyw, Fraction(0)) + f * math.comb(e, ep) * (-1) ** ep
    cw = {k: v for k, v in cw.items() if v != 0}
    if dims.alpha > 0 and min(e for _, e in cw) < dims.alpha:
        raise ArithmeticError("determinant vanishes too slowly at z=1; table is wrong")
    return cw, max(d for d, _ in cw), max(e for _, e in cw)


def _check_kappa_e_dims(dims: Dims):
    if dims.n < 3:
        raise ValueError("the second-smallest-eigenvalue metrics need n >= 3")


def _shift_by_one(coeffs) -> list:
    """Coefficients of p(x + 1) from those of p(x), constant term first."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _ke_row_products(dims: Dims):
    """(den, rows): the determinant over one common denominator den, as the
    integer row products that the lambda-2 law indexes.

    Row d is a polynomial p_d(z) = (1 - z)^alpha Q(z), so w^alpha Q_d(w)
    in w = 1 - z with Q_d(w) = Q(1 - w).  With s_d = den / (d! (d + shift)!),
    rows lists (d, P, R) for every nonzero row: P[j] = s_d g_j j! for
    g = (1 - w)^2 Q_d(w), and R[j] = s_d q_j (j + 2)! for q(x) = Q(-x) =
    p_d(-x) / (1 + x)^alpha.  ArithmeticError if a row does not divide by
    (1 - z)^alpha.
    """
    started = time.perf_counter()
    alpha = dims.alpha
    shift, nums = _ke_det(dims)
    dmax = len(nums) - 1
    den = math.factorial(dmax) * math.factorial(dmax + shift)
    rows = []
    for d, row in enumerate(nums):
        if not any(row):
            continue
        quotient = divide_by_one_minus(row, alpha)
        # g(w) = z^2 quotient(z) at z = 1 - w, and q(x) = quotient(-x)
        g = [(-1) ** j * c for j, c in enumerate(_shift_by_one([0, 0, *quotient]))]
        q = [(-1) ** j * c for j, c in enumerate(quotient)]
        scale = den // (math.factorial(d) * math.factorial(d + shift))
        rows.append((d, _times_factorials(g, scale, 0), _times_factorials(q, 2 * scale, 2)))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("kappa-e rows n=%d alpha=%d: %d rows, %d integer products, built in %.4f s",
                  dims.n, alpha, len(rows), sum(len(p) + len(r) for _, p, r in rows),
                  time.perf_counter() - started)
    return den, tuple(rows)


def _times_factorials(coeffs, lead: int, first: int) -> tuple:
    """(lead c_j (first + j)! / first!), by a running product."""
    out = []
    for j, c in enumerate(coeffs):
        out.append(lead * c)
        lead *= first + j + 1
    return tuple(out)


def _scatter(acc: dict, products, start: int) -> None:
    """acc[start - j] += products[j] for every nonzero product."""
    for j, c in enumerate(products):
        if c:
            acc[start - j] = acc.get(start - j, 0) + c


def pdf_kappa_e_grid(ys, dims: Dims) -> np.ndarray:
    """Density of trace / second-smallest eigenvalue.  Support is y > n - 1."""
    return _law_density(_trace_ratio_law(METRIC_KAPPA_E, dims), ys, "kappa-e density")


def pdf_kappa_e(y: float, dims: Dims) -> float:
    return float(pdf_kappa_e_grid(np.array([y]), dims)[0])


def pdf_via_lambda2_connection(y: float, dims: Dims) -> float:
    """kappa-e density through the second-smallest-eigenvalue route.

    The eigenvalue density is, for each fixed z, a polynomial in s times
    exp(-(n - z) s); the generic inverse-Laplace operator is applied per z
    and the z integral is taken last.  Slower than the direct pipeline but
    orders the computation differently, which is the point.
    """
    _check_kappa_e_dims(dims)
    n, alpha, mn = dims.n, dims.alpha, dims.mn
    if y <= n - 1:
        return 0.0
    z_terms = [(d, e, *_sign_log(f)) for (d, e), f in _ke_bivariate_fracs(dims)[0].items()]
    w_terms = [(d, e, *_sign_log(f)) for (d, e), f in _ke_bivariate_w_fracs(dims)[0].items()]

    def f_at_z(z):
        lz = math.log(z)
        lwt = 2 * lz - alpha * math.log(1.0 - z)
        return _laplace_density([(n - z, d + 3, sign, lc + e * lz + lwt)
                                 for d, e, sign, lc in z_terms], mn, y)

    def f_at_w(w):
        lw = math.log(w)
        lwt = 2 * math.log(1.0 - w) - alpha * lw
        return _laplace_density([(n - 1 + w, d + 3, sign, lc + e * lw + lwt)
                                 for d, e, sign, lc in w_terms], mn, y)

    z0 = n - y if y < n else 0.0
    total = 0.0
    if z0 < _KE_SPLIT:
        total += integrate_finite(lambda zs: [f_at_z(z) for z in zs], z0, _KE_SPLIT, rtol=_RTOL)
    total += integrate_finite(lambda ws: [f_at_w(w) for w in ws], 0.0,
                              min(_KE_SPLIT, 1.0 - z0), rtol=_RTOL)
    return total


_KE_SPLIT = 0.5  # z below: z-power table; z above: w-power table


@functools.cache
def _lambda2_law(dims: Dims) -> tuple:
    """The second-smallest-eigenvalue law as two exact pieces, at rates
    n - 1 and n.

    Its density is x^3 exp(-(n-1) x) sum_d x^d int_0^1 (1 - w)^2 Q_d(w)
    exp(-w x) dw, row d of the determinant being w^alpha Q_d(w).  With
    int_0^1 w^j exp(-w x) dw = j! / x^(j+1) (1 - exp(-x) sum_{i<=j} x^i / i!),
    a term g_j w^j of g = (1 - w)^2 Q_d(w) gives g_j j! x^(d+2-j) at rate
    n - 1: near[d+2-j] += P[d][j] of the row products.  At rate n
    the terms of power d + 2 - m gather, over i = j - m, into
    -sum_j g_j j! / (j - m)! = -m! [x^m] g(1 + x) = -m! q_(m-2), since
    g(1 + x) = x^2 Q_d(1 + x): far[d-j] -= R[d][j].  Every coefficient is
    an integer over one common denominator; a power below alpha, in
    either piece, raises ArithmeticError.
    """
    _check_kappa_e_dims(dims)
    started = time.perf_counter()
    n, alpha = dims.n, dims.alpha
    den, rows = _ke_row_products(dims)
    near: dict = {}
    far: dict = {}   # negated
    for d, prod_g, prod_q in rows:
        _scatter(near, prod_g, d + 2)
        _scatter(far, prod_q, d)
    k = min([*near, *far])
    if k < alpha:
        raise ArithmeticError(f"lambda-2 table: power {k} below alpha")
    pieces = []
    for rate, sign, nums in ((n - 1, 1, near), (n, -1, far)):
        powers = tuple(k for k in sorted(nums) if nums[k])
        pieces.append(_ExpPiece(rate, powers, tuple(Fraction(sign * nums[k], den) for k in powers)))
    _log_build("lambda-2", dims, [p.fracs for p in pieces], started)
    return tuple(pieces)


@functools.cache
def _lambda2_mix(dims: Dims) -> _GammaMix:
    """The second-smallest-eigenvalue law as a Gamma mixture at rate n.

    Its pieces are exp(-n x) [exp(x) near(x) + far(x)] = exp(-n x) sum_k
    c_k x^k, c_k = far_k + sum_j near_j / (k - j)!, so w_k = c_k k! / n^(k+1)
    has the numerator far_k k! + sum_j near_j k! / (k - j)! over den, by
    Horner in j.  Past the top power only the near piece adds; the weights
    stop at the first K there whose exact remainder 1 - W_K is below
    10^-_WEIGHT_TAIL_DIGITS.  That every c_k >= 0 is measured, not proved:
    a negative one, or a remainder below 0 or that does not fall, raises
    ArithmeticError.
    """
    started = time.perf_counter()
    n = dims.n
    near, far = _lambda2_law(dims)
    den = math.lcm(*(c.denominator for piece in (near, far) for c in piece.fracs))
    near_c = dict(zip(near.powers, near.fracs))
    near_nums = [int(den * near_c.get(j, 0)) for j in range(max(near.powers) + 1)]
    far_nums = {k: int(den * c) for k, c in zip(far.powers, far.fracs)}
    top = max(len(near_nums) - 1, *far.powers)
    nums, run, scale, fact = [], 0, den, 1    # 1 - W_k = (scale - run) / scale
    for k in range(64 * (top + 1)):
        fact *= max(k, 1)
        h = 0
        for j in range(min(k, len(near_nums) - 1), -1, -1):
            h = h * (k - j) + near_nums[j]
        nums.append(far_nums.get(k, 0) * fact + h)
        run, scale = run * n + nums[-1], scale * n
        if k > top and 0 <= (scale - run) * 10 ** _WEIGHT_TAIL_DIGITS < scale:
            break
    else:
        raise ArithmeticError(f"lambda-2 weights: mass past power {k} is {1 - run / scale:.3g}")
    _log_build("lambda-2 weights", dims, [nums], started)
    return _gamma_mix(n, den, nums)


def pdf_lambda2_grid(xs, dims: Dims) -> np.ndarray:
    """Density of the second-smallest eigenvalue on a grid: its two pieces,
    which cancel near x = 0, where the one-rate weights take over."""
    return _exp_law_density(_lambda2_law(dims), _lambda2_mix(dims), xs, "lambda-2 density")


def mgf_kappa_e(s, dims: Dims):
    """Moment generating function E[exp(-s * kappa_e^2)] for s >= 0, at a
    scalar s (a float) or on an array of s (an array, sharing node work).

    At s = 0 this is the total mass of the law and returns exactly 1.0.
    For s > 0 the value comes from quadrature to a relative 1e-9.
    """
    return _law_mgf(_trace_ratio_law(METRIC_KAPPA_E, dims), s, "kappa-e mgf")


# ---------------------------------------------------------------------------
# trace-ratio laws from eigenvalue laws


@functools.cache
def _trace_ratio_law(metric: str, dims: Dims) -> tuple:
    """The kappa-d or kappa-e law, the image of the smallest- or second-
    smallest-eigenvalue law under the pair of the module docstring.

    kappa-d has one rate, n.  kappa-e has two: the image A(T) of the
    rate-(n - 1) piece, T = y - n + 1, is the near piece on (n - 1, n];
    past n, A(S + 1), S = y - n, adds to the image of the rate-n piece.
    With a[k] (mn-1)! / k! the coefficient of T^k, [S^p] A(S + 1) is
    (mn-1)! / kmax! C(kmax, p) h_p, h_p = sum_k a[k] (kmax - p)! / (k - p)!
    by Horner in k.  Every coefficient is an integer over one common
    denominator; a negative one in the last piece, on (edge, inf), raises
    ArithmeticError.
    """
    started = time.perf_counter()
    eig = _lambda_min_law(dims) if metric == METRIC_KAPPA_D else _lambda2_law(dims)
    mn = dims.mn
    top = mn - 1
    den = math.lcm(*(c.denominator for piece in eig for c in piece.fracs))
    # per rate, a[p] (mn-1)! / p! / den is the coefficient of (y - rate)^p
    (edge, a), *rest = [(rate, {top - 1 - k: c.numerator * (den // c.denominator)
                                for k, c in zip(powers, fracs)}) for rate, powers, fracs in eig]
    nums = {p: math.perm(top, top - p) * c for p, c in a.items()}
    pieces = []
    if rest:
        (rate, b), = rest   # kappa-e: the rate-n image, one above edge
        pieces.append((edge, float(rate), nums))
        kmin, kmax = min(a), max(a)
        lead = math.perm(top, top - kmax)
        binom = 1
        nums = {}
        for p in range(kmax + 1):
            h = 0
            for k in range(max(p, kmin), kmax + 1):
                h = h * (k - p) + a.get(k, 0)
            nums[p] = lead * binom * h
            binom = binom * (kmax - p) // (p + 1)
        for p, c in b.items():
            nums[p] = nums.get(p, 0) + math.perm(top, top - p) * c
        nums = {p: c for p, c in nums.items() if c}
        edge = rate
    for p, c in nums.items():
        if c < 0:
            raise ArithmeticError(f"{metric} table: negative coefficient at power {p}")
    pieces.append((edge, math.inf, nums))
    law = tuple(_EdgePowerTable(mn, lo, hi, tuple(terms),
                                tuple(Fraction(c, den) for c in terms.values()))
                for lo, hi, terms in pieces)
    _log_build(metric, dims, [t.fracs for t in law], started)
    return law


# ---------------------------------------------------------------------------
# cumulative distributions


def cdf_kappa_d_interp(dims: Dims, y_max: float | None = None):
    """Exact vectorized CDF of the kappa-d metric: a finite binomial sum in
    t = 1 - n/y, on all of (0, inf].  y_max limits nothing; it is accepted
    for callers that still pass it."""
    return _law_cdf(_kd_law(dims))


def cdf_kappa_e_interp(dims: Dims):
    """Exact vectorized CDF of the kappa-e metric, the sum of the near
    piece's CDF at min(y, n) and the tail piece's."""
    return _law_cdf(_trace_ratio_law(METRIC_KAPPA_E, dims))


def cdf_lambda_min_interp(dims: Dims):
    """Exact vectorized CDF of the smallest eigenvalue, a finite Poisson sum
    over its Gamma weights, which must all be positive (_GammaMix.cdf)."""
    return _lambda_min_mix(dims).cdf


def cdf_lambda2_interp(dims: Dims):
    """Exact vectorized CDF of the second-smallest eigenvalue, a Poisson sum
    over its one-rate Gamma weights (_lambda2_mix, _GammaMix.cdf)."""
    return _lambda2_mix(dims).cdf
