"""Exact finite-dimension densities and moment generating functions.

The two condition metrics of a complex Wishart matrix W = A* A (A of size
m x n with independent standard complex Gaussian entries, alpha = m - n)
studied here are

* kappa-d squared: trace(W) / smallest eigenvalue,
* kappa-e squared: trace(W) / second-smallest eigenvalue,

together with the densities of the smallest and second-smallest eigenvalues
themselves.  Every density is a finite combination of terms

    coeff * (y - edge)^power * y^(-mn),   y > edge,

with exactly rational coefficients built out of factorials; the tables of
(edge, power, coeff) are precomputed per dimension as exact fractions and
only converted to sign/log form at evaluation time.  The smallest-
eigenvalue density is a polynomial times exp(-n x), whose coefficients come
exactly from the same Fraction polynomial algebra as the kappa-e
determinant.  The kappa-e metric additionally carries one finite integral
over an auxiliary variable z in (0, 1), evaluated with adaptive
Gauss-Legendre quadrature.

Densities of the eigenvalue metrics convert to densities of the trace
ratios through an inverse-Laplace step: the only transform pair needed is
exp(-a s) s^(-k) -> (y - a)^(k-1) / Gamma(k) on y > a, exposed as
laplace_inv_shifted_power and reused for both metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .detkit import det_signedlog, iter_index_boxes, vandermonde, vandermonde_int
from .numkit import (
    DOUBLE,
    FPoly,
    NumericContext,
    SignedLog,
    fpoly_det,
    fpoly_split_det,
    integrate_finite,
    integrate_semi_infinite,
    laguerre_coeff_fractions,
    laguerre_eval,
    pochhammer_int,
    signed_log_sum,
)

log = logging.getLogger("wishartcond")

METRIC_KAPPA_D = "kappa-d"
METRIC_KAPPA_E = "kappa-e"
METRIC_LAMBDA_MIN = "lambda-min"
METRIC_LAMBDA_2 = "lambda-2"
METRICS = (METRIC_KAPPA_D, METRIC_KAPPA_E, METRIC_LAMBDA_MIN, METRIC_LAMBDA_2)

DEFAULT_ALPHA_CAP_KAPPA_D = 4
DEFAULT_ALPHA_CAP_KAPPA_E = 3
EXTENDED_N_THRESHOLD = 12
DEFAULT_DPS = 40


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


@dataclass(frozen=True)
class EigenSpectrum:
    """Ascending eigenvalues of one matrix sample."""

    values: np.ndarray
    dims: Dims

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) != self.dims.n:
            raise ValueError("need one eigenvalue per column dimension")
        scale = max(1.0, float(vals.max(initial=0.0)))
        if np.any(vals < -1e-10 * scale):
            raise ValueError("eigenvalues of a Gram matrix cannot be negative")
        vals = np.maximum(vals, 0.0)
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "values", vals)


@dataclass
class DensityCurve:
    """A density sampled on a grid, with enough metadata to reproduce it."""

    metric: str
    kind: str  # "exact" or "asymptotic"
    grid: np.ndarray
    values: np.ndarray
    dims: Dims | None = None
    mu: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.kind not in ("exact", "asymptotic"):
            raise ValueError("kind must be 'exact' or 'asymptotic'")
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have one value per point")


def resolve_context(dims: Dims, precision: str = "auto", dps: int = DEFAULT_DPS,
                    force_extended: bool = False, mixed_signs: bool = True) -> NumericContext:
    """Pick the numeric backend for an exact-density evaluation.

    Auto escalation only matters when the coefficient table mixes signs; a
    single-signed table cannot cancel, so callers that know their table is
    one-signed pass mixed_signs=False and stay on the fast double path.
    """
    if precision == "double":
        return DOUBLE
    if precision == "extended":
        return NumericContext(dps)
    if precision != "auto":
        raise ValueError("precision must be 'auto', 'double' or 'extended'")
    if (dims.n > EXTENDED_N_THRESHOLD and mixed_signs) or force_extended:
        log.info("switching to extended precision (%d digits) for n=%d alpha=%d",
                 dps, dims.n, dims.alpha)
        return NumericContext(dps)
    return DOUBLE


# ---------------------------------------------------------------------------
# joint eigenvalue density and spectrum metrics


def joint_eigen_density(lams, dims: Dims, ctx: NumericContext = DOUBLE) -> float:
    """Joint density of the (unordered) eigenvalue vector at `lams`."""
    lams = [float(x) for x in lams]
    if len(lams) != dims.n:
        raise ValueError("need one eigenvalue per column dimension")
    if any(x < 0 for x in lams):
        raise ValueError("eigenvalues must be nonnegative")
    with ctx.workprec():
        norm = Fraction(math.factorial(dims.n))
        for j in range(dims.n):
            norm /= math.factorial(j + 1) * math.factorial(j + dims.alpha)
        value = SignedLog.from_fraction(norm, ctx)
        value = value * vandermonde(lams, ctx).pow_int(2)
        for x in lams:
            if x == 0:
                if dims.alpha > 0:
                    return 0.0
            else:
                value = value.scaled_by_log(dims.alpha * ctx.log(ctx.real(x)))
            value = value.scaled_by_log(-ctx.real(x))
        return float(value.to_real())


def metric_from_spectrum(spectrum: EigenSpectrum, metric: str) -> float:
    """Scalar condition metric of one spectrum."""
    v = spectrum.values
    total = float(v.sum())
    if metric == METRIC_KAPPA_D:
        if v[0] <= 0:
            raise ZeroDivisionError("smallest eigenvalue is zero")
        return total / float(v[0])
    if metric == METRIC_KAPPA_E:
        if len(v) < 2:
            raise ValueError("second-smallest eigenvalue needs n >= 2")
        if v[1] <= 0:
            raise ZeroDivisionError("second-smallest eigenvalue is zero")
        return total / float(v[1])
    if metric == METRIC_LAMBDA_MIN:
        return float(v[0])
    if metric == METRIC_LAMBDA_2:
        if len(v) < 2:
            raise ValueError("second-smallest eigenvalue needs n >= 2")
        return float(v[1])
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# inverse Laplace kernel


def laplace_inv_shifted_power(a: float, k: float, y: float,
                              ctx: NumericContext = DOUBLE) -> SignedLog:
    """Inverse transform of exp(-a s) s^(-k) at y: (y-a)^(k-1)/Gamma(k), y > a."""
    if k <= 0:
        raise ValueError("power must be positive")
    if y < a or (y == a and k > 1):
        return SignedLog.zero()
    if y == a:  # k == 1 exactly at the edge
        return SignedLog(1, -ctx.lgamma(k))
    return SignedLog(1, (k - 1) * ctx.log(ctx.real(y - a)) - ctx.lgamma(k))


def density_from_laplace_terms(terms, mn: int, y: float,
                               ctx: NumericContext = DOUBLE) -> SignedLog:
    """Gamma(mn) y^(-mn) * sum_j c_j * L^{-1}{exp(-a_j s) s^(d_j - mn + 1)}(y).

    `terms` is an iterable of (shift, s_power, coeff) triples describing a
    Laplace-domain function sum_j c_j exp(-a_j s) s^(d_j); this is the shared
    step that turns an eigenvalue density into a trace-ratio density.
    """
    parts = []
    for shift, s_power, coeff in terms:
        k = mn - 1 - s_power
        parts.append(coeff * laplace_inv_shifted_power(shift, k, y, ctx))
    total = signed_log_sum(parts)
    return total.scaled_by_log(ctx.lgamma(mn) - mn * ctx.log(ctx.real(y)))


# ---------------------------------------------------------------------------
# edge power tables
#
# Σ coeff * (y - edge)^power * y^(-mn) with exact Fraction coefficients.


@dataclass(frozen=True)
class _EdgePowerTable:
    mn: int
    edges: tuple
    powers: tuple
    fracs: tuple

    def realize(self, ctx: NumericContext):
        if ctx.extended:
            return [SignedLog.from_fraction(f, ctx) for f in self.fracs]
        signs = np.array([1 if f > 0 else (-1 if f < 0 else 0) for f in self.fracs], dtype=float)
        logs = np.array(
            [0.0 if f == 0 else float(DOUBLE.log_int(abs(f.numerator)) - DOUBLE.log_int(f.denominator))
             for f in self.fracs]
        )
        return signs, logs

    def eval_grid(self, ys: np.ndarray, ctx: NumericContext) -> np.ndarray:
        """Density values on a grid (double path is vectorized)."""
        ys = np.asarray(ys, dtype=float)
        out = np.zeros_like(ys)
        edges = np.array(self.edges, dtype=float)
        powers = np.array(self.powers, dtype=float)
        if not ctx.extended:
            signs, logs = self.realize(ctx)
            for i, y in enumerate(ys):
                mask = (y > edges) & (signs != 0)
                if not mask.any():
                    continue
                t = logs[mask] + powers[mask] * np.log(y - edges[mask]) - self.mn * math.log(y)
                shift = t.max()
                acc = float(np.dot(signs[mask], np.exp(t - shift)))
                out[i] = acc * math.exp(shift) if acc != 0.0 else 0.0
            return out
        with ctx.workprec():
            coeffs = self.realize(ctx)
            for i, y in enumerate(ys):
                terms = []
                for c, edge, p in zip(coeffs, self.edges, self.powers):
                    if y <= edge or c.sign == 0:
                        continue
                    terms.append(c.scaled_by_log(p * ctx.log(ctx.real(y - edge)) - self.mn * ctx.log(ctx.real(y))))
                total = signed_log_sum(terms)
                out[i] = float(total.to_real()) if total.sign else 0.0
        return out


def _lagneg(deg: int, rho: int) -> FPoly:
    """L_deg^(rho)(-w) in w: (deg+rho)! / ((deg-j)! j! (rho+j)!), all positive.
    deg < 0 -> zero."""
    return FPoly(rho, tuple(math.perm(deg + rho, rho + j) for j in range(deg + 1)))


# ---------------------------------------------------------------------------
# smallest eigenvalue and kappa-d


_MIN_EIG_CACHE: dict = {}


def _min_eig_fracs(dims: Dims) -> list[Fraction]:
    """Exact coefficients c_d of the smallest-eigenvalue density
    sum_d c_d x^(d + alpha) exp(-n x).

    The polynomial is n! / (n + alpha - 1)! times the determinant of an
    alpha x alpha matrix of Laguerre polynomials taken at negated argument.
    """
    key = (dims.n, dims.alpha)
    if key not in _MIN_EIG_CACHE:
        n, alpha = dims.n, dims.alpha
        det = fpoly_det([[_lagneg(n + k - l - 1, l + 1) for l in range(1, alpha + 1)]
                         for k in range(1, alpha + 1)])
        lead = Fraction(math.factorial(n), math.factorial(n + alpha - 1))
        _MIN_EIG_CACHE[key] = [lead * c for c in det.fractions()]
    return _MIN_EIG_CACHE[key]


def pdf_lambda_min_grid(xs, dims: Dims, precision: str = "auto",
                        dps: int = DEFAULT_DPS) -> np.ndarray:
    """Density of the smallest eigenvalue on a grid of points."""
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    ctx = resolve_context(dims, precision, dps,
                          mixed_signs=any(c < 0 for c in _min_eig_fracs(dims)))
    xs = np.asarray(xs, dtype=float)
    n, alpha = dims.n, dims.alpha
    with ctx.workprec():
        coeffs = [SignedLog.from_fraction(c, ctx) for c in _min_eig_fracs(dims)]
        out = np.zeros_like(xs)
        if not ctx.extended:
            signs = np.array([c.sign for c in coeffs], dtype=float)
            logs = np.array([float(c.logmag) if c.sign else 0.0 for c in coeffs])
            degs = np.arange(len(coeffs), dtype=float)
            for i, x in enumerate(xs):
                if x <= 0:
                    continue
                t = logs + (degs + alpha) * math.log(x) - n * x
                mask = signs != 0
                shift = t[mask].max()
                acc = float(np.dot(signs[mask], np.exp(t[mask] - shift)))
                out[i] = acc * math.exp(shift) if acc != 0.0 else 0.0
        else:
            for i, x in enumerate(xs):
                if x <= 0:
                    continue
                lx = ctx.log(ctx.real(x))
                terms = [c.scaled_by_log((d + alpha) * lx - n * ctx.real(x))
                         for d, c in enumerate(coeffs) if c.sign]
                out[i] = float(signed_log_sum(terms).to_real())
        return out


def pdf_lambda_min(x: float, dims: Dims, precision: str = "auto",
                   dps: int = DEFAULT_DPS) -> float:
    return float(pdf_lambda_min_grid(np.array([x]), dims, precision, dps)[0])


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
    for jvec in iter_index_boxes(bounds):
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
    edges, powers, fracs = [], [], []
    for r, a in enumerate(acc):
        if a == 0:
            continue
        edges.append(n)
        powers.append(mn - alpha - 2 - r)
        fracs.append(front * a / math.factorial(mn - alpha - 2 - r))
    return _EdgePowerTable(mn, tuple(edges), tuple(powers), tuple(fracs))


def _kd_closed_table(dims: Dims) -> _EdgePowerTable:
    """Closed-form coefficient table for the kappa-d density, alpha in {0, 1}."""
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    if alpha == 0:
        frac = Fraction(n * (n * n - 1))
        return _EdgePowerTable(mn, (n,), (n * n - 2,), (frac,))
    if alpha == 1:
        edges, powers, fracs = [], [], []
        front = Fraction(math.factorial(mn - 1) * n * (n + 1), 2)
        for i in range(n):
            c = front * Fraction(
                (-1) ** i * pochhammer_int(-n + 1, i),
                pochhammer_int(3, i) * math.factorial(i) * math.factorial(mn - i - 3),
            )
            edges.append(n)
            powers.append(mn - 3 - i)
            fracs.append(c)
        return _EdgePowerTable(mn, tuple(edges), tuple(powers), tuple(fracs))
    raise ValueError("closed mode covers alpha 0 and 1 only")


_KD_TABLE_CACHE: dict = {}


def _kd_table(dims: Dims, mode: str) -> _EdgePowerTable:
    key = (dims.n, dims.alpha, mode)
    if key not in _KD_TABLE_CACHE:
        if mode == "nested":
            _KD_TABLE_CACHE[key] = _kd_nested_table(dims)
        else:
            _KD_TABLE_CACHE[key] = _kd_closed_table(dims)
    return _KD_TABLE_CACHE[key]


def pdf_kappa_d_grid(ys, dims: Dims, mode: str = "auto", precision: str = "auto",
                     dps: int = DEFAULT_DPS, alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_D) -> np.ndarray:
    """Density of trace / smallest eigenvalue on a grid.  Support is y > n."""
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    if mode == "auto":
        mode = "closed" if dims.alpha <= 1 else "theorem"
    if mode == "theorem":
        if dims.alpha > alpha_cap:
            raise ValueError(
                f"alpha={dims.alpha} above the nested-sum cap {alpha_cap}; raise alpha_cap "
                "if the term count is acceptable")
        table = _kd_table(dims, "nested")
    elif mode == "closed":
        table = _kd_table(dims, "closed")
    else:
        raise ValueError("mode must be 'auto', 'theorem' or 'closed'")
    mixed = any(f < 0 for f in table.fracs) and any(f > 0 for f in table.fracs)
    ctx = resolve_context(dims, precision, dps, mixed_signs=mixed)
    with ctx.workprec():
        return table.eval_grid(np.asarray(ys, dtype=float), ctx)


def pdf_kappa_d(y: float, dims: Dims, mode: str = "auto", precision: str = "auto",
                dps: int = DEFAULT_DPS, alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_D) -> float:
    return float(pdf_kappa_d_grid(np.array([y]), dims, mode, precision, dps, alpha_cap)[0])


def pdf_via_min_connection(y: float, dims: Dims, precision: str = "auto",
                           dps: int = DEFAULT_DPS) -> float:
    """kappa-d density through the smallest-eigenvalue route.

    The smallest-eigenvalue density is a polynomial times exp(-n x); pushing
    that representation through the shared inverse-Laplace step must agree
    with the direct density, which makes this an end-to-end cross-check of
    both pipelines.
    """
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    ctx = resolve_context(dims, precision, dps)
    n, alpha = dims.n, dims.alpha
    with ctx.workprec():
        terms = [(n, d + alpha, SignedLog.from_fraction(c, ctx))
                 for d, c in enumerate(_min_eig_fracs(dims)) if c]
        val = density_from_laplace_terms(terms, dims.mn, y, ctx)
        return float(val.to_real()) if val.sign else 0.0


def mgf_kappa_d(s: float, dims: Dims, rtol: float = 1e-9) -> float:
    """Moment generating function E[exp(-s * kappa_d^2)] for s >= 0.

    At s = 0 this is the total mass of the law and returns exactly 1.0.
    For s > 0 the value comes from quadrature and carries its ``rtol``.
    """
    if s < 0:
        raise ValueError("s must be >= 0 (the trace ratio has a heavy right tail)")
    if dims.n < 2:
        raise ValueError("n must be >= 2")
    if s == 0:
        return 1.0
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    coeff_arrays = []
    for k in range(1, alpha + 1):
        row = []
        for l in range(1, alpha + 1):
            deg = n + k - l - 1
            if deg < 0:
                row.append(np.zeros(1))
            else:
                # L at negated argument: all coefficients positive
                row.append(np.array([abs(float(c)) for c in laguerre_coeff_fractions(deg, l + 1)]))
        coeff_arrays.append(row)

    def integrand(xs):
        xs = np.asarray(xs, dtype=float)
        base = (mn - 1) * np.log(xs) - n * xs - (mn - alpha - 1) * np.log(xs + s)
        if alpha == 0:
            dets = np.ones_like(xs)
        else:
            w = xs + s
            entries = np.empty((len(xs), alpha, alpha))
            for i in range(alpha):
                for j in range(alpha):
                    entries[:, i, j] = np.polynomial.polynomial.polyval(w, coeff_arrays[i][j])
            if alpha == 1:
                dets = entries[:, 0, 0]
            elif alpha == 2:
                dets = entries[:, 0, 0] * entries[:, 1, 1] - entries[:, 0, 1] * entries[:, 1, 0]
            else:
                dets = np.linalg.det(entries)
        vals = np.exp(base) * dets
        if not np.all(np.isfinite(vals)):
            raise OverflowError("mgf integrand left the double range; dimensions too large")
        return vals

    integral = integrate_semi_infinite(integrand, decay=n, rtol=rtol, vectorized=True)
    lead = math.exp(
        math.lgamma(n + 1) - math.lgamma(dims.m) - n * s)
    return lead * integral


# ---------------------------------------------------------------------------
# second-smallest eigenvalue and kappa-e
#
# The determinant whose rows mix Laguerre polynomials at argument -(s z)
# (first two columns) and -s (remaining alpha columns) expands into a
# bivariate polynomial sum_{d,e} c[d][e] s^d z^e, once per dimension and
# exactly (numkit.fpoly_split_det).


_KE_TABLE_CACHE: dict = {}


def _ke_bivariate_fracs(dims: Dims):
    """Exact bivariate coefficients c[d][e] of the kappa-e determinant.

    Returns (c, dmax, emax) with c a dict mapping (d, e) to a Fraction, d the
    power of s and e the power of z.
    """
    key = (dims.n, dims.alpha)
    if key in _KE_TABLE_CACHE:
        return _KE_TABLE_CACHE[key]
    n, alpha = dims.n, dims.alpha
    size = alpha + 2
    shift, nums = fpoly_split_det(
        [[_lagneg(n + i - j - 2, j + 1) for j in (1, 2)] for i in range(1, size + 1)],
        [[_lagneg(n + i - k, k - 1) for k in range(3, size + 1)] for i in range(1, size + 1)])
    c = {(d, e): Fraction(num, math.factorial(d) * math.factorial(d + shift))
         for d, row in enumerate(nums) for e, num in enumerate(row) if num}
    dmax = max(d for d, _ in c)
    emax = max(e for _, e in c)
    _KE_TABLE_CACHE[key] = (c, dmax, emax)
    return _KE_TABLE_CACHE[key]


def _ke_bivariate_w_fracs(dims: Dims):
    """Same determinant re-expanded around z = 1: coefficients of s^d w^e
    with w = 1 - z.

    As z -> 1 two of the z columns collide with two of the fixed columns and
    the determinant vanishes to order >= alpha; in this basis that
    cancellation happens exactly (the offending coefficients are zero
    fractions), which keeps the z-integral stable in double precision near
    the upper endpoint.
    """
    key = ("w", dims.n, dims.alpha)
    if key in _KE_TABLE_CACHE:
        return _KE_TABLE_CACHE[key]
    c, dmax, emax = _ke_bivariate_fracs(dims)
    cw: dict = {}
    for (d, e), f in c.items():
        for ep in range(e + 1):
            keyw = (d, ep)
            cw[keyw] = cw.get(keyw, Fraction(0)) + f * math.comb(e, ep) * (-1) ** ep
    cw = {k: v for k, v in cw.items() if v != 0}
    if dims.alpha > 0 and min(e for _, e in cw) < dims.alpha:
        raise ArithmeticError("determinant vanishes too slowly at z=1; table is wrong")
    dmaxw = max(d for d, _ in cw)
    emaxw = max(e for _, e in cw)
    _KE_TABLE_CACHE[key] = (cw, dmaxw, emaxw)
    return _KE_TABLE_CACHE[key]


def _check_kappa_e_dims(dims: Dims, alpha_cap: int):
    if dims.n < 3:
        raise ValueError("the second-smallest-eigenvalue metrics need n >= 3")
    if dims.alpha > alpha_cap:
        raise ValueError(
            f"alpha={dims.alpha} above the kappa-e cap {alpha_cap}; raise alpha_cap if "
            "the determinant size is acceptable")


_KE_REALIZED_CACHE: dict = {}


def _ke_realized(dims: Dims, basis: str, folded: bool):
    """Dense (signs, logs, dpow, epow) arrays for one bivariate table.

    basis "z" expands the determinant in powers of z, basis "w" in powers of
    w = 1 - z.  With folded=True each coefficient is divided by
    (mn - 5 - d)!, the factorial that the inverse-Laplace step attaches to
    the s^d term.
    """
    key = (dims.n, dims.alpha, basis, folded)
    if key in _KE_REALIZED_CACHE:
        return _KE_REALIZED_CACHE[key]
    c, dmax, emax = (_ke_bivariate_fracs(dims) if basis == "z"
                     else _ke_bivariate_w_fracs(dims))
    mn = dims.mn
    items = []
    for (d, e), frac in c.items():
        if folded:
            frac = frac / math.factorial(mn - 5 - d)
        items.append((d, e, frac))
    dpow = np.array([d for d, _, _ in items], dtype=float)
    epow = np.array([e for _, e, _ in items], dtype=float)
    signs = np.array([1.0 if f > 0 else -1.0 for _, _, f in items])
    logs = np.array([float(DOUBLE.log_int(abs(f.numerator)) - DOUBLE.log_int(f.denominator))
                     for _, _, f in items])
    out = (signs, logs, dpow, epow, dmax)
    _KE_REALIZED_CACHE[key] = out
    return out


_KE_SPLIT = 0.5  # z below: z-power table; z above: w-power table


def _ke_z_integral_double(y: float, dims: Dims, rtol: float) -> tuple[float, float]:
    """(log-scale shift, shifted z-integral) of the kappa-e kernel at y."""
    n = dims.n
    mn = dims.mn
    alpha = dims.alpha
    z0 = n - y if y < n else 0.0
    big = (mn - 5.0) * math.log(y - n + 1.0)  # magnitude anchor at z = 1
    total = 0.0

    if z0 < _KE_SPLIT:
        signs, logs, dpow, epow, _ = _ke_realized(dims, "z", True)

        def integrand_z(zs):
            zs = np.asarray(zs, dtype=float)
            lz = np.log(zs)
            lyz = np.log(y - n + zs)
            t = logs[None, :] + np.outer(lyz, mn - 5.0 - dpow) + np.outer(lz, epow) - big
            weight = 2.0 * lz - alpha * np.log1p(-zs)
            shift = t.max(axis=1)
            acc = np.einsum("ij,j->i", np.exp(t - shift[:, None]), signs)
            return acc * np.exp(shift + weight)

        total += integrate_finite(integrand_z, z0, _KE_SPLIT, rtol=rtol,
                                  order_cap=512, max_depth=30, vectorized=True)

    w_hi = min(_KE_SPLIT, 1.0 - z0)
    signs, logs, dpow, epow, _ = _ke_realized(dims, "w", True)

    def integrand_w(ws):
        ws = np.asarray(ws, dtype=float)
        lw = np.log(ws)
        lyz = np.log(y - n + 1.0 - ws)
        t = logs[None, :] + np.outer(lyz, mn - 5.0 - dpow) \
            + np.outer(lw, epow - alpha) - big
        weight = 2.0 * np.log1p(-ws)
        shift = t.max(axis=1)
        acc = np.einsum("ij,j->i", np.exp(t - shift[:, None]), signs)
        return acc * np.exp(shift + weight)

    total += integrate_finite(integrand_w, 0.0, w_hi, rtol=rtol,
                              order_cap=512, max_depth=30, vectorized=True)
    return big, total


def _ke_z_integral_extended(y: float, dims: Dims, ctx: NumericContext, rtol: float) -> tuple[float, float]:
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    c, dmax, emax = _ke_bivariate_fracs(dims)
    items = [(d, e, SignedLog.from_fraction(f / math.factorial(mn - 5 - d), ctx))
             for (d, e), f in c.items()]
    z0 = n - y if y < n else 0.0
    big = float((mn - 5) * ctx.log(ctx.real(y - n + 1.0)))

    def integrand(z):
        lz = ctx.log(ctx.real(z))
        lyz = ctx.log(ctx.real(y - n + z))
        terms = [c_sl.scaled_by_log((mn - 5 - d) * lyz + e * lz)
                 for d, e, c_sl in items]
        total = signed_log_sum(terms)
        if total.sign == 0:
            return 0.0
        lw = 2 * lz - alpha * ctx.log(ctx.real(1.0 - z))
        return float(total.sign * _exp_to_float(total.logmag + lw - big))

    val = integrate_finite(integrand, z0, 1.0, rtol=rtol, order_cap=512, max_depth=30)
    return big, val


def _exp_to_float(x) -> float:
    """exp of an mpmath log value as a double; underflow becomes 0.0."""
    return float(mpmath.exp(x))


def pdf_kappa_e_grid(ys, dims: Dims, precision: str = "auto", dps: int = DEFAULT_DPS,
                     alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_E, rtol: float = 1e-9) -> np.ndarray:
    """Density of trace / second-smallest eigenvalue.  Support is y > n - 1."""
    _check_kappa_e_dims(dims, alpha_cap)
    ctx = resolve_context(dims, precision, dps)
    ys = np.asarray(ys, dtype=float)
    mn = dims.mn
    out = np.zeros_like(ys)
    with ctx.workprec():
        for i, y in enumerate(ys):
            if y <= dims.n - 1:
                continue
            if ctx.extended:
                big, integral = _ke_z_integral_extended(y, dims, ctx, rtol)
            else:
                big, integral = _ke_z_integral_double(y, dims, rtol)
            if integral <= 0.0:
                out[i] = 0.0
                continue
            out[i] = math.exp(math.lgamma(mn) - mn * math.log(y) + big + math.log(integral))
    return out


def pdf_kappa_e(y: float, dims: Dims, precision: str = "auto", dps: int = DEFAULT_DPS,
                alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_E, rtol: float = 1e-9) -> float:
    return float(pdf_kappa_e_grid(np.array([y]), dims, precision, dps, alpha_cap, rtol)[0])


def _ke_closed_alpha0_table(dims: Dims) -> _EdgePowerTable:
    """Closed double-sum form of the kappa-e density at alpha = 0."""
    n = dims.n
    nn = n * n
    front = Fraction(math.factorial(nn - 1) * nn * (nn - 1), 12)
    edges, powers, fracs = [], [], []
    for i in range(n):
        for j in range(n - 1):
            if j + 1 - i == 0:
                continue
            cij = Fraction(
                pochhammer_int(-n + 1, i) * pochhammer_int(-n + 2, j)
                * (j + 1 - i) * math.factorial(i + j + 2),
                pochhammer_int(3, i) * pochhammer_int(4, j)
                * math.factorial(i) * math.factorial(j),
            )
            for k in range(i + j + 3):
                c = front * cij * Fraction(
                    (-1) ** (i + j + k),
                    math.factorial(i + j + 2 - k) * math.factorial(nn + k - i - j - 4),
                )
                edges.append(n - 1)
                powers.append(nn + k - i - j - 4)
                fracs.append(c)
            edges.append(n)
            powers.append(nn - 2)
            fracs.append(-front * cij / math.factorial(nn - 2))
    return _EdgePowerTable(nn, tuple(edges), tuple(powers), tuple(fracs))


def pdf_kappa_e_closed_alpha0_grid(ys, dims: Dims, precision: str = "auto",
                                   dps: int = DEFAULT_DPS) -> np.ndarray:
    """Quadrature-free kappa-e density for alpha = 0 (cross-check path)."""
    if dims.alpha != 0:
        raise ValueError("closed form covers alpha = 0 only")
    if dims.n < 3:
        raise ValueError("need n >= 3")
    key = ("ke0", dims.n)
    if key not in _KE_TABLE_CACHE:
        _KE_TABLE_CACHE[key] = _ke_closed_alpha0_table(dims)
    table = _KE_TABLE_CACHE[key]
    ctx = resolve_context(dims, precision, dps)
    with ctx.workprec():
        return table.eval_grid(np.asarray(ys, dtype=float), ctx)


def pdf_via_lambda2_connection(y: float, dims: Dims, precision: str = "auto",
                               dps: int = DEFAULT_DPS, rtol: float = 1e-9) -> float:
    """kappa-e density through the second-smallest-eigenvalue route.

    The eigenvalue density is, for each fixed z, a polynomial in s times
    exp(-(n - z) s); the generic inverse-Laplace operator is applied per z
    and the z integral is taken last.  Slower than the direct pipeline but
    orders the computation differently, which is the point.
    """
    _check_kappa_e_dims(dims, DEFAULT_ALPHA_CAP_KAPPA_E)
    ctx = resolve_context(dims, precision, dps)
    n, alpha = dims.n, dims.alpha
    mn = dims.mn
    if y <= n - 1:
        return 0.0
    with ctx.workprec():
        cz, _, _ = _ke_bivariate_fracs(dims)
        cw, _, _ = _ke_bivariate_w_fracs(dims)
        by_d_z: dict = {}
        for (d, e), f in cz.items():
            by_d_z.setdefault(d, []).append((e, SignedLog.from_fraction(f, ctx)))
        by_d_w: dict = {}
        for (d, e), f in cw.items():
            by_d_w.setdefault(d, []).append((e, SignedLog.from_fraction(f, ctx)))
        z0 = n - y if y < n else 0.0
        total = 0.0

        def f_at_z(z):
            lz = ctx.log(ctx.real(z))
            lwt = 2 * lz - alpha * ctx.log(ctx.real(1.0 - z))
            terms = []
            for d, entries in by_d_z.items():
                coeff = signed_log_sum([c_sl.scaled_by_log(e * lz) for e, c_sl in entries])
                terms.append((n - z, d + 3, coeff.scaled_by_log(lwt)))
            val = density_from_laplace_terms(terms, mn, y, ctx)
            return float(val.to_real()) if val.sign else 0.0

        def f_at_w(w):
            lw = ctx.log(ctx.real(w))
            lwt = 2 * ctx.log(ctx.real(1.0 - w)) - alpha * lw
            terms = []
            for d, entries in by_d_w.items():
                coeff = signed_log_sum([c_sl.scaled_by_log(e * lw) for e, c_sl in entries])
                terms.append((n - 1 + w, d + 3, coeff.scaled_by_log(lwt)))
            val = density_from_laplace_terms(terms, mn, y, ctx)
            return float(val.to_real()) if val.sign else 0.0

        if z0 < _KE_SPLIT:
            total += integrate_finite(f_at_z, z0, _KE_SPLIT, rtol=rtol,
                                      order_cap=512, max_depth=30)
        total += integrate_finite(f_at_w, 0.0, min(_KE_SPLIT, 1.0 - z0),
                                  rtol=rtol, order_cap=512, max_depth=30)
        return total


def _lambda2_z_integral(x: float, dims: Dims, rtol: float) -> float:
    """z-integral of the second-smallest-eigenvalue kernel at x > 0, in double.

    Below _KE_SPLIT it runs over the z-power table, above it over the
    w = 1 - z table, where the (1 - z)^(-alpha) weight cancels exactly.
    """
    alpha = dims.alpha
    signs_z, logs_z, dpow_z, epow_z, _ = _ke_realized(dims, "z", False)
    signs_w, logs_w, dpow_w, epow_w, _ = _ke_realized(dims, "w", False)
    lx = math.log(x)

    def integrand_z(zs):
        zs = np.asarray(zs, dtype=float)
        lz = np.log(zs)
        t = (logs_z + dpow_z * lx)[None, :] + np.outer(lz, epow_z)
        weight = 2.0 * lz - alpha * np.log1p(-zs) - (1.0 - zs) * x
        shift = t.max(axis=1)
        acc = np.einsum("ij,j->i", np.exp(t - shift[:, None]), signs_z)
        return acc * np.exp(shift + weight)

    def integrand_w(ws):
        ws = np.asarray(ws, dtype=float)
        lw = np.log(ws)
        t = (logs_w + dpow_w * lx)[None, :] + np.outer(lw, epow_w - alpha)
        weight = 2.0 * np.log1p(-ws) - ws * x
        shift = t.max(axis=1)
        acc = np.einsum("ij,j->i", np.exp(t - shift[:, None]), signs_w)
        return acc * np.exp(shift + weight)

    return (integrate_finite(integrand_z, 0.0, _KE_SPLIT, rtol=rtol,
                             order_cap=512, max_depth=30, vectorized=True)
            + integrate_finite(integrand_w, 0.0, _KE_SPLIT, rtol=rtol,
                               order_cap=512, max_depth=30, vectorized=True))


def pdf_lambda2_grid(xs, dims: Dims, precision: str = "auto", dps: int = DEFAULT_DPS,
                     alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_E, rtol: float = 1e-9) -> np.ndarray:
    """Density of the second-smallest eigenvalue on a grid."""
    _check_kappa_e_dims(dims, alpha_cap)
    ctx = resolve_context(dims, precision, dps)
    xs = np.asarray(xs, dtype=float)
    n, alpha = dims.n, dims.alpha
    out = np.zeros_like(xs)
    size = alpha + 2
    if not ctx.extended:
        for idx, x in enumerate(xs):
            if x > 0:
                out[idx] = x**3 * math.exp(-(n - 1) * x) * _lambda2_z_integral(x, dims, rtol)
        return out
    with ctx.workprec():
        for idx, x in enumerate(xs):
            if x <= 0:
                continue

            def integrand(z):
                mat = []
                for i in range(1, size + 1):
                    row = []
                    for j in (1, 2):
                        deg = n + i - j - 2
                        row.append(laguerre_eval(deg, j + 1, -x * z, ctx)
                                   if deg >= 0 else SignedLog.zero())
                    for k in range(3, size + 1):
                        deg = n + i - k
                        row.append(laguerre_eval(deg, k - 1, -x, ctx)
                                   if deg >= 0 else SignedLog.zero())
                    mat.append(row)
                det = det_signedlog(mat)
                if det.sign == 0:
                    return 0.0
                lw = 2 * ctx.log(ctx.real(z)) - alpha * ctx.log(ctx.real(1.0 - z)) \
                    - (1.0 - z) * ctx.real(x)
                return float(det.sign * _exp_to_float(det.logmag + lw))

            zint = integrate_finite(integrand, 0.0, 1.0, rtol=rtol, order_cap=512, max_depth=30)
            out[idx] = float(_exp_to_float(
                3 * ctx.log(ctx.real(x)) - (n - 1) * ctx.real(x) + ctx.log(ctx.real(zint))
            )) if zint > 0 else 0.0
    return out


def pdf_lambda2(x: float, dims: Dims, precision: str = "auto", dps: int = DEFAULT_DPS,
                alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_E, rtol: float = 1e-9) -> float:
    return float(pdf_lambda2_grid(np.array([x]), dims, precision, dps, alpha_cap, rtol)[0])


def _exp_tail(order: int, x: float) -> float:
    """sum_{t >= order} (-x)^t / t!, the remainder of the exp(-x) series."""
    if x < 0.75 * order:
        term = (-x) ** order / math.factorial(order)
        total = term
        t = order
        while abs(term) > 1e-20 * max(abs(total), 1e-300):
            t += 1
            term *= -x / t
            total += term
        return total
    partial = 0.0
    for t in range(order):
        partial += (-x) ** t / math.factorial(t)
    return math.exp(-x) - partial


def pdf_lambda2_closed_alpha0_grid(xs, dims: Dims) -> np.ndarray:
    """Quadrature-free second-smallest-eigenvalue density at alpha = 0."""
    if dims.alpha != 0:
        raise ValueError("closed form covers alpha = 0 only")
    if dims.n < 3:
        raise ValueError("need n >= 3")
    n = dims.n
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    coeffs = []
    for i in range(n):
        for j in range(n - 1):
            if j + 1 - i == 0:
                continue
            cij = Fraction(
                pochhammer_int(-n + 1, i) * pochhammer_int(-n + 2, j)
                * (j + 1 - i) * math.factorial(i + j + 2),
                pochhammer_int(3, i) * pochhammer_int(4, j)
                * math.factorial(i) * math.factorial(j),
            )
            coeffs.append((i, j, float(cij)))
    lead = n * n * (n * n - 1) / 12.0
    for idx, x in enumerate(xs):
        if x <= 0:
            continue
        acc = 0.0
        for i, j, cij in coeffs:
            # partial exp series minus exp(-x) = -(series tail)
            acc += cij * (-_exp_tail(i + j + 3, x))
        out[idx] = lead * math.exp(-(n - 1) * x) * acc
    return out


def _decay_cutoff(p: float, decay: float, margin: float = 50.0) -> float:
    """Upper limit X with x^p exp(-decay x) below exp(-margin) of its peak.

    Integrating the smooth integrand on (0, X) directly is much cheaper than
    mapping the half line, which trades the tail for endpoint log powers.
    """
    if decay <= 0:
        raise ValueError("decay must be positive")
    peak = p / decay if p > 0 else 0.0
    log_peak = p * math.log(peak) - p if p > 0 else 0.0
    x = max(peak, 1.0) * 1.5 + 1.0
    while p * math.log(x) - decay * x > log_peak - margin:
        x *= 1.3
    return x


def mgf_kappa_e(s: float, dims: Dims, rtol: float = 1e-9,
                alpha_cap: int = DEFAULT_ALPHA_CAP_KAPPA_E) -> float:
    """Moment generating function E[exp(-s * kappa_e^2)] for s >= 0.

    At s = 0 this is the total mass of the law and returns exactly 1.0.
    For s > 0 the value comes from quadrature and carries its ``rtol``.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    _check_kappa_e_dims(dims, alpha_cap)
    if s == 0:
        return 1.0
    n = dims.n
    mn = dims.mn
    dpow_z = _ke_realized(dims, "z", False)[2]

    def outer(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            X = x + s
            val = _lambda2_z_integral(X, dims, rtol)
            out[i] = math.exp((mn - 1) * math.log(x) - (n - 1) * x
                              - (mn - 4) * math.log(X)) * val
        if not np.all(np.isfinite(out)):
            raise OverflowError("mgf integrand left the double range; dimensions too large")
        return out

    cutoff = _decay_cutoff(mn + float(dpow_z.max()), float(n - 1))
    integral = integrate_finite(outer, 0.0, cutoff, rtol=rtol, vectorized=True)
    return math.exp(-s * (n - 1)) * integral


# ---------------------------------------------------------------------------
# multi-eigenvalue moment integrals (tiny-n oracles and their closed forms)
#
# q_integral(n, alpha, z)  = int over [0, inf)^n of
#     Delta_n^2(y) prod y_j^2 exp(-y_j) (z - y_j)^alpha dy
# r_integral(n, a, b, alpha) adds the factor prod (a - y_j)^2 (b - y_j)^alpha.
# Direct tensor-product Gauss-Laguerre is exact for these polynomial-times-
# weight integrands at tiny n and serves as the oracle; the closed forms
# reduce them to determinants of Laguerre values.


def _laggauss_grid(n: int, order: int = 24):
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    w = weights
    for _ in range(n - 1):
        w = np.multiply.outer(w, weights)
    return grids, w


def q_integral_oracle(n: int, alpha: int, z: float) -> float:
    """Direct n-dimensional quadrature; exact for polynomial integrands."""
    if n > 3:
        raise ValueError("oracle is for tiny n only")
    grids, w = _laggauss_grid(n)
    integrand = np.ones_like(w)
    for i in range(n):
        integrand = integrand * grids[i] ** 2 * (z - grids[i]) ** alpha
    for i in range(n):
        for j in range(i + 1, n):
            integrand = integrand * (grids[j] - grids[i]) ** 2
    return float((integrand * w).sum())


def q_closed(n: int, alpha: int, z: float) -> float:
    """Closed determinant form of the same multi-eigenvalue integral."""
    base = 1
    for j in range(n):
        base *= math.factorial(1 + j) * math.factorial(2 + j)
    if alpha == 0:
        return float(base)
    frac = Fraction((-1) ** (n * alpha) * base)
    for j in range(alpha):
        frac *= Fraction(math.factorial(n + j), math.factorial(j))
    mat = [[laguerre_eval(n + k - l, 2 + l, z) for l in range(alpha)]
           for k in range(alpha)]
    det = det_signedlog(mat)
    return float((SignedLog.from_fraction(frac) * det).to_real())


def r_integral_oracle(n: int, a: float, b: float, alpha: int) -> float:
    if n > 3:
        raise ValueError("oracle is for tiny n only")
    grids, w = _laggauss_grid(n)
    integrand = np.ones_like(w)
    for i in range(n):
        integrand = integrand * grids[i] ** 2 * (a - grids[i]) ** 2 * (b - grids[i]) ** alpha
    for i in range(n):
        for j in range(i + 1, n):
            integrand = integrand * (grids[j] - grids[i]) ** 2
    return float((integrand * w).sum())


def r_closed(n: int, a: float, b: float, alpha: int) -> float:
    if a == b:
        raise ValueError("need distinct a and b")
    frac = Fraction((-1) ** (n * alpha))
    for j in range(n):
        frac *= math.factorial(j + 1) * math.factorial(j + 2)
    for j in range(alpha + 2):
        frac *= math.factorial(n + j)
    for j in range(alpha):
        frac /= math.factorial(j)
    size = alpha + 2
    mat = []
    for i in range(1, size + 1):
        row = []
        for j in (1, 2):
            deg = n + i - j
            row.append(laguerre_eval(deg, j + 1, a) if deg >= 0 else SignedLog.zero())
        for k in range(3, size + 1):
            deg = n + i - k + 2
            row.append(laguerre_eval(deg, k - 1, b) if deg >= 0 else SignedLog.zero())
        mat.append(row)
    det = det_signedlog(mat)
    scale = SignedLog.from_real(a - b).pow_int(-2 * alpha)
    return float((SignedLog.from_fraction(frac) * scale * det).to_real())


# ---------------------------------------------------------------------------
# cumulative distributions (compactified grids, reused by the sampler checks)


def _cum_panels(pdf_grid_fn, knots: np.ndarray, order: int = 12) -> np.ndarray:
    """Cumulative integral of a pdf at the given knots, panelwise GL."""
    from .numkit import gauss_legendre_rule

    rule = gauss_legendre_rule(order)
    los = knots[:-1]
    his = knots[1:]
    half = 0.5 * (his - los)
    mids = 0.5 * (his + los)
    xs = (mids[:, None] + half[:, None] * rule.nodes[None, :]).ravel()
    vals = pdf_grid_fn(xs).reshape(len(los), order)
    panel = (vals @ rule.weights) * half
    return np.concatenate([[0.0], np.cumsum(panel)])


def cdf_kappa_d_interp(dims: Dims, y_max: float, knots: int = 2000, **pdf_kwargs):
    """Returns a vectorized CDF of the kappa-d metric valid on (n, y_max].

    The grid lives in t = 1 - n/y, which compactifies the heavy tail.
    """
    n = dims.n
    t_max = 1.0 - n / y_max
    ts = np.linspace(0.0, t_max, knots)

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = n / (1.0 - tt)
        return pdf_kappa_d_grid(ys, dims, **pdf_kwargs) * n / (1.0 - tt) ** 2

    cum = _cum_panels(pdf_t, ts)

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        tt = 1.0 - n / np.maximum(ys, n * (1 + 1e-15))
        return np.interp(tt, ts, cum)

    return cdf


def cdf_kappa_e_interp(dims: Dims, y_max: float, knots: int = 320, **pdf_kwargs):
    """Vectorized CDF of the kappa-e metric on (n - 1, y_max]."""
    edge = dims.n - 1
    t_max = 1.0 - edge / y_max
    ts = np.linspace(0.0, t_max, knots)

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = edge / (1.0 - tt)
        return pdf_kappa_e_grid(ys, dims, **pdf_kwargs) * edge / (1.0 - tt) ** 2

    cum = _cum_panels(pdf_t, ts, order=8)

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        tt = 1.0 - edge / np.maximum(ys, edge * (1 + 1e-15))
        return np.interp(tt, ts, cum)

    return cdf


def cdf_lambda_min_interp(dims: Dims, x_max: float, knots: int = 1200, **pdf_kwargs):
    xs = np.linspace(0.0, x_max, knots)
    cum = _cum_panels(lambda g: pdf_lambda_min_grid(g, dims, **pdf_kwargs), xs)
    return lambda q: np.interp(np.asarray(q, dtype=float), xs, cum)


def cdf_lambda2_interp(dims: Dims, x_max: float, knots: int = 320, **pdf_kwargs):
    xs = np.linspace(0.0, x_max, knots)
    cum = _cum_panels(lambda g: pdf_lambda2_grid(g, dims, **pdf_kwargs), xs, order=8)
    return lambda q: np.interp(np.asarray(q, dtype=float), xs, cum)


def normalization_kappa_d(dims: Dims, **pdf_kwargs) -> float:
    """Total mass of the kappa-d density (should be 1)."""
    n = dims.n

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = n / (1.0 - tt)
        return pdf_kappa_d_grid(ys, dims, **pdf_kwargs) * n / (1.0 - tt) ** 2

    return integrate_finite(pdf_t, 0.0, 1.0, rtol=1e-10, vectorized=True)


def normalization_kappa_e(dims: Dims, **pdf_kwargs) -> float:
    edge = dims.n - 1

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = edge / (1.0 - tt)
        return pdf_kappa_e_grid(ys, dims, **pdf_kwargs) * edge / (1.0 - tt) ** 2

    return integrate_finite(pdf_t, 0.0, 1.0, rtol=1e-8, vectorized=True)


def normalization_lambda_min(dims: Dims, **pdf_kwargs) -> float:
    cutoff = _decay_cutoff(float(dims.mn), float(dims.n))
    return integrate_finite(
        lambda xs: pdf_lambda_min_grid(xs, dims, **pdf_kwargs),
        0.0, cutoff, rtol=1e-10, vectorized=True)


def normalization_lambda2(dims: Dims, **pdf_kwargs) -> float:
    cutoff = _decay_cutoff(float(dims.mn), float(max(dims.n - 1, 1)))
    return integrate_finite(
        lambda xs: pdf_lambda2_grid(xs, dims, **pdf_kwargs),
        0.0, cutoff, rtol=1e-8, vectorized=True)
