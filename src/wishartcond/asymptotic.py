"""Scaled large-dimension limits of the condition-number densities.

As m and n grow with alpha = m - n held fixed, both squared condition
metrics concentrate on the scale n^3, and V = metric / (mu n^3) has a
proper limiting density for every fixed mu > 0.  In U = 1/(mu V) each
limit law is a finite mixture of Gamma laws whose weights b_k are exact,
non-negative rationals that do not depend on mu:

* kappa-d: U ~ sum_k b_k Gamma(k + 1).  U has density e^{-u} det A(u),
  where A is the alpha x alpha matrix with entries
  A_kl = sum_j w(k, l, j) u^{(j+1-l)/2} I_{l+j+1}(2 sqrt u), the hard-edge
  Bessel determinant shape of Forrester & Hughes (J. Math. Phys. 35
  (1994) 6736).  Through I_nu(2 sqrt u) = sum_s u^{(nu+2s)/2} / (s! (s+nu)!)
  each entry is the series A_kl(u) = sum_p (p + l)^(k-1) u^(p+1) /
  (p! (p + l + 1)!), det A(u) = sum_k d_k u^k, and b_k = k! d_k.  At
  alpha = 0 the determinant is 1 and the law is Edelman's e^{-1/(mu v)}.

* kappa-e: U ~ sum_d b_d Gamma(d + 4).  U has density u^3 e^{-u} times the
  integral over z in (0, 1) of z^2 (1-z)^{-alpha} det M(z, u), where M is
  (alpha+2) x (alpha+2) with the same entries at t = u, except that its
  first two columns take them at t = z u.  The coefficient P_d(z) of u^d
  in det M vanishes to order 2 alpha at z = 1, so Q_d = P_d / (1-z)^alpha
  is a polynomial, the integral is its moment sum_k q_k / (k + 3) against
  z^2, and b_d = (d+3)! times that moment.

Each (law, alpha) weight list is built once, on first use, in exact
integer arithmetic (numkit.FPoly), and truncated at a degree past which no
term is visible in double.  The kappa-e build checks that every P_d divides
by (1-z)^{2 alpha} exactly.  Shifted by s = 0 (kappa-d) or 3 (kappa-e), the
weights make one numkit.GammaMix at rate 1.  With pois_i(u) = e^{-u} u^i /
i! and B_i = sum_{k+s < i} b_k, each weight and each 1 - B_i exact and
rounded once,

    pdf(v) = mu u^2 sum_k b_k pois_{k+s}(u),
    P(V <= v) = P(U >= u) = sum_i pois_i(u) (1 - B_i),

sums of positive terms with no quadrature, interpolation or cancellation,
summed by the recurrence of numkit.poisson_sum to a relative ~1e-15 up to
u = _u_reach (at most 258 at the alpha caps), where the density has fallen
below e^{-50} of its peak.  The probability 1 - sum_k b_k that the
truncation leaves out bounds the error of every CDF value
(cdf_v_error_bound), and mu u^2 times it bounds the error of the density.
"""

from __future__ import annotations

import logging
import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numkit import FPoly, GammaMix, divide_by_one_minus, fpoly_det, fpoly_split_det, gamma_mix

log = logging.getLogger("wishartcond")

KAPPA_D_ALPHA_CAP = 6
KAPPA_E_ALPHA_CAP = 4


@dataclass(frozen=True)
class ScaledParams:
    """Parameters of the scaled variable V = metric / (mu n^3)."""

    mu: float
    alpha: int

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, not {self.mu!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


# ---------------------------------------------------------------------------
# exact mixture tables


def _entry(row: int, family: int, deg: int) -> FPoly:
    """Entry (row, family) as a power series in t, through t^deg.

    The entry is sum_q w_q t^{(q-family-1)/2} I_{q+family+1}(2 sqrt t) with
    w_q = sum_pp S(pp, q) C(row-1, pp) family^(row-1-pp), S the Stirling
    numbers of the second kind.  Term q is sum_s t^{q+s} / (s! (q+s+family+1)!),
    so the coefficient of t^p is sum_q w_q p!/(p-q)! over p! (p+family+1)!;
    by sum_q S(pp, q) p!/(p-q)! = p^pp and the binomial theorem that
    numerator is (p + family)^(row-1).  The kappa-d entry A_kl(u) is u times
    entry (k, l) at t = u.
    """
    return FPoly(family + 1, tuple((p + family) ** (row - 1) for p in range(deg + 1)))


def _u_reach(columns: int) -> float:
    # the u-density decays like e^{-u + 2 c sqrt(u)} for c Bessel-bearing
    # columns; past this point it is below ~e^{-50} of its peak
    return (columns + math.sqrt(columns * columns + 50.0)) ** 2 + 25.0


def _degree(columns: int) -> int:
    """Mixture terms kept.  At u = _u_reach the terms b_k pois_k(u) peak
    near k* = columns sqrt(u) and fall off like e^{-(k-k*)^2 / k*}; 40 more
    e-folds leave the first dropped term below double rounding."""
    peak = columns * math.sqrt(_u_reach(columns))
    return math.ceil(peak + math.sqrt(40.0 * peak))


def _kd_weights(alpha: int, deg: int) -> list[Fraction]:
    # det A(u) = u^alpha det[entry(k, l)(u)]
    det = fpoly_det([[_entry(k, l, deg - alpha) for l in range(1, alpha + 1)]
                     for k in range(1, alpha + 1)], deg - alpha)
    return [Fraction(0)] * alpha + [c * math.factorial(p + alpha)
                                    for p, c in enumerate(det.fractions())]


def _ke_weights(alpha: int, deg: int) -> list[Fraction]:
    rows = range(1, alpha + 3)
    shift, nums = fpoly_split_det(
        [[_entry(i, 1, deg), _entry(i, 2, deg)] for i in rows],
        [[_entry(i, j, deg) for j in range(1, alpha + 1)] for i in rows], deg)
    weights = []
    for d, poly in enumerate(nums):     # P_d(z) over d! (d + shift)!
        kept = divide_by_one_minus(poly, alpha)
        divide_by_one_minus(kept, alpha)    # P_d vanishes to order 2 alpha at z = 1
        moment = sum(Fraction(c, k + 3) for k, c in enumerate(kept))
        weights.append(moment * Fraction(math.factorial(d + 3),
                                         math.factorial(d) * math.factorial(d + shift)))
    return weights


_LAWS = {"kappa-d": (KAPPA_D_ALPHA_CAP, 0), "kappa-e": (KAPPA_E_ALPHA_CAP, 3)}


@functools.cache
def _weights(law: str, alpha: int) -> tuple[Fraction, ...]:
    """The exact weights b of U ~ sum_i b[i] Gamma(i + 1), from i = 0, so
    that the kappa-e table starts with its shift of 3 zeros."""
    cap, shift = _LAWS[law]
    if alpha > cap:
        raise ValueError(f"alpha={alpha} above the {law} limit cap {cap}")
    if law == "kappa-d":
        fracs = _kd_weights(alpha, _degree(alpha))
    else:
        fracs = _ke_weights(alpha, _degree(alpha + 2))
    return (Fraction(0),) * shift + tuple(fracs)


@functools.cache
def _table(law: str, alpha: int) -> GammaMix:
    started = time.perf_counter()
    weights = _weights(law, alpha)
    den = math.lcm(*(b.denominator for b in weights))
    table = gamma_mix(1, den, [b.numerator * (den // b.denominator) for b in weights])
    log.debug("%s limit table alpha=%d: %d weights, built in %.3f s, tail mass %.3g",
              law, alpha, len(weights), time.perf_counter() - started, table.tail)
    return table


# ---------------------------------------------------------------------------
# evaluation


def _live_u(vs, mu: float):
    """(vs, mask, u): u = 1/(mu v) on the points v > 0 where it is finite."""
    vs = np.asarray(vs, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        us = 1.0 / (mu * vs)
    live = (vs > 0) & (us < np.inf)
    return vs, live, us[live]


def _pdf(vs, p: ScaledParams, law: str) -> np.ndarray:
    table = _table(law, p.alpha)
    vs, live, u = _live_u(vs, p.mu)
    out = np.zeros(vs.shape)
    # mu u^2 times the density in u, grouped so that no u^2 overflows
    out[live] = p.mu * u * (u * table.pdf(u))
    return out


def _cdf(p: ScaledParams, law: str):
    table = _table(law, p.alpha)

    def cdf(vs):
        vs, live, u = _live_u(vs, p.mu)
        out = np.zeros(vs.shape)
        out[live] = table.sf(u)
        return np.minimum(out, 1.0)

    return cdf


def pdf_v_kappa_d_grid(vs, p: ScaledParams) -> np.ndarray:
    """Limiting density of trace / smallest eigenvalue, scaled by mu n^3."""
    return _pdf(vs, p, "kappa-d")


def pdf_v_kappa_e_grid(vs, p: ScaledParams) -> np.ndarray:
    """Limiting density of trace / second-smallest eigenvalue, scaled by
    mu n^3, from the exact mixture table (the z-integral done exactly)."""
    return _pdf(vs, p, "kappa-e")


# ---------------------------------------------------------------------------
# CDFs


def cdf_v_kappa_d_interp(p: ScaledParams):
    """Vectorized CDF of the scaled kappa-d limit."""
    return _cdf(p, "kappa-d")


def cdf_v_kappa_e_interp(p: ScaledParams):
    """Vectorized CDF of the scaled kappa-e limit."""
    return _cdf(p, "kappa-e")


def cdf_v_error_bound(metric: str, p: ScaledParams) -> float:
    """Largest error of the limit CDF of ``metric`` ('kappa-d' or 'kappa-e'):
    the exact probability 1 - sum_k b_k that its table leaves out."""
    return _table(metric, p.alpha).tail
