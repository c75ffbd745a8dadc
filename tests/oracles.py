"""Independent references for the second-smallest-eigenvalue laws.

The closed alpha = 0 forms come from a double sum over Laguerre
coefficients, with no determinant expansion.  The general-alpha density is
the z-integral of the Laguerre determinant, evaluated at each quadrature
node in mpmath.  Neither shares code with the library's tables.

The sampler's reference stream builds one Philox generator per draw, as
the sampler did before it re-keyed a single generator, and the Erlang
reference builds every Gamma variate of a draw as a sum over its own
segment of m n uniforms, the row the sampler draws while every shape is at
most its Erlang bound.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np

from wishartcond.exact import DEFAULT_DPS, Dims, _EdgePowerTable, _evaluate, _law_values
from wishartcond.numkit import pochhammer_int
from wishartcond.sampler import _uniform


def _closed_pairs(n: int):
    """(i, j, c_ij) of the alpha = 0 double sum, skipping the zero terms."""
    for i in range(n):
        for j in range(n - 1):
            if j + 1 - i == 0:
                continue
            yield i, j, Fraction(
                pochhammer_int(-n + 1, i) * pochhammer_int(-n + 2, j)
                * (j + 1 - i) * math.factorial(i + j + 2),
                pochhammer_int(3, i) * pochhammer_int(4, j)
                * math.factorial(i) * math.factorial(j),
            )


def ke_closed_alpha0_law(n: int) -> tuple:
    """The alpha = 0 kappa-e density as two pieces on (edge, inf), at edges
    n - 1 and n; above n their terms cancel heavily against each other."""
    nn = n * n
    front = Fraction(math.factorial(nn - 1) * nn * (nn - 1), 12)
    near: dict = {}
    far: dict = {}
    for i, j, cij in _closed_pairs(n):
        for k in range(i + j + 3):
            p = nn + k - i - j - 4
            near[p] = near.get(p, 0) + front * cij * Fraction(
                (-1) ** (i + j + k),
                math.factorial(i + j + 2 - k) * math.factorial(nn + k - i - j - 4))
        far[nn - 2] = far.get(nn - 2, 0) - front * cij / math.factorial(nn - 2)
    return tuple(_EdgePowerTable(nn, edge, math.inf, tuple(terms), tuple(terms.values()))
                 for edge, terms in ((n - 1, near), (n, far)))


def pdf_kappa_e_closed_alpha0_grid(ys, dims: Dims, precision: str = "auto",
                                   dps: int = DEFAULT_DPS) -> np.ndarray:
    """kappa-e density at alpha = 0 from the closed double sum."""
    if dims.alpha != 0 or dims.n < 3:
        raise ValueError("closed form covers alpha = 0 and n >= 3 only")
    law = ke_closed_alpha0_law(dims.n)
    return _evaluate(functools.partial(_law_values, law), ys, precision, dps,
                     "closed kappa-e density")


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
    """Second-smallest-eigenvalue density at alpha = 0 from the closed double sum."""
    if dims.alpha != 0 or dims.n < 3:
        raise ValueError("closed form covers alpha = 0 and n >= 3 only")
    n = dims.n
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    coeffs = [(i, j, float(cij)) for i, j, cij in _closed_pairs(n)]
    lead = n * n * (n * n - 1) / 12.0
    for idx, x in enumerate(xs):
        if x <= 0:
            continue
        # partial exp series minus exp(-x) = -(series tail)
        acc = sum(cij * -_exp_tail(i + j + 3, x) for i, j, cij in coeffs)
        out[idx] = lead * math.exp(-(n - 1) * x) * acc
    return out


def _laguerre_mp(deg: int, rho: int, t):
    """L_deg^(rho)(t) in mpmath, summed term by term; deg < 0 gives 0."""
    total = mpmath.mpf(0)
    term = mpmath.mpf(math.comb(deg + rho, deg)) if deg >= 0 else 0
    for j in range(deg + 1):
        total += term
        term *= -t * (deg - j) / ((j + 1) * (rho + j + 1))
    return total


def pdf_lambda2_det_oracle(xs, dims: Dims, dps: int = 40, order: int = 64) -> np.ndarray:
    """Second-smallest-eigenvalue density as the integral

        x^3 exp(-(n-1) x) int_0^1 det M(x z, x) z^2 (1-z)^(-alpha) exp(-(1-z) x) dz,

    row i of M being L_{n+i-3}^(2)(-x z), L_{n+i-4}^(3)(-x z) and
    L_{n+i-k}^(k-1)(-x) for k = 3..alpha+2.  The determinant is taken at
    every node of an order-point Gauss-Legendre rule at dps digits; the
    integrand is a polynomial times exp in z, so the rule is exact to
    double precision.
    """
    n, alpha = dims.n, dims.alpha
    size = alpha + 2
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = np.zeros(len(xs))
    with mpmath.workdps(dps):
        for idx, x in enumerate(xs):
            if x <= 0:
                continue
            x = mpmath.mpf(x)
            fixed = [[_laguerre_mp(n + i - k, k - 1, -x) for k in range(3, size + 1)]
                     for i in range(1, size + 1)]
            total = mpmath.mpf(0)
            for node, weight in zip(nodes, weights):
                z = (1 + mpmath.mpf(node)) / 2
                mat = mpmath.matrix([[_laguerre_mp(n + i - j - 2, j + 1, -x * z) for j in (1, 2)]
                                     + fixed[i - 1] for i in range(1, size + 1)])
                total += (weight * mpmath.det(mat) * z ** 2 * (1 - z) ** (-alpha)
                          * mpmath.exp(-(1 - z) * x))
            out[idx] = float(x ** 3 * mpmath.exp(-(n - 1) * x) * total / 2)
    return out


def philox_raw_reference(seed: int, index: int, count: int) -> np.ndarray:
    """count raw words of draw index under seed: the words of a fresh
    Philox4x64-10 keyed (seed mod 2**64, 0), run from its start up to and
    through the draw, then sliced at the draw's whole-block offset."""
    w = 4 * -(-count // 4)
    key = np.array([seed % 2 ** 64, 0], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw((index + 1) * w)[index * w:index * w + count]


def erlang_variates_reference(dims: Dims, seed: int, index: int) -> np.ndarray:
    """The 2n - 1 Gamma variates of draw index as Erlang sums -sum log(u)
    over consecutive segments of its m n uniforms: lengths m, m-1, ...,
    m-n+1 for the squared diagonal of B, then n-1, ..., 1."""
    n = dims.n
    lengths = [dims.m - i for i in range(n)] + [n - 1 - i for i in range(n - 1)]
    offsets = np.cumsum([0] + lengths[:-1])
    logu = np.log(_uniform(philox_raw_reference(seed, index, dims.mn)))
    return -np.add.reduceat(logu, offsets)
