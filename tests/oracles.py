"""Independent references that only the tests use.

The closed alpha = 0 forms of the second-smallest-eigenvalue laws come
from a double sum over Laguerre coefficients, with no determinant
expansion.  The general-alpha density is the z-integral of the Laguerre
determinant, evaluated at each quadrature node in mpmath.  Neither shares
code with the library's tables.

The proof integrals q and r are tiny-n tensor-product Gauss-Laguerre
quadratures next to their closed Laguerre-determinant forms, and the
alpha = 0 kappa-e limit has a three-term hypergeometric form; all of these
are evaluated in mpmath.  The normalizations integrate each finite-n
density numerically, the quadrature counterpart of the exact total masses.

The exact tables as the library once built them are the references the
production tables must equal: lambda-2 from its own pass over the
determinant rows with a loop over i <= j per term, kappa-d with a Fraction
of two factorials per term, both as tuples, and kappa-e worked out from
the determinant rows by its own integrals, with no eigenvalue law, term
for term.  The high-precision Gauss-Legendre rule is Newton's method in
mpmath at 40 digits.

The per-point double sums loop over the points, one scaled dot product of
the signed t-density terms at each, so they differ from the library's
whole-grid sums only in summation order.  The closed alpha = 0 kappa-e law,
whose pieces overlap, has its own per-point sum in y, summed again at 40
digits where it loses more than 3.  The densities at 40 digits are mpmath
sums of the exact coefficients, in y for the trace ratios and in x for the
eigenvalues.

The sampler's reference stream builds one Philox generator per draw, as
the sampler did before it re-keyed a single generator, and the Erlang
reference builds every Gamma variate of a draw as a sum over its own
segment of m n uniforms, the row the sampler draws while every shape is at
most its Erlang bound.  The dense matrix draws are the independent check
of the bidiagonal model: their Gram spectra come from LAPACK.
"""

import functools
import logging
import math
from fractions import Fraction

import mpmath
import numpy as np

from wishartcond import asymptotic
from wishartcond.exact import (
    Dims,
    _EdgePowerTable,
    _ExpPiece,
    _ke_det,
    _log_t,
    _min_eig_fracs,
    _shift_by_one,
    pdf_kappa_d_grid,
    pdf_kappa_e_grid,
    pdf_lambda2_grid,
    pdf_lambda_min_grid,
)
from wishartcond.numkit import _sign_log, integrate_finite, pochhammer_int

log = logging.getLogger("wishartcond")


def _mp_sum(terms: list) -> tuple[float, float]:
    """(the sum of mpmath terms, as a double; log10 of sum |.| / |sum .|);
    no terms give (0.0, 0.0)."""
    total = mpmath.fsum(terms)
    if not total:
        return 0.0, (math.inf if any(terms) else 0.0)
    return float(total), float(mpmath.log10(mpmath.fsum(terms, absolute=True) / abs(total)))


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _signed_sum(signs: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """(sum_j signs_j exp(t_j), log10 of sum_j |.| / |sum_j .|) in double."""
    shift = t.max()
    scaled = np.exp(t - shift)
    acc = float(np.dot(signs, scaled))
    if acc == 0.0:
        return 0.0, math.inf
    return acc * math.exp(shift), math.log10(float(scaled.sum()) / abs(acc))


def law_values_pointwise(law, ys):
    """(density, digits lost) of an edge-power law with disjoint pieces in
    double, point by point: edge / y^2 times the t-density of its piece."""
    ys = np.asarray(ys, dtype=float)
    out = np.zeros_like(ys)
    lost = np.zeros_like(ys)
    for piece in law:
        signs, logs, powers, rests = (np.array(col, dtype=float) for col in zip(*piece.t_density))
        for i, y in enumerate(ys):
            if piece.edge < y <= piece.hi and y < math.inf:
                log_t, log_u = (float(v[0]) for v in _log_t(piece.edge, np.array([y])))
                value, lost[i] = _signed_sum(signs, logs + powers * log_t + rests * log_u)
                out[i] = value * (piece.edge / y / y)
    return out, lost


def _law_values_in_y(law, ys):
    """(density, digits lost) of an edge-power law in double, point by
    point, as sums of c (y - edge)^p y^(-mn) over every piece at y."""
    ys = np.asarray(ys, dtype=float)
    mn = law[0].mn
    out = np.zeros_like(ys)
    lost = np.zeros_like(ys)
    terms = [(t.edge, t.hi, p, *_sign_log(f)) for t in law for p, f in zip(t.powers, t.fracs) if f]
    edges, his, powers, signs, logs = (np.array(col, dtype=float) for col in zip(*terms))
    for i, y in enumerate(ys):
        mask = (y > edges) & (y <= his)
        if not mask.any():
            continue
        t = logs[mask] + powers[mask] * np.log(y - edges[mask]) - mn * math.log(y)
        out[i], lost[i] = _signed_sum(signs[mask], t)
    return out, lost


def law_values_mp(law, ys, dps: int):
    """(density, digits lost) of an edge-power law at dps digits, point by
    point: the mpmath sum of c (y - edge)^p over every piece at y, times
    y^(-mn).  The extended-precision reference of the trace-ratio
    densities, which the library sums in t and in double only."""
    ys = np.asarray(ys, dtype=float)
    out, lost = np.zeros((2, ys.size))
    with mpmath.workdps(dps):
        terms = [(t.edge, t.hi, p, _mpf(f)) for t in law for p, f in zip(t.powers, t.fracs) if f]
        for i, y in enumerate(ys):
            parts = [c * mpmath.mpf(y - edge) ** p for edge, hi, p, c in terms if edge < y <= hi]
            _, lost[i] = _mp_sum(parts)
            out[i] = float(mpmath.fsum(parts) * mpmath.mpf(y) ** -law[0].mn)
    return out, lost


def exp_law_values_mp(law, xs, dps: int):
    """(density, digits lost) of an eigenvalue law at dps digits, point by
    point: the mpmath sum of c x^k exp(-rate x) over every piece."""
    xs = np.asarray(xs, dtype=float)
    out, lost = np.zeros((2, xs.size))
    with mpmath.workdps(dps):
        terms = [(rate, k, _mpf(c)) for rate, powers, fracs in law
                 for k, c in zip(powers, fracs) if c]
        for i, x in enumerate(xs):
            if x > 0:
                xr = mpmath.mpf(x)
                decay = {rate: mpmath.exp(-rate * xr) for rate, _, _ in law}
                out[i], lost[i] = _mp_sum([c * xr ** k * decay[rate] for rate, k, c in terms])
    return out, lost


def exp_law_values_pointwise(law, xs):
    """(density, digits lost) of an eigenvalue law in double, point by point."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    lost = np.zeros_like(xs)
    rates, powers, signs, logs = (np.array(col, dtype=float) for col in zip(
        *((rate, k, *_sign_log(c)) for rate, powers, fracs in law
          for k, c in zip(powers, fracs) if c)))
    for i, x in enumerate(xs):
        if x > 0:
            t = logs + powers * math.log(x) - rates * x
            out[i], lost[i] = _signed_sum(signs, t)
    return out, lost


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


def pdf_kappa_e_closed_alpha0_grid(ys, dims: Dims, precision: str = "auto") -> np.ndarray:
    """kappa-e density at alpha = 0 from the closed double sum, whose pieces
    overlap above n, where they cancel: sums in y in double, and under
    'auto' again at 40 digits, then twice as many while fewer than 13 are
    left, at each point that loses more than 3."""
    if dims.alpha != 0 or dims.n < 3:
        raise ValueError("closed form covers alpha = 0 and n >= 3 only")
    law = ke_closed_alpha0_law(dims.n)
    ys = np.asarray(ys, dtype=float)
    values, lost = _law_values_in_y(law, ys)
    redo = lost > 3.0 if precision == "auto" else np.zeros(ys.shape, dtype=bool)
    dps = 40
    log.info("closed kappa-e density: %d of %d points evaluated again", int(redo.sum()), ys.size)
    while redo.any():
        values[redo], lost[redo] = law_values_mp(law, ys[redo], dps)
        redo &= lost > dps - 13
        dps *= 2
    return values


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


# ---------------------------------------------------------------------------
# exact tables as the library once built them: kappa-d with a Fraction of
# two factorials per term, and the kappa-e and lambda-2 laws each from its
# own pass over the determinant rows, lambda-2 with an inner loop over
# i <= j, kappa-e by the z-integrals of the rows, not through lambda-2


def kd_min_table_oracle(dims: Dims) -> _EdgePowerTable:
    mn, alpha = dims.mn, dims.alpha
    powers, fracs = [], []
    for d, c in enumerate(_min_eig_fracs(dims)):
        if c:
            p = mn - 2 - d - alpha
            powers.append(p)
            fracs.append(c * Fraction(math.factorial(mn - 1), math.factorial(p)))
    return _EdgePowerTable(mn, dims.n, math.inf, tuple(powers), tuple(fracs))


def _ke_rows_oracle(dims: Dims):
    """(den, rows): rows lists (d, scale, row, g) for every nonzero row d,
    whose polynomial in z is scale / den * sum_e row[e] z^e, with g the
    integer coefficients of (1 - w)^2 Q_d(w) on the same scale."""
    alpha = dims.alpha
    shift, nums = _ke_det(dims)
    dmax = len(nums) - 1
    den = math.factorial(dmax) * math.factorial(dmax + shift)
    rows = []
    for d, row in enumerate(nums):
        if not any(row):
            continue
        cw = [(-1) ** e * c for e, c in enumerate(_shift_by_one(row))]
        if any(cw[:alpha]):
            raise ArithmeticError("determinant row not divisible by (1 - z)^alpha")
        g = [0] * (len(cw) - alpha + 2)
        for j, c in enumerate(cw[alpha:]):
            g[j] += c
            g[j + 1] -= 2 * c
            g[j + 2] += c
        rows.append((d, den // (math.factorial(d) * math.factorial(d + shift)), row, g))
    return den, rows


def _divide_by_one_plus_x(coeffs) -> list:
    """Exact quotient p(x) / (1 + x) by synthetic division at x = -1;
    ArithmeticError if it leaves a remainder."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] - acc
        out[k - 1] = acc
    if coeffs[0] != acc:
        raise ArithmeticError("determinant row not divisible by (1 - z)^alpha")
    return out


def ke_pieces_oracle(dims: Dims) -> tuple:
    n, alpha, mn = dims.n, dims.alpha, dims.mn
    top = mn - 1
    den, rows = _ke_rows_oracle(dims)
    a: dict = {}
    b: dict = {}
    for d, scale, row, g in rows:
        p_neg = [(-1) ** e * c for e, c in enumerate(row)]
        base = mn - 5 - d
        for j, c in enumerate(g):
            if c:
                a[base + j + 1] = a.get(base + j + 1, 0) + scale * c * math.factorial(j)
        for _ in range(alpha):
            p_neg = _divide_by_one_plus_x(p_neg)
        for j, c in enumerate(p_neg):
            if c:
                k = base + j + 3
                b[k] = b.get(k, 0) + scale * c * math.factorial(j + 2)
    kmin, kmax = min(a), max(a)
    near = {k: Fraction(math.perm(top, top - k) * c, den) for k, c in a.items() if c}
    lead = math.perm(top, top - kmax)
    binom = 1
    tail = {}
    for p in range(kmax + 1):
        h = 0
        for k in range(max(p, kmin), kmax + 1):
            h = h * (k - p) + a.get(k, 0)
        c = lead * binom * h - (math.perm(top, top - p) * b[p] if p in b else 0)
        if c < 0:
            raise ArithmeticError(f"kappa-e table: negative tail coefficient at power {p}")
        if c:
            tail[p] = Fraction(c, den)
        binom = binom * (kmax - p) // (p + 1)
    return (_EdgePowerTable(mn, n - 1, float(n), tuple(near), tuple(near.values())),
            _EdgePowerTable(mn, n, math.inf, tuple(tail), tuple(tail.values())))


def lambda2_law_oracle(dims: Dims) -> tuple:
    """A term g_j w^j of (1 - w)^2 Q_d(w) gives g_j j! x^(d+2-j) at rate
    n - 1 and -g_j j! / i! x^(d+2-j+i), i <= j, at rate n."""
    n, alpha = dims.n, dims.alpha
    den, rows = _ke_rows_oracle(dims)
    near: dict = {}
    far: dict = {}
    for d, scale, _, g in rows:
        for j, c in enumerate(g):
            if not c:
                continue
            k = d + 2 - j
            if k < alpha:
                raise ArithmeticError(f"lambda-2 table: power {k} below alpha")
            near[k] = near.get(k, 0) + scale * c * math.factorial(j)
            for i in range(j + 1):
                far[k + i] = far.get(k + i, 0) - scale * c * math.perm(j, j - i)
    pieces = []
    for rate, nums in ((n - 1, near), (n, far)):
        powers = tuple(k for k in sorted(nums) if nums[k])
        pieces.append(_ExpPiece(rate, powers, tuple(Fraction(nums[k], den) for k in powers)))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Gauss-Legendre rule at high precision


@functools.cache
def gauss_legendre_mp(order: int, dps: int = 40) -> tuple[list, list]:
    """(nodes, weights) of the order-point Gauss-Legendre rule as mpmath
    floats at dps digits, nodes ascending: Newton's method on P_order, by
    its three-term recurrence, from x_i = cos(pi (i - 1/4) / (order + 1/2)),
    until a step is below 10^-(dps + 2); weights 2 / ((1 - x^2) P'(x)^2).
    Only the nonnegative half is computed, the rest is its mirror."""
    nodes, weights = [], []
    with mpmath.workdps(dps + 10):
        for i in range(1, (order + 1) // 2 + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (order + mpmath.mpf(1) / 2))
            while True:
                prev, cur = mpmath.mpf(1), x
                for k in range(2, order + 1):
                    prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
                dp = order * (x * cur - prev) / (x * x - 1)
                step = cur / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -(dps + 2):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    mirror = order // 2
    return ([-x for x in nodes[:mirror]] + nodes[::-1],
            weights[:mirror] + weights[::-1])


# ---------------------------------------------------------------------------
# multi-eigenvalue moment integrals (tiny-n quadrature and closed forms)
#
# q_integral(n, alpha, z)  = int over [0, inf)^n of
#     Delta_n^2(y) prod y_j^2 exp(-y_j) (z - y_j)^alpha dy
# r_integral(n, a, b, alpha) adds the factor prod (a - y_j)^2 (b - y_j)^alpha.
# Tensor-product Gauss-Laguerre is exact for these polynomial-times-weight
# integrands at tiny n; the closed forms reduce them to determinants of
# Laguerre values.


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


def _laguerre(deg: int, rho: int, z):
    """L_deg^(rho)(z) in mpmath; deg < 0 gives 0."""
    return mpmath.laguerre(deg, rho, z) if deg >= 0 else mpmath.mpf(0)


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
    with mpmath.workdps(30):
        mat = mpmath.matrix([[_laguerre(n + k - l, 2 + l, z) for l in range(alpha)]
                             for k in range(alpha)])
        return float(mpmath.mpf(frac.numerator) / frac.denominator * mpmath.det(mat))


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
    with mpmath.workdps(30):
        mat = mpmath.matrix([[_laguerre(n + i - j, j + 1, a) for j in (1, 2)]
                             + [_laguerre(n + i - k + 2, k - 1, b) for k in range(3, size + 1)]
                             for i in range(1, size + 1)])
        scale = (mpmath.mpf(a) - b) ** (-2 * alpha)
        return float(mpmath.mpf(frac.numerator) / frac.denominator * scale * mpmath.det(mat))


# ---------------------------------------------------------------------------
# the alpha = 0 kappa-e limit in closed form


def pdf_v_kappa_e_closed_alpha0(vs, mu: float) -> np.ndarray:
    """alpha = 0 kappa-e limit density in its three-term hypergeometric form,
    mu u^5 e^(-u) / 576 times a bracket of 2F3, 1F2 and 3F4 at 4u, u = 1/(mu v)."""
    vs = np.asarray(vs, dtype=float)
    out = np.zeros(vs.shape)
    with mpmath.workdps(30):
        for idx, v in np.ndenumerate(vs):
            if v <= 0:
                continue
            u = 1 / (mu * mpmath.mpf(float(v)))
            c = 4 * u
            bracket = (16 * mpmath.hyper([3, 3.5], [4, 4, 6], c)
                       - c * mpmath.hyper([3.5], [5, 7], c)
                       + 0.75 * c * mpmath.hyper([3.5, 4, 4], [3, 5, 5, 7], c))
            out[idx] = float(mu * u ** 5 * mpmath.exp(-u) * bracket / 576)
    return out


# ---------------------------------------------------------------------------
# normalizations by quadrature


def normalization_kappa_d(dims: Dims, **pdf_kwargs) -> float:
    """Total mass of the kappa-d density (should be 1)."""
    n = dims.n

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = n / (1.0 - tt)
        return pdf_kappa_d_grid(ys, dims, **pdf_kwargs) * n / (1.0 - tt) ** 2

    return integrate_finite(pdf_t, 0.0, 1.0, rtol=1e-10)


def normalization_kappa_e(dims: Dims, **pdf_kwargs) -> float:
    edge = dims.n - 1

    def pdf_t(tt):
        tt = np.asarray(tt, dtype=float)
        ys = edge / (1.0 - tt)
        return pdf_kappa_e_grid(ys, dims, **pdf_kwargs) * edge / (1.0 - tt) ** 2

    return integrate_finite(pdf_t, 0.0, 1.0, rtol=1e-8)


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


def normalization_lambda_min(dims: Dims, **pdf_kwargs) -> float:
    cutoff = _decay_cutoff(float(dims.mn), float(dims.n))
    return integrate_finite(
        lambda xs: pdf_lambda_min_grid(xs, dims, **pdf_kwargs),
        0.0, cutoff, rtol=1e-10)


def normalization_lambda2(dims: Dims, **pdf_kwargs) -> float:
    cutoff = _decay_cutoff(float(dims.mn), float(max(dims.n - 1, 1)))
    return integrate_finite(
        lambda xs: pdf_lambda2_grid(xs, dims, **pdf_kwargs),
        0.0, cutoff, rtol=1e-8)


def normalization_v_kappa_d(p: asymptotic.ScaledParams) -> float:
    """Total mass of the kappa-d limit table: 1 up to its tail mass."""
    return math.fsum(asymptotic._table("kappa-d", p.alpha).weights)


def normalization_v_kappa_e(p: asymptotic.ScaledParams) -> float:
    """Total mass of the kappa-e limit table: 1 up to its tail mass."""
    return math.fsum(asymptotic._table("kappa-e", p.alpha).weights)


# ---------------------------------------------------------------------------
# sampler references


def bidiagonal_shapes(dims: Dims) -> list:
    """The 2n - 1 Gamma shapes of the bidiagonal model: m, m-1, ..., m-n+1
    for the squared diagonal of B, then n-1, ..., 1 below it."""
    return [dims.m - i for i in range(dims.n)] + [dims.n - 1 - i for i in range(dims.n - 1)]


def block_gamma_reference(dims: Dims, seed: int, block: int) -> np.ndarray:
    """The Gamma rows of one 1,024-draw block of the sampler, in
    ``bidiagonal_shapes`` order, as a fresh generator on that block's stream
    draws them: Philox4x64-10 keyed (seed mod 2**64, 0) from counter
    (0, block, 0, 0)."""
    key = np.array([seed % 2 ** 64, 0], dtype=np.uint64)
    counter = np.array([0, block, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return np.stack([gen.standard_gamma(a, size=1024) for a in bidiagonal_shapes(dims)])


def sample_matrix(dims: Dims, seed: int, index: int = 0) -> np.ndarray:
    """The index-th dense m x n matrix under this seed: iid complex normals
    of unit variance (1/2 per real part), from the Philox4x64-10 stream keyed
    (seed mod 2**64, 1), a key the sampler's blocks never use, at counter
    index << 64."""
    key = np.array([seed % 2 ** 64, 1], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=index << 64))
    real, imag = gen.standard_normal((2, dims.m, dims.n)) * math.sqrt(0.5)
    return real + 1j * imag
