import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import _mp_sum, gauss_legendre_mp
from wishartcond.exact import _lagneg, _laplace_density, _signed_rows
from wishartcond.numkit import (
    ConvergenceError,
    QuadratureError,
    FPoly,
    _log_ratio,
    _sign_log,
    divide_by_one_minus,
    fpoly_add,
    fpoly_det,
    fpoly_mul,
    gamma_mix,
    gauss_legendre_rule,
    integrate_finite,
    mixture_sum,
    pochhammer_int,
    poisson_sum,
)


class TestSignedLog:
    """Rationals in signed log-magnitude form, as the double tables store
    them, and the signed sums that bring such terms back."""

    def test_round_trip(self):
        for x in (Fraction(13, 4), Fraction(-1, 10 ** 7), Fraction(2), Fraction(-123456)):
            sign, logmag = _sign_log(x)
            assert sign * math.exp(logmag) == pytest.approx(float(x), rel=1e-15)

    def test_zero(self):
        assert _sign_log(Fraction(0)) == (0, 0.0)

    def test_from_fraction_huge(self):
        # exact log of a rational far outside double range
        q = Fraction(10 ** 400, 7)
        want = 400 * math.log(10) - math.log(7)
        assert _sign_log(q) == (1, pytest.approx(want, rel=1e-15))
        assert _log_ratio(q.numerator, q.denominator) == pytest.approx(want, rel=1e-15)

    def test_cancelling_sum(self):
        # fsum keeps the survivor and the extended sum reports the digits it cost
        big = math.log(1e17)
        # mn = 2, d = 0: the inverse-Laplace kernel is 1 at y = 1
        got = _laplace_density([(0.0, 0, 1, big), (0.0, 0, 1, 0.0), (0.0, 0, -1, big)], 2, 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)
        with mpmath.workdps(40):
            total, lost = _mp_sum([mpmath.mpf(10) ** 17, mpmath.mpf(1), -mpmath.mpf(10) ** 17])
        assert total == 1.0
        assert lost == pytest.approx(math.log10(2e17 + 1), rel=1e-12)

    def test_sum_to_zero(self):
        a = math.log(5.0)
        # a row that cancels exactly loses every digit; a row with no term
        # on its support (all -inf) is zero and loses none
        values, lost = _signed_rows(np.array([a, -np.inf]), np.zeros(2),
                                    [(1.0, 0.0, 1, 0), (-1.0, 0.0, 1, 0)])
        assert values.tolist() == [0.0, 0.0]
        assert lost.tolist() == [math.inf, 0.0]
        # the mixture_sum term format, with a coefficient that is not a sign
        values, lost = _signed_rows(np.array([0.0]), np.array([math.log(2.0)]),
                                    [(3.0, 0.0, 1, 1), (-1.0, math.log(4.0), 0, 0)])
        assert values.tolist() == [pytest.approx(2.0)]
        assert lost.tolist() == [pytest.approx(math.log10(5.0))]
        assert _laplace_density([(0.0, 0, 1, a), (0.0, 0, -1, a)], 2, 1.0) == 0.0
        with mpmath.workdps(40):
            assert _mp_sum([mpmath.mpf(5), -mpmath.mpf(5)]) == (0.0, math.inf)
        assert _mp_sum([]) == (0.0, 0.0)


class TestCombinatorics:
    def test_pochhammer_int(self):
        assert pochhammer_int(2, 3) == 24
        assert pochhammer_int(1, 5) == 120

    # a positive Gamma mixture at rate 2, w_k = nums[k] / (den 2^(k+1)):
    # weights 1/8, 0, 3/32, 0, 5/128, missing mass 3/4 - 1/32 - 5/128
    MIX = dict(rate=2, den=4, nums=[1, 0, 3, 0, 5])

    def test_poisson_mix(self):
        # the density in u, sum_k w_k pois_k(u), against mpmath
        mix = gamma_mix(**self.MIX)
        us = np.array([1e-3, 0.5, 3.0, 40.0, 300.0])
        with mpmath.workdps(30):
            want = [float(sum(mpmath.mpf(c) / (4 * 2 ** (k + 1)) * mpmath.exp(-mpmath.mpf(u))
                              * mpmath.mpf(u) ** k / mpmath.factorial(k)
                              for k, c in enumerate(self.MIX["nums"]))) for u in us]
        assert mix.pdf(us) == pytest.approx(want, rel=1e-14)
        # huge u gives 0, not inf times 0 or NaN
        assert mix.pdf(np.array([1e300])).tolist() == [0.0]

    def test_poisson_tail_terms(self):
        # P(U > u) is sum_k w_k Q(k + 1, u), Q the regularized upper gamma,
        # with the missing mass at Gamma(K + 2), against mpmath
        mix = gamma_mix(**self.MIX)
        ws = [Fraction(c, 4 * 2 ** (k + 1)) for k, c in enumerate(self.MIX["nums"])]
        assert mix.tail == float(1 - sum(ws)) and mix.weights == tuple(map(float, ws))
        us = np.array([1e-3, 1.5, 7.0, 60.0, 300.0])
        with mpmath.workdps(30):
            def q(k, u):
                return mpmath.gammainc(k + 1, mpmath.mpf(u), mpmath.inf, regularized=True)
            want = [float(sum(mpmath.mpf(w.numerator) / w.denominator * q(k, u)
                              for k, w in enumerate(ws + [1 - sum(ws)]))) for u in us]
        assert mix.sf(us) == pytest.approx(want, rel=1e-14)
        assert mix.sf(np.array([0.0])).tolist() == [1.0]
        with pytest.raises(ArithmeticError, match="power 3"):
            gamma_mix(1, 4, [1, 0, 3, -1])

    def test_poisson_sum(self):
        # positive weights by the pois_i recurrence, against mpmath, from
        # u = 0 to past the point where e^{-u} underflows, with no warning
        weights = [0.0, 0.25, 0.0, 0.5, 1.0, 2.0 ** -60]
        us = np.array([0.0, 1e-8, 0.3, 4.0, 60.0, 700.0, 800.0, 1e300])
        with mpmath.workdps(30):
            want = [float(sum(w * mpmath.exp(-mpmath.mpf(u)) * mpmath.mpf(u) ** i
                              / mpmath.factorial(i) for i, w in enumerate(weights))) for u in us]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_sum(us, weights)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_beta_mix(self):
        # signed Beta terms t^j (1 - t)^(top - j) with weights outside the
        # double range, against the exact rational sum at rational t
        top = 700
        weights = {3: Fraction(10 ** 400, 7), 350: Fraction(-3, 10 ** 330), 699: Fraction(5, 2)}
        terms = [(1 if w > 0 else -1, _log_ratio(abs(w.numerator), w.denominator), j, top - j)
                 for j, w in weights.items()]
        for t in (Fraction(2, 5), Fraction(1, 2), Fraction(9, 10), Fraction(999, 1000)):
            want = sum(w * t ** j * (1 - t) ** (top - j) for j, w in weights.items())
            got = mixture_sum(np.array([math.log(t)]), np.array([math.log(1 - t)]), terms)
            assert got[0] == pytest.approx(float(want), rel=1e-12)


class TestLaguerre:
    # the tables take Laguerre polynomials at a negated argument, as FPoly
    def test_coeff_fractions(self):
        # w^0..w^2 coefficients of L_2^(1)(-w) = 3 + 3 w + w^2 / 2
        assert _lagneg(2, 1).fractions() == [Fraction(3), Fraction(3), Fraction(1, 2)]
        assert _lagneg(-1, 2).nums == ()

    def test_eval_matches_mpmath(self):
        for deg, rho, z in ((3, 0, 0.7), (4, 2, 2.5), (5, 1, 0.1), (9, 3, -4.0)):
            got = sum(c * Fraction(-z) ** j for j, c in enumerate(_lagneg(deg, rho).fractions()))
            want = mpmath.laguerre(deg, rho, z)
            assert float(got) == pytest.approx(float(want), rel=1e-14)


class TestFPoly:
    @staticmethod
    def _random(rng, shift, length):
        return FPoly(shift, tuple(rng.randint(-50, 50) for _ in range(length)))

    def test_mul_matches_fractions(self):
        rng = random.Random(3)
        for _ in range(20):
            a = self._random(rng, rng.randint(0, 4), rng.randint(1, 7))
            b = self._random(rng, rng.randint(0, 4), rng.randint(1, 7))
            fa, fb = a.fractions(), b.fractions()
            want = [sum(fa[p] * fb[d - p] for p in range(len(fa)) if 0 <= d - p < len(fb))
                    for d in range(len(fa) + len(fb) - 1)]
            assert fpoly_mul(a, b).fractions() == want
            assert fpoly_mul(a, b, deg=2).fractions() == want[:3]

    def test_det_matches_permutation_expansion(self):
        rng = random.Random(4)
        size = 3
        mat = [[self._random(rng, col + 1, rng.randint(1, 4)) for col in range(size)]
               for _ in range(size)]
        want = [Fraction(0)] * 10
        for perm in itertools.permutations(range(size)):
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            prod = [Fraction(1)]
            for row, col in enumerate(perm):
                f = mat[row][col].fractions()
                prod = [sum(prod[p] * f[d - p] for p in range(len(prod)) if 0 <= d - p < len(f))
                        for d in range(len(prod) + len(f) - 1)]
            for d, c in enumerate(prod):
                want[d] += -c if inversions % 2 else c
        while want and want[-1] == 0:
            want.pop()
        assert fpoly_det(mat).fractions() == want

    def test_add_needs_one_shift(self):
        with pytest.raises(ValueError):
            fpoly_add(FPoly(1, (1,)), FPoly(2, (1,)))
        assert fpoly_add(FPoly(0, ()), FPoly(2, (1, 3)), -1) == FPoly(2, (-1, -3))

    def test_divide_by_one_minus(self):
        rng = random.Random(3)
        for power in range(4):
            quotient = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(6)]
            poly = quotient
            for _ in range(power):
                # times (1 - z)
                poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
            assert divide_by_one_minus(poly, power) == quotient
            # a remainder raises, at any step, instead of a wrong quotient
            with pytest.raises(ArithmeticError, match=f"\\(1 - z\\)\\^{power + 1}"):
                divide_by_one_minus(poly, power + 1)
            if power:
                with pytest.raises(ArithmeticError, match=r"\(1 - z\)\^1"):
                    divide_by_one_minus([poly[0] + 1] + poly[1:], power)


class TestQuadrature:
    def test_rule_basics(self):
        nodes, weights = gauss_legendre_rule(12)
        assert len(nodes) == 12 and np.all(np.abs(nodes) < 1.0)
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    @pytest.mark.parametrize("order", [1, 2, 12, 13, 64, 128, 256])
    def test_rule_matches_40_digits(self, order):
        nodes, weights = gauss_legendre_rule(order)
        want_nodes, want_weights = gauss_legendre_mp(order)
        assert np.max(np.abs(nodes - np.array(want_nodes, dtype=float))) <= 2.3e-16
        assert np.max(np.abs(weights / np.array(want_weights, dtype=float) - 1.0)) <= 2e-12
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        if order % 2:
            assert nodes[order // 2] == 0.0

    def test_polynomial(self):
        got = integrate_finite(lambda x: x * x, 0.0, 1.0, rtol=1e-12)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_endpoint_singularity(self):
        got = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rtol=1e-9)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_vectorized(self):
        got = integrate_finite(lambda xs: np.exp(-xs), 0.0, 5.0, rtol=1e-12)
        assert got == pytest.approx(1.0 - math.exp(-5.0), rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 0.0, math.inf)

    def test_non_finite_panel_raises_at_once(self):
        # a NaN or infinite integrand used to be bisected down to depth 200;
        # the integrand refuses to run long, so a regression fails, not hangs
        for bad in (math.nan, math.inf):
            calls = []

            def f(xs, bad=bad):
                calls.append(len(xs))
                if len(calls) > 20:
                    raise AssertionError("integrand kept being evaluated")
                return np.where(xs > 0.3, bad, 1.0)

            with pytest.raises(QuadratureError, match="not finite"):
                integrate_finite(f, 0.0, 1.0)
            assert len(calls) == 1

    def test_error_hierarchy(self):
        assert issubclass(QuadratureError, ConvergenceError)
        assert issubclass(ConvergenceError, ArithmeticError)
