import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from wishartcond.numkit import (
    DOUBLE,
    ConvergenceError,
    NumericContext,
    QuadratureError,
    FPoly,
    SignedLog,
    fpoly_add,
    fpoly_det,
    fpoly_mul,
    gauss_legendre_rule,
    integrate_finite,
    laguerre_coeff_fractions,
    laguerre_eval,
    log_factorials,
    pfq,
    pochhammer_int,
    poisson_mix,
    signed_log_sum,
    stirling2,
)


class TestSignedLog:
    def test_round_trip(self):
        for x in (3.25, -1e-7, 2.0, -123456.0):
            back = SignedLog.from_real(x).to_real()
            assert back == pytest.approx(x, rel=1e-15)

    def test_zero(self):
        z = SignedLog.from_real(0.0)
        assert z.sign == 0
        assert z.to_real() == 0.0

    def test_from_fraction_huge(self):
        # exact log of a rational far outside double range
        q = Fraction(10 ** 400, 7)
        got = SignedLog.from_fraction(q).logmag
        want = 400 * math.log(10) - math.log(7)
        assert got == pytest.approx(want, rel=1e-15)

    def test_arithmetic(self):
        a = SignedLog.from_real(6.0)
        b = SignedLog.from_real(-1.5)
        assert (a * b).to_real() == pytest.approx(-9.0, rel=1e-15)
        assert (a / b).to_real() == pytest.approx(-4.0, rel=1e-15)
        assert (a + b).to_real() == pytest.approx(4.5, rel=1e-15)
        assert (a - b).to_real() == pytest.approx(7.5, rel=1e-15)
        assert a.pow_int(3).to_real() == pytest.approx(216.0, rel=1e-14)
        assert a.pow_int(0).to_real() == 1.0
        assert (-b).sign == 1

    def test_scaled_by_log(self):
        a = SignedLog.from_real(2.0).scaled_by_log(700.0)
        assert a.logmag == pytest.approx(math.log(2.0) + 700.0)

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.0)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            SignedLog.zero().inverse()

    def test_cancelling_sum(self):
        # compensated accumulation keeps the survivor accurate
        big = SignedLog.from_real(1e17)
        one = SignedLog.one()
        total = signed_log_sum([big, one, -big])
        assert total.to_real() == pytest.approx(1.0, rel=1e-10)

    def test_sum_to_zero(self):
        a = SignedLog.from_real(5.0)
        assert signed_log_sum([a, -a]).sign == 0


class TestCombinatorics:
    def test_pochhammer_int(self):
        assert pochhammer_int(2, 3) == 24
        assert pochhammer_int(1, 5) == 120

    def test_stirling2(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 1) == 1
        assert stirling2(6, 6) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(0, 0) == 1
        # recurrence S(p, q) = q S(p-1, q) + S(p-1, q-1)
        for p in range(2, 8):
            for q in range(1, p):
                assert stirling2(p, q) == q * stirling2(p - 1, q) + stirling2(p - 1, q - 1)

    def test_poisson_mix(self):
        us = np.array([0.5, 3.0, 40.0])
        coeffs = np.array([0.25, 0.0, 0.75])
        want = [sum(c * float(mpmath.exp(-u) * mpmath.mpf(u) ** (k + 2 + 1) / mpmath.factorial(k + 2))
                    for k, c in enumerate(coeffs)) for u in us]
        assert poisson_mix(us, coeffs, 2, power=1) == pytest.approx(want, rel=1e-13)
        # huge u gives 0, not inf times 0
        assert poisson_mix(np.array([1e300]), coeffs, 0, power=2)[0] == 0.0

    def test_poisson_mix_signed(self):
        # negative weights count; only zeros are skipped
        us = np.array([0.3, 2.0, 9.0])
        coeffs = np.array([1.5, -0.75, 0.0, -2.25, 0.5])
        want = [sum(c * math.exp(-u) * u ** (k + 1) / math.factorial(k + 1)
                    for k, c in enumerate(coeffs)) for u in us]
        assert poisson_mix(us, coeffs, 1) == pytest.approx(want, rel=1e-13)

    def test_log_factorials(self):
        table = log_factorials(6)
        for k in range(7):
            assert table[k] == pytest.approx(math.lgamma(k + 1), abs=1e-12)
        # table grows on demand and stays consistent
        assert log_factorials(25)[20] == pytest.approx(math.lgamma(21.0), rel=1e-14)


class TestLaguerre:
    def test_coeff_fractions(self):
        # x^0..x^2 coefficients of the degree-2, shift-1 polynomial
        assert laguerre_coeff_fractions(2, 1) == [Fraction(3), Fraction(-3), Fraction(1, 2)]

    def test_eval_matches_mpmath(self):
        for deg, rho, z in ((3, 0, 0.7), (4, 2, 2.5), (5, 1, 0.1)):
            got = laguerre_eval(deg, rho, z).to_real()
            want = float(mpmath.laguerre(deg, rho, z))
            assert got == pytest.approx(want, rel=1e-12)


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


class TestPfq:
    def test_exp(self):
        assert pfq((), (), 0.3) == pytest.approx(math.exp(0.3), rel=1e-14)

    def test_1f1(self):
        z = 0.8
        want = (math.exp(z) - 1.0) / z
        assert pfq((1.0,), (2.0,), z) == pytest.approx(want, rel=1e-14)

    def test_2f3_matches_mpmath(self):
        a, b, z = (1.5, 2.0), (2.5, 3.0, 1.0), 4.0
        want = float(mpmath.hyper(list(a), list(b), z))
        assert pfq(a, b, z) == pytest.approx(want, rel=1e-12)


class TestQuadrature:
    def test_rule_basics(self):
        rule = gauss_legendre_rule(12)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    def test_polynomial(self):
        got = integrate_finite(lambda x: x * x, 0.0, 1.0, rtol=1e-12)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_endpoint_singularity(self):
        got = integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, rtol=1e-9)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_vectorized(self):
        got = integrate_finite(lambda xs: np.exp(-xs), 0.0, 5.0, rtol=1e-12,
                               vectorized=True)
        assert got == pytest.approx(1.0 - math.exp(-5.0), rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 0.0, math.inf)

    def test_error_hierarchy(self):
        assert issubclass(QuadratureError, ConvergenceError)
        assert issubclass(ConvergenceError, ArithmeticError)


class TestNumericContext:
    def test_extended_minimum(self):
        with pytest.raises(ValueError):
            NumericContext(10)

    def test_double_flag(self):
        assert not DOUBLE.extended
        assert NumericContext(35).extended
