import math
import warnings

import mpmath
import numpy as np
import pytest

from oracles import normalization_v_kappa_d, normalization_v_kappa_e, pdf_v_kappa_e_closed_alpha0
from wishartcond import asymptotic
from wishartcond.asymptotic import (
    ScaledParams,
    cdf_v_error_bound,
    cdf_v_kappa_d_interp,
    cdf_v_kappa_e_interp,
    pdf_v_kappa_d_grid,
    pdf_v_kappa_e_grid,
)


# Bessel-determinant oracles at 30 digits, written out from the limit
# formulas independently of the mixture tables


def _stirling2(p, q):
    if p == q:
        return 1
    if q == 0 or q > p:
        return 0
    return q * _stirling2(p - 1, q) + _stirling2(p - 1, q - 1)


def _weight(row, family, q):
    return sum(_stirling2(pp, q) * math.comb(row - 1, pp) * family ** (row - 1 - pp)
               for pp in range(q, row))


def _bessel_entry(row, family, t):
    """sum_q weight t^{(q-family-1)/2} I_{q+family+1}(2 sqrt t)."""
    r = mpmath.sqrt(t)
    return mpmath.fsum(_weight(row, family, q) * r ** (q - family - 1)
                       * mpmath.besseli(q + family + 1, 2 * r) for q in range(row))


def _kd_oracle(v, mu, alpha):
    with mpmath.workdps(30):
        u = 1 / (mu * mpmath.mpf(float(v)))
        mat = mpmath.matrix(alpha, alpha)
        for k in range(alpha):
            for l in range(alpha):
                mat[k, l] = u * _bessel_entry(k + 1, l + 1, u)
        return float(mu * u ** 2 * mpmath.exp(-u) * mpmath.det(mat))


def _ke_oracle(v, mu, alpha):
    with mpmath.workdps(30):
        u = 1 / (mu * mpmath.mpf(float(v)))
        size = alpha + 2
        fixed = [[_bessel_entry(i, j, u) for j in range(1, alpha + 1)]
                 for i in range(1, size + 1)]

        def integrand(z):
            mat = mpmath.matrix(size, size)
            for i in range(size):
                mat[i, 0] = _bessel_entry(i + 1, 1, z * u)
                mat[i, 1] = _bessel_entry(i + 1, 2, z * u)
                for j in range(alpha):
                    mat[i, 2 + j] = fixed[i][j]
            return z ** 2 * (1 - z) ** (-alpha) * mpmath.det(mat)

        inner = mpmath.quad(integrand, [0, 1], method="gauss-legendre")
        return float(mu * u ** 5 * mpmath.exp(-u) * inner)


class TestScaledParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledParams(0.0, 1)
        with pytest.raises(ValueError):
            ScaledParams(-2.0, 0)
        with pytest.raises(ValueError):
            ScaledParams(1.0, -1)


class TestKappaDLimit:
    def test_alpha0_reference_point(self):
        # mu=1, v=1 sits at u=1 where the alpha=0 density is exactly e^{-1}
        got = pdf_v_kappa_d_grid(np.array([1.0]), ScaledParams(1.0, 0))[0]
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_grid_matches_scalar(self):
        p = ScaledParams(4.0, 1)
        vs = np.array([0.02, 0.1, 0.7, 3.0])
        grid = pdf_v_kappa_d_grid(vs, p)
        for v, g in zip(vs, grid):
            # a point alone gives the value it has in the batch
            assert pdf_v_kappa_d_grid(np.array([v]), p)[0] == pytest.approx(g, rel=1e-12)

    def test_outside_support(self):
        p = ScaledParams(1.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pdf_v_kappa_d_grid(np.array([-1.0, 0.0, 1e-200, np.inf]), p)
        assert np.all(got == 0.0)

    def test_modes_agree(self):
        # the mixture table against the Bessel determinant it expands
        vs = np.array([0.02, 0.07, 0.3, 1.0, 3.0, 8.0])
        for alpha in (1, 2, 3):
            got = pdf_v_kappa_d_grid(vs, ScaledParams(1.0, alpha))
            want = np.array([_kd_oracle(v, 1.0, alpha) for v in vs])
            assert np.max(np.abs(got - want) / want) < 1e-12, alpha

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            pdf_v_kappa_d_grid(np.array([1.0]), ScaledParams(1.0, 7))

    def test_mu_covariance(self):
        # the mu in the scaling only relabels the axis: f_{4mu}(v/4) = 4 f_mu(v)
        ts = np.linspace(0.05, 4.0, 25)
        a = pdf_v_kappa_d_grid(ts / 4.0, ScaledParams(4.0, 1))
        b = pdf_v_kappa_d_grid(ts, ScaledParams(1.0, 1))
        assert np.max(np.abs(a - 4.0 * b) / np.maximum(4.0 * b, 1e-300)) < 1e-13

    def test_normalization(self):
        for alpha in (0, 1, 2):
            total = normalization_v_kappa_d(ScaledParams(1.0, alpha))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestKappaDCdf:
    def test_closed_identity(self):
        # the alpha=0 CDF is a bare exponential in 1/(mu v)
        for mu in (0.25, 1.0, 4.0):
            vs = np.array([0.05, 0.3, 1.0, 10.0])
            got = cdf_v_kappa_d_interp(ScaledParams(mu, 0))(vs)
            want = [math.exp(-1.0 / (mu * v)) for v in vs]
            assert got == pytest.approx(want, rel=1e-15)

    def test_interp_matches_closed(self):
        vs = np.geomspace(1e-3, 1e3, 2000)
        for mu in (0.25, 1.0, 4.0):
            cdf = cdf_v_kappa_d_interp(ScaledParams(mu, 0))
            assert np.max(np.abs(cdf(vs) - np.exp(-1.0 / (mu * vs)))) < 1e-15

    def test_interp_shape(self):
        cdf = cdf_v_kappa_d_interp(ScaledParams(4.0, 1))
        vs = np.linspace(0.001, 30.0, 400)
        vals = cdf(vs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 1e-3
        assert vals[-1] > 0.97
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestKappaELimit:
    def test_closed_vs_integral_alpha0(self):
        vs = np.linspace(0.01, 1.5, 40)
        p = ScaledParams(4.0, 0)
        a = pdf_v_kappa_e_grid(vs, p)
        b = pdf_v_kappa_e_closed_alpha0(vs, p.mu)
        assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-7

    def test_outside_support(self):
        p = ScaledParams(1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pdf_v_kappa_e_grid(np.array([-0.5, 0.0, 1e-200, np.inf]), p)
        assert np.all(got == 0.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            pdf_v_kappa_e_grid(np.array([1.0]), ScaledParams(1.0, 5))

    def test_mu_covariance(self):
        ts = np.linspace(0.02, 0.9, 12)
        a = pdf_v_kappa_e_grid(ts / 4.0, ScaledParams(4.0, 1))
        b = pdf_v_kappa_e_grid(ts, ScaledParams(1.0, 1))
        assert np.max(np.abs(a - 4.0 * b) / np.maximum(4.0 * b, 1e-300)) < 1e-9

    def test_normalization_alpha1(self):
        total = normalization_v_kappa_e(ScaledParams(4.0, 1))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_matches_bessel_z_quadrature(self):
        vs = np.array([0.03, 0.08, 0.2, 0.5, 1.5])
        for alpha in (1, 2):
            got = pdf_v_kappa_e_grid(vs, ScaledParams(4.0, alpha))
            want = np.array([_ke_oracle(v, 4.0, alpha) for v in vs])
            assert np.max(np.abs(got - want) / want) < 1e-12, alpha

    def test_positive_in_bulk(self):
        p = ScaledParams(4.0, 2)
        vs = np.array([0.02, 0.05, 0.1, 0.3])
        assert np.all(pdf_v_kappa_e_grid(vs, p) > 0.0)


class TestKappaECdf:
    def test_interp_shape_alpha0(self):
        cdf = cdf_v_kappa_e_interp(ScaledParams(4.0, 0))
        vs = np.linspace(0.0005, 3.0, 300)
        vals = cdf(vs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 1e-3
        assert vals[-1] > 0.995
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestMixtureTables:
    CASES = [("kappa-d", a) for a in range(4)] + [("kappa-e", a) for a in range(3)]

    @pytest.mark.parametrize("law,alpha", CASES)
    def test_weights_nonnegative_and_complete(self, law, alpha):
        table = asymptotic._table(law, alpha)
        assert all(b >= 0 for b in table.weights)
        assert 0.0 <= table.tail < 1e-15
        assert cdf_v_error_bound(law, ScaledParams(2.0, alpha)) == table.tail

    @pytest.mark.parametrize("law,alpha", [("kappa-d", 1), ("kappa-d", 2), ("kappa-e", 0),
                                           ("kappa-e", 1), ("kappa-e", 2)])
    def test_cdf_matches_gammainc(self, law, alpha):
        # P(V <= v) = P(U >= u) = sum_i w_i Q(i + 1, u), w_i the weight of
        # Gamma(i + 1) and Q the regularized upper incomplete gamma function
        mu = 4.0
        table = asymptotic._table(law, alpha)
        build = cdf_v_kappa_d_interp if law == "kappa-d" else cdf_v_kappa_e_interp
        vs = np.geomspace(0.002, 5.0, 25)
        got = build(ScaledParams(mu, alpha))(vs)
        with mpmath.workdps(30):
            want = [float(mpmath.fsum(
                mpmath.mpf(b.numerator) / b.denominator
                * mpmath.gammainc(i + 1, 1 / (mu * mpmath.mpf(float(v))), mpmath.inf, regularized=True)
                for i, b in enumerate(table.weights) if b > 0)) for v in vs]
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_kappa_d_cdf_matches_bessel_quadrature(self):
        # alpha 1: P(U >= u) is the integral of e^-x I_2(2 sqrt x) from u up
        mu = 4.0
        cdf = cdf_v_kappa_d_interp(ScaledParams(mu, 1))
        for v in (0.01, 0.05, 0.2, 1.0, 5.0):
            with mpmath.workdps(30):
                want = mpmath.quad(lambda x: mpmath.exp(-x) * mpmath.besseli(2, 2 * mpmath.sqrt(x)),
                                   [1 / (mu * mpmath.mpf(v)), mpmath.inf])
            assert abs(cdf(np.array([v]))[0] - float(want)) < 1e-12

    def test_entry_matches_stirling_weights(self):
        # the closed numerator (p + family)^(row - 1) of t^p is
        # sum_q weight_q p! / (p - q)! over the recursive Stirling weights;
        # the limit tables read rows and families up to 6
        deg = 40
        for row in range(1, 9):
            for family in range(1, 7):
                weights = [_weight(row, family, q) for q in range(row)]
                entry = asymptotic._entry(row, family, deg)
                assert entry.shift == family + 1
                assert entry.nums == tuple(sum(w * math.perm(p, q) for q, w in enumerate(weights))
                                           for p in range(deg + 1)), (row, family)

    def test_cdf_limits(self):
        cdf = cdf_v_kappa_e_interp(ScaledParams(4.0, 1))
        got = cdf(np.array([-1.0, 0.0, 1e-310, np.inf]))
        assert list(got[:3]) == [0.0, 0.0, 0.0]
        assert got[3] == pytest.approx(1.0, abs=1e-15)

    def test_kappa_e_build_checks_divisibility(self, monkeypatch):
        real = asymptotic.fpoly_split_det

        def perturbed(pairs, block, deg=None):
            shift, nums = real(pairs, block, deg)
            nums[5][0] += 1
            return shift, nums

        monkeypatch.setattr(asymptotic, "fpoly_split_det", perturbed)
        with pytest.raises(ArithmeticError):
            asymptotic._table.__wrapped__("kappa-e", 2)
