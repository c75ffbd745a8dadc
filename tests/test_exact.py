import logging
import math

import numpy as np
import pytest

from wishartcond.exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    METRIC_LAMBDA_MIN,
    DensityCurve,
    Dims,
    EigenSpectrum,
    cdf_kappa_d_interp,
    cdf_kappa_e_interp,
    cdf_lambda2_interp,
    cdf_lambda_min_interp,
    joint_eigen_density,
    metric_from_spectrum,
    mgf_kappa_d,
    mgf_kappa_e,
    normalization_kappa_d,
    normalization_lambda_min,
    pdf_kappa_d,
    pdf_kappa_d_grid,
    pdf_kappa_e,
    pdf_kappa_e_closed_alpha0_grid,
    pdf_kappa_e_grid,
    pdf_lambda2,
    pdf_lambda2_closed_alpha0_grid,
    pdf_lambda2_grid,
    pdf_lambda_min,
    pdf_lambda_min_grid,
    pdf_via_lambda2_connection,
    pdf_via_min_connection,
    q_closed,
    q_integral_oracle,
    r_closed,
    r_integral_oracle,
    resolve_context,
)


class TestDims:
    def test_derived(self):
        d = Dims(4, 2)
        assert d.m == 6
        assert d.mn == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            Dims(0, 1)
        with pytest.raises(ValueError):
            Dims(3, -1)


class TestEigenSpectrum:
    def test_metrics(self):
        spec = EigenSpectrum(np.array([1.0, 2.0, 3.0]), Dims(3, 0))
        assert metric_from_spectrum(spec, METRIC_KAPPA_D) == pytest.approx(6.0)
        assert metric_from_spectrum(spec, METRIC_KAPPA_E) == pytest.approx(3.0)
        assert metric_from_spectrum(spec, METRIC_LAMBDA_MIN) == pytest.approx(1.0)
        assert metric_from_spectrum(spec, METRIC_LAMBDA_2) == pytest.approx(2.0)

    def test_needs_second_eigenvalue(self):
        spec = EigenSpectrum(np.array([2.0]), Dims(1, 0))
        with pytest.raises(ValueError):
            metric_from_spectrum(spec, METRIC_KAPPA_E)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([2.0, 1.0]), Dims(2, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([-1.0, 1.0]), Dims(2, 0))

    def test_tiny_negative_clipped(self):
        spec = EigenSpectrum(np.array([-1e-14, 1.0]), Dims(2, 0))
        assert spec.values[0] == 0.0


class TestJointDensity:
    def test_simplest_case(self):
        # n=2, alpha=0 at (1, 2): Vandermonde^2 * e^{-3} / normalization = e^{-3}
        got = joint_eigen_density([1.0, 2.0], Dims(2, 0))
        assert got == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_symmetry(self):
        d = Dims(3, 1)
        a = joint_eigen_density([0.5, 1.0, 2.5], d)
        b = joint_eigen_density([2.5, 0.5, 1.0], d)
        assert a == pytest.approx(b, rel=1e-12)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            joint_eigen_density([1.0], Dims(2, 0))


class TestKappaD:
    def test_reference_values(self):
        # n=2, alpha=0 closed form: f(y) = 6 (y - 2)^2 / y^4 on y > 2
        assert pdf_kappa_d(4.0, Dims(2, 0)) == pytest.approx(0.09375, abs=1e-12)
        assert pdf_kappa_d(5.0, Dims(2, 0)) == pytest.approx(0.0864, abs=1e-12)

    def test_support(self):
        d = Dims(3, 1)
        assert pdf_kappa_d(2.9, d) == 0.0
        assert pdf_kappa_d(3.0, d) == 0.0
        assert pdf_kappa_d(3.4, d) > 0.0

    def test_modes_agree(self):
        # the closed tables cover alpha <= 1
        for n, alpha in ((2, 0), (3, 1), (5, 1)):
            d = Dims(n, alpha)
            ys = np.linspace(n + 0.3, 5.0 * n, 30)
            a = pdf_kappa_d_grid(ys, d, mode="theorem")
            b = pdf_kappa_d_grid(ys, d, mode="closed")
            assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-10

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            pdf_kappa_d_grid(np.array([3.0]), Dims(2, 0), mode="wat")
        with pytest.raises(ValueError):
            pdf_kappa_d(4.0, Dims(1, 0))

    def test_alpha_cap(self):
        with pytest.raises(ValueError):
            pdf_kappa_d(9.0, Dims(3, 5), mode="theorem")

    def test_precision_paths_agree(self):
        d = Dims(3, 1)
        ys = np.linspace(3.2, 12.0, 20)
        a = pdf_kappa_d_grid(ys, d, precision="double")
        b = pdf_kappa_d_grid(ys, d, precision="extended")
        assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-12


class TestLambdaMin:
    def test_exponential_case(self):
        # n=2, alpha=0: f(x) = 2 e^{-2x}
        xs = np.array([0.1, 0.5, 2.0])
        got = pdf_lambda_min_grid(xs, Dims(2, 0))
        assert got == pytest.approx(2.0 * np.exp(-2.0 * xs), rel=1e-12)

    def test_support(self):
        assert pdf_lambda_min(-0.5, Dims(3, 1)) == 0.0

    def test_normalized(self):
        assert normalization_lambda_min(Dims(4, 1)) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("dims, lo, hi", [(Dims(12, 4), 0.25, 1.8),
                                              (Dims(30, 4), 0.1, 0.8)])
    def test_double_matches_extended(self, dims, lo, hi):
        # [lo, hi] holds the central 98% of the mass; exact coefficients
        # leave only the rounding of the final sum in double
        xs = np.linspace(lo, hi, 40)
        dbl = pdf_lambda_min_grid(xs, dims, precision="double")
        ext = pdf_lambda_min_grid(xs, dims, precision="extended")
        assert dbl == pytest.approx(ext, rel=1e-12)

    def test_auto_stays_double_for_one_signed_table(self, caplog):
        # every coefficient is positive, so nothing cancels at any n
        dims = Dims(20, 2)
        xs = np.linspace(0.02, 0.6, 30)
        with caplog.at_level(logging.INFO, logger="wishartcond"):
            got = pdf_lambda_min_grid(xs, dims)
        assert "switching to extended precision" not in caplog.text
        assert got == pytest.approx(pdf_lambda_min_grid(xs, dims, precision="extended"),
                                    rel=1e-12)


class TestKappaE:
    def test_needs_three_columns(self):
        with pytest.raises(ValueError):
            pdf_kappa_e(3.0, Dims(2, 0))

    def test_support(self):
        d = Dims(3, 0)
        assert pdf_kappa_e(1.9, d) == 0.0
        assert pdf_kappa_e(2.0, d) == 0.0
        assert pdf_kappa_e(2.5, d) > 0.0

    def test_closed_alpha0_matches_integral(self):
        for n in (3, 4):
            d = Dims(n, 0)
            ys = np.linspace(n - 1 + 0.2, 4.0 * n, 25)
            a = pdf_kappa_e_grid(ys, d)
            b = pdf_kappa_e_closed_alpha0_grid(ys, d)
            assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-8

    def test_alpha_cap(self):
        with pytest.raises(ValueError):
            pdf_kappa_e(5.0, Dims(3, 4))


class TestLambda2:
    def test_support(self):
        assert pdf_lambda2(-0.1, Dims(3, 0)) == 0.0
        assert pdf_lambda2_grid(np.array([0.4]), Dims(3, 0))[0] > 0.0

    def test_closed_alpha0_matches_general(self):
        for n in (3, 4):
            d = Dims(n, 0)
            xs = np.linspace(0.05, 2.5, 20)
            a = pdf_lambda2_grid(xs, d)
            b = pdf_lambda2_closed_alpha0_grid(xs, d)
            assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-8


class TestConnections:
    def test_min_route(self):
        for n, alpha in ((3, 0), (4, 1)):
            d = Dims(n, alpha)
            for y in (n + 0.5, 2.2 * n):
                a = pdf_via_min_connection(y, d)
                b = pdf_kappa_d(y, d)
                assert a == pytest.approx(b, rel=1e-9)

    def test_lambda2_route(self):
        for n, alpha in ((3, 0), (4, 1)):
            d = Dims(n, alpha)
            for y in (n - 0.5, 1.8 * n):
                a = pdf_via_lambda2_connection(y, d)
                b = pdf_kappa_e(y, d)
                assert a == pytest.approx(b, rel=1e-9)


class TestMgf:
    def test_at_zero(self):
        assert mgf_kappa_d(0.0, Dims(3, 1)) == pytest.approx(1.0, rel=1e-9)
        assert mgf_kappa_e(0.0, Dims(4, 1)) == pytest.approx(1.0, rel=1e-9)

    def test_reference_values(self):
        assert mgf_kappa_d(0.037, Dims(3, 1)) == pytest.approx(0.4913346049836787, rel=1e-8)
        assert mgf_kappa_d(0.011, Dims(4, 2)) == pytest.approx(0.7239958306376194, rel=1e-8)
        assert mgf_kappa_e(0.25, Dims(4, 1)) == pytest.approx(0.12427332012541364, rel=1e-8)

    def test_monotone_in_s(self):
        d = Dims(3, 0)
        vals = [mgf_kappa_d(s, d) for s in (0.0, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)

    def test_exactly_one_at_zero(self):
        # the total mass of the law, not a quadrature result
        for d in (Dims(3, 1), Dims(4, 2), Dims(20, 0)):
            assert mgf_kappa_d(0.0, d) == 1.0
        for d in (Dims(4, 1), Dims(6, 2)):
            assert mgf_kappa_e(0.0, d) == 1.0


class TestCdfs:
    def test_kappa_d_cdf_against_closed_form(self):
        # n=2, alpha=0: f(y) = 6 (y-2)^2 / y^4, so
        # F(y) = 1 - 6/y + 12/y^2 - 8/y^3, including its slow 6/y tail
        d = Dims(2, 0)
        cdf = cdf_kappa_d_interp(d, 50.0)
        ys = np.linspace(2.2, 50.0, 150)
        want = 1.0 - 6.0 / ys + 12.0 / ys ** 2 - 8.0 / ys ** 3
        assert np.max(np.abs(cdf(ys) - want)) < 1e-5
        vals = cdf(np.linspace(2.0, 50.0, 200))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_lambda_min_cdf(self):
        d = Dims(3, 1)
        cdf = cdf_lambda_min_interp(d, 6.0)
        assert cdf(np.array([6.0]))[0] == pytest.approx(1.0, abs=1e-5)

    def test_kappa_e_and_lambda2_cdfs(self):
        d = Dims(4, 0)
        for builder, hi, floor in ((cdf_kappa_e_interp, 40.0, 0.98),
                                   (cdf_lambda2_interp, 8.0, 0.999)):
            cdf = builder(d, hi)
            xs = np.linspace(0.0, hi, 100)
            vals = cdf(xs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert floor < vals[-1] <= 1.0


class TestProofIntegrals:
    def test_q(self):
        for n, alpha, z in ((1, 0, 0.8), (2, 1, 1.3), (3, 2, 0.5)):
            got = q_closed(n, alpha, z)
            want = q_integral_oracle(n, alpha, z)
            assert got == pytest.approx(want, rel=1e-7)

    def test_r(self):
        for n, a, b, alpha in ((1, 0.7, 1.1, 0), (2, 1.2, 0.8, 1), (3, 0.9, 1.4, 2)):
            got = r_closed(n, a, b, alpha)
            want = r_integral_oracle(n, a, b, alpha)
            assert got == pytest.approx(want, rel=1e-7)


class TestCurveAndContext:
    def test_density_curve_validation(self):
        with pytest.raises(ValueError):
            DensityCurve("wat", "exact", np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            DensityCurve(METRIC_KAPPA_D, "sorta", np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            DensityCurve(METRIC_KAPPA_D, "exact", np.array([1.0, 2.0]), np.array([1.0]))

    def test_resolve_context(self):
        assert not resolve_context(Dims(3, 0), "double").extended
        assert resolve_context(Dims(3, 0), "extended").extended
        assert not resolve_context(Dims(3, 0), "auto").extended
        assert resolve_context(Dims(20, 0), "auto").extended
        assert not resolve_context(Dims(20, 0), "auto", mixed_signs=False).extended
        with pytest.raises(ValueError):
            resolve_context(Dims(3, 0), "sometimes")

    def test_normalization_spot(self):
        assert normalization_kappa_d(Dims(2, 1)) == pytest.approx(1.0, abs=1e-7)
