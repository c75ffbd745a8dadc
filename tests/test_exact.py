import logging
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import (
    exp_law_values_mp,
    exp_law_values_pointwise,
    kd_min_table_oracle,
    ke_closed_alpha0_law,
    ke_pieces_oracle,
    lambda2_law_oracle,
    law_values_mp,
    law_values_pointwise,
    normalization_kappa_d,
    normalization_lambda_min,
    pdf_kappa_e_closed_alpha0_grid,
    pdf_lambda2_closed_alpha0_grid,
    pdf_lambda2_det_oracle,
    q_closed,
    q_integral_oracle,
    r_closed,
    r_integral_oracle,
)
from wishartcond.exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    Dims,
    _EdgePowerTable,
    _exp_law_values,
    _kd_law,
    _ke_bivariate_w_fracs,
    _lambda2_law,
    _lambda2_mix,
    _lambda_min_law,
    _law_density,
    _law_values,
    _min_eig_fracs,
    _trace_ratio_law,
    cdf_kappa_d_interp,
    cdf_kappa_e_interp,
    cdf_lambda2_interp,
    cdf_lambda_min_interp,
    mgf_kappa_d,
    mgf_kappa_e,
    pdf_kappa_d,
    pdf_kappa_d_grid,
    pdf_kappa_e,
    pdf_kappa_e_grid,
    pdf_lambda2_grid,
    pdf_lambda_min_grid,
    pdf_via_lambda2_connection,
    pdf_via_min_connection,
)
from wishartcond.sampler import ks_compare, ks_threshold, mc_collect


def _ke_pieces(dims):
    """The kappa-e law, its near and tail pieces; the name keeps the
    parametrized test ids that show the builder."""
    return _trace_ratio_law(METRIC_KAPPA_E, dims)


def _at_dps(law, xs, values=law_values_mp):
    """A law's density from its sums at 40 digits at every point, whatever
    the cancellation: the reference the library's double sums are held to."""
    return values(law, np.asarray(xs, dtype=float), 40)[0]


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
            pdf_kappa_d_grid(np.array([9.0]), Dims(3, 5), mode="theorem")

    # the closed tables cover alpha <= 1
    @pytest.mark.parametrize("dims, mode", [
        (dims, mode) for dims in (Dims(2, 0), Dims(3, 1), Dims(5, 1), Dims(4, 2), Dims(6, 3),
                                  Dims(5, 4), Dims(13, 1))
        for mode in ("auto", "theorem", "closed") if mode != "closed" or dims.alpha <= 1])
    def test_total_mass_is_exactly_one(self, dims, mode):
        table, = _kd_law(dims, mode)
        assert _exact_mass(table) == 1
        if mode == "auto":
            # the default mode and the named one share one memoised table
            assert _kd_law(dims)[0] is table

    def test_precision_paths_agree(self):
        d = Dims(3, 1)
        ys = np.linspace(3.2, 12.0, 20)
        a = pdf_kappa_d_grid(ys, d)
        b = _at_dps(_kd_law(d), ys)
        assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-12


class TestLambdaMin:
    def test_exponential_case(self):
        # n=2, alpha=0: f(x) = 2 e^{-2x}
        xs = np.array([0.1, 0.5, 2.0])
        got = pdf_lambda_min_grid(xs, Dims(2, 0))
        assert got == pytest.approx(2.0 * np.exp(-2.0 * xs), rel=1e-12)

    def test_support(self):
        assert pdf_lambda_min_grid(np.array([-0.5]), Dims(3, 1))[0] == 0.0

    def test_normalized(self):
        assert normalization_lambda_min(Dims(4, 1)) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("dims", [Dims(2, 0), Dims(3, 1), Dims(4, 2), Dims(6, 3),
                                      Dims(13, 1), Dims(20, 2), Dims(30, 4)])
    def test_total_mass_is_exactly_one(self, dims):
        (rate, powers, fracs), = _lambda_min_law(dims)
        assert sum(c * math.factorial(k) / Fraction(rate) ** (k + 1)
                   for k, c in zip(powers, fracs)) == 1

    @pytest.mark.parametrize("dims, lo, hi", [(Dims(12, 4), 0.25, 1.8),
                                              (Dims(30, 4), 0.1, 0.8)])
    def test_double_matches_extended(self, dims, lo, hi):
        # [lo, hi] holds the central 98% of the mass; exact coefficients
        # leave only the rounding of the final sum in double
        xs = np.linspace(lo, hi, 40)
        dbl = pdf_lambda_min_grid(xs, dims)
        ext = _at_dps(_lambda_min_law(dims), xs, exp_law_values_mp)
        assert dbl == pytest.approx(ext, rel=1e-12)

    def test_auto_stays_double_for_one_signed_table(self, caplog):
        # every coefficient is positive, so nothing cancels at any n
        dims = Dims(20, 2)
        xs = np.linspace(0.02, 0.6, 30)
        with caplog.at_level(logging.INFO, logger="wishartcond"):
            got = pdf_lambda_min_grid(xs, dims)
        assert "0 of 30 points re-summed" in caplog.text
        assert got == pytest.approx(_at_dps(_lambda_min_law(dims), xs, exp_law_values_mp),
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

    # no alpha cap: the exact builders reach alpha 4 to 6 (at (3, 6) the near
    # piece's CDF at n rounds, so cdf(+inf) is 1 - 7e-16 there)
    @pytest.mark.parametrize("dims", [Dims(5, 4), Dims(6, 5), Dims(8, 6)], ids=str)
    def test_high_alpha_mass_is_exactly_one(self, dims):
        assert sum(_exact_mass(piece) for piece in _ke_pieces(dims)) == 1
        assert sum(c * math.factorial(k) / Fraction(rate) ** (k + 1)
                   for rate, powers, fracs in _lambda2_law(dims)
                   for k, c in zip(powers, fracs)) == 1
        for cdf in (cdf_kappa_e_interp(dims), cdf_lambda2_interp(dims)):
            assert cdf(np.array([np.inf]))[0] == 1.0

    @pytest.mark.parametrize("metric, cdf", [(METRIC_KAPPA_E, cdf_kappa_e_interp),
                                             (METRIC_LAMBDA_2, cdf_lambda2_interp)])
    @pytest.mark.parametrize("alpha", [4, 5, 6])
    def test_high_alpha_matches_mc(self, metric, cdf, alpha):
        # acceptance criterion 3's sample size, seed and 1% KS bound, at n = 5
        dims = Dims(5, alpha)
        count = 100_000
        assert ks_compare(mc_collect(metric, dims, count, seed=1), cdf(dims)) < ks_threshold(count)


class TestLambda2:
    def test_support(self):
        assert pdf_lambda2_grid(np.array([-0.1]), Dims(3, 0))[0] == 0.0
        assert pdf_lambda2_grid(np.array([0.4]), Dims(3, 0))[0] > 0.0

    def test_closed_alpha0_matches_general(self):
        for n in (3, 4):
            d = Dims(n, 0)
            xs = np.linspace(0.05, 2.5, 20)
            a = pdf_lambda2_grid(xs, d)
            b = pdf_lambda2_closed_alpha0_grid(xs, d)
            assert np.max(np.abs(a - b) / np.maximum(b, 1e-300)) < 1e-8

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_determinant_oracle(self, n):
        xs = np.array([1e-3, 0.03, 0.5, 2.0, 10.0])
        for alpha in range(4):
            dims = Dims(n, alpha)
            assert pdf_lambda2_grid(xs, dims) == pytest.approx(
                pdf_lambda2_det_oracle(xs, dims, order=48), rel=1e-12), alpha

    @pytest.mark.parametrize("dims", [Dims(3, 0), Dims(4, 0), Dims(3, 1), Dims(4, 2),
                                      Dims(6, 1), Dims(5, 3), Dims(8, 2), Dims(13, 1)])
    def test_total_mass_is_exactly_one(self, dims):
        assert sum(c * math.factorial(k) / Fraction(rate) ** (k + 1)
                   for rate, powers, fracs in _lambda2_law(dims)
                   for k, c in zip(powers, fracs)) == 1

    @pytest.mark.parametrize("dims", [Dims(4, 0), Dims(4, 1), Dims(4, 2), Dims(6, 1),
                                      Dims(13, 1), Dims(5, 3)])
    def test_cdf_matches_gammainc(self, dims):
        xs = np.array([0.001, 0.05, 0.3, 1.0, 3.0, 8.0])
        got = cdf_lambda2_interp(dims)(xs)
        with mpmath.workdps(30):
            want = [float(sum(mpmath.mpf(c.numerator) / c.denominator
                              * mpmath.gammainc(k + 1, 0, rate * x) / mpmath.mpf(rate) ** (k + 1)
                              for rate, powers, fracs in _lambda2_law(dims)
                              for k, c in zip(powers, fracs)))
                    for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_build_checks_divisibility(self, monkeypatch):
        # a determinant row that does not vanish at z = 1 breaks divisibility
        from wishartcond import exact

        shift, nums = exact._ke_det(Dims(4, 1))
        broken = [list(row) for row in nums]
        broken[-1][0] += 1
        monkeypatch.setattr(exact, "_ke_det", lambda dims: (shift, broken))
        with pytest.raises(ArithmeticError):
            exact._lambda2_law.__wrapped__(Dims(4, 1))

    def test_no_quadrature(self, monkeypatch):
        from wishartcond import exact

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_finite called")

        monkeypatch.setattr(exact, "integrate_finite", refuse)
        # cleared caches, so the tables are built again under the patch
        exact._ke_det.cache_clear()
        exact._lambda2_law.cache_clear()
        exact._lambda2_mix.cache_clear()
        dims = Dims(5, 2)
        xs = np.array([0.001, 0.4, 3.0])
        assert np.all(pdf_lambda2_grid(xs, dims) > 0.0)
        assert np.all(_at_dps(_lambda2_law(dims), xs, exp_law_values_mp) > 0.0)
        assert np.all(np.diff(cdf_lambda2_interp(dims)(xs)) > 0.0)


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
        cdf = cdf_kappa_d_interp(d)
        ys = np.linspace(2.2, 50.0, 150)
        want = 1.0 - 6.0 / ys + 12.0 / ys ** 2 - 8.0 / ys ** 3
        assert np.max(np.abs(cdf(ys) - want)) < 1e-5
        vals = cdf(np.linspace(2.0, 50.0, 200))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_lambda_min_cdf(self):
        d = Dims(3, 1)
        cdf = cdf_lambda_min_interp(d)
        assert cdf(np.array([6.0]))[0] == pytest.approx(1.0, abs=1e-5)

    def test_kappa_e_and_lambda2_cdfs(self):
        d = Dims(4, 0)
        for builder, hi, floor in ((cdf_kappa_e_interp, 40.0, 0.98),
                                   (cdf_lambda2_interp, 8.0, 0.999)):
            cdf = builder(d)
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
    def test_normalization_spot(self):
        assert normalization_kappa_d(Dims(2, 1)) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# the exact edge-power pieces, against references computed from scratch


def _mp_density(law, y):
    """Density of a law at y from its exact coefficients, in mpmath."""
    big = mpmath.mpf(y)
    total = mpmath.mpf(0)
    for piece in law:
        if piece.edge < y <= piece.hi:
            for p, f in zip(piece.powers, piece.fracs):
                total += mpmath.mpf(f.numerator) / f.denominator * (big - piece.edge) ** p
    return total * big ** (-law[0].mn)


def _exact_mass(piece) -> Fraction:
    """Integral of a piece over (edge, hi], by expanding (y - edge)^p in powers of y."""
    e, big = piece.edge, piece.mn
    total = Fraction(0)
    for p, f in zip(piece.powers, piece.fracs):
        for k in range(p + 1):
            m = k - big + 1     # antiderivative y^m / m with m <= -1
            upper = 0 if piece.hi == math.inf else Fraction(int(piece.hi)) ** m
            total += f * math.comb(p, k) * (-e) ** (p - k) * (upper - Fraction(e) ** m) / m
    return total


def _term_masses(piece):
    """(p, mass of the term as a Beta(p+1, mn-p-1) law in t = 1 - edge/y)."""
    e, big = piece.edge, piece.mn
    for p, f in zip(piece.powers, piece.fracs):
        yield p, f * Fraction(e) ** (p + 1 - big) * Fraction(
            math.factorial(p) * math.factorial(big - 2 - p), math.factorial(big - 1))


def _mp_cdf(law, y):
    total = mpmath.mpf(0)
    for piece in law:
        top = min(y, piece.hi)
        if top <= piece.edge:
            continue
        t = 1 - mpmath.mpf(piece.edge) / top
        for p, mass in _term_masses(piece):
            total += (mpmath.mpf(mass.numerator) / mass.denominator
                      * mpmath.betainc(p + 1, piece.mn - p - 1, 0, t, regularized=True))
    return total


def _mp_mgf(law, s):
    """E[exp(-s Y)]: confluent U functions for the pieces on (edge, inf),
    direct quadrature for a piece with a finite upper limit."""
    s = mpmath.mpf(s)
    total = mpmath.mpf(0)
    for piece in law:
        e, big = piece.edge, piece.mn
        if piece.hi == math.inf:
            for p, f in zip(piece.powers, piece.fracs):
                total += (mpmath.mpf(f.numerator) / f.denominator * mpmath.mpf(e) ** (p + 1 - big)
                          * mpmath.exp(-s * e) * mpmath.factorial(p)
                          * mpmath.hyperu(p + 1, p + 2 - big, s * e))
        else:
            total += mpmath.quad(lambda y: _mp_density((piece,), y) * mpmath.exp(-s * y),
                                 [e, piece.hi])
    return total


class TestKappaEPieces:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_double_matches_mpmath(self, n):
        # the near piece at T = y - n + 1 in (0, 1], then the tail to 10^4 n
        ys = np.concatenate([n - 1 + np.array([0.05, 0.3, 0.7, 1.0]),
                             np.geomspace(n + 0.01, 1e4 * n, 12)])
        for alpha in range(4):
            law = _ke_pieces(Dims(n, alpha))
            got = pdf_kappa_e_grid(ys, Dims(n, alpha))
            with mpmath.workdps(60):
                want = np.array([float(_mp_density(law, y)) for y in ys])
            assert np.max(np.abs(got - want) / want) <= 1e-12, (n, alpha)

    def test_double_matches_mpmath_n50(self):
        # below y = 100 the density is under the double range
        dims = Dims(50, 1)
        ys = np.geomspace(200.0, 5e5, 12)
        law = _ke_pieces(dims)
        got = pdf_kappa_e_grid(ys, dims)
        with mpmath.workdps(60):
            want = np.array([float(_mp_density(law, y)) for y in ys])
        assert np.max(np.abs(got - want) / want) <= 1e-10

    def test_matches_lambda2_connection(self):
        for n in range(3, 9):
            for alpha in range(4):
                dims = Dims(n, alpha)
                for y in (n - 0.4, 2.0 * n):
                    assert pdf_kappa_e(y, dims) == pytest.approx(
                        pdf_via_lambda2_connection(y, dims), rel=1e-8), (n, alpha, y)

    @pytest.mark.parametrize("dims", [Dims(3, 0), Dims(4, 1), Dims(5, 2), Dims(4, 3)])
    def test_total_mass_is_exactly_one(self, dims):
        assert sum(_exact_mass(piece) for piece in _ke_pieces(dims)) == 1

    def test_alpha0_equals_closed_oracle(self):
        for n in (3, 4, 6):
            near_piece, tail_piece = _ke_pieces(Dims(n, 0))
            closed_near, closed_far = ke_closed_alpha0_law(n)
            near = {p: f for p, f in zip(closed_near.powers, closed_near.fracs) if f}
            assert dict(zip(near_piece.powers, near_piece.fracs)) == near
            # above n: the near terms re-expanded around n, plus the far terms
            tail: dict = {}
            for k, f in near.items():
                for p in range(k + 1):
                    tail[p] = tail.get(p, 0) + f * math.comb(k, p)
            for p, f in zip(closed_far.powers, closed_far.fracs):
                tail[p] = tail.get(p, 0) + f
            assert dict(zip(tail_piece.powers, tail_piece.fracs)) == {
                p: f for p, f in tail.items() if f}

    def test_sign_guard(self):
        # the tail piece is one-signed and the near piece cancels mildly, so
        # neither needs more than double precision; the near piece's worst
        # loss grows slowly with alpha at n = 3 (0.33 digits at alpha = 8)
        cases = [(n, alpha, math.log10(2.0)) for n in range(3, 16) for alpha in range(4)]
        cases += [(n, alpha, 0.5) for n in range(3, 7) for alpha in range(4, 9)]
        for n, alpha, bound in cases:
            near, tail = _ke_pieces(Dims(n, alpha))
            assert all(f > 0 for f in tail.fracs), (n, alpha)
            _, lost = _law_values((near,), n - 1 + np.linspace(0.02, 1.0, 50))
            assert lost.max() <= bound, (n, alpha)

    def test_cancelling_piece_raises_under_auto(self):
        # 1 - 0.9999 (y - 1) at y = 2 keeps 1e-4 of sum |term| = 1.9999:
        # 4.3 digits lost, past the 3 a trace-ratio density allows, and the
        # trace-ratio laws have no other sum to fall back on
        piece = _EdgePowerTable(4, 1, math.inf, (0, 1), (Fraction(1), Fraction(-9999, 10000)))
        ys = np.array([1.5, 2.0])
        want, lost = _law_values((piece,), ys)
        assert lost[1] == pytest.approx(math.log10(19999.0), rel=1e-9)
        assert want[1] == pytest.approx(1e-4 / 16, rel=1e-11)
        with pytest.raises(ArithmeticError, match="cancels past 3 digits"):
            _law_density((piece,), ys, "test density")
        assert _law_density((piece,), ys[:1], "test density").tolist() == want[:1].tolist()

    def test_kappa_d_tables_one_signed(self):
        # the production table (from the smallest-eigenvalue polynomial) is
        # the nested-sum table, exactly
        cases = [(n, alpha) for n in range(2, 21) for alpha in range(4)]
        cases += [(n, 4) for n in range(2, 13)]
        for n, alpha in cases:
            table, = _kd_law(Dims(n, alpha), "theorem")
            assert all(f > 0 for f in table.fracs), (n, alpha)
            assert _kd_law(Dims(n, alpha))[0].fracs == table.fracs, (n, alpha)

    def test_auto_falls_back_where_the_sum_cancels(self, caplog):
        # the closed alpha = 0 form cancels by a ratio near 1e9 at y = 1000 n
        dims, ys = Dims(3, 0), np.array([3000.0])
        with mpmath.workdps(60):
            want = float(_mp_density(ke_closed_alpha0_law(3), 3000.0))
        with caplog.at_level(logging.INFO, logger="wishartcond"):
            auto = pdf_kappa_e_closed_alpha0_grid(ys, dims)[0]
        assert "1 of 1 points evaluated again" in caplog.text
        assert auto == pytest.approx(want, rel=1e-12)
        assert abs(pdf_kappa_e_closed_alpha0_grid(ys, dims, precision="double")[0] - want) \
            > 1e-8 * want
        # the pieces lose nothing there in double
        assert pdf_kappa_e_grid(ys, dims)[0] == pytest.approx(want, rel=1e-12)

    def test_exact_rational_value_n13(self):
        # at integer y the w-table z-integral of the kernel is an exact
        # rational: int_0^1 (T - w)^P w^q (1 - w)^2 dw by the binomial theorem
        dims, y = Dims(13, 1), 80
        mn, big_t = dims.mn, y - 12
        cw, _, _ = _ke_bivariate_w_fracs(dims)
        total = Fraction(0)
        for (d, e), f in cw.items():
            p, q = mn - 5 - d, e - 1
            total += f / math.factorial(p) * sum(
                math.comb(p, r) * big_t ** (p - r) * (-1) ** r
                * Fraction(2, (r + q + 1) * (r + q + 2) * (r + q + 3)) for r in range(p + 1))
        want = float(total * math.factorial(mn - 1) / Fraction(y) ** mn)
        assert pdf_kappa_e(float(y), dims) == pytest.approx(want, rel=1e-13)

    def test_build_rejects_broken_determinant(self, monkeypatch):
        # a determinant row that does not vanish at z = 1 breaks divisibility
        from wishartcond import exact

        shift, nums = exact._ke_det(Dims(4, 1))
        broken = [list(row) for row in nums]
        broken[-1][0] += 1
        monkeypatch.setattr(exact, "_ke_det", lambda dims: (shift, broken))
        # a cleared cache, so the lambda-2 law is built again under the patch
        exact._lambda2_law.cache_clear()
        with pytest.raises(ArithmeticError):
            exact._trace_ratio_law.__wrapped__(METRIC_KAPPA_E, Dims(4, 1))


class TestExactCdfs:
    @pytest.mark.parametrize("builder, dims, ys", [
        (cdf_kappa_d_interp, Dims(50, 1), 50.0 + np.geomspace(1e3, 1e8, 8)),
        (cdf_kappa_d_interp, Dims(50, 2), 50.0 + np.geomspace(1e3, 1e8, 8)),
        (cdf_kappa_e_interp, Dims(4, 0), np.array([3.3, 3.8, 4.0, 4.6, 8.0, 30.0, 400.0])),
        (cdf_kappa_e_interp, Dims(4, 1), np.array([3.3, 3.8, 4.0, 4.6, 8.0, 30.0, 400.0])),
        (cdf_kappa_e_interp, Dims(4, 2), np.array([3.3, 3.8, 4.0, 4.6, 8.0, 30.0, 400.0])),
        (cdf_kappa_e_interp, Dims(8, 1), np.array([7.5, 8.0, 9.0, 20.0, 100.0, 1e3, 1e5])),
    ])
    def test_matches_betainc(self, builder, dims, ys):
        law = _kd_law(dims) if builder is cdf_kappa_d_interp else _ke_pieces(dims)
        got = builder(dims)(ys)
        with mpmath.workdps(30):
            want = np.array([float(_mp_cdf(law, y)) for y in ys])
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_limits(self):
        for builder, dims in ((cdf_kappa_d_interp, Dims(4, 2)), (cdf_kappa_e_interp, Dims(4, 2)),
                              (cdf_lambda_min_interp, Dims(4, 2))):
            vals = builder(dims)(np.array([-1.0, 0.0, 2.0, 3.0, 1e12, np.inf]))
            assert vals[0] == vals[1] == 0.0
            assert vals[-1] == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("dims, x", [(Dims(13, 1), 1e-4), (Dims(6, 3), 0.01)], ids=str)
    def test_eigenvalue_left_tail_is_a_probability(self, dims, x):
        # the true values are 2.9e-22 and 5.9e-22, which 1 - the sum of the
        # two pieces' upper tails rounded below 0
        got = cdf_lambda2_interp(dims)(np.array([x]))[0]
        assert got == pytest.approx(_mp_eig_cdf(_lambda2_law(dims), [x])[0], rel=2e-14)

    def test_lambda_min_cdf_matches_gammainc(self):
        dims = Dims(6, 2)
        xs = np.array([0.01, 0.1, 0.3, 1.0, 3.0])
        got = cdf_lambda_min_interp(dims)(xs)
        with mpmath.workdps(30):
            want = [float(sum(mpmath.mpf(c.numerator) / c.denominator
                              * mpmath.gammainc(d + 3, 0, 6 * x) / mpmath.mpf(6) ** (d + 3)
                              for d, c in enumerate(_min_eig_fracs(dims))))
                    for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-13


def _cdf_sums(law, ys, dps: int = 40) -> np.ndarray:
    """A law's CDF at dps digits: per piece, sum_j C(mn-1, j) run_j t^j
    (1 - t)^(mn-1-j) at min(y, hi), run_j the exact mass of the terms of
    power below j.  The terms with |run_j| below 1e-40 of the piece's mass
    are left out, and weigh at most 1e-40 of it together."""
    out = [mpmath.mpf(0)] * len(ys)
    with mpmath.workdps(dps):
        for piece in law:
            masses = dict(_term_masses(piece))
            whole = sum(masses.values())
            mn, run, terms = piece.mn, Fraction(0), []
            for j in range(min(masses) + 1, mn):
                run += masses.get(j - 1, 0)
                if abs(run) > whole / 10 ** 40:
                    terms.append((j, mpmath.mpf(run.numerator) * math.comb(mn - 1, j)
                                  / run.denominator))
            for i, y in enumerate(ys):
                top = mpmath.mpf(min(y, piece.hi))
                if top > piece.edge:
                    t, u = (top - piece.edge) / top, piece.edge / top
                    out[i] += mpmath.fsum(c * t ** j * u ** (mn - 1 - j) for j, c in terms)
    return np.array([float(v) for v in out])


def _accuracy_grid(law, n):
    """60 log-spaced points in (edge, edge + 3] and 60 in [n + 0.01, 40 n^3]."""
    return np.concatenate([law[0].edge + np.geomspace(1e-3, 3.0, 60),
                           np.geomspace(n + 0.01, 40.0 * n ** 3, 60)])


class TestTraceRatioAccuracy:
    """kappa-d and kappa-e in double, against high-precision sums of the same
    exact tables.  In t = 1 - edge/y no term carries an exponent near
    mn log y, whose rounding the digit-loss measure cannot see."""

    @pytest.mark.parametrize("metric, n, alpha", [
        (METRIC_KAPPA_D, 4, 1), (METRIC_KAPPA_D, 20, 2), (METRIC_KAPPA_D, 50, 2),
        (METRIC_KAPPA_D, 100, 2), (METRIC_KAPPA_E, 4, 1), (METRIC_KAPPA_E, 8, 1),
        (METRIC_KAPPA_E, 13, 1), (METRIC_KAPPA_E, 20, 2)])
    def test_density(self, metric, n, alpha):
        dims = Dims(n, alpha)
        law = _trace_ratio_law(metric, dims)
        ys = _accuracy_grid(law, n)
        with mpmath.workdps(60):
            want = np.array([float(_mp_density(law, y)) for y in ys])
        keep = want >= 1e-290
        pdf = pdf_kappa_d_grid if metric == METRIC_KAPPA_D else pdf_kappa_e_grid
        got = pdf(ys[keep], dims)
        assert np.max(np.abs(got - want[keep]) / want[keep]) <= 2e-13

    @pytest.mark.parametrize("metric, n, alpha", [
        (METRIC_KAPPA_D, 50, 2), (METRIC_KAPPA_D, 100, 2), (METRIC_KAPPA_E, 30, 2)])
    def test_cdf(self, metric, n, alpha):
        dims = Dims(n, alpha)
        law = _trace_ratio_law(metric, dims)
        ys = _accuracy_grid(law, n)
        cdf = cdf_kappa_d_interp if metric == METRIC_KAPPA_D else cdf_kappa_e_interp
        assert np.max(np.abs(cdf(dims)(ys) - _cdf_sums(law, ys))) <= 1e-14

    @pytest.mark.parametrize("route", ["auto", "double"])
    def test_density_far_out_is_zero(self, route):
        # the top term has no power of 1 - t, and edge / y^2 must not overflow;
        # 'auto' is the public density, 'double' the whole-grid sum under it
        ys = np.array([np.inf, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for metric, dims in ((METRIC_KAPPA_D, Dims(4, 1)), (METRIC_KAPPA_E, Dims(4, 1)),
                                 (METRIC_KAPPA_E, Dims(13, 1))):
                if route == "auto":
                    pdf = pdf_kappa_d_grid if metric == METRIC_KAPPA_D else pdf_kappa_e_grid
                    got = pdf(ys, dims)
                else:
                    got, lost = _law_values(_trace_ratio_law(metric, dims), ys)
                    assert np.all(np.isfinite(lost))
                assert got.tolist() == [0.0, 0.0]


# (law builder, dims, grid) of every density job of the benchmark's
# exact-curves workload, then grids on the edges of the support
_CURVE_GRIDS = [
    (_kd_law, Dims(4, 1), np.linspace(4.2, 40.0, 200)),
    (_kd_law, Dims(20, 2), np.linspace(20.5, 200.0, 200)),
    (_ke_pieces, Dims(8, 1), np.linspace(7.2, 60.0, 100)),
    (_ke_pieces, Dims(13, 1), np.linspace(12.5, 80.0, 3)),
    (_lambda2_law, Dims(6, 1), np.linspace(0.01, 3.0, 100)),
    (_lambda2_law, Dims(13, 1), np.linspace(0.05, 1.0, 2)),
    (_lambda_min_law, Dims(20, 2), np.linspace(0.0005, 0.5, 100)),
]
_EDGE_GRIDS = [
    # y at the edge n, below it, and far out
    (_kd_law, Dims(4, 1), np.array([3.0, 4.0, 4.0 + 1e-9, 1e6])),
    # y at the near edge n - 1, at its hi n (the tail's edge) and just past
    (_ke_pieces, Dims(4, 1), np.array([2.5, 3.0, 3.5, 4.0, np.nextafter(4.0, 5.0)])),
    (_ke_pieces, Dims(4, 1), np.array([])),
    (_ke_pieces, Dims(4, 1), np.array([4.0])),
    # x <= 0 has no term
    (_lambda2_law, Dims(4, 0), np.array([-1.0, 0.0, 1e-3, 0.4])),
    (_lambda_min_law, Dims(3, 1), np.array([-0.5, 0.0])),
    (_lambda_min_law, Dims(3, 1), np.array([0.7])),
]


def _double_values(build, dims):
    law = build(dims)
    if build in (_kd_law, _ke_pieces):
        return law, _law_values, law_values_pointwise
    return law, _exp_law_values, exp_law_values_pointwise


class TestWholeGrid:
    """The double path sums a whole grid as one (points x terms) array."""

    @pytest.mark.parametrize("build, dims, xs", _CURVE_GRIDS + _EDGE_GRIDS)
    def test_matches_pointwise_sums(self, build, dims, xs):
        law, values, pointwise = _double_values(build, dims)
        got, lost = values(law, xs)
        want, want_lost = pointwise(law, xs)
        # only the order of the final sum differs: its rounding is a few eps
        # of sum |term| = |value| 10^lost
        rounding = 64 * np.finfo(float).eps * 10.0 ** want_lost
        assert np.all(np.abs(got - want) <= rounding * np.abs(want))
        assert np.all((lost == want_lost) | (np.abs(lost - want_lost) <= rounding))
        assert got.shape == lost.shape == xs.shape

    @pytest.mark.parametrize("build, dims, xs", _CURVE_GRIDS + _EDGE_GRIDS)
    def test_point_alone_equals_point_in_grid(self, build, dims, xs, monkeypatch):
        from wishartcond import exact

        law, values, _ = _double_values(build, dims)
        got, lost = values(law, xs)
        for i in range(xs.size):
            alone = values(law, xs[i:i + 1])
            assert (alone[0][0], alone[1][0]) == (got[i], lost[i]), xs[i]
        terms = sum(len(piece.powers) for piece in law)
        for block in (1, 3 * terms):
            monkeypatch.setattr(exact, "_BLOCK", block)
            small, small_lost = values(law, xs)
            assert small.tolist() == got.tolist() and small_lost.tolist() == lost.tolist()

    def test_outside_support_is_zero(self):
        for build, dims, xs in _EDGE_GRIDS:
            law, values, _ = _double_values(build, dims)
            got, lost = values(law, xs)
            dead = xs <= (dims.n if build is _kd_law else dims.n - 1 if build is _ke_pieces
                          else 0.0)
            assert got[dead].tolist() == lost[dead].tolist() == [0.0] * int(dead.sum())
            assert np.all(got[~dead] > 0.0)


class TestMgfGrid:
    @pytest.mark.parametrize("fn, dims", [(mgf_kappa_d, Dims(3, 1)), (mgf_kappa_d, Dims(4, 2)),
                                          (mgf_kappa_e, Dims(4, 1))])
    def test_grid_equals_scalar_calls(self, fn, dims):
        ss = np.array([0.0, 0.01, 0.05, 0.2, 0.4, 0.0, 0.05])
        got = fn(ss, dims)
        assert isinstance(got, np.ndarray) and got.shape == ss.shape
        scalar = [fn(float(s), dims) for s in ss]
        assert all(isinstance(v, float) for v in scalar)
        assert got.tolist() == scalar
        assert got[0] == got[5] == 1.0
        assert fn(np.array([]), dims).shape == (0,)

    def test_rejects_before_any_quadrature(self, monkeypatch):
        from wishartcond import exact

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_finite called")

        monkeypatch.setattr(exact, "integrate_finite", refuse)
        for fn, dims in ((mgf_kappa_d, Dims(3, 1)), (mgf_kappa_e, Dims(4, 1))):
            for bad in ([0.1, -0.1], [math.nan, 0.1], -1.0, math.nan):
                with pytest.raises(ValueError, match="NaN|>= 0"):
                    fn(np.array(bad) if isinstance(bad, list) else bad, dims)
            assert fn(np.zeros((2, 2)), dims).tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_debug_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="wishartcond"):
            mgf_kappa_e(np.linspace(0.0, 0.4, 5), Dims(4, 1))
        line, = [r.getMessage() for r in caplog.records if "kappa-e mgf" in r.getMessage()]
        fields = [int(w) for w in line.replace(",", " ").split() if w.isdigit()]
        values, calls, arrays, points = fields
        assert values == 5
        # two pieces and four s > 0: node arrays are shared between the s
        assert 2 <= arrays < calls
        assert points >= 64 * arrays
        assert line.endswith(" s")


class TestMgfAgainstMpmath:
    @pytest.mark.parametrize("fn, dims, ss", [
        (mgf_kappa_d, Dims(3, 1), (0.037, 0.3)),
        (mgf_kappa_d, Dims(4, 2), (0.011, 0.2)),
        (mgf_kappa_d, Dims(30, 4), (0.0005, 0.002)),
        (mgf_kappa_e, Dims(4, 1), (0.25, 0.02)),
        (mgf_kappa_e, Dims(6, 2), (0.01, 0.1)),
    ])
    def test_relative_error(self, fn, dims, ss):
        law = _kd_law(dims) if fn is mgf_kappa_d else _ke_pieces(dims)
        for s in ss:
            with mpmath.workdps(30):
                want = float(_mp_mgf(law, s))
            assert fn(s, dims) == pytest.approx(want, rel=1e-12), s


def _mp_eig_density(law, xs, dps: int) -> np.ndarray:
    """An eigenvalue law's density at dps digits, as mpmath sums over its pieces."""
    with mpmath.workdps(dps):
        return np.array([float(mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.mpf(x) ** k
            * mpmath.exp(-rate * mpmath.mpf(x))
            for rate, powers, fracs in law for k, c in zip(powers, fracs))) for x in xs])


def _mp_eig_cdf(law, xs, dps: int = 50) -> np.ndarray:
    """An eigenvalue law's CDF at dps digits, as sums of regularized lower
    incomplete gamma functions over the terms of its pieces."""
    with mpmath.workdps(dps):
        return np.array([float(mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.factorial(k)
            / mpmath.mpf(rate) ** (k + 1)
            * mpmath.gammainc(k + 1, 0, rate * mpmath.mpf(x), regularized=True)
            for rate, powers, fracs in law for k, c in zip(powers, fracs))) for x in xs])


_ACCURACY_DIMS = [Dims(4, 1), Dims(6, 3), Dims(13, 1), Dims(20, 2), Dims(50, 1)]


class TestLambda2Precision:
    def test_double_matches_extended_at_n13(self, caplog):
        # the two pieces cancel near x = 0: the points that lose more than a
        # digit are summed again from the one-rate weights, the rest stay
        # the two-piece sum in double
        xs = np.geomspace(1e-3, 4.0, 30)
        for dims in (Dims(13, 1), Dims(13, 3)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="wishartcond"):
                got = pdf_lambda2_grid(xs, dims)
            ext = _at_dps(_lambda2_law(dims), xs, exp_law_values_mp)
            assert got == pytest.approx(ext, rel=2e-14)
            redone = int(caplog.text.split("lambda-2 density: ")[1].split(" of")[0])
            assert 0 < redone < len(xs)
            dbl = _exp_law_values(_lambda2_law(dims), xs)[0]
            assert dbl[-10:] == pytest.approx(ext[-10:], rel=1e-12)

    def test_deep_cancellation_is_resummed(self, caplog):
        # below x = 1e-4 the pieces cancel by more than 27 digits; the
        # one-rate weights have nothing to cancel
        dims = Dims(5, 3)
        xs = np.array([1e-6, 1e-5])
        with caplog.at_level(logging.INFO, logger="wishartcond"):
            got = pdf_lambda2_grid(xs, dims)
        assert "2 of 2 points re-summed" in caplog.text
        assert got == pytest.approx(_mp_eig_density(_lambda2_law(dims), xs, 120), rel=2e-14)

    @pytest.mark.parametrize("dims", _ACCURACY_DIMS, ids=str)
    def test_density_against_80_digits(self, dims):
        xs = np.geomspace(1e-4, 200.0 / dims.n, 120)
        want = _mp_eig_density(_lambda2_law(dims), xs, 80)
        keep = want > 1e-300
        got = pdf_lambda2_grid(xs[keep], dims)
        assert np.max(np.abs(got - want[keep]) / want[keep]) <= 2e-14

    @pytest.mark.parametrize("dims", _ACCURACY_DIMS, ids=str)
    def test_cdfs_against_gammainc(self, dims):
        # relative accuracy in both tails, and never negative
        xs = np.geomspace(1e-4, 5.0 / dims.n, 30)
        for law, cdf in ((_lambda2_law(dims), cdf_lambda2_interp(dims)),
                         (_lambda_min_law(dims), cdf_lambda_min_interp(dims))):
            want = _mp_eig_cdf(law, xs)
            keep = want > 1e-300
            got = cdf(xs)
            assert np.all(got >= 0.0)
            assert np.max(np.abs(got[keep] - want[keep]) / want[keep]) <= 2e-14


# every lambda-2 dims the tests build
_LAMBDA2_DIMS = sorted({*(Dims(n, alpha) for n in range(3, 14) for alpha in range(4)),
                        Dims(20, 2), Dims(20, 3), Dims(30, 2), Dims(50, 1), Dims(5, 4),
                        Dims(6, 5), Dims(8, 6), Dims(6, 3)}, key=lambda d: (d.n, d.alpha))


class TestLambda2Weights:
    """The one-rate weights against c_k = far_k + sum_j near_j / (k - j)!
    in exact rationals, term by term."""

    @pytest.mark.parametrize("dims", _LAMBDA2_DIMS, ids=str)
    def test_positive_with_tail_below_1e30(self, dims):
        n = dims.n
        near, far = _lambda2_law(dims)
        weights = _lambda2_mix(dims).weights
        far_c = dict(zip(far.powers, far.fracs))
        exact_w = [(far_c.get(k, 0) + sum(c / math.factorial(k - j)
                                          for j, c in zip(near.powers, near.fracs) if j <= k))
                   * math.factorial(k) / Fraction(n) ** (k + 1) for k in range(len(weights))]
        assert all(w >= 0 for w in exact_w)
        assert [float(w) for w in exact_w] == list(weights)
        rest = 1 - sum(exact_w)
        assert 0 <= rest < Fraction(1, 10 ** 30)
        # the first K past the top power whose remainder is below 1e-30
        top = max(*near.powers, *far.powers)
        assert len(weights) - 1 > top
        assert len(weights) - 2 == top or rest + exact_w[-1] >= Fraction(1, 10 ** 30)

    def test_counts(self):
        # K + 1 weights at (4, 1), (13, 1) and (50, 1)
        assert [len(_lambda2_mix(Dims(*d)).weights) for d in ((4, 1), (13, 1), (50, 1))] == [
            73, 59, 149]

    def test_negative_weight_raises(self, monkeypatch):
        from wishartcond import exact

        near, far = _lambda2_law(Dims(4, 1))
        broken = (near, far._replace(fracs=(far.fracs[0] * 1000,) + far.fracs[1:]))
        monkeypatch.setattr(exact, "_lambda2_law", lambda dims: broken)
        with pytest.raises(ArithmeticError, match="lambda-2 weights|negative"):
            exact._lambda2_mix.__wrapped__(Dims(4, 1))
        # one negative smallest-eigenvalue coefficient is a negative weight
        fracs = exact._min_eig_fracs(Dims(4, 2))
        monkeypatch.setattr(exact, "_min_eig_fracs", lambda dims: (-fracs[0],) + fracs[1:])
        with pytest.raises(ArithmeticError, match="negative Gamma mixture weight at power 2"):
            exact._lambda_min_mix.__wrapped__(Dims(4, 2))


class TestExtendedFrozen:
    """The 40-digit sums at grid points of the benchmark's density jobs,
    pinned bit for bit as repr literals."""

    def test_lambda2_n6(self):
        xs = np.linspace(0.01, 3.0, 100)[list(range(10)) + [20, 40, 60, 80, 99]]
        got = _at_dps(_lambda2_law(Dims(6, 1)), xs, exp_law_values_mp)
        assert got.tolist() == [
            1.9686892645511727e-09, 1.8521742697265666e-06, 2.7334194890557976e-05,
            0.0001459232533936643, 0.00048581443750571037, 0.001229883792023444,
            0.0026030494122128056, 0.004855608066444584, 0.008245641722675926,
            0.013022486540011499, 0.19102472245703403, 0.6446475237742391,
            0.5151414749950269, 0.22138999544406057, 0.07091718403909768]

    def test_lambda2_n13(self):
        got = _at_dps(_lambda2_law(Dims(13, 1)), np.linspace(0.05, 1.0, 2), exp_law_values_mp)
        assert got.tolist() == [0.0003694168531051331, 0.772512054886887]

    def test_kappa_e_n13(self):
        got = _at_dps(_ke_pieces(Dims(13, 1)), np.linspace(12.5, 80.0, 3))
        assert got.tolist() == [2.0233902330738344e-187, 2.4260033112577264e-11,
                                1.9864764892832928e-05]


_KE_TABLE_DIMS = ([Dims(n, alpha) for n in range(3, 14) for alpha in range(4)]
                  + [Dims(20, 3), Dims(30, 2), Dims(50, 1)])


class TestTableBuilds:
    """Every production table equals, as a tuple, the table of the builder
    it replaced; so every density, CDF and MGF built on it is unchanged."""

    def test_kappa_d_equals_fraction_builder(self):
        for n in range(2, 31):
            for alpha in range(5):
                dims = Dims(n, alpha)
                assert _kd_law(dims) == (kd_min_table_oracle(dims),), dims

    @pytest.mark.parametrize("dims", _KE_TABLE_DIMS, ids=str)
    def test_kappa_e_and_lambda2_equal_per_law_builders(self, dims):
        # term order within the near piece is not part of the law
        def terms(law):
            return [(t.mn, t.edge, t.hi, dict(zip(t.powers, t.fracs))) for t in law]

        assert terms(_ke_pieces(dims)) == terms(ke_pieces_oracle(dims))
        assert _lambda2_law(dims) == lambda2_law_oracle(dims)

    def test_shared_rows_built_once(self):
        # kappa-e is built from the lambda-2 law, which a later call reuses
        from wishartcond import exact

        for fn in (exact._trace_ratio_law, exact._lambda2_law):
            fn.cache_clear()
        dims = Dims(7, 2)
        _ke_pieces(dims)
        info = exact._lambda2_law.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        _lambda2_law(dims)
        info = exact._lambda2_law.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_kappa_d_tail_checks_its_signs(self, monkeypatch):
        # one negative smallest-eigenvalue coefficient maps to a negative
        # kappa-d coefficient
        from wishartcond import exact

        fracs = exact._min_eig_fracs(Dims(4, 2))
        monkeypatch.setattr(exact, "_min_eig_fracs", lambda dims: (-fracs[0],) + fracs[1:])
        with pytest.raises(ArithmeticError, match="kappa-d table: negative coefficient"):
            exact._trace_ratio_law.__wrapped__(METRIC_KAPPA_D, Dims(4, 2))

    def test_lambda2_far_piece_checks_its_powers(self, monkeypatch):
        # a row product whose far power falls below alpha, the near ones intact
        from wishartcond import exact

        den, rows = exact._ke_row_products(Dims(4, 1))
        d, prod_g, prod_q = rows[0]
        broken = ((d, prod_g, prod_q + (0,) * d + (1,)),) + rows[1:]
        monkeypatch.setattr(exact, "_ke_row_products", lambda dims: (den, broken))
        with pytest.raises(ArithmeticError, match="below alpha"):
            exact._lambda2_law.__wrapped__(Dims(4, 1))

    def test_one_debug_line_per_build(self, caplog):
        from wishartcond import exact

        builders = (exact._ke_det, exact._trace_ratio_law, exact._lambda2_law,
                    exact._min_eig_fracs)
        for fn in builders:
            fn.cache_clear()
        dims = Dims(5, 1)
        with caplog.at_level(logging.DEBUG, logger="wishartcond"):
            for _ in range(2):
                _ke_pieces(dims)
                _lambda2_law(dims)
                _kd_law(dims)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 5
        for law, pieces in (("kappa-e", 2), ("lambda-2", 2), ("lambda-min", 1), ("kappa-d", 1)):
            line, = [m for m in lines if m.startswith(f"{law} table n=5 alpha=1: ")]
            assert f": {pieces} pieces of " in line and line.endswith(" s")
        ke = _ke_pieces(dims)
        assert any(m.startswith(f"kappa-e table n=5 alpha=1: 2 pieces of "
                                f"{len(ke[0].fracs)}/{len(ke[1].fracs)} terms") for m in lines)
        rows, = [m for m in lines if m.startswith("kappa-e rows n=5 alpha=1: ")]
        assert f"{len(exact._ke_row_products(dims)[1])} rows" in rows

    def test_no_debug_call_without_debug(self, monkeypatch, caplog):
        from wishartcond import exact

        monkeypatch.setattr(exact.log, "debug", None)   # a call would raise
        for fn in (exact._trace_ratio_law, exact._lambda2_law, exact._min_eig_fracs):
            fn.cache_clear()
        with caplog.at_level(logging.INFO, logger="wishartcond"):
            _kd_law(Dims(4, 2))
            _ke_pieces(Dims(4, 2))


class TestLimitWeights:
    """The tail-piece term of power mn - 2 - k - s, s = 0 for kappa-d and 3
    for kappa-e, has an exact Beta mass m_k(n) that is a polynomial in
    x = 1/n, of degree k for kappa-d and k + 2 for kappa-e, at alpha = 1
    and 2.  Its constant term is the limit weight b_k of the asymptotic
    table."""

    @pytest.mark.parametrize("metric, alpha, s, extra", [
        (METRIC_KAPPA_D, 1, 0, 0), (METRIC_KAPPA_D, 2, 0, 0), (METRIC_KAPPA_E, 1, 3, 2),
        (METRIC_KAPPA_E, 2, 3, 2)])
    def test_constant_term_is_the_limit_weight(self, metric, alpha, s, extra):
        from wishartcond import asymptotic

        for k in range(9):
            # degree + 1 nodes from n = 12, then two held-out n
            ns = range(12, 12 + k + extra + 3)
            masses = {}
            for n in ns:
                tail = _trace_ratio_law(metric, Dims(n, alpha))[-1]
                masses[n] = dict(_term_masses(tail)).get(tail.mn - 2 - k - s, Fraction(0))
            nodes = [(Fraction(1, n), masses[n]) for n in ns[:-2]]

            def fit(x):
                return sum(m * math.prod((x - xj) / (xi - xj) for xj, _ in nodes if xj != xi)
                           for xi, m in nodes)

            for n in ns[-2:]:
                assert fit(Fraction(1, n)) == masses[n], (k, n)
            assert fit(Fraction(0)) == asymptotic._weights(metric, alpha)[k + s], k
