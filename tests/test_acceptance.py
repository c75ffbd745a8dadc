"""Acceptance sweep: every quantitative guarantee the package makes, one
test and one printed PASS/FAIL line each, at the stated tolerance and
runtime budget.

These are end-to-end checks on released behavior; the per-module suites
cover the internals.  Run with -s to see the measured numbers.
"""

import random
import time

import numpy as np
import pytest

from oracles import (
    normalization_kappa_d,
    normalization_kappa_e,
    normalization_lambda2,
    normalization_lambda_min,
    normalization_v_kappa_d,
    normalization_v_kappa_e,
    pdf_v_kappa_e_closed_alpha0,
    q_closed,
    q_integral_oracle,
    r_closed,
    r_integral_oracle,
)
from wishartcond.asymptotic import (
    ScaledParams,
    cdf_v_kappa_d_interp,
    cdf_v_kappa_e_interp,
    pdf_v_kappa_e_grid,
)
from wishartcond.detkit import (
    lemma_a1_det_int,
    lemma_a1_rhs_int,
    lemma_a2_det_int,
    lemma_a2_rhs_int,
)
from wishartcond.exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    Dims,
    cdf_kappa_d_interp,
    cdf_kappa_e_interp,
    cdf_lambda2_interp,
    pdf_kappa_d,
    pdf_kappa_d_grid,
    pdf_kappa_e,
    pdf_via_lambda2_connection,
    pdf_via_min_connection,
)
from wishartcond.sampler import ks_compare, ks_threshold, mc_collect


def _report(number: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def test_01_nested_sum_vs_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for alpha in (0, 1):
        for n in range(2, 7):
            dims = Dims(n, alpha)
            ys = np.linspace(n * 1.02, 8.0 * n, 100)
            worst = max(worst, _rel(pdf_kappa_d_grid(ys, dims, mode="theorem"),
                                    pdf_kappa_d_grid(ys, dims, mode="closed")))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"max relative gap {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_02_normalization_suite():
    started = time.perf_counter()
    worst = 0.0
    for alpha in (0, 1, 2):
        for n in (2, 3, 4, 5):
            dims = Dims(n, alpha)
            worst = max(worst, abs(normalization_kappa_d(dims) - 1.0))
            worst = max(worst, abs(normalization_lambda_min(dims) - 1.0))
            if n >= 3:
                worst = max(worst, abs(normalization_kappa_e(dims) - 1.0))
                worst = max(worst, abs(normalization_lambda2(dims) - 1.0))
        for mu in (0.25, 4.0):
            params = ScaledParams(mu, alpha)
            worst = max(worst, abs(normalization_v_kappa_d(params) - 1.0))
            worst = max(worst, abs(normalization_v_kappa_e(params) - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 120.0
    _report(2, ok, f"worst |mass - 1| {worst:.2e} (tol 1e-5), {elapsed:.0f}s (< 2min)")
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_03_mc_vs_exact_densities():
    started = time.perf_counter()
    count = 100_000
    bound = ks_threshold(count)
    cases = []
    for alpha in (0, 1, 2):
        dims = Dims(4, alpha)
        for metric, builder in ((METRIC_KAPPA_D, cdf_kappa_d_interp),
                                (METRIC_KAPPA_E, cdf_kappa_e_interp),
                                (METRIC_LAMBDA_2, cdf_lambda2_interp)):
            draws = mc_collect(metric, dims, count, seed=1)
            cdf = builder(dims)
            cases.append((metric, alpha, ks_compare(draws, cdf)))
    elapsed = time.perf_counter() - started
    worst = max(stat for _, _, stat in cases)
    ok = worst < bound and elapsed < 60.0
    _report(3, ok, f"worst KS {worst:.5f} over 9 cases (< {bound:.5f}), "
                   f"{elapsed:.0f}s (< 1min)")
    for metric, alpha, stat in cases:
        assert stat < bound, f"{metric} alpha={alpha}: KS {stat:.5f}"
    assert elapsed < 60.0


def test_04_limit_curve_vs_mc_kappa_d():
    started = time.perf_counter()
    count, n, mu = 100_000, 50, 4.0
    cases = []
    for alpha in (1, 2):
        cdf = cdf_v_kappa_d_interp(ScaledParams(mu, alpha))
        scaled = mc_collect(METRIC_KAPPA_D, Dims(n, alpha), count, seed=1) / (mu * n ** 3)
        cases.append((alpha, ks_compare(scaled, cdf)))
    elapsed = time.perf_counter() - started
    ok = all(stat <= 0.02 for _, stat in cases) and elapsed < 300.0
    detail = ", ".join(f"alpha={a}: KS {s:.4f}" for a, s in cases)
    _report(4, ok, f"{detail} (tol 0.02 with finite-n allowance), "
                   f"{elapsed:.0f}s (< 5min)")
    for alpha, stat in cases:
        assert stat <= 0.02, f"alpha={alpha}: KS {stat:.4f} above the 0.02 allowance"
    assert elapsed < 300.0


def test_05_limit_curve_vs_mc_kappa_e():
    started = time.perf_counter()
    count, mu = 100_000, 4.0
    cases = []
    for n, alpha, bound in ((10, 0, 0.03), (50, 1, 0.02)):
        cdf = cdf_v_kappa_e_interp(ScaledParams(mu, alpha))
        scaled = mc_collect(METRIC_KAPPA_E, Dims(n, alpha), count, seed=1) / (mu * n ** 3)
        cases.append((n, alpha, ks_compare(scaled, cdf), bound))
    elapsed = time.perf_counter() - started
    ok = all(stat <= bound for _, _, stat, bound in cases) and elapsed < 300.0
    detail = ", ".join(f"n={n} alpha={a}: KS {s:.4f} (tol {b})"
                       for n, a, s, b in cases)
    _report(5, ok, f"{detail}, {elapsed:.0f}s (< 5min)")
    for n, alpha, stat, bound in cases:
        assert stat <= bound, f"n={n} alpha={alpha}: KS {stat:.4f} above {bound}"
    assert elapsed < 300.0


def test_06_alpha0_limit_law():
    # the alpha=0 limit CDF from its mixture table against Edelman's closed form
    mu = 4.0
    x = np.linspace(0.7, 8.0, 50)
    got = cdf_v_kappa_d_interp(ScaledParams(mu, 0))(x * x / (4.0 * mu))
    worst_identity = float(np.max(np.abs(got - np.exp(-4.0 / (x * x)))))
    # the exact n=30 law is already within a few percent of the limit
    n = 30
    xs = np.linspace(1.0, 10.0, 200)
    cdf = cdf_kappa_d_interp(Dims(n, 0))
    sup = float(np.max(np.abs(cdf(xs * xs * n ** 3 / 4.0) - np.exp(-4.0 / (xs * xs)))))
    ok = worst_identity <= 1e-12 and sup <= 0.03
    _report(6, ok, f"identity gap {worst_identity:.2e} (tol 1e-12), "
                   f"n=30 sup gap {sup:.4f} (tol 0.03)")
    assert worst_identity <= 1e-12
    assert sup <= 0.03


def test_07_integer_determinant_lemmas():
    started = time.perf_counter()
    rng = random.Random(7)
    checked_a1 = 0
    while checked_a1 < 220:
        alpha = rng.randint(1, 5)
        n = rng.randint(2, 7)
        jvec = [rng.randint(0, n + alpha - 1 - l) for l in range(1, alpha + 1)]
        assert lemma_a1_det_int(jvec, n, alpha) == lemma_a1_rhs_int(jvec, n, alpha)
        checked_a1 += 1
    checked_a2 = 0
    while checked_a2 < 220:
        alpha = rng.randint(1, 4)
        n = rng.randint(2, 7)
        lvec = [rng.randint(0, n + alpha - j) for j in (1, 2)]
        lvec += [rng.randint(0, n + alpha + 2 - k) for k in range(3, alpha + 3)]
        assert lemma_a2_det_int(lvec, n, alpha) == lemma_a2_rhs_int(lvec, n, alpha)
        checked_a2 += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    _report(7, ok, f"{checked_a1} + {checked_a2} integer identities exact, "
                   f"{elapsed:.1f}s (< 5s)")
    assert elapsed < 5.0


def test_08_connection_identities():
    rng = random.Random(23)
    worst_min = 0.0
    worst_l2 = 0.0
    for _ in range(54):
        n = rng.randint(3, 5)
        alpha = rng.randint(0, 1)
        dims = Dims(n, alpha)
        y = n + 0.2 + 3.0 * n * rng.random()
        worst_min = max(worst_min, _rel(pdf_via_min_connection(y, dims),
                                        pdf_kappa_d(y, dims)))
        y = n - 1 + 0.2 + 3.0 * n * rng.random()
        worst_l2 = max(worst_l2, _rel(pdf_via_lambda2_connection(y, dims),
                                      pdf_kappa_e(y, dims)))
    ok = worst_min <= 1e-8 and worst_l2 <= 1e-8
    _report(8, ok, f"smallest-eigenvalue route {worst_min:.2e}, "
                   f"second-smallest route {worst_l2:.2e} (tol 1e-8)")
    assert worst_min <= 1e-8
    assert worst_l2 <= 1e-8


def test_09_proof_integral_closed_forms():
    rng = random.Random(5)
    worst_q = 0.0
    for _ in range(5):
        n = rng.randint(1, 3)
        alpha = rng.randint(0, 2)
        z = 0.2 + 1.6 * rng.random()
        worst_q = max(worst_q, _rel(q_closed(n, alpha, z),
                                    q_integral_oracle(n, alpha, z)))
    worst_r = 0.0
    for _ in range(5):
        n = rng.randint(1, 3)
        alpha = rng.randint(0, 2)
        a = 0.6 + rng.random()
        b = 0.6 + rng.random()
        worst_r = max(worst_r, _rel(r_closed(n, a, b, alpha),
                                    r_integral_oracle(n, a, b, alpha)))
    ok = worst_q <= 1e-6 and worst_r <= 1e-6
    _report(9, ok, f"first family {worst_q:.2e}, second family {worst_r:.2e} "
                   f"(tol 1e-6)")
    assert worst_q <= 1e-6
    assert worst_r <= 1e-6


def test_10_kappa_e_hypergeometric_form():
    vs = np.linspace(0.01, 2.0, 100)
    params = ScaledParams(4.0, 0)
    gap = _rel(pdf_v_kappa_e_grid(vs, params),
               pdf_v_kappa_e_closed_alpha0(vs, params.mu))
    ok = gap <= 1e-7
    _report(10, ok, f"z-integral vs three-term closed form {gap:.2e} (tol 1e-7)")
    assert gap <= 1e-7
