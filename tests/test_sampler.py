import functools
import json
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import bidiagonal_shapes, block_gamma_reference, sample_matrix

from wishartcond import sampler
from wishartcond.exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    METRIC_LAMBDA_MIN,
    METRICS,
    Dims,
)
from wishartcond.sampler import (
    _BLOCK,
    SamplerError,
    _kth_smallest,
    build_report,
    ks_compare,
    ks_threshold,
    mc_collect,
)

_KTH = {METRIC_KAPPA_D: 1, METRIC_LAMBDA_MIN: 1, METRIC_KAPPA_E: 2, METRIC_LAMBDA_2: 2}


class TestMatrixDraws:
    def test_deterministic_in_seed_and_index(self):
        d = Dims(4, 1)
        a = sample_matrix(d, seed=7, index=3)
        b = sample_matrix(d, seed=7, index=3)
        c = sample_matrix(d, seed=7, index=4)
        e = sample_matrix(d, seed=8, index=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, e)

    def test_shape(self):
        mat = sample_matrix(Dims(3, 2), seed=1)
        assert mat.shape == (5, 3) and mat.dtype == complex

    def test_moments(self):
        # complex standard normal: E|z|^2 = 1, split evenly between parts
        z = sample_matrix(Dims(90, 0), seed=2).ravel()
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.03)
        assert np.var(z.real) == pytest.approx(0.5, abs=0.03)
        assert np.var(z.imag) == pytest.approx(0.5, abs=0.03)
        assert abs(np.mean(z)) < 0.03


class TestMcCollect:
    def test_deterministic_and_schedule_invariant(self):
        d = Dims(3, 1)
        base = mc_collect(METRIC_KAPPA_D, d, 600, seed=21)
        again = mc_collect(METRIC_KAPPA_D, d, 600, seed=21)
        chunked = mc_collect(METRIC_KAPPA_D, d, 600, seed=21, chunk=113)
        threaded = mc_collect(METRIC_KAPPA_D, d, 600, seed=21, workers=3)
        assert np.array_equal(base, again)
        assert np.array_equal(base, chunked)
        assert np.array_equal(base, threaded)
        # 3,000 draws span three blocks; chunks of 113 and 1,000 cut them
        for dims in (Dims(50, 1), Dims(10, 9)):
            base = mc_collect(METRIC_KAPPA_E, dims, 3000, seed=21)
            for chunk in (113, 1000, 4096):
                for workers in (1, 2, 3):
                    got = mc_collect(METRIC_KAPPA_E, dims, 3000, seed=21, workers=workers,
                                     chunk=chunk)
                    assert np.array_equal(got, base), (dims, chunk, workers)

    def test_metric_inequalities(self):
        d = Dims(4, 0)
        kd = mc_collect(METRIC_KAPPA_D, d, 300, seed=33)
        ke = mc_collect(METRIC_KAPPA_E, d, 300, seed=33)
        l2 = mc_collect(METRIC_LAMBDA_2, d, 300, seed=33)
        lmin = mc_collect("lambda-min", d, 300, seed=33)
        assert np.all(kd >= d.n - 1e-9)
        assert np.all(ke <= kd + 1e-9)
        assert np.all(l2 >= lmin - 1e-12)

    @pytest.mark.parametrize("dims", [Dims(50, 1), Dims(50, 2)])
    @pytest.mark.parametrize("metric", [METRIC_KAPPA_D, METRIC_KAPPA_E])
    def test_debug_mode_at_n50(self, dims, metric):
        # the draws at n = 50 do not depend on the chunk size
        got = mc_collect(metric, dims, 600, seed=4, chunk=550)
        assert np.array_equal(got, mc_collect(metric, dims, 600, seed=4))

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_collect("wat", Dims(3, 0), 10, seed=1)
        with pytest.raises(ValueError):
            mc_collect(METRIC_KAPPA_D, Dims(3, 0), 0, seed=1)
        with pytest.raises(ValueError):
            mc_collect(METRIC_KAPPA_E, Dims(1, 0), 10, seed=1)
        for chunk in (0, -1):
            with pytest.raises(ValueError, match="chunk must be >= 1"):
                mc_collect(METRIC_KAPPA_D, Dims(3, 0), 10, seed=1, chunk=chunk)

    def test_stage_seconds(self):
        stages = {}
        got = mc_collect(METRIC_KAPPA_E, Dims(4, 1), 300, seed=3, workers=2, chunk=100,
                         stage_s=stages)
        assert sorted(stages) == ["search_s", "variates_s"]
        assert stages["variates_s"] > 0 and stages["search_s"] > 0
        # the seconds are reported beside the draws, which do not change
        assert np.array_equal(got, mc_collect(METRIC_KAPPA_E, Dims(4, 1), 300, seed=3))


@functools.lru_cache(maxsize=8)
def _block(dims: Dims, seed: int, block: int) -> np.ndarray:
    rows = block_gamma_reference(dims, seed, block)
    rows.flags.writeable = False
    return rows


def _reference_variates(dims: Dims, seed: int, index: int) -> np.ndarray:
    """Draw index's 2n - 1 Gamma variates, regenerated from its block."""
    return _block(dims, seed, index // _BLOCK)[:, index % _BLOCK]


def _rows(dims: Dims, seed: int, start: int, stop: int):
    """``_laguerre_tridiagonal``'s (d, e2, trace), one row per draw."""
    D, E2, trace = sampler._laguerre_tridiagonal(dims, seed, start, stop)
    return D.T, E2.T, trace


def _tridiagonal(gam: np.ndarray, n: int):
    """(d, e2, trace) of B B^T from rows of Gamma variates, one row per draw;
    the trace adds the variates in their row order, as the sampler does."""
    a2, b2 = gam[:, :n], gam[:, n:]
    d = a2.copy()
    d[:, 1:] += b2
    trace = gam[:, 0].copy()
    for col in gam.T[1:]:
        trace += col
    return d, a2[:, :-1] * b2, trace


def _reference_draws(metric: str, dims: Dims, seed: int, indices) -> np.ndarray:
    """mc_collect's values for these indices, from ``_reference_variates``."""
    d, e2, tr = _tridiagonal(np.stack([_reference_variates(dims, seed, k) for k in indices]),
                             dims.n)
    lam = _kth_smallest(d.T, e2.T, _KTH[metric])
    return tr / lam if metric in (METRIC_KAPPA_D, METRIC_KAPPA_E) else lam


class TestKeyedStream:
    """Block b = k // 1024 of draws k draws its Gamma rows from one Philox
    stream, keyed by the seed mod 2**64 and started at counter b << 64."""

    @pytest.mark.parametrize("count", [20, 2550, 1, 9, 10, 15])
    def test_matches_per_draw_generator(self, count):
        # runs from draw 1000, inside block 0, to a draw of block 0 to 3: each
        # draw equals the one its block's own generator makes
        dims = Dims(3, 2)
        for seed in (11, -7, 2 ** 63 + 5):
            want = _tridiagonal(np.stack([_reference_variates(dims, seed, k)
                                          for k in range(1000, 1000 + count)]), dims.n)
            got = _rows(dims, seed, 1000, 1000 + count)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_seeds_below_2_63_keep_their_words(self):
        # the list key that numpy converts exactly below 2**63: the first row
        # of block 4, a_0^2 of shape m, is that stream's first 1,024 variates
        dims = Dims(3, 2)
        for seed in (0, 1, 209, 2 ** 62 + 3, 2 ** 63 - 1):
            gen = np.random.Generator(np.random.Philox(key=[seed, 0], counter=[0, 4, 0, 0]))
            D = sampler._laguerre_tridiagonal(dims, seed, 4 * 1024, 5 * 1024)[0]
            assert np.array_equal(D[0], gen.standard_gamma(dims.m, size=1024))

    def test_distinct_seeds_give_distinct_streams(self):
        def first(seed):
            return sampler._laguerre_tridiagonal(Dims(2, 0), seed, 0, 8)[0]

        for a, b in ((-1, -2), (-1, -7), (-2, -7), (2 ** 63 + 5, 2 ** 63 + 6)):
            assert not np.array_equal(first(a), first(b))
        assert np.array_equal(first(-1), first(2 ** 64 - 1))

    def test_negative_seeds_draw_distinct_values_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [mc_collect(METRIC_KAPPA_D, Dims(3, 0), 50, seed=s) for s in (-1, -2, -7)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[0], draws[2])

    @pytest.mark.parametrize("metric", METRICS)
    def test_mc_collect_matches_per_draw_path(self, metric):
        # indices 1014..1039 cross the block at 1024 and the chunk at 1030
        dims = Dims(50, 1)
        got = mc_collect(metric, dims, 1040, seed=5, chunk=1030)[1014:]
        assert np.array_equal(got, _reference_draws(metric, dims, 5, range(1014, 1040)))

    @pytest.mark.parametrize("dims", [Dims(3, 0), Dims(2, 3), Dims(3, 2)])
    def test_unpadded_widths_are_schedule_invariant(self, dims):
        # chunks of 7 draws, no multiple of the block, and 2,100 draws, which
        # end inside block 2: each cut block is drawn whole and sliced
        seed = 2 ** 63 + 5
        base = mc_collect(METRIC_KAPPA_E, dims, 2100, seed=seed)
        assert np.array_equal(base[2060:], _reference_draws(METRIC_KAPPA_E, dims, seed,
                                                            range(2060, 2100)))
        assert np.array_equal(base, mc_collect(METRIC_KAPPA_E, dims, 2100, seed=seed,
                                               workers=2, chunk=7))

    @pytest.mark.parametrize("dims", [Dims(50, 1), Dims(10, 9)])
    def test_partial_run_is_a_slice_of_the_aligned_run(self, dims):
        D, E2, trace = sampler._laguerre_tridiagonal(dims, 9, 0, 4096)
        # both ends fall inside a block: blocks 0 and 3 are drawn whole and sliced
        part = sampler._laguerre_tridiagonal(dims, 9, 1000, 3100)
        for a, b in zip(part, (D[:, 1000:3100], E2[:, 1000:3100], trace[1000:3100])):
            assert np.array_equal(a, b)

    def test_variate_block_stays_within_its_memory(self):
        # the variates stage holds D, E2 and the trace, and one row buffer of
        # 1,024 doubles only when a block is cut; 4 KiB covers the generators
        # and views of one block
        for dims in (Dims(50, 1), Dims(4, 1)):
            for start, stop in ((0, 4096), (1000, 3100), (5, 17)):
                sampler._laguerre_tridiagonal(dims, 5, start, stop)
                tracemalloc.start()
                try:
                    sampler._laguerre_tridiagonal(dims, 5, start, stop)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                held = 8 * (stop - start) * 2 * dims.n
                held += 8 * _BLOCK if start % _BLOCK or stop % _BLOCK else 0
                assert held <= peak <= held + 4096, (dims, start, stop)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dims, mib", [(Dims(50, 1), 6.25), (Dims(50, 2), 6.25),
                                           (Dims(4, 1), 1.31)])
    def test_chunk_stays_within_its_memory(self, metric, dims, mib):
        # a chunk holds its tridiagonal and trace, one work copy of d and a
        # gather buffer for fewer than half the lanes; the search's
        # temporaries set the peak: 5.7-6.0 MiB at n = 50, 1.18-1.28 MiB at n = 4
        sampler._chunk_values(metric, dims, 5, 0, 4096)
        tracemalloc.start()
        try:
            sampler._chunk_values(metric, dims, 5, 4096, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20


def _gamma_cdf(x, a: int) -> np.ndarray:
    """Gamma(a) CDF for integer a: 1 - exp(-x) sum_{j < a} x^j / j!."""
    x = np.asarray(x, dtype=float)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(1, a):
        term = term * x / j
        total += term
    return 1.0 - np.exp(-x) * total


class TestGammaVariates:
    def test_columns_match_the_gamma_law(self):
        # (50, 1): a_0^2 has shape 51, a_42^2 shape 9, a_49^2 shape 2 and
        # b_48^2 shape 1, each a row of every block; the sampler's draws are
        # these rows (TestKeyedStream)
        dims, blocks = Dims(50, 1), 98
        rows = np.concatenate([block_gamma_reference(dims, 13, b) for b in range(blocks)], axis=1)
        crit = ks_threshold(blocks * _BLOCK)
        for a, row in ((51, 0), (9, 42), (2, 49), (1, 98)):
            assert bidiagonal_shapes(dims)[row] == a
            assert ks_compare(rows[row], lambda x, a=a: _gamma_cdf(x, a)) < crit, a

    @pytest.mark.parametrize("dims", [Dims(4, 0), Dims(4, 2), Dims(1, 7), Dims(3, 5),
                                      Dims(8, 0)])
    def test_small_shapes_keep_the_erlang_row(self, dims):
        # every row has an integer shape up to 8, so an Erlang law, row by
        # row; the 1e-4 critical value keeps all 35 rows checked here at a
        # small family-wise level
        blocks = 20
        rows = np.concatenate([block_gamma_reference(dims, 7, b) for b in range(blocks)], axis=1)
        for row, a in zip(rows, bidiagonal_shapes(dims)):
            assert ks_compare(row, lambda x, a=a: _gamma_cdf(x, a)) < 2.23 / (blocks * _BLOCK) ** 0.5

    def test_row_width(self):
        # a block is 1,024 draws wide: draws 0..2047 take the first row of
        # blocks 0 and 1, and the cut run 1020..1027 the slices of both
        dims = Dims(2, 1)
        assert _BLOCK == 1024
        want = np.concatenate([_block(dims, 3, 0)[0], _block(dims, 3, 1)[0]])
        assert np.array_equal(sampler._laguerre_tridiagonal(dims, 3, 0, 2048)[0][0], want)
        assert np.array_equal(sampler._laguerre_tridiagonal(dims, 3, 1020, 1028)[0][0],
                              want[1020:1028])

    @pytest.mark.parametrize("metric", [METRIC_KAPPA_D, METRIC_KAPPA_E])
    def test_rejections_follow_the_row(self, metric):
        # a Marsaglia-Tsang rejection in numpy's standard_gamma takes more
        # words of the block's stream, which moves every later variate of the
        # block; blocks drawn whole, rows in a fixed order, keep that fixed
        # (10, 0): shapes 2 to 10, chunks of 37 cut every block
        dims, seed = Dims(10, 0), 2 ** 63 + 5
        base = mc_collect(metric, dims, 2100, seed=seed)
        assert np.array_equal(base[1010:1040], _reference_draws(metric, dims, seed,
                                                                range(1010, 1040)))
        assert np.array_equal(base, mc_collect(metric, dims, 2100, seed=seed, workers=2,
                                               chunk=37))


class TestOneOrderStatistic:
    @staticmethod
    def _spy(monkeypatch, wrap=lambda lam, kth: lam):
        calls = []

        def spy(d, e2, kth):
            calls.append(kth)
            return wrap(_kth_smallest(d, e2, kth), kth)

        monkeypatch.setattr(sampler, "_kth_smallest", spy)
        return calls

    @pytest.mark.parametrize("metric", METRICS)
    def test_bisects_only_the_needed_eigenvalue(self, metric, monkeypatch):
        calls = self._spy(monkeypatch)
        mc_collect(metric, Dims(4, 1), 50, seed=3, chunk=20)
        assert calls == [_KTH[metric]] * 3

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("poison", [np.nan, 0.0])
    def test_bad_value_reports_its_index(self, metric, poison, monkeypatch):
        def poisoned(lam, kth):
            lam[7] = poison
            return lam

        self._spy(monkeypatch, poisoned)
        with pytest.raises(SamplerError, match=r"sample index 7$"):
            mc_collect(metric, Dims(3, 0), 40, seed=1, chunk=20)


def _lapack(d, e2):
    """Eigenvalues of each tridiagonal, from LAPACK on its dense form."""
    k, n = d.shape
    diag = np.arange(n)
    T = np.zeros((k, n, n))
    T[:, diag, diag] = d
    e = np.sqrt(e2)
    T[:, diag[1:], diag[:-1]] = e
    T[:, diag[:-1], diag[1:]] = e
    return np.linalg.eigvalsh(T)


def _search(d, e2, kth):
    """_kth_smallest's values, with its (Laguerre sweeps per lane, fallback lanes)."""
    lam = _kth_smallest(np.asarray(d, dtype=float).T, np.asarray(e2, dtype=float).T, kth)
    pole, _, final, _, fallbacks, _ = sampler._search_stats.last
    return lam, (pole + final, fallbacks)


def _close_pair_rows(n: int):
    """(d, e2) of one 2n x 2n tridiagonal with lambda_2 / lambda_1 - 1 below
    1e-5: a draw's n x n block twice, coupled by e2 = 1e-12."""
    d, e2, _ = _rows(Dims(n, 1), 5, 0, 1)
    return np.hstack([d, d]), np.hstack([e2, [[1e-12]], e2])


_CLOSE_D, _CLOSE_E2 = [[1.0, 1.0 + 2e-7, 50.0, 90.0]], [[1e-16, 1e-8, 1.0]]


class TestEigenSearch:
    EPS = np.finfo(float).eps

    def _assert_close(self, lam, vals, kth):
        n = vals.shape[1]
        bound = 16 * n * self.EPS * np.abs(vals).max(axis=1)
        assert np.all(np.abs(lam - vals[:, kth - 1]) <= bound)

    @pytest.mark.parametrize("n", [2, 3, 4, 50])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("kth", [1, 2])
    def test_matches_lapack(self, n, alpha, kth):
        d, e2, trace = _rows(Dims(n, alpha), 40 + alpha, 0, 512)
        lam, (sweeps, fallbacks) = _search(d, e2, kth)
        vals = _lapack(d, e2)
        self._assert_close(lam, vals, kth)
        # the trace, the sum of B's squared entries, is the eigenvalue sum
        bound = 16 * n * self.EPS * np.abs(vals).max(axis=1)
        assert np.all(np.abs(trace - vals.sum(axis=1)) <= bound)
        # every lane certified on the Laguerre path, in a few sweeps
        assert fallbacks == 0
        assert sweeps < (5 if kth == 1 else 8)

    @pytest.mark.parametrize("d, e2", [
        ([[2.0, 3.0]], [[1.0]]),
        ([[3.0, 1.0, 2.0]], [[0.0, 0.0]]),             # decoupled
        ([[1.0, 2.0]], [[1e-300]]),                    # hits the pivot guard at x = 1
        (_CLOSE_D, _CLOSE_E2),                         # lambda_2 / lambda_1 - 1 < 1e-6
    ])
    @pytest.mark.parametrize("kth", [1, 2])
    def test_edge_rows(self, d, e2, kth):
        vals = _lapack(np.array(d), np.array(e2))
        lam, (_, fallbacks) = _search(d, e2, kth)
        self._assert_close(lam, vals, kth)
        assert fallbacks == 0

    def test_widely_split_pair_needs_no_fallback(self):
        # lambda_2 / lambda_1 ~ 5e4: dividing lambda_1 out of H near it cancels
        # every digit, so the search must take Newton steps there (draw 3553
        # under seed 1)
        d, e2, _ = _rows(Dims(50, 0), 1, 3553, 3554)
        vals = _lapack(d, e2)
        assert vals[0, 1] / vals[0, 0] > 1e4
        lam, (_, fallbacks) = _search(d, e2, 2)
        self._assert_close(lam, vals, 2)
        assert fallbacks == 0

    def test_single_row_dimension(self):
        lam, stats = _search([[3.0], [0.5]], np.zeros((2, 0)), 1)
        assert list(lam) == [3.0, 0.5] and stats == (0.0, 0)

    @pytest.mark.parametrize("dims, kth, sweeps", [(Dims(50, 2), 1, 3.7), (Dims(50, 1), 2, 5.0)])
    def test_sweep_counts(self, dims, kth, sweeps):
        # the figure 1b and 2b searches at a fixed seed; the counts are deterministic
        d, e2, _ = _rows(dims, 11, 0, 4096)
        _, (taken, fallbacks) = _search(d, e2, kth)
        assert taken <= sweeps and fallbacks == 0
        assert sampler._search_stats.last[3] > 0  # lanes stopped by the predicted bound

    @pytest.mark.parametrize("n", [4, 50])
    @pytest.mark.parametrize("kth", [1, 2])
    def test_early_stop_is_caught_by_certification(self, n, kth, monkeypatch):
        # every lane of the final search stops one sweep before it would: the
        # lanes that certification rejects are bisected, and every value
        # still matches LAPACK, the close pair's too, whose Laguerre steps
        # are not in their cubic regime
        search, bisect = sampler._laguerre_search, sampler._bisect

        def early(D, E2, x, kth, atol, work, pole=None, max_sweeps=sampler._LAGUERRE_SWEEPS):
            if max_sweeps == 1:  # the lambda_2 pole
                return search(D, E2, x, kth, atol, work, pole, max_sweeps)
            final, sweeps, predicted, gathered = search(D, E2, x, kth, atol, work, pole)
            # a lane's value after j sweeps is the same in every search of
            # j or more sweeps, so the one before it froze is the early stop
            before, out = x, x.copy()
            live = np.ones(len(x), dtype=bool)
            for j in range(1, max_sweeps + 1):
                now = search(D, E2, x, kth, atol, work, pole, j)[0]
                froze = live & (now == final)
                out[froze] = before[froze]
                live &= ~froze
                if not live.any():
                    break
                before = now
            return out, sweeps, predicted, gathered

        bisected = []

        def spy(D, E2, kth):
            bisected.append(D.shape[1])
            return bisect(D, E2, kth)

        monkeypatch.setattr(sampler, "_laguerre_search", early)
        monkeypatch.setattr(sampler, "_bisect", spy)
        d, e2, _ = _rows(Dims(n, 1), 7, 0, 256)
        cd, ce2 = _close_pair_rows(n // 2)
        d, e2 = np.vstack([d, cd]), np.vstack([e2, ce2])
        lam, (_, fallbacks) = _search(d, e2, kth)
        assert fallbacks > 0 and bisected == [fallbacks]
        self._assert_close(lam, _lapack(d, e2), kth)

    def test_close_pair_is_close(self):
        vals = _lapack(np.array(_CLOSE_D), np.array(_CLOSE_E2))
        assert 0 < vals[0, 1] / vals[0, 0] - 1 < 1e-6

    @pytest.mark.parametrize("d, e2, kth", [
        ([[1.0, 5.0, 1.0]], [[0.0, 0.0]], 2),      # double eigenvalue: no point has count 1
        ([[0.0, 2.0, 3.0]], [[0.5, 0.5]], 1),      # zero pivot at the start x = 0: no step
    ])
    def test_failed_certification_falls_back_to_bisection(self, d, e2, kth):
        d, e2 = np.array(d), np.array(e2)
        vals = _lapack(d, e2)
        # the failing row among well-behaved ones: only it is bisected
        good, good_e2, _ = _rows(Dims(3, 1), 8, 0, 5)
        rows, rows_e2 = np.vstack([good[:2], d, good[2:]]), np.vstack([good_e2[:2], e2, good_e2[2:]])
        lam, (_, fallbacks) = _search(rows, rows_e2, kth)
        assert fallbacks == 1
        self._assert_close(lam[2:3], vals, kth)
        assert np.array_equal(np.delete(lam, 2), _search(good, good_e2, kth)[0])

    @pytest.mark.parametrize("n", [4, 50])
    @pytest.mark.parametrize("kth", [1, 2])
    def test_row_alone_equals_row_in_batch(self, n, kth):
        D, E2, _ = sampler._laguerre_tridiagonal(Dims(n, 1), 3, 0, 4096)
        batch = _kth_smallest(D, E2, kth)
        for i in (0, 1234, 4095):
            alone = _kth_smallest(D[:, i:i + 1].copy(), E2[:, i:i + 1].copy(), kth)
            assert np.array_equal(alone, batch[i:i + 1])

    def test_chunk_log_line(self, caplog):
        caplog.set_level(logging.DEBUG, logger="wishartcond")
        mc_collect(METRIC_KAPPA_E, Dims(4, 1), 50, seed=3, chunk=20)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("mc chunk")]
        assert len(lines) == 3
        assert lines[2].startswith("mc chunk 40-49 kappa-e n=4: variates ")
        held = re.search(r": variates \d\.\d{4} s, eigenvalue search \d\.\d{4} s, per lane "
                         r"1\.00 pole sweeps, \d\.\d\d gap probes and \d\.\d\d final sweeps, "
                         r"\d+ predicted stops, 0 fallback lanes; (\d+) bytes held$", lines[2])
        # 10 draws at n = 4: d, e2, the trace and the work copy, the row
        # buffer of the cut block, and a gather buffer of at most 5 lanes of e2
        least = 8 * 10 * (4 + 3 + 1 + 4) + 8 * 1024
        assert least <= int(held.group(1)) <= least + 8 * 5 * 3
        # a chunk of whole blocks draws no row buffer
        caplog.clear()
        mc_collect(METRIC_KAPPA_E, Dims(4, 1), 2048, seed=3, chunk=1024)
        line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("mc chunk"))
        least = 8 * 1024 * (4 + 3 + 1 + 4)
        assert least <= int(re.search(r"; (\d+) bytes held$", line).group(1)) <= least + 8 * 512 * 3
        # lambda_1 needs no pole and no gap point
        caplog.clear()
        mc_collect(METRIC_KAPPA_D, Dims(4, 1), 20, seed=3)
        line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("mc chunk"))
        assert " per lane 0.00 pole sweeps, 0.00 gap probes and " in line


class TestKs:
    def test_exponential_draws(self):
        rng = np.random.default_rng(12)
        draws = rng.exponential(size=4000)
        stat = ks_compare(draws, lambda x: 1.0 - np.exp(-np.asarray(x)))
        assert stat < ks_threshold(len(draws))

    def test_wrong_distribution_detected(self):
        rng = np.random.default_rng(12)
        draws = rng.exponential(size=4000) * 1.6
        stat = ks_compare(draws, lambda x: 1.0 - np.exp(-np.asarray(x)))
        assert stat > ks_threshold(len(draws))

    def test_threshold_value(self):
        assert ks_threshold(100_000) == pytest.approx(1.63 / np.sqrt(100_000))

    def test_rejects_nonmonotone_cdf(self):
        draws = np.linspace(0.1, 0.9, 50)
        with pytest.raises(ValueError):
            ks_compare(draws, lambda x: np.cos(np.asarray(x) * 20.0))


class TestReports:
    def test_build_report(self):
        rng = np.random.default_rng(8)
        draws = rng.exponential(size=2000)
        rep = build_report(METRIC_KAPPA_D, Dims(3, 0), draws, seed=8,
                           cdf=lambda x: 1.0 - np.exp(-np.asarray(x)), bins=40)
        assert rep["samples"] == 2000 and rep["n"] == 3 and rep["alpha"] == 0
        assert len(rep["bin_edges"]) == 41
        assert len(rep["bin_masses"]) == 40
        assert sum(rep["bin_masses"]) == pytest.approx(1.0, abs=1e-12)
        assert rep["passed"] == (rep["ks_statistic"] < rep["ks_threshold"])
        assert rep["meta"] == {}
        # the report is plain JSON data
        assert json.loads(json.dumps(rep)) == rep

    def test_threshold_override(self):
        draws = np.linspace(0.01, 0.99, 500)
        rep = build_report(METRIC_KAPPA_D, Dims(3, 0), draws, seed=1,
                           cdf=lambda x: np.clip(np.asarray(x), 0.0, 1.0),
                           threshold=0.5)
        assert rep["ks_threshold"] == 0.5
        assert rep["passed"] is True


class TestAgainstExactDensity:
    def test_small_case_agrees(self):
        from wishartcond.exact import cdf_kappa_d_interp

        d = Dims(3, 0)
        draws = mc_collect(METRIC_KAPPA_D, d, 5000, seed=17)
        cdf = cdf_kappa_d_interp(d)
        assert ks_compare(draws, cdf) < ks_threshold(5000)


def _ks_two_sample(a, b) -> float:
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    fa = np.searchsorted(a, x, side="right") / len(a)
    fb = np.searchsorted(b, x, side="right") / len(b)
    return float(np.abs(fa - fb).max())


class TestAgainstDenseModel:
    """The bidiagonal model behind mc_collect against dense Gaussian matrices."""

    N = 20_000

    # (5, 6) has shapes up to 11, which took the Marsaglia-Tsang tries when
    # shapes up to 8 were Erlang sums
    @pytest.mark.parametrize("dims", [Dims(3, 0), Dims(4, 2), Dims(5, 6)])
    def test_two_sample_ks(self, dims):
        mats = np.stack([sample_matrix(dims, seed=2, index=k) for k in range(self.N)])
        vals = np.linalg.eigvalsh(np.swapaxes(mats.conj(), 1, 2) @ mats)
        trace = vals.sum(axis=1)
        dense = {METRIC_KAPPA_D: trace / vals[:, 0], METRIC_KAPPA_E: trace / vals[:, 1]}
        crit = 1.95 * np.sqrt(2.0 / self.N)  # 1e-3 level
        for metric, want in dense.items():
            got = mc_collect(metric, dims, self.N, seed=1)
            assert _ks_two_sample(got, want) < crit, metric

    @pytest.mark.parametrize("dims", [Dims(3, 0), Dims(4, 2), Dims(5, 6)])
    def test_trace_mean(self, dims):
        # the trace of A*A is Gamma(mn, 1): mean mn, variance mn
        kd = mc_collect(METRIC_KAPPA_D, dims, self.N, seed=3)
        lmin = mc_collect(METRIC_LAMBDA_MIN, dims, self.N, seed=3)
        trace = kd * lmin
        assert abs(trace.mean() - dims.mn) < 4.0 * np.sqrt(dims.mn / self.N)
