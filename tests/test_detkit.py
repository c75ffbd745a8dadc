import itertools
import random
from fractions import Fraction

import pytest

from wishartcond.detkit import (
    _det_int,
    lemma_a1_det_int,
    lemma_a1_matrix,
    lemma_a1_rhs_int,
    lemma_a2_det_int,
    lemma_a2_matrix,
    lemma_a2_rhs_int,
    vandermonde_int,
)


def _det_fraction(mat):
    """Reference determinant by fraction-free-ish Gaussian elimination."""
    size = len(mat)
    work = [[Fraction(v) for v in row] for row in mat]
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        for r in range(col + 1, size):
            factor = work[r][col] / work[col][col]
            for c in range(col, size):
                work[r][c] -= factor * work[col][c]
    out = Fraction(sign)
    for k in range(size):
        out *= work[k][k]
    return out


class TestVandermonde:
    def test_int(self):
        # prod_{i<j} (x_j - x_i)
        assert vandermonde_int([0, 1, 3]) == 6
        assert vandermonde_int([1, 0]) == -1
        assert vandermonde_int([2, 2, 5]) == 0


class TestDeterminants:
    """The lemma determinants: numkit.fpoly_det on constant entries."""

    def test_known(self):
        assert _det_int([[1, 2], [3, 4]]) == -2
        assert _det_int([[2]]) == 2
        assert _det_int([[1, 2], [2, 4]]) == 0
        assert _det_int([]) == 1

    def test_random_int_matches_fractions(self):
        rng = random.Random(3)
        for _ in range(25):
            size = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            assert _det_int(mat) == _det_fraction(mat)


def _a1_cases(count, seed):
    rng = random.Random(seed)
    while count > 0:
        alpha = rng.randint(1, 5)
        n = rng.randint(2, 7)
        jvec = [rng.randint(0, n + alpha - 1 - l) for l in range(1, alpha + 1)]
        yield jvec, n, alpha
        count -= 1


def _a2_cases(count, seed):
    rng = random.Random(seed)
    while count > 0:
        alpha = rng.randint(1, 4)
        n = rng.randint(2, 7)
        lvec = [rng.randint(0, n + alpha - j) for j in (1, 2)]
        lvec += [rng.randint(0, n + alpha + 2 - k) for k in range(3, alpha + 3)]
        yield lvec, n, alpha
        count -= 1


class TestLemmaA1:
    def test_matrix_shape(self):
        mat = lemma_a1_matrix([1, 0], 3, 2)
        assert len(mat) == 2 and all(len(row) == 2 for row in mat)

    def test_identity_random(self):
        for jvec, n, alpha in _a1_cases(80, seed=11):
            assert lemma_a1_det_int(jvec, n, alpha) == lemma_a1_rhs_int(jvec, n, alpha)

    def test_identity_exhaustive_small(self):
        for n in (2, 3):
            for alpha in (1, 2):
                bounds = tuple(n + alpha - 1 - l for l in range(1, alpha + 1))
                for jvec in itertools.product(*(range(b + 1) for b in bounds)):
                    assert lemma_a1_det_int(list(jvec), n, alpha) == \
                        lemma_a1_rhs_int(list(jvec), n, alpha)

    def test_bad_jvec(self):
        with pytest.raises(ValueError):
            lemma_a1_matrix([0], 3, 2)  # wrong length
        with pytest.raises(ValueError):
            lemma_a1_matrix([99, 0], 3, 2)  # out of range


class TestLemmaA2:
    def test_identity_random(self):
        for lvec, n, alpha in _a2_cases(80, seed=13):
            assert lemma_a2_det_int(lvec, n, alpha) == lemma_a2_rhs_int(lvec, n, alpha)

    def test_identity_exhaustive_small(self):
        n, alpha = 2, 1
        bounds = (n + alpha - 1, n + alpha - 2) + tuple(
            n + alpha + 2 - k for k in range(3, alpha + 3))
        for lvec in itertools.product(*(range(b + 1) for b in bounds)):
            assert lemma_a2_det_int(list(lvec), n, alpha) == \
                lemma_a2_rhs_int(list(lvec), n, alpha)

    def test_bad_lvec(self):
        with pytest.raises(ValueError):
            lemma_a2_matrix([0, 0], 3, 1)  # needs alpha + 2 entries
