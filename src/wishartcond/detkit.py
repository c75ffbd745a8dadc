"""Integer determinants, Vandermonde products and multi-index iteration.

Exact integer determinants (fraction-free Bareiss elimination) check the
falling-product identities that collapse the nested finite sums of the
kappa-d density.  The nested sums themselves run over integer lattice
boxes, walked in odometer order by ``iter_index_boxes``.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# lattice iteration


def iter_index_boxes(bounds):
    """Yield every entries-tuple of the box prod_i {0, ..., bounds[i]} once,
    in odometer order (the last slot varies fastest)."""
    return itertools.product(*(range(b + 1) for b in bounds))


# ---------------------------------------------------------------------------
# Vandermonde product


def vandermonde_int(xs) -> int:
    """Exact Vandermonde product prod_{l<k} (x_k - x_l) for integer nodes."""
    xs = list(xs)
    out = 1
    for k in range(len(xs)):
        for l in range(k):
            out *= xs[k] - xs[l]
    return out


# ---------------------------------------------------------------------------
# determinants


def det_int(mat) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    m = [list(map(int, row)) for row in mat]
    size = len(m)
    for row in m:
        if len(row) != size:
            raise ValueError("matrix must be square")
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


# ---------------------------------------------------------------------------
# falling-product determinant identities
#
# Both identities reduce a determinant of falling products over shifted index
# variables to the Vandermonde of the shifted indices themselves.  They are
# what collapses the nested sums of the exact densities into finitely many
# closed terms, so they get exact integer implementations plus property
# tests.


def _falling_product(base: int, count: int) -> int:
    """base (base-1) ... (base-count+1), empty product = 1."""
    out = 1
    for i in range(count):
        out *= base - i
    return out


def lemma_a1_matrix(jvec, n: int, alpha: int) -> list[list[int]]:
    jvec = list(jvec)
    if len(jvec) != alpha:
        raise ValueError("jvec must have length alpha")
    for l, j in enumerate(jvec, start=1):
        if not 0 <= j <= n + alpha - 1 - l:
            raise ValueError(f"index {j} out of range for slot {l}")
    mat = []
    for k in range(1, alpha + 1):
        row = []
        for l in range(1, alpha + 1):
            c_shift = n + alpha - 1 - jvec[l - 1] - l
            row.append(_falling_product(c_shift, alpha - k))
        mat.append(row)
    return mat


def lemma_a1_det_int(jvec, n: int, alpha: int) -> int:
    return det_int(lemma_a1_matrix(jvec, n, alpha))


def lemma_a1_rhs_int(jvec, n: int, alpha: int) -> int:
    """Vandermonde side: nodes c_l = l + j_l."""
    del n  # the right-hand side depends on the indices alone
    return vandermonde_int([l + j for l, j in enumerate(jvec, start=1)])


def lemma_a2_matrix(lvec, n: int, alpha: int) -> list[list[int]]:
    lvec = list(lvec)
    if len(lvec) != alpha + 2:
        raise ValueError("lvec must have length alpha + 2")
    for j in (1, 2):
        if not 0 <= lvec[j - 1] <= n + alpha - j:
            raise ValueError(f"index {lvec[j-1]} out of range for slot {j}")
    for k in range(3, alpha + 3):
        if not 0 <= lvec[k - 1] <= n + alpha + 2 - k:
            raise ValueError(f"index {lvec[k-1]} out of range for slot {k}")
    shifted = []
    for j in (1, 2):
        z = j + lvec[j - 1]
        shifted.append(n + alpha - z)
    for k in range(3, alpha + 3):
        w = k + lvec[k - 1] - 2
        shifted.append(n + alpha - w)
    mat = []
    for i in range(1, alpha + 3):
        mat.append([_falling_product(s, alpha + 2 - i) for s in shifted])
    return mat


def lemma_a2_det_int(lvec, n: int, alpha: int) -> int:
    return det_int(lemma_a2_matrix(lvec, n, alpha))


def lemma_a2_rhs_int(lvec, n: int, alpha: int) -> int:
    """Vandermonde side: nodes z_1, z_2 then w_3, ..., w_{alpha+2}."""
    del n
    nodes = [1 + lvec[0], 2 + lvec[1]]
    for k in range(3, alpha + 3):
        nodes.append(k + lvec[k - 1] - 2)
    return vandermonde_int(nodes)
