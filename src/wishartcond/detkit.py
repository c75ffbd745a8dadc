"""Vandermonde products and the falling-product determinant identities.

Both identities reduce a determinant of falling products over shifted index
variables to the Vandermonde product of the shifted indices themselves.
They are what collapses the nested finite sums of the exact densities into
finitely many closed terms, so they get exact integer implementations plus
property tests; the determinants are numkit.fpoly_det on constant entries.
"""

from __future__ import annotations

import math

from .numkit import FPoly, fpoly_det


def vandermonde_int(xs) -> int:
    """Exact Vandermonde product prod_{l<k} (x_k - x_l) for integer nodes."""
    xs = list(xs)
    out = 1
    for k in range(len(xs)):
        for l in range(k):
            out *= xs[k] - xs[l]
    return out


def _det_int(mat) -> int:
    """Exact determinant of a square integer matrix."""
    det = fpoly_det([[FPoly(0, (v,)) for v in row] for row in mat])
    return det.nums[0] if det.nums else 0


def lemma_a1_matrix(jvec, n: int, alpha: int) -> list[list[int]]:
    jvec = list(jvec)
    if len(jvec) != alpha:
        raise ValueError("jvec must have length alpha")
    for l, j in enumerate(jvec, start=1):
        if not 0 <= j <= n + alpha - 1 - l:
            raise ValueError(f"index {j} out of range for slot {l}")
    return [[math.perm(n + alpha - 1 - jvec[l - 1] - l, alpha - k) for l in range(1, alpha + 1)]
            for k in range(1, alpha + 1)]


def lemma_a1_det_int(jvec, n: int, alpha: int) -> int:
    return _det_int(lemma_a1_matrix(jvec, n, alpha))


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
    # n + alpha minus the nodes z_1, z_2, then w_3, ..., w_{alpha+2}
    shifted = ([n + alpha - j - lvec[j - 1] for j in (1, 2)]
               + [n + alpha + 2 - k - lvec[k - 1] for k in range(3, alpha + 3)])
    return [[math.perm(s, alpha + 2 - i) for s in shifted] for i in range(1, alpha + 3)]


def lemma_a2_det_int(lvec, n: int, alpha: int) -> int:
    return _det_int(lemma_a2_matrix(lvec, n, alpha))


def lemma_a2_rhs_int(lvec, n: int, alpha: int) -> int:
    """Vandermonde side: nodes z_1, z_2 then w_3, ..., w_{alpha+2}."""
    del n
    nodes = [1 + lvec[0], 2 + lvec[1]]
    for k in range(3, alpha + 3):
        nodes.append(k + lvec[k - 1] - 2)
    return vandermonde_int(nodes)
