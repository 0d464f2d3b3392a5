"""Shared helpers: independent oracles and small random-matrix generators.

The oracles here deliberately reimplement functionality from scratch
(permutation-expansion and Gaussian-elimination determinants,
subset-product minors for diagonal matrices) so that library results are
checked against arithmetic that shares no code with the implementation
under test.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from seprkit.exact import GaussianRational
from seprkit.matrix import HermitianMatrix


def permutation_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def oracle_det(rows):
    """Determinant by full permutation expansion (independent oracle).

    Uses scalar arithmetic only, so it takes GaussianRational and
    Sqrt5Rational entries alike."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total = total + prod if permutation_sign(perm) > 0 else total - prod
    return total


def elimination_det(rows):
    """Determinant by Gaussian elimination over the entries' field (a second
    independent oracle, polynomial where oracle_det is factorial): take the
    first nonzero entry at or below the diagonal as pivot, swap it up, and
    clear the column below it with exact division.  Scalar arithmetic only,
    like oracle_det."""
    work = [list(row) for row in rows]
    n = len(work)
    det = 1
    for c in range(n):
        p = next((r for r in range(c, n) if work[r][c]), None)
        if p is None:
            return 0
        if p != c:
            work[c], work[p] = work[p], work[c]
            det = -det
        pivot = work[c][c]
        det = pivot * det
        for r in range(c + 1, n):
            if work[r][c]:
                f = work[r][c] / pivot
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return det


def oracle_principal_minor(matrix: HermitianMatrix, subset):
    """Principal minor via the permutation-expansion oracle (0-based subset):
    a Fraction, or a Sqrt5Rational for a Q(sqrt 5) matrix."""
    entries = matrix.entries  # built from the grid on each read
    rows = [[entries[i][j] for j in subset] for i in subset]
    value = oracle_det(rows)
    if isinstance(value, GaussianRational):
        assert value.im == 0
        return value.re
    return value


def oracle_minors_by_order(matrix: HermitianMatrix):
    """All principal minors per order, via the oracle only."""
    n = matrix.n
    return [
        [oracle_principal_minor(matrix, s) for s in combinations(range(n), k)]
        for k in range(1, n + 1)
    ]


def random_hermitian(rng: random.Random, n: int, *, real: bool, scale: int = 2) -> HermitianMatrix:
    """Random test matrix with small integer (or Gaussian-integer) entries."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(rng.randint(-scale, scale))
        for j in range(i + 1, n):
            re = rng.randint(-scale, scale)
            im = 0 if real else rng.randint(-scale, scale)
            v = GaussianRational(re, im)
            rows[i][j] = v
            rows[j][i] = v.conjugate()
    return HermitianMatrix(rows)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
