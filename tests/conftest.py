"""Shared helpers: independent oracles, their own field, and small
random-matrix generators.

The oracles here deliberately reimplement functionality from scratch
(permutation-expansion and Gaussian-elimination determinants,
subset-product minors for diagonal matrices) so that library results are
checked against arithmetic that shares no code with the implementation
under test.  The package's scalars are values without arithmetic, so the
oracles compute in their own field: :class:`Gauss` for Q(i) and
:class:`Root5` for Q(sqrt 5), each a pair of Fractions.  :func:`lift`
and :func:`lower` convert from and to ``HermitianMatrix.entries`` values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from seprkit.exact import GaussianRational, Sqrt5Rational
from seprkit.matrix import HermitianMatrix


class Quad:
    """a + b*sqrt(d) in Q(sqrt d), exact on a pair of Fractions; each
    subclass fixes d.  Ints and Fractions mix in as b = 0."""

    __slots__ = ("a", "b")
    d = 0

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)(other)
        if type(other) is not type(self):
            raise TypeError(f"cannot mix {type(self).__name__} with {type(other).__name__}")
        return other

    def __add__(self, other):
        y = self._lift(other)
        return type(self)(self.a + y.a, self.b + y.b)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.a, -self.b)

    def __sub__(self, other):
        y = self._lift(other)
        return type(self)(self.a - y.a, self.b - y.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        y = self._lift(other)
        return type(self)(self.a * y.a + self.d * self.b * y.b, self.a * y.b + self.b * y.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # multiply by the algebraic conjugate over the norm a**2 - d*b**2,
        # which is zero only for zero, since d is not a square
        y = self._lift(other)
        norm = y.a * y.a - self.d * y.b * y.b
        return self * type(self)(y.a / norm, -y.b / norm)

    def conj(self):
        """Complex conjugation: a - b*i for Q(i); Q(sqrt 5) is real."""
        return type(self)(self.a, -self.b) if self.d < 0 else self

    def sign(self) -> int:
        """Exact sign of a real value; raises for a non-real one."""
        if not self.b:
            return (self.a > 0) - (self.a < 0)
        if self.d < 0:
            raise ValueError(f"{self!r} is not real")
        # |a| > |b|*sqrt(d) decides by a, otherwise b decides
        lead = self.a if self.a * self.a > self.d * self.b * self.b else self.b
        return (lead > 0) - (lead < 0)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)(other)
        if not isinstance(other, Quad):
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __repr__(self):
        return f"{type(self).__name__}({self.a}, {self.b})"


class Gauss(Quad):
    d = -1


class Root5(Quad):
    d = 5


def lift(v):
    """An entry value (GaussianRational, Sqrt5Rational, int, Fraction) or a
    grid of them in the oracles' field, Gauss unless it is Q(sqrt 5); a
    field element passes."""
    if isinstance(v, (list, tuple)):
        return [lift(x) for x in v]
    if isinstance(v, Quad):
        return v
    if isinstance(v, Sqrt5Rational):
        return Root5(v.a, v.b)
    if isinstance(v, GaussianRational):
        return Gauss(v.re, v.im)
    return Gauss(v)


def lower(v):
    """The entry value of a field element (ints and Fractions pass), or of
    a grid of them."""
    if isinstance(v, (list, tuple)):
        return [lower(x) for x in v]
    if isinstance(v, Root5):
        return Sqrt5Rational(v.a, v.b)
    if isinstance(v, Gauss):
        return GaussianRational(v.a, v.b)
    return v


def sign(v) -> int:
    """Exact sign of a real value: a field element, an int or a Fraction."""
    return lift(v).sign()


def matrix_of(rows) -> HermitianMatrix:
    """The HermitianMatrix of a grid of field elements."""
    return HermitianMatrix(lower(rows))


def product(left, right):
    """The matrix product of two grids of field elements."""
    return [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]


def permutation_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def oracle_det(rows):
    """Determinant by full permutation expansion (independent oracle), in
    the field of its entries."""
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
    clear the column below it with exact division."""
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


def oracle_principal_minor(matrix: HermitianMatrix, subset, det=oracle_det):
    """Principal minor (0-based subset) by the determinant oracle ``det``, in
    the field of the matrix's entries."""
    entries = lift(matrix.entries)
    return det([[entries[i][j] for j in subset] for i in subset])


def oracle_signs_by_order(matrix: HermitianMatrix, det=oracle_det):
    """The signs of all principal minors per order, in lexicographic subset
    order, via the oracle only."""
    n = matrix.n
    return [
        [sign(oracle_principal_minor(matrix, s, det)) for s in combinations(range(n), k)]
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
