"""Seeded matrix documents for the compute workloads.

The generators are plain Python and share no code with seprkit, so the
benchmark's inputs and its correctness checks do not depend on the code
being measured.  Every document uses seprkit's JSON matrix format:
``{"n": n, "entries": [[[re, im], ...], ...]}`` with rational strings.

Two classes:

* ``dense``: every off-diagonal entry is nonzero with a rational
  denominator, and each diagonal entry is a signed value larger than the
  absolute row sum (|re| + |im| per entry).  The matrix is strictly
  diagonally dominant, so every principal submatrix is too and every
  principal minor is nonzero: each sign-sequence term is an A-term.
* ``lowrank``: the sum of n/2 rank-one terms v v* with v drawn from the
  CLI's default entry pool, so every principal minor of order above n/2
  is zero: those terms are N.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ORDERS = (8, 10, 12)

# the CLI's default pools: {-2..2} over the reals; plus +-i, +-2i, 1+-i
REAL_POOL = tuple((Fraction(v), Fraction(0)) for v in (-2, -1, 0, 1, 2))
COMPLEX_POOL = REAL_POOL + tuple(
    (Fraction(a), Fraction(b)) for a, b in ((0, 1), (0, -1), (0, 2), (0, -2), (1, 1), (1, -1))
)


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 5))


def dense(rng: random.Random, n: int, hermitian: bool):
    """Strictly diagonally dominant matrix as a grid of (re, im) pairs."""
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            re = _nonzero_rational(rng)
            im = _nonzero_rational(rng) if hermitian else Fraction(0)
            grid[i][j] = (re, im)
            grid[j][i] = (re, -im)
    for i in range(n):
        bound = sum(abs(z[0]) + abs(z[1]) for j, z in enumerate(grid[i]) if j != i)
        extra = Fraction(1, rng.randint(1, 5))
        grid[i][i] = (rng.choice((-1, 1)) * (bound + extra), Fraction(0))
    return grid


def lowrank(rng: random.Random, n: int, hermitian: bool):
    """Sum of n // 2 rank-one terms v v*, as a grid of (re, im) pairs."""
    pool = COMPLEX_POOL if hermitian else REAL_POOL
    grid = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for _ in range(n // 2):
        v = [rng.choice(pool) for _ in range(n)]
        for i, (a, b) in enumerate(v):
            for j, (c, d) in enumerate(v):
                # v_i * conj(v_j) = (a + bi)(c - di)
                re, im = grid[i][j]
                grid[i][j] = (re + a * c + b * d, im + b * c - a * d)
    return grid


def document(kind: str, seed: int, field: str, n: int, index: int) -> str:
    """The JSON text of matrix ``index`` of one (kind, field, n) stream."""
    rng = random.Random(f"{kind}:{field}:{n}:{seed}:{index}")
    build = dense if kind == "dense" else lowrank
    grid = build(rng, n, field == "hermitian")
    entries = [[[_text(re), _text(im)] for re, im in row] for row in grid]
    return json.dumps({"n": n, "entries": entries})


def file_name(kind: str, field: str, n: int, index: int) -> str:
    return f"{kind}-{field}-{n}-{index}.json"


def order_of(path: str) -> int:
    """The order n encoded in a :func:`file_name`."""
    return int(path.rsplit("-", 2)[-2])


def rank_bound(kind: str, n: int):
    """Orders above this must read N (lowrank); None when no bound applies."""
    return n // 2 if kind == "lowrank" else None
