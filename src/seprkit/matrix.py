"""Hermitian matrices over Q(i) and Q(sqrt 5) and their exact principal-minor
machinery.

A matrix is its scaled integer grid (d, scale, grid), immutable after
construction: entry (i, j) is grid[i][j] / scale, where grid holds plain
ints for a real matrix (d = 0) and otherwise (a, b) pairs standing for
a + b*sqrt(d) in Z[sqrt d], with d = -1 for Gaussian entries and d = 5
for Q(sqrt 5).  scale is the lcm of the entries' denominators, so equal
matrices have equal grids.  Scalar entries are read in one pass, and a
JSON document's rational strings are scaled straight to the grid without
building scalars; the structural transforms and the inverse build their
result's grid directly, and exact entries are built only on request.
The heavy operation is enumerating all 2**n - 1 principal minors.
Fraction-free elimination stays exact over those rings.  One
Gauss-Jordan kernel per form returns the rank, the sign of its row swaps
and the last pivot, which give every rank and inverse.  The cached minor
table holds only signs and comes from one depth-first walk over the index
sets that eliminates each nonsingular prefix once; no minor value is ever
built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter
from typing import Sequence

from .exact import (
    GaussianRational,
    Sqrt5Rational,
    format_gaussian,
    parse_gaussian_ratios,
    ScalarParseError,
)


class MatrixFormatError(ValueError):
    """A matrix document or entry grid is malformed (position-specific)."""


class SingularMatrixError(ValueError):
    """Inverse requested for a matrix with zero determinant."""


# ---------------------------------------------------------------------------
# integer kernels
#
# A matrix stores its entries in _scale's form, so every kernel below runs
# on plain ints: real grids as ints (d = 0), everything else as (a, b)
# pairs that stand for a + b*sqrt(d) in Z[sqrt d] (d = -1 Gaussian, d = 5
# Q(sqrt 5)).
# Determinant, rank and inverse come from one fraction-free (Bareiss)
# Gauss-Jordan elimination per form (_eliminate_ints, _eliminate_pairs).
# It takes pivot columns left to right, skips a column with no nonzero
# entry at or below the next pivot row, and updates every row but the
# pivot's: multiply, subtract, then divide exactly by the previous pivot.
# The division is exact because every intermediate entry is a minor of the
# input.  Columns left of the pivot are not updated, because no later step
# reads them.  The kernel returns the rank, the sign of its row swaps and
# the last pivot: a square grid of full rank has determinant sign * last,
# and on a nonsingular grid augmented with the identity the right half
# ends as last * grid**-1.  The kernel also takes a column range and a
# start state (rank, sign, last pivot), so an elimination can advance a
# column at a time and be copied part way: _column_deletions serves every
# deletion of a single column from a grid from one elimination, sharing
# the columns before each deleted one.
# The sign walk (_sign_walk) is a depth-first walk over the index sets S
# in lexicographic order.  A nonsingular S carries the block B of bordered
# minors det[S+i, S+l] over its later indices, packed as its upper triangle
# since B is Hermitian.  B's diagonal holds the children's minors det[S+j],
# and one Bareiss step dividing by det S gives a child's block (exact by
# Sylvester's identity, for any S).  A singular child S+a (B[a, a] = 0)
# with two or more later positions has no block, so the walk takes a 2 x 2
# pivot instead (Bunch and Kaufman, 1977).  Each partner w of a, a later
# position with B[a, w] != 0, makes T = S+a+w nonsingular:
# det T * det S = -B[a, w] B[w, a], so det T has the sign opposite to
# det S.  T's block over R, the positions after a but w and the partners
# before it, holds det B[{a, w, r}, {a, w, t}] / (det S)**2, again by
# Sylvester's identity, and the walk goes on below T: that covers every
# set through a and w that holds no earlier partner.  Row a of B[{a} + V]
# is zero when V holds no partner, so each such S+a+V is singular.  When
# a single index l follows a, the child S+a has one descendant, S+a+l,
# whose minor is num / det S with num the 2 x 2 determinant of B on
# {a, l}: the walk takes sign(num) * sign(det S) and never divides.  A
# nonsingular child S+a followed by exactly two positions q and r is a
# two-level leaf: its block would be N / det S with
# N = det[S+a] * B - B[., a] B[a, .] on {q, r}, so the walk forms only the
# numerators N_qq, N_rr and N_qr.  The minors S+a+q and S+a+r are
# N_qq / det S and N_rr / det S, signed by sign(det S); S+a+q+r is
# (N_qq N_rr - N_rq N_qr) / ((det S)**2 det[S+a]), signed by sign(det[S+a])
# alone, since (det S)**2 > 0.  No block is built, nothing is divided and
# nothing recurses, and a singular S+a+q needs no pivot because only
# det[S+a] divides.
# Each int kernel and walk stays separate from its pair counterpart
# because it is about twice as fast on real input.  The pair kernels write
# their Z[sqrt d] products and divisions out inline, with no helper call
# per entry.
# ---------------------------------------------------------------------------


def _scale(rows):
    """Return (d, scale, grid) with grid == scale * rows entrywise.

    ``rows`` holds ints, Fractions, GaussianRationals and Sqrt5Rationals;
    ``scale`` is the positive lcm of their denominators.  d is 5 when any
    entry is a Sqrt5Rational (a non-real GaussianRational is then out of
    place), else -1 when any entry has an imaginary part, else 0.
    """
    d = 5 if any(isinstance(v, Sqrt5Rational) for row in rows for v in row) else 0
    parts = []
    for i, row in enumerate(rows):
        out = []
        for j, v in enumerate(row):
            if isinstance(v, GaussianRational) and not (d == 5 and v.im):
                a, b = v.re, v.im
            elif isinstance(v, (int, Fraction)):
                a, b = v, 0
            elif isinstance(v, Sqrt5Rational):
                a, b = v.a, v.b
            else:
                raise MatrixFormatError(
                    f"entry ({i + 1},{j + 1}): cannot interpret {v!r} as a matrix scalar"
                )
            out.append(((a.numerator, a.denominator), (b.numerator, b.denominator)))
        parts.append(out)
    return _scale_ratios(d, parts)


def _scale_ratios(d, parts):
    """_scale for rows of (a, b) entries, a + b*sqrt(d), whose parts are
    (numerator, denominator) int pairs with positive denominators; d is 5
    or 0, and 0 becomes -1 when any b is nonzero.  Unreduced pairs give a
    multiple of the reduced grid, which _adopt's gcd step divides out."""
    scale = lcm(*{den for row in parts for (_, da), (_, db) in row for den in (da, db)})
    if d == 5 or any(b for row in parts for _, (b, _) in row):
        return d or -1, scale, tuple(
            tuple((a * (scale // da), b * (scale // db)) for (a, da), (b, db) in row) for row in parts
        )
    return 0, scale, tuple(tuple(a * (scale // da) for (a, da), _ in row) for row in parts)


def _entrywise(grid, d, f):
    """A grid in _scale's form with f applied to each of its integers."""
    if d == 0:
        return tuple(tuple(f(v) for v in row) for row in grid)
    return tuple(tuple((f(a), f(b)) for a, b in row) for row in grid)


def _eliminate_ints(rows, cols=None, rank=0, sign=1, prev=1):
    """Fraction-free Gauss-Jordan elimination of an integer grid; mutates
    ``rows``.  Returns (rank, swap sign, last pivot).  It takes the pivot
    columns in ``cols`` (default: all) from the state (rank, sign, prev),
    which another call may have left; every update still runs to the
    grid's last column."""
    width = len(rows[0]) if rows else 0
    for c in range(width) if cols is None else cols:
        if rank == len(rows):
            break
        if rows[rank][c] == 0:
            for r in range(rank + 1, len(rows)):
                if rows[r][c]:
                    rows[rank], rows[r] = rows[r], rows[rank]
                    sign = -sign
                    break
            else:
                continue
        base = rows[rank]
        pivot = base[c]
        for i, row in enumerate(rows):
            if i == rank:
                continue
            lead = row[c]
            for j in range(c + 1, width):
                row[j] = (pivot * row[j] - lead * base[j]) // prev
            row[c] = 0
        prev = pivot
        rank += 1
    return rank, sign, prev


def _eliminate_pairs(rows, d, cols=None, rank=0, sign=1, prev=(1, 0)):
    """_eliminate_ints over Z[sqrt d], entries as (a, b) int pairs; the last
    pivot is a pair too.  Dividing by the previous pivot multiplies by its
    conjugate and divides by its norm; a real one divides directly.  A
    pivot need not be real even for d = -1: after a row swap, or in a grid
    that is not Hermitian."""
    width = len(rows[0]) if rows else 0
    pa, pb = prev
    for c in range(width) if cols is None else cols:
        if rank == len(rows):
            break
        if rows[rank][c] == (0, 0):
            for r in range(rank + 1, len(rows)):
                if rows[r][c] != (0, 0):
                    rows[rank], rows[r] = rows[r], rows[rank]
                    sign = -sign
                    break
            else:
                continue
        base = rows[rank]
        va, vb = base[c]
        dvb = d * vb
        nrm = pa * pa - d * pb * pb
        dpb = d * pb
        later = range(c + 1, width)
        for i, row in enumerate(rows):
            if i == rank:
                continue
            la, lb = row[c]
            dlb = d * lb
            if pb:
                for j in later:
                    ta, tb = row[j]
                    ba, bb = base[j]
                    na = va * ta + dvb * tb - la * ba - dlb * bb
                    nb = va * tb + vb * ta - la * bb - lb * ba
                    row[j] = ((na * pa - nb * dpb) // nrm, (nb * pa - na * pb) // nrm)
            else:
                for j in later:
                    ta, tb = row[j]
                    ba, bb = base[j]
                    row[j] = (
                        (va * ta + dvb * tb - la * ba - dlb * bb) // pa,
                        (va * tb + vb * ta - la * bb - lb * ba) // pa,
                    )
            row[c] = (0, 0)
        pa, pb = va, vb
        rank += 1
    return rank, sign, (pa, pb)


def _eliminate(d, rows, cols=None, *state):
    """(rank, swap sign, last pivot) of a grid in _scale's form, from the
    pivot columns ``cols`` and the start state (rank, sign, last pivot) as
    in _eliminate_ints; mutates ``rows``."""
    return _eliminate_ints(rows, cols, *state) if d == 0 else _eliminate_pairs(rows, d, cols, *state)


def _column_deletions(d, rows):
    """For each column j of a grid in _scale's form, in order, the (rank,
    swap sign, last pivot) that _eliminate returns on the grid without
    column j; mutates ``rows``.

    One elimination of the whole grid goes column by column.  Before it
    takes column j, it copies the columns after j and finishes the copy
    from the state reached.  An update of a column reads only that column
    and the pivot column, so up to column j the grid without column j
    meets the same pivots, swaps and divisions, and from there on its
    elimination reads only the columns after j.  Each copy thus repeats
    _eliminate on its deletion, and the columns before j are eliminated
    once for all later deletions."""
    width = len(rows[0])
    state = (0, 1, 1 if d == 0 else (1, 0))
    out = []
    for j in range(width):
        out.append(_eliminate(d, [row[j + 1 :] for row in rows], None, *state))
        state = _eliminate(d, rows, range(j, j + 1), *state)
    return out


def _reduce_ints(block, a, prev):
    """One Bareiss step on a packed Hermitian block, whose row r holds the
    entries (r, r), (r, r + 1), ...: pivot on position a, divide by
    ``prev``, and return the packed block of the positions after a.  Entry
    (r, a) is read as the stored (a, r), since the block is symmetric."""
    row = block[a]
    piv = row[0]
    return [
        [(piv * x - lead * y) // prev for x, y in zip(block[r], row[r - a :])]
        for r, lead in enumerate(row[1:], a + 1)
    ]


def _reduce_pairs(block, a, prev, d):
    """_reduce_ints over Z[sqrt d], entries as (a, b) pairs.  Entry (r, a)
    is the conjugate of the stored (a, r) for d = -1 and equal to it for
    d = 5.  Pivot and ``prev`` are real for d = -1 (principal minors); a
    non-real one (d = 5) takes the general product, and the division
    multiplies by the conjugate of ``prev`` and divides by its norm."""
    row = block[a]
    va, vb = row[0]
    pa, pb = prev
    general = vb or pb
    dvb, dpb, nrm = d * vb, d * pb, pa * pa - d * pb * pb
    out = []
    for r, (la, lb) in enumerate(row[1:], a + 1):
        if d < 0:
            lb = -lb
        dlb = d * lb
        pairs = zip(block[r], row[r - a :])
        if general:
            nums = (
                (va * xa + dvb * xb - la * ya - dlb * yb, va * xb + vb * xa - la * yb - lb * ya)
                for (xa, xb), (ya, yb) in pairs
            )
            out.append([((na * pa - nb * dpb) // nrm, (nb * pa - na * pb) // nrm) for na, nb in nums])
        else:
            out.append(
                [
                    ((va * xa - la * ya - dlb * yb) // pa, (va * xb - la * yb - lb * ya) // pa)
                    for (xa, xb), (ya, yb) in pairs
                ]
            )
    return out


def _sign(value, d) -> int:
    """Sign of a scaled principal minor in _scale's form; a Z[i] minor must
    be real."""
    if d == 5:
        return Sqrt5Rational(*value).sign()
    if d:
        value, imag = value
        if imag:
            raise RuntimeError(
                "principal minor of a Hermitian matrix came out non-real; "
                "internal invariant violated"
            )
    return (value > 0) - (value < 0)


def _sign_walk(grid, d):
    """Signs of all 2**n - 1 principal minors of a scaled Hermitian grid in
    _scale's form, keyed by index bitmask.

    See the comment above the integer kernels; the walk starts at the
    empty set, whose block is the grid and whose determinant is 1.
    """
    table = {}
    block = [list(row[i:]) for i, row in enumerate(grid)]
    bits = [1 << i for i in range(len(grid))]
    if d == 0:
        _walk_ints(block, bits, 0, 1, 1, table)
    else:
        _walk_pairs(block, bits, 0, (1, 0), 1, table, d)
    return table


def _walk_ints(block, bits, mask, prev, psign, table):
    """The walk below the node ``mask`` (S) for an integer block; position a
    of the block stands for the index of bit bits[a], prev = det S and
    psign = sign(prev)."""
    last = len(block) - 1
    for a, row in enumerate(block):
        piv = row[0]
        child = mask | bits[a]
        s = table[child] = (piv > 0) - (piv < 0)
        if a < last - 1:
            if not s:
                _pivot2_ints(block, a, bits, child, prev, psign, table)
            elif a < last - 2:
                _walk_ints(_reduce_ints(block, a, prev), bits[a + 1 :], child, piv, s, table)
            else:
                # a two-level leaf on the last two positions q and r
                (bqq, bqr), (brr,) = block[a + 1], block[last]
                bq, br = row[1], row[2]
                nqq = piv * bqq - bq * bq
                nrr = piv * brr - br * br
                nqr = piv * bqr - bq * br
                det = nqq * nrr - nqr * nqr
                q, r = bits[a + 1], bits[last]
                table[child | q] = ((nqq > 0) - (nqq < 0)) * psign
                table[child | r] = ((nrr > 0) - (nrr < 0)) * psign
                table[child | q | r] = ((det > 0) - (det < 0)) * s
        elif a == last - 1:
            # a leaf: its one minor is num / prev, so take sign(num) * psign
            num = piv * block[last][0] - row[1] * row[1]
            table[child | bits[last]] = ((num > 0) - (num < 0)) * psign


def _walk_pairs(block, bits, mask, prev, psign, table, d):
    """_walk_ints for a block over Z[sqrt d].  A real Z[i] minor is signed
    inline; _sign takes a non-real one (raising) and every Z[sqrt 5] one."""
    last = len(block) - 1
    for a, row in enumerate(block):
        piv = row[0]
        child = mask | bits[a]
        s = table[child] = (piv[0] > 0) - (piv[0] < 0) if d < 0 and not piv[1] else _sign(piv, d)
        if a < last - 1:
            if not s:
                _pivot2_pairs(block, a, bits, child, prev, psign, table, d)
            elif a < last - 2:
                _walk_pairs(_reduce_pairs(block, a, prev, d), bits[a + 1 :], child, piv, s, table, d)
            else:
                (va, vb), (qa, qb), (ra, rb) = row
                ((xa, xb), (ya, yb)), ((za, zb),) = block[a + 1], block[last]
                qc, rc = (-qb, -rb) if d < 0 else (qb, rb)  # B[q, a] = (qa, qc), B[r, a] = (ra, rc)
                nqq = (va * xa + d * (vb * xb - qc * qb) - qa * qa, va * xb + vb * xa - qa * qb - qc * qa)
                nrr = (va * za + d * (vb * zb - rc * rb) - ra * ra, va * zb + vb * za - ra * rb - rc * ra)
                na, nb = va * ya + d * (vb * yb - qc * rb) - qa * ra, va * yb + vb * ya - qa * rb - qc * ra
                mb = -nb if d < 0 else nb  # N[r, q] = (na, mb)
                det = (
                    nqq[0] * nrr[0] + d * nqq[1] * nrr[1] - na * na - d * mb * nb,
                    nqq[0] * nrr[1] + nqq[1] * nrr[0] - na * nb - mb * na,
                )
                q, r = bits[a + 1], bits[last]
                table[child | q] = ((nqq[0] > 0) - (nqq[0] < 0) if d < 0 and not nqq[1] else _sign(nqq, d)) * psign
                table[child | r] = ((nrr[0] > 0) - (nrr[0] < 0) if d < 0 and not nrr[1] else _sign(nrr, d)) * psign
                table[child | q | r] = ((det[0] > 0) - (det[0] < 0) if d < 0 and not det[1] else _sign(det, d)) * s
        elif a == last - 1:
            (va, vb), (xa, xb), (la, lb) = piv, block[last][0], row[1]
            lc = -lb if d < 0 else lb  # entry (last, a) is (la, lc)
            num = (va * xa + d * vb * xb - la * la - d * lc * lb, va * xb + vb * xa - la * lb - lc * la)
            table[child | bits[last]] = ((num[0] > 0) - (num[0] < 0) if d < 0 and not num[1] else _sign(num, d)) * psign


def _pivot2_ints(block, a, bits, child, prev, psign, table):
    """Signs of the sets S+a+V below a zero pivot at block position a of
    the node S (det S = prev, psign = sign(prev)), by one 2 x 2 pivot on a
    and each partner w, a later position with B[a, w] != 0; see the
    comment above the integer kernels."""
    row = block[a]
    later = range(a + 1, len(block))
    square = prev * prev
    zeros = 0
    for w in later:
        baw = row[w - a]
        if not baw:
            zeros |= bits[w]
            continue
        bww, nrm = block[w][0], baw * baw
        # R: the later positions but w and the partners before it
        keep = [r for r in later if r > w or (r < w and not row[r - a])]
        u = [row[r - a] for r in keep]  # B[a, r]
        g = [baw * (block[r][w - r] if r < w else block[w][r - w]) for r in keep]  # B[a, w] B[w, r]
        e = [gr - bww * ur for gr, ur in zip(g, u)]
        tblock = [
            [(e[j] * ur + u[j] * gr - nrm * block[r][keep[j] - r]) // square for j in range(i, len(keep))]
            for i, (r, ur, gr) in enumerate(zip(keep, u, g))
        ]
        pivot = child | bits[w]
        table[pivot] = -psign
        _walk_ints(tblock, [bits[r] for r in keep], pivot, -nrm // prev, -psign, table)
    _zero_fill(child, zeros, table)


def _pivot2_pairs(block, a, bits, child, prev, psign, table, d):
    """_pivot2_ints for a block over Z[sqrt d], entries as (a, b) pairs.
    B[r, a] is the conjugate of the stored B[a, r] for d = -1 and equal to
    it for d = 5; a division multiplies by the conjugate of the divisor
    and divides by its norm, or divides directly by a real one."""
    row = block[a]
    later = range(a + 1, len(block))
    pa, pb = prev
    sa, sb = pa * pa + d * pb * pb, 2 * pa * pb  # (det S)**2
    snrm, pnrm = sa * sa - d * sb * sb, pa * pa - d * pb * pb
    zeros = 0
    for w in later:
        wa, wb = row[w - a]  # B[a, w]
        if not (wa or wb):
            zeros |= bits[w]
            continue
        wc = -wb if d < 0 else wb  # B[w, a] = (wa, wc)
        ma, mb = wa * wa + d * wb * wc, wa * wc + wb * wa  # B[a, w] B[w, a]
        xa, xb = block[w][0]  # B[w, w]
        keep = [r for r in later if r > w or (r < w and row[r - a] == (0, 0))]
        u = [row[r - a] for r in keep]  # B[a, r]
        g, e = [], []
        for r, (ua, ub) in zip(keep, u):
            ya, yb = block[r][w - r] if r < w else block[w][r - w]
            if r < w and d < 0:
                yb = -yb  # B[w, r] is the conjugate of the stored B[r, w]
            ga, gb = wa * ya + d * wb * yb, wa * yb + wb * ya  # B[a, w] B[w, r]
            g.append((ga, gb))
            e.append((ga - xa * ua - d * xb * ub, gb - xa * ub - xb * ua))
        tblock = []
        for i, (r, (ua, ub), (ga, gb)) in enumerate(zip(keep, u, g)):
            if d < 0:
                ub, gb = -ub, -gb  # conjugates of B[a, r] and of g[r]
            brow = block[r]
            out = []
            for (ea, eb), (ta, tb), t in zip(e[i:], u[i:], keep[i:]):
                ba, bb = brow[t - r]  # B[r, t]
                na = ea * ua + d * eb * ub + ta * ga + d * tb * gb - ma * ba - d * mb * bb
                nb = ea * ub + eb * ua + ta * gb + tb * ga - ma * bb - mb * ba
                if sb:
                    out.append(((na * sa - d * nb * sb) // snrm, (nb * sa - na * sb) // snrm))
                else:
                    out.append((na // sa, nb // sa))
            tblock.append(out)
        if pb:
            tprev = ((d * mb * pb - ma * pa) // pnrm, (ma * pb - mb * pa) // pnrm)
        else:
            tprev = (-ma // pa, -mb // pa)
        pivot = child | bits[w]
        table[pivot] = -psign
        _walk_pairs(tblock, [bits[r] for r in keep], pivot, tprev, -psign, table, d)
    _zero_fill(child, zeros, table)


def _zero_fill(child, zeros, table):
    """Zero signs for child + V, V a nonempty subset of the bits in zeros."""
    sub = zeros
    while sub:
        table[child | sub] = 0
        sub = (sub - 1) & zeros


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _order_masks(n):
    """Per order k = 1..n, the bitmasks of the k-subsets of range(n) in
    lexicographic order."""
    return tuple(
        tuple(sum(1 << i for i in subset) for subset in combinations(range(n), k))
        for k in range(1, n + 1)
    )


class HermitianMatrix:
    """An n-by-n Hermitian matrix with exact entries, stored as its scaled
    integer grid (see the module docstring).

    Its entries are GaussianRationals, or Sqrt5Rationals when any entry
    it was built from is one (d = 5).  Every matrix, whether built from
    entries or by a transform, goes through _adopt, which checks its shape
    and the conjugate-symmetry invariant.
    """

    __slots__ = ("n", "_d", "_scale", "_grid", "_rank", "_minor_cache")

    def __init__(self, rows: Sequence[Sequence]):
        self._adopt(*_scale(rows))

    @classmethod
    def _of(cls, d, scale, grid) -> "HermitianMatrix":
        """The matrix grid / scale, with grid in _scale's form."""
        matrix = cls.__new__(cls)
        matrix._adopt(d, scale, grid)
        return matrix

    def _adopt(self, d, scale, grid):
        """Check and store a grid in _scale's form: a real grid is stored
        with d = 0, and a common factor of scale and every grid integer is
        divided out, so that scale is the lcm of the entries' denominators."""
        n = len(grid)
        if n < 1:
            raise MatrixFormatError("order must be at least 1")
        for i, row in enumerate(grid):
            if len(row) != n:
                raise MatrixFormatError(f"row {i + 1} has {len(row)} entries, expected {n}")
        if d == -1 and not any(b for row in grid for _, b in row):
            d, grid = 0, tuple(tuple(a for a, _ in row) for row in grid)
        if scale != 1:
            g = gcd(scale, *(x for row in grid for v in row for x in (v if d else (v,))))
            if g != 1:
                scale //= g
                grid = _entrywise(grid, d, lambda v: v // g)
        # a real or Q(sqrt 5) grid is Hermitian when it equals its transpose;
        # the loop locates the first bad entry, or checks a Gaussian grid
        if d == -1 or tuple(zip(*grid)) != grid:
            for i, row in enumerate(grid):
                for j in range(i, n):
                    v, w = row[j], grid[j][i]
                    if v != (w if d != -1 else (w[0], -w[1])):
                        raise MatrixFormatError(
                            f"entry ({i + 1},{j + 1}) is not the conjugate of entry "
                            f"({j + 1},{i + 1}): Hermitian invariant violated"
                        )
        state = {"n": n, "_d": d, "_scale": scale, "_grid": grid, "_rank": None, "_minor_cache": None}
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "HermitianMatrix":
        return cls._of(0, 1, ((0,) * n,) * n)

    @classmethod
    def identity(cls, n: int) -> "HermitianMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return (self._d, self._scale, self._grid) == (other._d, other._scale, other._grid)

    def __hash__(self):
        return hash((self._d, self._scale, self._grid))

    def __repr__(self):
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"HermitianMatrix({self.n}x{self.n}: {rows})"

    @property
    def entries(self):
        """The exact entries, rows of GaussianRationals or (d = 5)
        Sqrt5Rationals, built from the grid on each call."""
        s = self._scale
        if self._d == 0:
            return tuple(tuple(GaussianRational(Fraction(v, s)) for v in row) for row in self._grid)
        kind = Sqrt5Rational if self._d == 5 else GaussianRational
        return tuple(tuple(kind(Fraction(a, s), Fraction(b, s)) for a, b in row) for row in self._grid)

    @property
    def is_real(self) -> bool:
        return self._d != -1

    # -- principal minors ---------------------------------------------------

    def _mask_signs(self):
        """Signs of all 2**n - 1 principal minors keyed by index bitmask
        (cached), from one _sign_walk over the scaled grid."""
        cached = self._minor_cache
        if cached is None:
            cached = _sign_walk(self._grid, self._d)
            object.__setattr__(self, "_minor_cache", cached)
        return cached

    def minor_signs_by_order(self):
        """List indexed by k-1: signs of all order-k principal minors in
        lexicographic subset order."""
        table = self._mask_signs()
        return [[table[mask] for mask in masks] for masks in _order_masks(self.n)]

    # -- rank and inverse ---------------------------------------------------

    def rank(self) -> int:
        """Rank by elimination of the grid (cached; the minor table is
        never read)."""
        if self._rank is None:
            object.__setattr__(self, "_rank", _eliminate(self._d, [list(r) for r in self._grid])[0])
        return self._rank

    def inverse(self) -> "HermitianMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination on the
        scaled integer grid augmented with the identity.

        A zero left on the left half's diagonal means a pivot column was
        skipped: the matrix is singular, and SingularMatrixError is raised.
        Otherwise the right half R == D * grid**-1, with D the last pivot;
        since grid == scale * self, the inverse is scale * R / D.  Its grid
        is scale * R * sign(D) over |D| for a real D, and otherwise
        scale * R * conj(D) * sign(N) over |N|, N = D * conj(D) the norm.
        """
        d, scale, n = self._d, self._scale, self.n
        zero, one = ((0, 0), (1, 0)) if d else (0, 1)
        work = [[*row, *(one if j == i else zero for j in range(n))] for i, row in enumerate(self._grid)]
        _, _, last = _eliminate(d, work)
        if any(row[i] == zero for i, row in enumerate(work)):
            raise SingularMatrixError("matrix is singular; no exact inverse")
        if d == 0:
            k = scale if last > 0 else -scale
            return self._of(0, abs(last), tuple(tuple(k * v for v in row[n:]) for row in work))
        da, db = last
        nrm = da * da - d * db * db
        ca, cb = (scale * da, -scale * db) if nrm > 0 else (-scale * da, scale * db)
        grid = tuple(tuple((a * ca + d * b * cb, a * cb + b * ca) for a, b in row[n:]) for row in work)
        return self._of(d, abs(nrm), grid)

    # -- structural transforms ---------------------------------------------

    def negate(self) -> "HermitianMatrix":
        return self._of(self._d, self._scale, _entrywise(self._grid, self._d, lambda v: -v))

    __neg__ = negate

    def direct_sum(self, other: "HermitianMatrix") -> "HermitianMatrix":
        """The block-diagonal matrix with self above other, over the lcm of
        their scales; a real grid beside a non-real one becomes pairs."""
        d = self._d or other._d
        if other._d not in (0, d):
            raise MatrixFormatError("no direct sum of a Gaussian and a Q(sqrt 5) matrix")
        scale = lcm(self._scale, other._scale)
        grids = []
        for m in (self, other):
            k = scale // m._scale
            grid = m._grid if k == 1 else _entrywise(m._grid, m._d, lambda v: k * v)
            grids.append(tuple(tuple((v, 0) for v in row) for row in grid) if d and not m._d else grid)
        pad = (0, 0) if d else 0
        top = tuple(row + (pad,) * other.n for row in grids[0])
        return self._of(d, scale, top + tuple((pad,) * self.n + row for row in grids[1]))

    def permute(self, perm: Sequence[int]) -> "HermitianMatrix":
        """Simultaneous row/column permutation: entry (i, j) of the result
        is entry (perm[i], perm[j]) of self (1-based)."""
        p = tuple(perm)
        if sorted(p) != list(range(1, self.n + 1)):
            raise ValueError(f"invalid permutation of 1..{self.n}: {perm!r}")
        if self.n == 1:  # the identity; itemgetter of one index returns no tuple
            return self._of(self._d, self._scale, self._grid)
        pick = itemgetter(*(k - 1 for k in p))
        return self._of(self._d, self._scale, tuple(map(pick, pick(self._grid))))

    def duplicate_last(self) -> "HermitianMatrix":
        """Border the matrix with a copy of its last column (and the
        matching conjugated row), repeating the corner diagonal entry.

        The appended row equals the original last row: those entries are
        already the conjugates of the appended column.
        """
        rows = tuple(row + (row[-1],) for row in self._grid)
        return self._of(self._d, self._scale, rows + rows[-1:])


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------


def _json_entry(i, j, v) -> list:
    """The [re, im] form of entry (i, j) (0-based); a Q(sqrt 5) entry has
    one only when it is rational."""
    if isinstance(v, Sqrt5Rational):
        if v.b:
            raise MatrixFormatError(f"entry ({i + 1},{j + 1}): {v} has no [re, im] form")
        v = GaussianRational(v.a)
    return format_gaussian(v)


def matrix_to_json_dict(matrix: HermitianMatrix) -> dict:
    return {
        "n": matrix.n,
        "entries": [
            [_json_entry(i, j, v) for j, v in enumerate(row)] for i, row in enumerate(matrix.entries)
        ],
    }


def matrix_to_json(matrix: HermitianMatrix) -> str:
    return json.dumps(matrix_to_json_dict(matrix))


def matrix_from_json_dict(doc) -> HermitianMatrix:
    """Build a matrix from the `{"n": ..., "entries": [[[re, im], ...]]}`
    document, rejecting malformed input with a position-specific error."""
    if not isinstance(doc, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    if "n" not in doc or "entries" not in doc:
        raise MatrixFormatError('matrix document needs "n" and "entries" fields')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f'"n" must be a positive integer, got {n!r}')
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFormatError(f'"entries" must be a list of {n} rows')
    parts = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i + 1} must be a list of {n} entries")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(parse_gaussian_ratios(cell))
            except ScalarParseError as exc:
                raise MatrixFormatError(f"entry ({i + 1},{j + 1}): {exc}") from exc
        parts.append(parsed)
    return HermitianMatrix._of(*_scale_ratios(0, parts))


def matrix_from_json(text: str) -> HermitianMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    return matrix_from_json_dict(doc)


def load_matrix(path) -> HermitianMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None
    return matrix_from_json(text)
