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
table holds only signs.  Over Z and Z[i] it comes from one depth-first
walk over the index sets that eliminates each nonsingular prefix once; no
minor value is ever built.  A Q(sqrt 5) grid gets one elimination per
principal submatrix.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Sequence

from .exact import (
    GaussianRational,
    Sqrt5Rational,
    format_gaussian,
    parse_gaussian_ratios,
    parse_ratio,
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
# ends as last * grid**-1.
# The sign walk (_sign_walk) runs over Z and Z[i]: a depth-first walk over
# the index sets S in lexicographic order.  It writes each set's sign into
# a list indexed by mask, whose entries start at 0, so a set the walk
# knows to be singular needs no write.  A nonsingular S carries the block
# B of bordered minors det[S+i, S+l] over its later indices.  B is
# Hermitian, so one flat list holds its upper triangle row after row: row
# r of an m-position block starts at _layout(m)[r].  B's diagonal holds the
# children's minors det[S+j], and one Bareiss step dividing by det S gives
# a child's block (exact by Sylvester's identity, for any S).  That step is
# one comprehension over _step(m, a), the cached index triples of (r, t),
# (a, r) and (a, t) for each entry (r, t) of the child's block, so a step
# pays no per-row setup, slicing or zip.  A singular child S+a (B[a, a] = 0)
# with four or more later positions has no block, so the walk takes a 2 x 2
# pivot instead (Bunch and Kaufman, 1977).  Each partner w of a, a later
# position with B[a, w] != 0, makes T = S+a+w nonsingular:
# det T * det S = -B[a, w] B[w, a], so det T has the sign opposite to
# det S.  T's block over R, the positions after a but w and the partners
# before it, holds det B[{a, w, r}, {a, w, t}] / (det S)**2, again by
# Sylvester's identity, and the walk goes on below T: that covers every
# set through a and w that holds no earlier partner.  Row a of B[{a} + V]
# is zero when V holds no partner, so each such S+a+V is singular and
# keeps its 0.  When a single index l follows a, the child S+a has one
# descendant, S+a+l, whose minor is num / det S with num the 2 x 2
# determinant of B on {a, l}: the walk takes sign(num) * sign(det S) and
# never divides.  A nonsingular child S+a followed by exactly two
# positions q and r is a two-level leaf: its block would be N / det S with
# N = det[S+a] * B - B[., a] B[a, .] on {q, r}, so the walk forms only the
# numerators N_qq, N_rr and N_qr.  The minors S+a+q and S+a+r are
# N_qq / det S and N_rr / det S, signed by sign(det S); S+a+q+r is
# (N_qq N_rr - N_rq N_qr) / ((det S)**2 det[S+a]), signed by sign(det[S+a])
# alone, since (det S)**2 > 0.  No block is built, nothing is divided and
# nothing recurses, and a singular S+a+q needs no pivot because only
# det[S+a] divides.  A nonsingular child S+a followed by exactly three
# positions q, r and t is a three-level leaf, from N on {q, r, t}: for
# each nonempty V, det[S+a+V] = det N[V] / ((det S)**|V| det[S+a]**(|V|-1)),
# so S+a+x takes sign(N_xx) * sign(det S), a pair V sign(det N[V]) *
# sign(det[S+a]) and S+a+q+r+t sign(det N) * sign(det S).  Only det S and
# det[S+a] divide, so the leaf holds when some N_xx = 0 as well.
# A singular child S+a followed by exactly two or three positions is a
# zero-pivot leaf, signed with no block, no division and no recursion.  By
# Sylvester's identity det B[{a} + V] = (det S)**|V| det[S+a+V], and with
# u_x = B[a, x], C = B on the later positions and B[a, a] = 0,
# det B[{a} + V] = -u adj(C[V]) u*.  So S+a+x takes -sign(det S) when
# u_x != 0 and 0 otherwise; a pair {x, y} takes the sign of
# 2 Re(u_x C_xy conj u_y) - C_xx |u_y|**2 - C_yy |u_x|**2, since
# (det S)**2 > 0; and S+a+q+r+t takes sign(det S) times the sign of
# -u adj(C) u*.  When u = 0 every such set is singular and keeps its 0.
# A 2 x 2 pivot builds T's block the same way, in one comprehension over
# _pairs(m, keep): for each entry of T's block, its place in R and the
# index of the matching entry of B, cached like _step.
# Each int kernel and walk stays separate from its pair counterpart
# because it is about twice as fast on real input.  The pair kernels write
# their products and divisions out inline, with no helper call per entry.
# The pair walk is written for Z[i] alone: B[r, a] is the conjugate of
# B[a, r] and every minor is real, so det S is an int, no term carries a
# factor d and each division is by a real integer.  Q(sqrt 5) enters only
# through one catalog witness and its transforms, so a d = 5 grid is not
# walked: each of its 2**n - 1 principal submatrices gets one _eliminate,
# and its sign is the swap sign times that of the last pivot at full rank,
# else 0.
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


def _eliminate_ints(rows):
    """Fraction-free Gauss-Jordan elimination of an integer grid; mutates
    ``rows``.  Returns (rank, swap sign, last pivot)."""
    width = len(rows[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for c in range(width):
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


def _eliminate_pairs(rows, d):
    """_eliminate_ints over Z[sqrt d], entries as (a, b) int pairs; the last
    pivot is a pair too.  Dividing by the previous pivot multiplies by its
    conjugate and divides by its norm; a real one divides directly.  A
    pivot need not be real even for d = -1: after a row swap, or in a grid
    that is not Hermitian."""
    width = len(rows[0]) if rows else 0
    rank, sign, pa, pb = 0, 1, 1, 0
    for c in range(width):
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


def _eliminate(d, rows):
    """(rank, swap sign, last pivot) of a grid in _scale's form; mutates
    ``rows``."""
    return _eliminate_ints(rows) if d == 0 else _eliminate_pairs(rows, d)


@lru_cache(maxsize=None)
def _layout(m):
    """Where each row of a packed m-position block starts: entry (r, t),
    r <= t, sits at _layout(m)[r] + t - r."""
    return tuple(r * m - r * (r - 1) // 2 for r in range(m))


@lru_cache(maxsize=None)
def _step(m, a):
    """The index triples of a Bareiss step on position a of a packed
    m-position block: for each entry (r, t), a < r <= t, in the packed
    order of the reduced block, the indices of (r, t), (a, r) and (a, t)."""
    start = _layout(m)
    row = start[a] - a
    return tuple((start[r] + t - r, row + r, row + t) for r in range(a + 1, m) for t in range(r, m))


@lru_cache(maxsize=None)
def _pairs(m, keep):
    """The index triples of a 2 x 2 pivot's block on a packed m-position
    block: for each entry (i, j), i <= j, of the packed block over the
    positions ``keep`` (a tuple), i, j and the index of B[keep[i], keep[j]]."""
    start = _layout(m)
    return tuple((i, j, start[r] + t - r) for i, r in enumerate(keep) for j, t in enumerate(keep[i:], i))


def _reduce_ints(block, m, a, prev):
    """One Bareiss step on a packed Hermitian m-position block: pivot on
    position a, divide by ``prev``, and return the packed block of the
    positions after a.  Entry (r, a) is read as the stored (a, r)."""
    piv = block[_layout(m)[a]]
    return [(piv * block[i] - block[j] * block[k]) // prev for i, j, k in _step(m, a)]


def _reduce_pairs(block, m, a, prev):
    """_reduce_ints over Z[i], entries as (a, b) pairs.  Entry (r, a) is the
    conjugate of the stored (a, r), and pivot and ``prev`` are real
    (principal minors), so each division is by a real integer."""
    va, _ = block[_layout(m)[a]]
    return [
        ((va * xa - la * ya - lb * yb) // prev, (va * xb - la * yb + lb * ya) // prev)
        for i, j, k in _step(m, a)
        for xa, xb in [block[i]] for la, lb in [block[j]] for ya, yb in [block[k]]
    ]


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
    """Signs of the principal minors of a scaled Hermitian grid in _scale's
    form, as a list of 2**n signs indexed by mask; index 0 is the empty
    minor, 1.

    See the comment above the integer kernels; the walk starts at the
    empty set, whose block is the grid and whose determinant is 1.  A
    Q(sqrt 5) grid is not walked: each of its principal submatrices gets
    one _eliminate."""
    n = len(grid)
    table = [0] * (1 << n)
    table[0] = 1
    if d == 5:
        for mask in range(1, 1 << n):
            keep = [i for i in range(n) if mask >> i & 1]
            rank, sign, last = _eliminate(d, [[grid[i][j] for j in keep] for i in keep])
            table[mask] = sign * _sign(last, d) if rank == len(keep) else 0
        return table
    block = [v for i, row in enumerate(grid) for v in row[i:]]
    bits = [1 << i for i in range(n)]
    if d == 0:
        _walk_ints(block, bits, 0, 1, 1, table)
    else:
        _walk_pairs(block, bits, 0, 1, 1, table)
    return table


def _walk_ints(block, bits, mask, prev, psign, table):
    """The walk below the node ``mask`` (S) for a packed integer block;
    position a of the block stands for the index of bit bits[a], prev =
    det S and psign = sign(prev)."""
    m = len(bits)
    for a, i in enumerate(_layout(m)):
        piv = block[i]
        child = mask | bits[a]
        s = table[child] = (piv > 0) - (piv < 0)
        if a < m - 2:
            if not s:
                if a < m - 4:
                    _pivot2_ints(block, a, bits, child, prev, psign, table)
                elif a == m - 4:
                    # a zero-pivot leaf on the last three positions q, r and
                    # t: M = B on {a} + V has the corner B[a, a] = 0, row u
                    # and block C, so det M = -u adj(C[V]) u*
                    _, uq, ur, ut, cqq, cqr, cqt, crr, crt, ctt = block[-10:]
                    if not (uq or ur or ut):
                        continue  # u = 0: every set through a keeps its 0
                    sq, sr, st = uq * uq, ur * ur, ut * ut
                    pqr, pqt, prt = uq * ur, uq * ut, ur * ut
                    mqr = 2 * cqr * pqr - cqq * sr - crr * sq
                    mqt = 2 * cqt * pqt - cqq * st - ctt * sq
                    mrt = 2 * crt * prt - crr * st - ctt * sr
                    mqrt = (
                        (crt * crt - crr * ctt) * sq
                        + (cqt * cqt - cqq * ctt) * sr
                        + (cqr * cqr - cqq * crr) * st
                        + 2 * ((cqr * ctt - cqt * crt) * pqr + (cqt * crr - cqr * crt) * pqt + (cqq * crt - cqr * cqt) * prt)
                    )
                    q, r, t = bits[-3:]
                    table[child | q] = -psign if uq else 0
                    table[child | q | r] = (mqr > 0) - (mqr < 0)
                    table[child | q | t] = (mqt > 0) - (mqt < 0)
                    table[child | q | r | t] = ((mqrt > 0) - (mqrt < 0)) * psign
                    table[child | r] = -psign if ur else 0
                    table[child | r | t] = (mrt > 0) - (mrt < 0)
                    table[child | t] = -psign if ut else 0
                else:
                    # a zero-pivot leaf on the last two positions q and r
                    _, uq, ur, cqq, cqr, crr = block[-6:]
                    if not (uq or ur):
                        continue
                    mqr = 2 * cqr * uq * ur - cqq * ur * ur - crr * uq * uq
                    q, r = bits[-2], bits[-1]
                    table[child | q] = -psign if uq else 0
                    table[child | r] = -psign if ur else 0
                    table[child | q | r] = (mqr > 0) - (mqr < 0)
            elif a < m - 4:
                _walk_ints(_reduce_ints(block, m, a, prev), bits[a + 1 :], child, piv, s, table)
            elif a == m - 4:
                # a three-level leaf on the last three positions q, r and t
                _, bq, br, bt, bqq, bqr, bqt, brr, brt, btt = block[-10:]
                nqq, nrr, ntt = piv * bqq - bq * bq, piv * brr - br * br, piv * btt - bt * bt
                nqr, nqt, nrt = piv * bqr - bq * br, piv * bqt - bq * bt, piv * brt - br * bt
                dqr, dqt, drt = nqq * nrr - nqr * nqr, nqq * ntt - nqt * nqt, nrr * ntt - nrt * nrt
                det = nqq * drt - nrr * nqt * nqt - ntt * nqr * nqr + 2 * nqr * nrt * nqt
                q, r, t = bits[-3:]
                table[child | q] = ((nqq > 0) - (nqq < 0)) * psign
                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s
                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s
                table[child | q | r | t] = ((det > 0) - (det < 0)) * psign
                table[child | r] = ((nrr > 0) - (nrr < 0)) * psign
                table[child | r | t] = ((drt > 0) - (drt < 0)) * s
                table[child | t] = ((ntt > 0) - (ntt < 0)) * psign
            else:
                # a two-level leaf on the last two positions q and r
                _, bq, br, bqq, bqr, brr = block[-6:]
                nqq = piv * bqq - bq * bq
                nrr = piv * brr - br * br
                nqr = piv * bqr - bq * br
                det = nqq * nrr - nqr * nqr
                q, r = bits[-2], bits[-1]
                table[child | q] = ((nqq > 0) - (nqq < 0)) * psign
                table[child | r] = ((nrr > 0) - (nrr < 0)) * psign
                table[child | q | r] = ((det > 0) - (det < 0)) * s
        elif a == m - 2:
            # a leaf: its one minor is num / prev, so take sign(num) * psign
            num = piv * block[-1] - block[-2] * block[-2]
            table[child | bits[-1]] = ((num > 0) - (num < 0)) * psign


def _walk_pairs(block, bits, mask, prev, psign, table):
    """_walk_ints for a block over Z[i].  B[r, a] is the conjugate of the
    stored B[a, r], and det S is a real principal minor, so ``prev`` is an
    int.  A real minor is signed inline; _sign takes a non-real one and
    raises.  The leaves read B[a, a] as real, since its sign was just
    taken, so a leaf minor's imaginary part is B[a, a] times that of its
    diagonal entry x: formed, and sent to _sign, only when x is non-real.
    A zero-pivot leaf sends each non-real C_xx to _sign before it signs
    any set.  The loop would also raise on x when it reached it, but only
    after the leaf had recorded signs through x; the leaves' own checks
    keep a wrong sign from ever being recorded, as
    test_sign_walk_rejects_non_real_minor pins."""
    m = len(bits)
    for a, i in enumerate(_layout(m)):
        piv = block[i]
        child = mask | bits[a]
        s = table[child] = (piv[0] > 0) - (piv[0] < 0) if not piv[1] else _sign(piv, -1)
        if a < m - 2:
            if not s:
                if a < m - 4:
                    _pivot2_pairs(block, a, bits, child, prev, psign, table)
                elif a == m - 4:
                    # a zero-pivot leaf on the last three positions q, r and
                    # t; each C_xx = det[S+x] is checked first, and a
                    # non-real one raises before any set through x is signed
                    (_, _), (qa, qb), (ra, rb), (ta, tb) = block[-10:-6]
                    if not (qa or qb or ra or rb or ta or tb):
                        continue  # u = 0: every set through a keeps its 0
                    (xa, xb), (ea, eb), (fa, fb), (ya, yb), (ga, gb), (za, zb) = block[-6:]  # C_qq .. C_tt
                    if xb or yb or zb:
                        for diagonal in (xa, xb), (ya, yb), (za, zb):
                            _sign(diagonal, -1)
                    sq, sr, st = qa * qa + qb * qb, ra * ra + rb * rb, ta * ta + tb * tb
                    # u_x conj(u_y) per pair, and the negated adj(C)_xy
                    pqr, iqr = qa * ra + qb * rb, qb * ra - qa * rb
                    pqt, iqt = qa * ta + qb * tb, qb * ta - qa * tb
                    prt, irt = ra * ta + rb * tb, rb * ta - ra * tb
                    aqr, bqr = ea * za - fa * ga - fb * gb, eb * za - fb * ga + fa * gb
                    aqt, bqt = fa * ya - ea * ga + eb * gb, fb * ya - ea * gb - eb * ga
                    art, brt = xa * ga - fa * ea - fb * eb, xa * gb - fb * ea + fa * eb
                    # 2 Re(u_x C_xy conj u_y) - C_xx |u_y|**2 - C_yy |u_x|**2
                    mqr = 2 * (ea * pqr - eb * iqr) - xa * sr - ya * sq
                    mqt = 2 * (fa * pqt - fb * iqt) - xa * st - za * sq
                    mrt = 2 * (ga * prt - gb * irt) - ya * st - za * sr
                    mqrt = (
                        (ga * ga + gb * gb - ya * za) * sq
                        + (fa * fa + fb * fb - xa * za) * sr
                        + (ea * ea + eb * eb - xa * ya) * st
                        + 2 * (aqr * pqr - bqr * iqr + aqt * pqt - bqt * iqt + art * prt - brt * irt)
                    )
                    q, r, t = bits[-3:]
                    table[child | q] = -psign if qa or qb else 0
                    table[child | q | r] = (mqr > 0) - (mqr < 0)
                    table[child | q | t] = (mqt > 0) - (mqt < 0)
                    table[child | q | r | t] = ((mqrt > 0) - (mqrt < 0)) * psign
                    table[child | r] = -psign if ra or rb else 0
                    table[child | r | t] = (mrt > 0) - (mrt < 0)
                    table[child | t] = -psign if ta or tb else 0
                else:
                    # a zero-pivot leaf on the last two positions q and r
                    (_, _), (qa, qb), (ra, rb), (xa, xb), (ya, yb), (za, zb) = block[-6:]
                    if not (qa or qb or ra or rb):
                        continue
                    if xb or zb:
                        for diagonal in (xa, xb), (za, zb):
                            _sign(diagonal, -1)
                    pa, pb = qa * ra + qb * rb, qb * ra - qa * rb  # u_q conj(u_r)
                    mqr = 2 * (ya * pa - yb * pb) - xa * (ra * ra + rb * rb) - za * (qa * qa + qb * qb)
                    q, r = bits[-2], bits[-1]
                    table[child | q] = -psign if qa or qb else 0
                    table[child | r] = -psign if ra or rb else 0
                    table[child | q | r] = (mqr > 0) - (mqr < 0)
            elif a < m - 4:
                _walk_pairs(_reduce_pairs(block, m, a, prev), bits[a + 1 :], child, piv[0], s, table)
            elif a == m - 4:
                # a three-level leaf on the last three positions q, r and t:
                # each N_xx is real once signed, and then so is every minor of N
                (va, _), (qa, qb), (ra, rb), (ta, tb) = block[-10:-6]
                (qqa, qqb), (qra, qrb), (qta, qtb), (rra, rrb), (rta, rtb), (tta, ttb) = block[-6:]
                nqq = va * qqa - qa * qa - qb * qb
                nrr = va * rra - ra * ra - rb * rb
                ntt = va * tta - ta * ta - tb * tb
                sq = _sign((nqq, va * qqb), -1) if qqb else (nqq > 0) - (nqq < 0)
                sr = _sign((nrr, va * rrb), -1) if rrb else (nrr > 0) - (nrr < 0)
                st = _sign((ntt, va * ttb), -1) if ttb else (ntt > 0) - (ntt < 0)
                # N_qr = (ea, eb), N_qt = (fa, fb), N_rt = (ga, gb) and N_qr N_rt
                ea, eb = va * qra - qa * ra - qb * rb, va * qrb - qa * rb + qb * ra
                fa, fb = va * qta - qa * ta - qb * tb, va * qtb - qa * tb + qb * ta
                ga, gb = va * rta - ra * ta - rb * tb, va * rtb - ra * tb + rb * ta
                pa, pb = ea * ga - eb * gb, ea * gb + eb * ga
                sqr, sqt, srt = ea * ea + eb * eb, fa * fa + fb * fb, ga * ga + gb * gb
                dqr, dqt, drt = nqq * nrr - sqr, nqq * ntt - sqt, nrr * ntt - srt
                # N_qq N_rr N_tt + 2 Re(N_qr N_rt conj N_qt) - sum N_xx |N_yz|**2
                det = nqq * drt - nrr * sqt - ntt * sqr + 2 * (pa * fa + pb * fb)
                q, r, t = bits[-3:]
                table[child | q] = sq * psign
                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s
                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s
                table[child | q | r | t] = ((det > 0) - (det < 0)) * psign
                table[child | r] = sr * psign
                table[child | r | t] = ((drt > 0) - (drt < 0)) * s
                table[child | t] = st * psign
            else:
                # a two-level leaf on the last two positions q and r.  N_qq and
                # N_rr are real once signed, and then so is N_qq N_rr - |N_qr|**2.
                (va, _), (qa, qb), (ra, rb), (xa, xb), (ya, yb), (za, zb) = block[-6:]
                nqq = va * xa - qa * qa - qb * qb
                nrr = va * za - ra * ra - rb * rb
                na, nb = va * ya - qa * ra - qb * rb, va * yb - qa * rb + qb * ra  # N_qr
                det = nqq * nrr - na * na - nb * nb
                q, r = bits[-2], bits[-1]
                table[child | q] = (_sign((nqq, va * xb), -1) if xb else (nqq > 0) - (nqq < 0)) * psign
                table[child | r] = (_sign((nrr, va * zb), -1) if zb else (nrr > 0) - (nrr < 0)) * psign
                table[child | q | r] = ((det > 0) - (det < 0)) * s
        elif a == m - 2:
            # a leaf: its one minor is num / prev, so take sign(num) * psign
            (va, _), (la, lb), (xa, xb) = block[-3:]
            num = va * xa - la * la - lb * lb
            table[child | bits[-1]] = (_sign((num, va * xb), -1) if xb else (num > 0) - (num < 0)) * psign


def _pivot2_ints(block, a, bits, child, prev, psign, table):
    """Signs of the sets S+a+V below a zero pivot at position a of the
    packed block of the node S (det S = prev, psign = sign(prev)), by one
    2 x 2 pivot on a and each partner w, a later position with
    B[a, w] != 0; see the comment above the integer kernels."""
    m = len(bits)
    start = _layout(m)
    at = start[a] - a  # B[a, t] is block[at + t]
    square = prev * prev
    low = []  # the non-partners so far
    for w in range(a + 1, m):
        baw = block[at + w]
        if not baw:
            low.append(w)
            continue
        bww, nrm = block[start[w]], baw * baw
        # R: the later positions but w and the partners before it
        keep = (*low, *range(w + 1, m))
        u = [block[at + r] for r in keep]  # B[a, r]
        g = [baw * block[start[r] + w - r if r < w else start[w] + r - w] for r in keep]  # B[a, w] B[w, r]
        e = [gr - bww * ur for gr, ur in zip(g, u)]
        tblock = [(e[j] * u[i] + u[j] * g[i] - nrm * block[k]) // square for i, j, k in _pairs(m, keep)]
        pivot = child | bits[w]
        table[pivot] = -psign
        _walk_ints(tblock, [bits[r] for r in keep], pivot, -nrm // prev, -psign, table)


def _pivot2_pairs(block, a, bits, child, prev, psign, table):
    """_pivot2_ints for a block over Z[i], entries as (a, b) pairs.
    B[r, a] is the conjugate of the stored B[a, r], and det S, B[w, w] and
    B[a, w] B[w, a] are real, so T's block divides directly by (det S)**2.
    Per position r of R, v[r] holds u = B[a, r] (0 before w),
    g = B[a, w] B[w, r] and e = g - B[w, w] B[a, r]."""
    m = len(bits)
    start = _layout(m)
    at = start[a] - a  # B[a, t] is block[at + t]
    low = []  # the non-partners so far
    square = prev * prev
    for w in range(a + 1, m):
        wa, wb = block[at + w]  # B[a, w]
        if not (wa or wb):
            low.append(w)
            continue
        # R: the later positions but w and the partners before it
        keep = (*low, *range(w + 1, m))
        after = zip(block[at + w + 1 : at + m], block[start[w] + 1 : start[w] + m - w])  # (B[a, r], B[w, r])
        nrm = wa * wa + wb * wb  # B[a, w] B[w, a]
        x = block[start[w]][0]  # B[w, w]
        # B[w, r] is the conjugate of the stored B[r, w] for r < w
        before = [((0, 0), (ya, -yb)) for r in low for ya, yb in [block[start[r] + w - r]]]
        v = [
            (ua, ub, ga, gb, ga - x * ua, gb - x * ub)
            for (ua, ub), (ya, yb) in chain(before, after)
            for ga, gb in [(wa * ya - wb * yb, wa * yb + wb * ya)]
        ]
        # entry (r, t) is conj(u[r]) e[t] + u[t] conj(g[r]) - nrm B[r, t]
        tblock = [
            (
                (ua * ea + ub * eb + ta * ga + tb * gb - nrm * ba) // square,
                (ua * eb - ub * ea + tb * ga - ta * gb - nrm * bb) // square,
            )
            for i, j, k in _pairs(m, keep)
            for (ua, ub, ga, gb, _, _), (ta, tb, _, _, ea, eb), (ba, bb) in [(v[i], v[j], block[k])]
        ]
        pivot = child | bits[w]
        table[pivot] = -psign
        _walk_pairs(tblock, [bits[r] for r in keep], pivot, -nrm // prev, -psign, table)


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chunk_getters(c):
    """Per order k = 0..c, one itemgetter of the k-bit masks below 2**c.
    Each names its first mask twice, so a lone mask comes back in a tuple."""
    orders = [[mask for mask in range(1 << c) if mask.bit_count() == k] for k in range(c + 1)]
    return tuple(itemgetter(*masks, masks[0]) for masks in orders)


def _sign_sets(table):
    """Tuple indexed by k-1: the set of signs a sign table (indexed by
    mask, as _sign_walk returns it) holds on the order-k masks.  The table
    is read in chunks of 2**c masks, c = min(n, 10): a mask's order is the
    popcount of its offset in the chunk plus that of the chunk's index.
    Chunk 0, the only one holding the empty minor, is read in place."""
    n = len(table).bit_length() - 1
    c = min(n, 10)
    getters = _chunk_getters(c)
    sets = [frozenset(get(table)) for get in getters[1:]] + [frozenset()] * (n - c)
    for index in range(1, len(table) >> c):
        chunk = table[index << c : (index + 1) << c]
        for k, get in enumerate(getters, index.bit_count() - 1):
            sets[k] |= frozenset(get(chunk))
    return tuple(sets)


class HermitianMatrix:
    """An n-by-n Hermitian matrix with exact entries, stored as its scaled
    integer grid (see the module docstring).

    Its entries are GaussianRationals, or Sqrt5Rationals when any entry
    it was built from is one (d = 5).  Every matrix, whether built from
    entries or by a transform, goes through _adopt, which checks its shape
    and the conjugate-symmetry invariant.
    """

    __slots__ = ("n", "_d", "_scale", "_grid", "_rank", "_minor_cache", "_sets")

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
        state = {"n": n, "_d": d, "_scale": scale, "_grid": grid, "_rank": None, "_minor_cache": None, "_sets": None}
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
        """Signs of the principal minors indexed by mask, index 0 the empty
        minor (cached), from one _sign_walk over the scaled grid."""
        cached = self._minor_cache
        if cached is None:
            cached = _sign_walk(self._grid, self._d)
            object.__setattr__(self, "_minor_cache", cached)
        return cached

    def minor_sign_sets(self):
        """Tuple indexed by k-1: the set of signs the order-k principal
        minors take (cached, like the table it is read from, so
        compute_sepr and compute_epr summarise the table once)."""
        cached = self._sets
        if cached is None:
            cached = _sign_sets(self._mask_signs())
            object.__setattr__(self, "_sets", cached)
        return cached

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
        Otherwise the right half R == D * grid**-1, with D = da + db*sqrt(d)
        the last pivot; since grid == scale * self, the inverse is
        scale * R / D.  Its grid is scale * R * sign(da) over |da| for a
        real D (db = 0, as always when d = 0), and otherwise
        scale * R * conj(D) * sign(N) over |N|, N = D * conj(D) the norm.
        """
        d, scale, n = self._d, self._scale, self.n
        zero, one = ((0, 0), (1, 0)) if d else (0, 1)
        work = [[*row, *(one if j == i else zero for j in range(n))] for i, row in enumerate(self._grid)]
        _, _, last = _eliminate(d, work)
        if any(row[i] == zero for i, row in enumerate(work)):
            raise SingularMatrixError("matrix is singular; no exact inverse")
        da, db = last if d else (last, 0)
        if not db:
            k = scale if da > 0 else -scale
            return self._of(d, abs(da), _entrywise([row[n:] for row in work], d, lambda v: k * v))
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
    # each distinct rational text of this document, parsed once: a mirror
    # cell repeats its partner's real part, and "0" is every diagonal
    # cell's imaginary part
    ratios = {}

    def ratio(part):
        if not isinstance(part, str):  # no key; parse_ratio names its type
            return parse_ratio(part)
        got = ratios.get(part)
        if got is None:
            got = ratios[part] = parse_ratio(part)
        return got

    parts = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i + 1} must be a list of {n} entries")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(parse_gaussian_ratios(cell, ratio))
            except ScalarParseError as exc:
                raise MatrixFormatError(f"entry ({i + 1},{j + 1}): {exc}") from exc
        parts.append(parsed)
    return HermitianMatrix._of(*_scale_ratios(0, parts))


def matrix_from_json(text: str) -> HermitianMatrix:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number literal too long for int()
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
