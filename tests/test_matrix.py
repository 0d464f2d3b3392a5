import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    Gauss,
    Root5,
    elimination_det,
    lift,
    lower,
    matrix_of,
    oracle_det,
    oracle_principal_minor,
    oracle_sign_table,
    product,
    random_hermitian,
)
from seprkit.catalog import build_witness
from seprkit import matrix as matrix_module
from seprkit.exact import GaussianRational, I, Sqrt5Rational, parse_gaussian_ratios, parse_rational
from seprkit.matrix import (
    HermitianMatrix,
    MatrixFormatError,
    SingularMatrixError,
    _scale_ratios,
    _sign_sets,
    load_matrix,
    matrix_from_json,
    matrix_from_json_dict,
    matrix_to_json,
)

F_VIER_ONE = HermitianMatrix(
    [[2, 5, 1, 1], [5, Fraction(1, 2), 1, 1], [1, 1, 1, 2], [1, 1, 2, 1]]
)

FIVE_ONE_BASE = HermitianMatrix(
    [
        [1, -2, 2, 1, 1],
        [-2, 1, 2, 1, 1],
        [2, 2, 1, 1, 1],
        [1, 1, 1, -1, 2],
        [1, 1, 1, 2, -1],
    ]
)


def test_construction_rejects_non_hermitian():
    with pytest.raises(MatrixFormatError) as err:
        HermitianMatrix([[0, 1], [2, 0]])
    assert "(1,2)" in str(err.value)
    with pytest.raises(MatrixFormatError):
        HermitianMatrix([[I]])  # non-real diagonal
    with pytest.raises(MatrixFormatError):
        HermitianMatrix([[0, 1], [1, 0], [0, 0]])


def test_determinant_examples():
    # exact determinants are the oracle's; the engine gives their signs
    m = HermitianMatrix([[GaussianRational(0), I], [-I, GaussianRational(0)]])
    assert oracle_principal_minor(m, (0, 1)) == -1
    assert m._mask_signs()[-1] == -1
    assert HermitianMatrix.zero(3)._mask_signs()[-1] == 0
    assert oracle_principal_minor(F_VIER_ONE, (0, 1, 2, 3)) == 57
    assert F_VIER_ONE._mask_signs()[-1] == 1


def test_all_principal_minors_examples():
    d = HermitianMatrix.diagonal([1, -1, -1, 0])
    # diagonal subset-product oracle, mask by mask
    vals = [1, -1, -1, 0]
    assert d._mask_signs() == [prod(v for i, v in enumerate(vals) if mask >> i & 1) for mask in range(16)]


def test_minors_match_oracle_random():
    rng = random.Random(12345)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        assert m._mask_signs() == oracle_sign_table(m)


def test_fractional_entries_minors_match_oracle():
    rng = random.Random(99)
    for _ in range(10):
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for j in range(i + 1, 3):
                v = GaussianRational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
                rows[i][j] = v
                rows[j][i] = v.conjugate()
        m = HermitianMatrix(rows)
        assert m._mask_signs() == oracle_sign_table(m)


# Entries of the three scalar kinds the integer engines cover: real
# rationals (d = 0), Gaussian rationals (d = -1) and Q(sqrt 5) (d = 5),
# drawn in the oracles' field.  Small numerators make zero pivots, and so
# row swaps, common.
_RATIONALS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
_REAL = st.builds(Gauss, _RATIONALS)
_ENTRIES = {
    "real": _REAL,
    "gaussian": st.builds(Gauss, _RATIONALS, _RATIONALS),
    "sqrt5": st.builds(Root5, _RATIONALS, _RATIONALS),
}
_DIAGONALS = {"real": _REAL, "gaussian": _REAL, "sqrt5": _ENTRIES["sqrt5"]}
# Integral entries cancel far more often: det[S + j] = 0 below a
# nonsingular, often negative, det S.
_SMALL = st.integers(-2, 2)
_INTEGRAL = {
    "real": st.builds(Gauss, _SMALL),
    "gaussian": st.builds(Gauss, _SMALL, _SMALL),
    "sqrt5": st.builds(Root5, _SMALL, _SMALL),
}


@st.composite
def _hermitian(draw, kind, diagonals=None, orders=(1, 5), entries=None):
    """A random Hermitian matrix of an order in ``orders`` (LO, HI) with
    diagonal entries from ``diagonals`` and the others from ``entries``
    (default: the kind's), or (to force singular minors) a sum of fewer
    than n rank-one terms v v*."""
    if entries is None:
        entries = _ENTRIES[kind]
    n = draw(st.integers(*orders))
    if n > 1 and draw(st.booleans()):
        vs = [[draw(entries) for _ in range(n)] for _ in range(draw(st.integers(1, n - 1)))]
        return matrix_of(product(list(zip(*vs)), [[v.conj() for v in row] for row in vs]))
    if diagonals is None:
        diagonals = _DIAGONALS[kind]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(diagonals)
        for j in range(i + 1, n):
            rows[i][j] = draw(entries)
            rows[j][i] = rows[i][j].conj()
    return matrix_of(rows)


@st.composite
def _grid(draw, kind):
    """A rectangular grid, drawn as a product through an inner dimension
    that may be smaller than both sides, so rank deficiency is common."""
    n_rows, inner, n_cols = (draw(st.integers(1, 4)) for _ in range(3))
    left = [[draw(_ENTRIES[kind]) for _ in range(inner)] for _ in range(n_rows)]
    right = [[draw(_ENTRIES[kind]) for _ in range(n_cols)] for _ in range(inner)]
    return product(left, right)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minor_engine_matches_oracle(kind, data):
    m = data.draw(_hermitian(kind))
    expected = oracle_sign_table(m)
    assert m._mask_signs() == expected
    assert m.rank() == max(mask.bit_count() for mask, s in enumerate(expected) if s)


@st.composite
def _negative_singular_prefix(draw, kind, orders, entries):
    """A random Hermitian matrix with det[i] = -u < 0 and det[i, j] = 0 for
    one j with i < j <= n - 3, or for every j > i: singular prefixes right
    below a negative pivot that still have at least two later indices."""
    m = draw(_hermitian(kind, None, (max(orders[0], 4), orders[1]), entries))
    n = m.n
    rows = lift(m.entries)
    i = draw(st.integers(0, n - 4))
    u = draw(st.integers(1, 3))
    rows[i][i] = -u
    later = range(i + 1, n) if draw(st.booleans()) else [draw(st.integers(i + 1, n - 3))]
    for j in later:
        v = draw(entries.filter(lambda x: x != 0))
        rows[i][j], rows[j][i], rows[j][j] = v, v.conj(), -(v * v.conj()) / u
    return matrix_of(rows)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize(
    "orders, examples, det", [((1, 5), 60, oracle_det), ((6, 7), 20, elimination_det)], ids=["n1-5", "n6-7"]
)
def test_sign_table_matches_oracle(kind, orders, examples, det):
    # Zero diagonal entries and low-rank draws make singular prefixes, also
    # below a negative nonsingular pivot.  The permutation oracle's cost
    # grows as n! (about 2 s per draw at n = 7), so orders 6 and 7 use the
    # elimination oracle, and a failing draw there is reported unshrunk.
    diagonals = st.one_of(st.just(0), _INTEGRAL["sqrt5" if kind == "sqrt5" else "real"], _DIAGONALS[kind])
    entries = st.one_of(_INTEGRAL[kind], _ENTRIES[kind])
    phases = [p for p in Phase if p is not Phase.shrink or orders[1] <= 5]

    @settings(max_examples=examples, deadline=None, phases=phases)
    @given(m=st.one_of(_hermitian(kind, diagonals, orders, entries), _negative_singular_prefix(kind, orders, entries)))
    def check(m):
        assert m._mask_signs() == oracle_sign_table(m, det)

    check()


def test_sign_table_below_negative_singular_prefix():
    # det[1] = -1 and det[1, j] = 0 for j = 2, 3, 4, so the block B of
    # S = {1} has a zero diagonal, and position 2 has the partners 3 and 4
    # (B[2, 3] = -1, B[2, 4] = -2).  The walk takes the zero-pivot leaf:
    # det[1, 2, w] = -|B[2, w]|**2 / det[1] has the sign opposite to
    # det[1], and {1, 2, 3, 4} is det B[{2, 3, 4}] / (det[1])**2.
    m = HermitianMatrix([[-1, 1, 1, 1], [1, -1, 0, 1], [1, 0, -1, -1], [1, 1, -1, -1]])
    assert m._mask_signs() == oracle_sign_table(m)
    assert m._mask_signs() == [1, -1, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, 1, 0]


def _popcount_sign_sets(table):
    """Per order k = 1..n, the set of a sign table's signs on the masks of
    k bits, each mask placed by its own popcount."""
    sets = [set() for _ in range(len(table).bit_length() - 1)]
    for mask in range(1, len(table)):
        sets[mask.bit_count() - 1].add(table[mask])
    return sets


def test_sign_sets_match_popcount_reference():
    # Above order 10 a table is read in chunks of 2**10 masks, each offset
    # by the popcount of the chunk's index.  Each order draws its signs from
    # its own nonempty subset of {-1, 0, 1}, so a chunk read at the wrong
    # order shows.  Orders 1..13 include n = 1 and the chunks' lone masks
    # (order 0 and order c of a chunk), which a one-argument itemgetter
    # would return bare.
    rng = random.Random(1013)
    pools = [(-1,), (0,), (1,), (-1, 0), (-1, 1), (0, 1), (-1, 0, 1)]
    for n in [*range(1, 14)] * 20:
        orders = [rng.choice(pools) for _ in range(n + 1)]
        table = [1] + [rng.choice(orders[mask.bit_count()]) for mask in range(1, 1 << n)]
        assert list(_sign_sets(table)) == _popcount_sign_sets(table)
    walked = [random_hermitian(rng, 11, real=True), random_hermitian(rng, 12, real=False)]
    for m in [*walked, HermitianMatrix.diagonal([1, -1, 0, 1] * 3)]:
        assert list(m.minor_sign_sets()) == _popcount_sign_sets(m._mask_signs())


_I, _R5 = Gauss(0, 1), Root5(0, 1)
_UNITS = {"real": Gauss(0), "gaussian": _I, "sqrt5": _R5}


def test_elimination_oracle_matches_permutation_oracle():
    # The two oracles share nothing but their field.  Square grids
    # drawn as products through a smaller inner dimension are often
    # singular, and no grid need be Hermitian.
    rng = random.Random(2718)
    units = {"real": 0, "gaussian": _I, "sqrt5": _R5}
    for kind, unit in units.items():
        for _ in range(40):
            n, inner = rng.randint(1, 5), rng.randint(1, 5)

            def entry():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 2)) + rng.randint(-2, 2) * unit

            left = [[entry() for _ in range(inner)] for _ in range(n)]
            right = [[entry() for _ in range(n)] for _ in range(inner)]
            rows = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]
            assert elimination_det(rows) == oracle_det(rows), (kind, rows)


@st.composite
def _hollow(draw, kind):
    """A Hermitian matrix of order 3 to 6 with a zero diagonal and small,
    often zero, entries off it."""
    n = draw(st.integers(3, 6))
    entries = st.one_of(st.just(Gauss(0)), _INTEGRAL[kind])
    rows = [[Gauss(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entries)
            rows[j][i] = rows[i][j].conj()
    return matrix_of(rows)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sign_table_of_hollow_matrices(kind, data):
    # Every diagonal entry is a zero pivot of the root, so the walk takes a
    # 2 x 2 pivot with each partner, or a zero-pivot leaf when two or three
    # positions follow, and the pivots' reduced blocks often have zero
    # diagonal entries again.
    m = data.draw(_hollow(kind))
    assert m._mask_signs() == oracle_sign_table(m, elimination_det)


def _congruence(rows, unit):
    """D B D* for a grid B and D = diag(1, 1 + u, 1 + 2u, ...), u = unit:
    every principal minor keeps its sign and every bordered minor its zero
    pattern, so the walk takes the same path."""
    scale = [1 + k * unit for k in range(len(rows))]
    return matrix_of([[scale[i] * v * scale[j].conj() for j, v in enumerate(row)] for i, row in enumerate(rows)])


# Each case has a zero pivot at position a of a node S with four or more
# later positions, so the walk takes a 2 x 2 pivot there.  Its facts are
# signs of minors, 1-based: det[S+a+r] = 0 for a non-partner r
# (B[a, r] = 0), and det[S+a+w] = -|B[a, w]|**2 / det S for a partner w.
_PIVOT_CASES = {
    # S = {1}, det S = -2, a = 2: non-partner 3 between a and its partners
    # 4, 5 and 6, whose minors are positive.  T's block is divided by
    # (det S)**2 = 4; divided by det S, every entry would change sign.
    "negative-det": (
        [
            [-2, 0, 1, 2, -1, 2],
            [0, 0, 0, 1, -2, 1],
            [1, 0, 0, 2, 2, -1],
            [2, 1, 2, 2, 1, 1],
            [-1, -2, 2, 1, 0, 1],
            [2, 1, -1, 1, 1, 0],
        ],
        {(1,): -1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 4): 1, (1, 2, 5): 1, (1, 2, 6): 1, (1, 2, 3, 4, 5, 6): -1},
    ),
    # S = {}, a = 1 with non-partners 2 and 3 and partners 4 to 7.  The first
    # pivot, T = {1, 4} with det T = -4, has a zero pivot at 2 in its block
    # again, with four later positions, all partners; that nested pivot
    # divides by (det T)**2 = 16.
    "nested": (
        [
            [0, 0, 0, 2, -2, 1, 1],
            [0, 0, 1, -1, -2, 1, -2],
            [0, 1, 1, 1, 2, -2, 1],
            [2, -1, 1, 0, -1, 2, -2],
            [-2, -2, 2, -1, 0, -2, -2],
            [1, 1, -2, 2, -2, -2, 2],
            [1, -2, 1, -2, -2, 2, -2],
        ],
        {(1,): 0, (1, 2): 0, (1, 3): 0, (1, 4): -1, (1, 2, 4): 0, (1, 2, 3, 4): 1, (1, 2, 4, 5): 1, (1, 2, 4, 7): 1},
    ),
    # S = {1}, det S = 2, a = 2: row 2 is twice row 1, so B's row 2 is zero,
    # a has no partner and every set through {1, 2} is singular.
    "zero-row": (
        [
            [2, 4, 2, 2, 1, -1],
            [4, 8, 4, 4, 2, -2],
            [2, 4, 3, 1, 0, 1],
            [2, 4, 1, -1, 1, 0],
            [1, 2, 0, 1, 2, 1],
            [-1, -2, 1, 0, 1, -2],
        ],
        {(1,): 1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 6): 0, (1, 2, 3, 4, 5, 6): 0},
    ),
}


def _check_cases(cases, case, kind):
    # The congruence D B D* with D = diag(1, 1 + u, 1 + 2u, ...), u = i or
    # sqrt 5, keeps the sign of every principal minor and the zero pattern
    # of every block, and makes each B[a, w] non-real.  A Q(sqrt 5) matrix
    # is not walked, and checks one elimination per principal submatrix.
    rows, facts = cases[case]
    m = _congruence(rows, _UNITS[kind])
    expected = oracle_sign_table(m, elimination_det)
    assert {idx: expected[sum(1 << (i - 1) for i in idx)] for idx in facts} == facts
    assert m._mask_signs() == expected


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize("case", sorted(_PIVOT_CASES))
def test_two_by_two_pivot_matches_oracle(case, kind):
    _check_cases(_PIVOT_CASES, case, kind)


# Each case has a zero pivot at position a of a node S followed by exactly
# two positions q, r or three q, r, t, where the walk takes a zero-pivot
# leaf.  Its facts are signs of minors, 1-based: with u_x = B[a, x],
# det[S+a+x] = -|u_x|**2 / det S, a pair takes the sign of
# 2 Re(u_x C_xy conj u_y) - C_xx |u_y|**2 - C_yy |u_x|**2, and S+a+q+r+t
# sign det S times that of -u adj(C) u*.
_ZERO_LEAF_CASES = {
    # S = {1}, det S = -2, a = 2 with three later positions: 3 is no
    # partner (u_3 = 0), so {1, 2, 3} is singular, and 4, 5 are.
    "negative-det": (
        [[-2, 0, 2, 1, -1], [0, 0, 0, 2, 2], [2, 0, 0, 0, 0], [1, 2, 0, 2, 1], [-1, 2, 0, 1, 0]],
        {(1,): -1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 4): 1, (1, 2, 5): 1},
    ),
    # S = {}, a = 1 takes a 2 x 2 pivot with partners 4 and 5.  The first
    # pivot, T = {1, 4} with det T = -1, has a zero pivot at 2 in its block,
    # followed by 3 (no partner) and 5: a zero-pivot leaf on two positions.
    "nested": (
        [[0, 0, 0, -1, 1], [0, 0, 0, 2, 0], [0, 0, -2, -1, 0], [-1, 2, -1, 0, -1], [1, 0, 0, -1, -1]],
        {(1,): 0, (1, 2): 0, (1, 3): 0, (1, 4): -1, (1, 5): -1, (1, 2, 4): 0, (1, 2, 3, 4): 0, (1, 2, 4, 5): 1},
    ),
    # S = {1}, det S = 2, a = 2: row 2 is twice row 1, so u = 0 and every
    # set through {1, 2} is singular.
    "zero-row": (
        [[2, 4, 2, 2], [4, 8, 4, 4], [2, 4, 3, 1], [2, 4, 1, -1]],
        {(1,): 1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 4): 0, (1, 2, 3, 4): 0},
    ),
    # S = {1}, det S = -2, a = 2 followed by 3 and 4, both partners: the
    # singles take -sign det S and the pair its own sign.
    "pair-negative-det": (
        [[-2, 0, -2, -1], [0, 0, -2, -2], [-2, -2, 2, 2], [-1, -2, 2, 1]],
        {(1,): -1, (1, 2): 0, (1, 2, 3): 1, (1, 2, 4): 1, (1, 2, 3, 4): -1},
    ),
    # S = {}, a = 1 with u = (1, 2) and C = [[1, 1], [1, 0]]: both singles
    # are negative, and 2 * 1 * 1 * 2 - 1 * 4 - 0 * 1 = 0.
    "zero-pair": (
        [[0, 1, 2], [1, 1, 1], [2, 1, 0]],
        {(1, 2): -1, (1, 3): -1, (1, 2, 3): 0},
    ),
    # S = {1}, det S = -1, a = 2 followed by 3, 4 and 5, all partners; every
    # pair is nonzero, and S+a+q+r+t takes sign det S times that of
    # -u adj(C) u*.
    "triple-negative-det": (
        [[-1, 2, 0, 0, 0], [2, -4, -1, 1, 1], [0, -1, 0, -2, 0], [0, 1, -2, 1, 0], [0, 1, 0, 0, -2]],
        {(1, 2): 0, (1, 2, 3): 1, (1, 2, 5): 1, (1, 2, 3, 4): -1, (1, 2, 4, 5): -1, (1, 2, 3, 4, 5): 1},
    ),
    # S = {}, a = 1 followed by 2, 3 and 4, all partners: every pair is
    # nonzero but -u adj(C) u* = 0.
    "zero-triple": (
        [[0, 1, 2, 1], [1, 1, 1, 1], [2, 1, -2, -1], [1, 1, -1, -1]],
        {(1, 2): -1, (1, 4): -1, (1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): 1, (1, 2, 3, 4): 0},
    ),
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize("case", sorted(_ZERO_LEAF_CASES))
def test_zero_pivot_leaf_matches_oracle(case, kind):
    _check_cases(_ZERO_LEAF_CASES, case, kind)


@pytest.mark.parametrize(
    "rows",
    [
        [[-1, 1, 1, 1, 0], [1, 2, 1, 0, -1], [1, 1, 2, 1, 1], [1, 0, 1, -1, 2], [0, -1, 1, 2, 3]],
        [[-1, 1, 1, 2, 1], [1, 2, 1, 0, -1], [1, 1, -3, 3, 1], [2, 0, 3, -3, 1], [1, -1, 1, 1, 2]],
        [
            [-1, 1 - _I, 1 + _I, _I, 0],
            [1 + _I, 2, _I, 0, 1],
            [1 - _I, -_I, 2, 1, 1 - _I],
            [-_I, 0, 1, -1, 2 * _I],
            [0, 1, 1 + _I, -2 * _I, 3],
        ],
        [
            [-1, 1 - _I, _I, 2, 1],
            [1 + _I, 2, _I, 0, 1],
            [-_I, -_I, -3, 3 * _I, 1],
            [2, 0, -3 * _I, -3, 1 + _I],
            [1, 1, 1, 1 - _I, 2],
        ],
        [[1 - _R5, _R5, _R5, 1, 0], [_R5, 2, 1, 0, 1], [_R5, 1, 2, 1, 1], [1, 0, 1, -1, 1 + _R5], [0, 1, 1, 1 + _R5, 3]],
        [[-1, _R5, 1, _R5, 1], [_R5, 2, 1, 0, 1], [1, 1, -3, 3, 1], [_R5, 0, 3, -3, 1], [1, 1, 1, 1, 2 + _R5]],
    ],
    ids=["real-same", "real-opposite", "gaussian-same", "gaussian-opposite", "sqrt5-same", "sqrt5-opposite"],
)
def test_two_level_leaf_matches_oracle(rows):
    # The walk takes the two-level leaf on child S+{3} with q, r = 4, 5
    # twice: below S = {1}, where det S < 0, and below S = {}, where
    # det S = 1.  In each "same" matrix sign det[S+3] equals sign det S at
    # both; in each "opposite" one it differs at both, and det[3, 4] = 0
    # makes S+3+4 singular.  Gaussian entries make B[q, a] and N[q, r]
    # non-real.  The block of S = {1} comes from a Bareiss step at the root;
    # index 2 only feeds three-level leaves.  The Q(sqrt 5) matrices are not
    # walked: they check one elimination per principal submatrix.
    m = matrix_of(rows)
    assert m._mask_signs() == oracle_sign_table(m)


# Each real or Gaussian case takes the three-level leaf on a nonsingular
# child S+a followed by exactly three positions q, r and t; its facts are
# signs of minors, 1-based.  The order-5 cases take it twice, at a = 2
# below S = {1} and below S = {}; the order-4 ones once, at a = 1 below
# S = {}.
_LEAF3_CASES = {
    # det[1] < 0 and det[2] < 0 differ in sign from det[1, 2] > 0 and from
    # det {} = 1, so S+a+q+r+t takes sign det S and not sign det[S+a].
    "real-opposite": (
        [[-1, 0, 0, 2, 2], [0, -3, 1, 0, -2], [0, 1, 3, -2, 0], [2, 0, -2, -3, 2], [2, -2, 0, 2, 2]],
        {(1,): -1, (1, 2): 1, (1, 2, 3, 4, 5): -1, (2,): -1, (2, 3, 4, 5): 1},
    ),
    # N_qr N_rt conj N_qt is not real, so its real part needs the conjugate.
    "gaussian-opposite": (
        [
            [-1, -1, 0, -1 + _I, 1],
            [-1, -2, -1 - _I, 1 - _I, -1 + _I],
            [0, -1 + _I, 1, _I, -_I],
            [-1 - _I, 1 + _I, -_I, 0, -1],
            [1, -1 - _I, _I, -1, 3],
        ],
        {(1,): -1, (1, 2): 1, (1, 2, 3, 4, 5): 1, (2,): -1, (2, 3, 4, 5): 1},
    ),
    # Q(sqrt 5) is not walked: one elimination per principal submatrix.
    "sqrt5-opposite": (
        [[-1, 0, 0, 2, 2], [0, -3, _R5, 0, -2], [0, _R5, 3, -2, 0], [2, 0, -2, -3, 1 + _R5], [2, -2, 0, 1 + _R5, 2]],
        {(1,): -1, (1, 2): 1, (1, 2, 3, 4, 5): -1, (2,): -1, (2, 3, 4, 5): 1},
    ),
    # Row 4 is -1 (real) or i (Gaussian) times row 1, and det[1, 3] = 0:
    # N_rr = N_tt = 0, and two 2 x 2 descendants and the 3 x 3 one are
    # singular, with no special case in the leaf.
    "real-singular": (
        [[1, 2, -1, -1], [2, -1, -1, -2], [-1, -1, 1, 1], [-1, -2, 1, 1]],
        {(1, 2): -1, (1, 3): 0, (1, 4): 0, (1, 2, 3): -1, (1, 2, 4): 0, (1, 3, 4): 0, (1, 2, 3, 4): 0},
    ),
    "gaussian-singular": (
        [[1, 2 + _I, -1 + _I, -_I], [2 - _I, -1, 1, -1 - 2 * _I], [-1 - _I, 1, 2, -1 + _I], [_I, -1 + 2 * _I, -1 - _I, 1]],
        {(1, 2): -1, (1, 3): 0, (1, 4): 0, (1, 2, 3): -1, (1, 2, 4): 0, (1, 3, 4): 0, (1, 2, 3, 4): 0},
    ),
    # det[1, 2] = 0, so N_qq = 0 at a = 1 below S = {}: the leaf signs
    # {1, 2} as 0 and the sets through {1, 2} from N, with no 2 x 2 pivot.
    "real-pivot": (
        [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, -1, 1], [0, 1, 1, 2]],
        {(1,): 1, (1, 2): 0, (1, 2, 3): -1, (1, 2, 4): -1},
    ),
    "gaussian-pivot": (
        [[1, _I, 1, 0], [-_I, 1, 0, 1], [1, 0, -1, 1], [0, 1, 1, 2]],
        {(1,): 1, (1, 2): 0, (1, 2, 3): -1, (1, 2, 4): -1},
    ),
}


@pytest.mark.parametrize("case", sorted(_LEAF3_CASES))
def test_three_level_leaf_matches_oracle(case):
    rows, facts = _LEAF3_CASES[case]
    m = matrix_of(rows)
    expected = oracle_sign_table(m)
    assert {idx: expected[sum(1 << (i - 1) for i in idx)] for idx in facts} == facts
    assert m._mask_signs() == expected


def _integer_draws(rng, n):
    """Integer symmetric grids of order n: dense, low-rank (a signed sum of
    n // 2 rank-one terms, so every minor above n // 2 is zero) and dense
    with a zero diagonal."""
    dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    low = [[0] * n for _ in range(n)]
    for _ in range(n // 2):
        v, s = [rng.randint(-2, 2) for _ in range(n)], rng.choice((-1, 1))
        low = [[low[i][j] + s * v[i] * v[j] for j in range(n)] for i in range(n)]
    hollow = [[0 if i == j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    for rows in (dense, hollow):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return {"dense": dense, "lowrank": low, "hollow": hollow}


@pytest.mark.parametrize("n", [8, 9, 10])
def test_large_blocks_agree_across_kernels(n):
    # Orders 8 to 10 have no oracle here; instead D B D* with
    # D = diag(1, 1 + u, ...) must give B's table.  B runs the int walk and
    # u = i the Z[i] walk with real pivots, on blocks of eight positions and
    # more.  u = sqrt 5 runs one elimination per principal submatrix, with
    # irrational pivots.
    rng = random.Random(8000 + n)
    for k in range(3):
        for draw, rows in _integer_draws(rng, n).items():
            table = HermitianMatrix(rows)._mask_signs()
            assert _congruence(rows, _I)._mask_signs() == table, (k, draw)
            assert _congruence(rows, _R5)._mask_signs() == table, (k, draw)


_NON_REAL_DIAGONALS = {
    "pivot": [(1, 1)],
    "leaf": [(2, 0), (1, 1)],
    "two-level-leaf-q": [(1, 0), (2, 1), (3, 0)],
    "two-level-leaf-r": [(1, 0), (2, 0), (3, 1)],
    "three-level-leaf-q": [(1, 0), (2, 1), (3, 0), (4, 0)],
    "three-level-leaf-r": [(1, 0), (2, 0), (3, 1), (4, 0)],
    "three-level-leaf-t": [(1, 0), (2, 0), (3, 0), (4, 1)],
    "reduced-block": [(1, 0), (2, 0), (3, 0), (4, 0), (-1, 2)],
    "pivot-partner": [(0, 0), (1, 1), (2, 0), (3, 0), (4, 0)],
    "zero-pivot-pair-leaf-q": [(0, 0), (1, 1), (2, 0)],
    "zero-pivot-pair-leaf-r": [(0, 0), (1, 0), (2, 1)],
    "zero-pivot-leaf-q": [(0, 0), (1, 1), (2, 0), (3, 0)],
    "zero-pivot-leaf-r": [(0, 0), (1, 0), (2, 1), (3, 0)],
    "zero-pivot-leaf-t": [(0, 0), (1, 0), (2, 0), (3, 1)],
}


@pytest.mark.parametrize("case", sorted(_NON_REAL_DIAGONALS))
def test_sign_walk_rejects_non_real_minor(case):
    # A grid with a non-real diagonal entry is not Hermitian, so some
    # principal minor the Z[i] walk signs has a nonzero imaginary part: the
    # 1 x 1 minor itself, or the leaf numerator it enters, also after a
    # Bareiss step ("reduced-block").  The walk checks each diagonal entry
    # of a block when it reaches it, so a leaf that skipped its own check
    # would still raise, but only after signing sets through that entry:
    # the test starts the walk as _sign_walk does, on a table it reads
    # after the raise.  In the "zero-pivot" cases the zero first pivot is
    # followed by two or three positions: the zero-pivot leaf must raise
    # on C_xx = det[x] before it signs any set through x.  In
    # "pivot-partner" it is followed by four, and takes a 2 x 2 pivot with
    # the partner whose diagonal entry is non-real; that pivot reads only
    # real parts and signs T, and the walk must still raise rather than
    # return a table.
    diagonal = _NON_REAL_DIAGONALS[case]
    n = len(diagonal)
    grid = [[diagonal[i] if i == j else (1, 0) for j in range(n)] for i in range(n)]
    block = [v for i, row in enumerate(grid) for v in row[i:]]
    table = [None] * (1 << n)
    with pytest.raises(RuntimeError, match="came out non-real"):
        matrix_module._walk_pairs(block, [1 << i for i in range(n)], 0, 1, 1, table)
    non_real = sum(1 << i for i, (_, imag) in enumerate(diagonal) if imag)
    assert case == "pivot-partner" or all(table[mask] is None for mask in range(1 << n) if mask & non_real)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grid_rank_matches_oracle(kind, data):
    # the elimination kernel on a rectangular grid that need not be
    # Hermitian; in the package only inverse()'s augmented grid is one
    grid = data.draw(_grid(kind))
    n_rows, n_cols = len(grid), len(grid[0])
    largest = 0
    for k in range(1, min(n_rows, n_cols) + 1):
        if any(
            oracle_det([[grid[i][j] for j in cols] for i in rows])
            for rows in combinations(range(n_rows), k)
            for cols in combinations(range(n_cols), k)
        ):
            largest = k
    d, _, scaled = matrix_module._scale(lower(grid))
    assert matrix_module._eliminate(d, [list(row) for row in scaled])[0] == largest


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_matches_oracle(kind, data):
    # frequent zero diagonal entries force row swaps, and for Gaussian
    # entries the swapped-in pivot is then non-real
    m = data.draw(_hermitian(kind, st.one_of(st.just(0), _DIAGONALS[kind])))
    if oracle_det(lift(m.entries)) == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    value_type = Sqrt5Rational if kind == "sqrt5" else GaussianRational
    assert all(type(v) is value_type for row in inv.entries for v in row)
    identity = [[int(i == j) for j in range(m.n)] for i in range(m.n)]
    assert product(lift(m.entries), lift(inv.entries)) == identity
    assert product(lift(inv.entries), lift(m.entries)) == identity


def test_rank_examples():
    assert HermitianMatrix.zero(4).rank() == 0
    assert HermitianMatrix.diagonal([1, -1, -1, 0]).rank() == 3
    assert FIVE_ONE_BASE.rank() == 5


def test_rank_is_principal_random():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        expected = oracle_sign_table(m, elimination_det)
        assert m.rank() == max(mask.bit_count() for mask, s in enumerate(expected) if s)


def test_rank_drop_on_deletion_random():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(2, 5)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        r, d, grid = m.rank(), m._d, m._grid
        for i in range(n):
            for j in range(n):
                deleted = [list(row[:j] + row[j + 1 :]) for row in grid[:i] + grid[i + 1 :]]
                assert matrix_module._eliminate(d, deleted)[0] >= r - 2


def test_same_sign_at_rank_random():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        r = m.rank()
        if r == 0:
            continue
        signs = {s for mask, s in enumerate(oracle_sign_table(m, elimination_det)) if s and mask.bit_count() == r}
        assert len(signs) == 1


def test_inverse_examples():
    ident = HermitianMatrix.identity(3)
    assert ident.inverse() == ident
    assert HermitianMatrix.diagonal([2]).inverse() == HermitianMatrix.diagonal([Fraction(1, 2)])
    inv = FIVE_ONE_BASE.inverse()
    prod_rows = product(lift(FIVE_ONE_BASE.entries), lift(inv.entries))
    assert matrix_of(prod_rows) == HermitianMatrix.identity(5)
    with pytest.raises(SingularMatrixError):
        HermitianMatrix.zero(2).inverse()


def test_sqrt5_witness_inverse():
    m = build_witness("VierFour.9")
    inv = m.inverse()
    assert [[str(v) for v in row] for row in inv.entries] == [
        ["-126/361+24/361*sqrt(5)", "62/361-29/361*sqrt(5)", "10/19-1/19*sqrt(5)", "2/361+34/361*sqrt(5)"],
        ["62/361-29/361*sqrt(5)", "-105/361+20/361*sqrt(5)", "-1/19+2/19*sqrt(5)", "148/361-11/361*sqrt(5)"],
        ["10/19-1/19*sqrt(5)", "-1/19+2/19*sqrt(5)", "0", "-8/19-3/19*sqrt(5)"],
        ["2/361+34/361*sqrt(5)", "148/361-11/361*sqrt(5)", "-8/19-3/19*sqrt(5)", "63/361-12/361*sqrt(5)"],
    ]
    assert all(isinstance(v, Sqrt5Rational) for row in inv.entries for v in row)
    assert product(lift(m.entries), lift(inv.entries)) == [[int(i == j) for j in range(4)] for i in range(4)]


def test_determinant_permutation_invariant():
    rng = random.Random(2024)
    m = random_hermitian(rng, 4, real=False)
    d = oracle_det(lift(m.entries))
    for perm in permutations(range(1, 5)):
        assert oracle_det(lift(m.permute(perm).entries)) == d


def test_transforms():
    assert HermitianMatrix.diagonal([1]).duplicate_last() == HermitianMatrix([[1, 1], [1, 1]])
    assert HermitianMatrix.diagonal([1, -1, -1]).direct_sum(
        HermitianMatrix.zero(1)
    ) == HermitianMatrix.diagonal([1, -1, -1, 0])
    rng = random.Random(5)
    m = random_hermitian(rng, 4, real=False)
    assert m.permute((1, 2, 3, 4)) == m
    assert m.negate().negate() == m
    with pytest.raises(ValueError):
        m.permute((1, 1, 2, 3))


def test_duplicate_last_complex_stays_hermitian():
    m = HermitianMatrix([[0, 1, 1], [1, 0, I], [1, -I, 0]])
    bordered = m.duplicate_last()
    assert bordered.n == 4
    # appended column is the old last column; corner repeats the diagonal
    assert bordered.entries[0][3] == GaussianRational(1)
    assert bordered.entries[1][3] == I
    assert bordered.entries[3][1] == -I
    assert bordered.entries[3][3] == GaussianRational(0)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grid_transforms_match_entry_rebuilds(kind, data):
    # Each transform builds its result's grid directly; it must equal, hash
    # included, the matrix built from the transformed exact entries.  A sum
    # with a real matrix lifts its grid to pairs.
    entries = st.one_of(_INTEGRAL[kind], _ENTRIES[kind])
    m = data.draw(_hermitian(kind, None, (1, 5), entries))
    other = data.draw(_hermitian(kind, None, (1, 3), entries))
    n, rows = m.n, [list(row) for row in m.entries]
    perm = data.draw(st.permutations(range(1, n + 1)))
    cases = [
        (m.negate(), [[-v for v in row] for row in rows]),
        (m.permute(perm), [[rows[i - 1][j - 1] for j in perm] for i in perm]),
        (m.duplicate_last(), [row + [row[-1]] for row in rows] + [rows[-1] + [rows[-1][-1]]]),
        (m.direct_sum(HermitianMatrix.zero(1)), [row + [0] for row in rows] + [[0] * (n + 1)]),
        (
            m.direct_sum(other),
            [row + [0] * other.n for row in rows] + [[0] * n + list(row) for row in other.entries],
        ),
    ]
    for got, expected_rows in cases:
        expected = HermitianMatrix(expected_rows)
        assert got == expected
        assert hash(got) == hash(expected)
        assert got.entries == expected.entries


def test_equal_matrices_have_equal_grids():
    # a transform that drops denominators divides them out of the scale
    assert HermitianMatrix.diagonal([2, 4]).inverse() == HermitianMatrix.diagonal([Fraction(1, 2), Fraction(1, 4)])
    # a matrix typed Q(sqrt 5) stays so even when every entry is rational
    assert HermitianMatrix([[Sqrt5Rational(Fraction(1, 2)), 2], [2, 0]]) != HermitianMatrix(
        [[Fraction(1, 2), 2], [2, 0]]
    )


def test_rank_eliminates_once(monkeypatch):
    calls = []
    eliminate = matrix_module._eliminate
    monkeypatch.setattr(matrix_module, "_eliminate", lambda d, rows: calls.append(d) or eliminate(d, rows))
    m = HermitianMatrix.diagonal([1, -1, 0])
    assert [m.rank() for _ in range(3)] == [2, 2, 2]
    assert len(calls) == 1


def test_json_roundtrip(tmp_path):
    rng = random.Random(8)
    m = random_hermitian(rng, 3, real=False)
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(m))
    assert load_matrix(path) == m


def test_sqrt5_matrix_to_json():
    # the JSON document holds [re, im] pairs: an irrational Q(sqrt 5) entry
    # is rejected by position, a rational one is written as usual
    with pytest.raises(MatrixFormatError) as err:
        matrix_to_json(build_witness("VierFour.9"))
    assert str(err.value) == "entry (1,2): 2+1*sqrt(5) has no [re, im] form"
    m = HermitianMatrix([[Sqrt5Rational(Fraction(1, 2)), 2], [2, 0]])
    assert matrix_from_json(matrix_to_json(m)) == HermitianMatrix([[Fraction(1, 2), 2], [2, 0]])


def _json_doc(cell):
    return '{"n": 2, "entries": [[["0","0"], %s], [["1","0"],["0","0"]]]}' % cell


@pytest.mark.parametrize(
    "cell, message",
    [
        ('"1"', "expected a [re, im] pair, got '1' (offset 0)"),
        ('["1"]', "expected a [re, im] pair, got ['1'] (offset 0)"),
        ('["x","0"]', "malformed rational 'x' (offset 0)"),
        ('["1/0","0"]', "zero denominator in '1/0' (offset 2)"),
        ('["+1","0"]', "malformed rational '+1' (offset 0)"),
        ('[" 1","0"]', "malformed rational ' 1' (offset 0)"),
        ('[1,"0"]', "expected a rational string, got int (offset 0)"),
    ],
    ids=["non-list", "one-element", "x", "zero-denominator", "plus", "space", "number"],
)
def test_json_loader_cell_messages(cell, message):
    with pytest.raises(MatrixFormatError) as err:
        matrix_from_json(_json_doc(cell))
    assert str(err.value) == f"entry (1,2): {message}"


def test_json_loader_rejects():
    with pytest.raises(MatrixFormatError):
        matrix_from_json("[]")
    with pytest.raises(MatrixFormatError):
        matrix_from_json('{"n": 2}')
    with pytest.raises(MatrixFormatError):
        matrix_from_json('{"n": 2, "entries": [[["0","0"],["1","0"]]]}')
    # Hermitian violation is position-specific
    with pytest.raises(MatrixFormatError) as err:
        matrix_from_json(_json_doc('["2","0"]'))
    assert str(err.value) == "entry (1,2) is not the conjugate of entry (2,1): Hermitian invariant violated"
    with pytest.raises(MatrixFormatError):
        matrix_from_json("not json")
    with pytest.raises(MatrixFormatError):
        matrix_from_json('{"n": true, "entries": [[["1","0"]]]}')


# few texts, so a document repeats most of them; "2/4" and "1/2" are one
# value in two texts, and each text's negation is in the list as well
_REPEATED_TEXTS = ["0", "-0", "1", "-1", "2", "-2", "1/2", "-1/2", "2/4", "-2/4", "3/6", "-3/6"]


def _negated_text(text):
    return text[1:] if text.startswith("-") else "-" + text


def _repeated_text_document(rng, n, real):
    """An order-n document drawn from _REPEATED_TEXTS: each mirror cell
    repeats its partner's real text and negates its imaginary text."""
    cells = [[None] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = [rng.choice(_REPEATED_TEXTS), "0"]
        for j in range(i + 1, n):
            re, im = rng.choice(_REPEATED_TEXTS), "0" if real else rng.choice(_REPEATED_TEXTS)
            cells[i][j], cells[j][i] = [re, im], [re, _negated_text(im)]
    return {"n": n, "entries": cells}


@pytest.mark.parametrize("real", (True, False), ids=("real", "hermitian"))
def test_json_loader_repeated_texts_match_per_cell_parse(real):
    # the loader parses each distinct text once per document; its grid
    # must be the one a plain parse of every cell gives
    rng = random.Random(4242 + real)
    for _ in range(60):
        doc = _repeated_text_document(rng, rng.randint(1, 7), real)
        got = matrix_from_json_dict(doc)
        parts = [[parse_gaussian_ratios(cell) for cell in row] for row in doc["entries"]]
        expected = HermitianMatrix._of(*_scale_ratios(0, parts))
        assert (got._d, got._scale, got._grid) == (expected._d, expected._scale, expected._grid)
        assert got.is_real is (real or not any(im for row in parts for _, (im, _) in row))


def test_json_loader_locates_a_malformed_last_cell_after_repeats():
    # every cell before the last repeats valid texts already parsed
    n = 6
    cells = [[["1", "0"] if i == j else ["-1/2", "1" if i < j else "-1"] for j in range(n)] for i in range(n)]
    for bad, message in (("1x", "malformed rational '1x' (offset 1)"), ("-1/0", "zero denominator in '-1/0' (offset 3)")):
        cells[-1][-1] = [bad, "0"]
        with pytest.raises(MatrixFormatError) as err:
            matrix_from_json_dict({"n": n, "entries": cells})
        assert str(err.value) == f"entry (6,6): {message}"
    cells[-1][-1] = ["1", ["1"]]  # a part that is no string is no memo key
    with pytest.raises(MatrixFormatError) as err:
        matrix_from_json_dict({"n": n, "entries": cells})
    assert str(err.value) == "entry (6,6): expected a rational string, got list (offset 0)"


@st.composite
def _restated(draw, text, negate=False):
    """A fresh text for the value of ``text`` (negated on request): its
    reduced numerator and denominator both multiplied by a drawn k."""
    value = -Fraction(text) if negate else Fraction(text)
    k = draw(st.integers(1, 4))
    num, den = value.numerator * k, value.denominator * k
    sign = "-" if num < 0 or (num == 0 and draw(st.booleans())) else ""
    return f"{sign}{abs(num)}" + ("" if den == 1 and draw(st.booleans()) else f"/{den}")


@st.composite
def _rational_text(draw):
    """A rational string, often unreduced or a signed zero; the same value
    drawn twice may come out as different texts."""
    literal = st.sampled_from(["2/4", "0/5", "-0", "-3/6"])
    num, den, k = draw(st.integers(-3, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    sign = "-" if num < 0 or (num == 0 and draw(st.booleans())) else ""
    made = f"{sign}{abs(num) * k}" + ("" if den * k == 1 and draw(st.booleans()) else f"/{den * k}")
    return draw(st.one_of(literal, st.just(made)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_json_loader_matches_scalar_construction(data):
    # the loader scales the rational strings straight to the grid; it must
    # land on the grid of the matrix built from parsed scalars
    n = data.draw(st.integers(1, 4))
    cells = [[None] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = [data.draw(_rational_text()), data.draw(st.sampled_from(["0", "-0", "0/5", "-0/3"]))]
        for j in range(i + 1, n):
            re, im = data.draw(_rational_text()), data.draw(_rational_text())
            cells[i][j] = [re, im]
            # the mirror cell is its own text of the conjugate value, so
            # "1/2" may face "2/4" across the diagonal
            cells[j][i] = [data.draw(_restated(re)), data.draw(_restated(im, negate=True))]
    got = matrix_from_json(json.dumps({"n": n, "entries": cells}))
    expected = HermitianMatrix([[GaussianRational(*map(parse_rational, cell)) for cell in row] for row in cells])
    assert (got._d, got._scale, got._grid) == (expected._d, expected._scale, expected._grid)
    assert hash(got) == hash(expected)
