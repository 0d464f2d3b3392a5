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
    oracle_signs_by_order,
    product,
    random_hermitian,
    sign,
)
from seprkit.catalog import build_witness
from seprkit import matrix as matrix_module
from seprkit.exact import GaussianRational, I, Sqrt5Rational, parse_rational
from seprkit.matrix import (
    HermitianMatrix,
    MatrixFormatError,
    SingularMatrixError,
    load_matrix,
    matrix_from_json,
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
    assert m.minor_signs_by_order()[-1] == [-1]
    assert HermitianMatrix.zero(3).minor_signs_by_order()[-1] == [0]
    assert oracle_principal_minor(F_VIER_ONE, (0, 1, 2, 3)) == 57
    assert F_VIER_ONE.minor_signs_by_order()[-1] == [1]


def test_all_principal_minors_examples():
    d = HermitianMatrix.diagonal([1, -1, -1, 0])
    signs = d.minor_signs_by_order()
    # diagonal subset-product oracle, in lexicographic subset order
    vals = [1, -1, -1, 0]
    for k in range(1, 5):
        assert signs[k - 1] == [prod(vals[i] for i in subset) for subset in combinations(range(4), k)]


def test_minors_match_oracle_random():
    rng = random.Random(12345)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        assert m.minor_signs_by_order() == oracle_signs_by_order(m)


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
        assert m.minor_signs_by_order() == oracle_signs_by_order(m)


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
    expected = oracle_signs_by_order(m)
    assert m.minor_signs_by_order() == expected
    assert m.rank() == max((k for k, row in enumerate(expected, 1) if any(row)), default=0)


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


def _oracle_sign_table(m, det=oracle_det):
    """The sign of every principal minor by the determinant oracle ``det``,
    keyed by index bitmask."""
    entries = lift(m.entries)
    return {
        sum(1 << i for i in subset): sign(det([[entries[i][j] for j in subset] for i in subset]))
        for k in range(1, m.n + 1)
        for subset in combinations(range(m.n), k)
    }


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
        assert m._mask_signs() == _oracle_sign_table(m, det)

    check()


def test_sign_table_below_negative_singular_prefix():
    # det[1] = -1 and det[1, j] = 0 for j = 2, 3, 4, so the block B of
    # S = {1} has a zero diagonal, and position 2 has the partners 3 and 4
    # (B[2, 3] = -1, B[2, 4] = -2).  The walk takes a 2 x 2 pivot on each:
    # det[1, 2, w] = -|B[2, w]|**2 / det[1] has the sign opposite to
    # det[1], and {1, 2, 3, 4} comes from the first pivot's block, whose
    # entries are divided by (det[1])**2.
    m = HermitianMatrix([[-1, 1, 1, 1], [1, -1, 0, 1], [1, 0, -1, -1], [1, 1, -1, -1]])
    assert m._mask_signs() == _oracle_sign_table(m)
    assert m.minor_signs_by_order() == [[-1, -1, -1, -1], [0, 0, 0, 1, 0, 0], [1, 1, 0, 1], [0]]


_I, _R5 = Gauss(0, 1), Root5(0, 1)


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
    # 2 x 2 pivot with each partner, and the pivots' reduced blocks often
    # have zero diagonal entries again.
    m = data.draw(_hollow(kind))
    assert m._mask_signs() == _oracle_sign_table(m, elimination_det)


# Each case has a zero pivot at position a of a node S with two or more
# later positions.  Its facts are signs of minors, 1-based: det[S+a+r] = 0
# for a non-partner r (B[a, r] = 0), and det[S+a+w] = -|B[a, w]|**2 / det S
# for a partner w.
_PIVOT_CASES = {
    # S = {1}, det S = -2, a = 2: non-partner 3 between a and its partners
    # 4 and 5, whose minors are positive.
    "negative-det": (
        [[-2, 0, 2, 1, -1], [0, 0, 0, 2, 2], [2, 0, 0, 0, 0], [1, 2, 0, 2, 1], [-1, 2, 0, 1, 0]],
        {(1,): -1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 4): 1, (1, 2, 5): 1},
    ),
    # S = {}, a = 1 with partners 4 and 5.  The first pivot, T = {1, 4}
    # with det T = -1, has a zero pivot at 2 in its block again, with
    # non-partner 3 and partner 5.
    "nested": (
        [[0, 0, 0, -1, 1], [0, 0, 0, 2, 0], [0, 0, -2, -1, 0], [-1, 2, -1, 0, -1], [1, 0, 0, -1, -1]],
        {(1,): 0, (1, 2): 0, (1, 3): 0, (1, 4): -1, (1, 5): -1, (1, 2, 4): 0, (1, 2, 3, 4): 0, (1, 2, 4, 5): 1},
    ),
    # S = {1}, det S = 2, a = 2: row 2 is twice row 1, so B's row 2 is zero
    # and every set through {1, 2} is singular.
    "zero-row": (
        [[2, 4, 2, 2], [4, 8, 4, 4], [2, 4, 3, 1], [2, 4, 1, -1]],
        {(1,): 1, (1, 2): 0, (1, 2, 3): 0, (1, 2, 4): 0, (1, 2, 3, 4): 0},
    ),
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize("case", sorted(_PIVOT_CASES))
def test_two_by_two_pivot_matches_oracle(case, kind):
    # The congruence D B D* with D = diag(1, 1 + u, 1 + 2u, ...), u = i or
    # sqrt 5, keeps the sign of every principal minor and the zero pattern
    # of every block, and makes each B[a, w] non-real or irrational.
    rows, facts = _PIVOT_CASES[case]
    unit = {"real": Gauss(0), "gaussian": _I, "sqrt5": _R5}[kind]
    scale = [1 + k * unit for k in range(len(rows))]
    m = matrix_of([[scale[i] * v * scale[j].conj() for j, v in enumerate(row)] for i, row in enumerate(rows)])
    expected = _oracle_sign_table(m, elimination_det)
    assert {idx: expected[sum(1 << (i - 1) for i in idx)] for idx in facts} == facts
    assert m._mask_signs() == expected


@pytest.mark.parametrize(
    "rows",
    [
        [[-1, 1, 1, 0], [1, 2, 1, 1], [1, 1, -1, 2], [0, 1, 2, 3]],
        [[-1, 1, 2, 1], [1, -3, 3, 1], [2, 3, -3, 1], [1, 1, 1, 2]],
        [[-1, 1 + _I, _I, 0], [1 - _I, 2, 1, 1 - _I], [-_I, 1, -1, 2 * _I], [0, 1 + _I, -2 * _I, 3]],
        [[-1, _I, 2, 1], [-_I, -3, 3 * _I, 1], [2, -3 * _I, -3, 1 + _I], [1, 1, 1 - _I, 2]],
        [[1 - _R5, _R5, 1, 0], [_R5, 2, 1, 1], [1, 1, -1, 1 + _R5], [0, 1, 1 + _R5, 3]],
        [[-1, 1, _R5, 1], [1, -3, 3, 1], [_R5, 3, -3, 1], [1, 1, 1, 2 + _R5]],
    ],
    ids=["real-same", "real-opposite", "gaussian-same", "gaussian-opposite", "sqrt5-same", "sqrt5-opposite"],
)
def test_two_level_leaf_matches_oracle(rows):
    # The walk takes the two-level leaf on child S+{2} with q, r = 3, 4
    # twice: below S = {1}, where det S < 0, and below S = {}, where
    # det S = 1.  In each "same" matrix sign det[S+2] equals sign det S at
    # both; in each "opposite" one it differs at both, and det[2, 3] = 0
    # makes S+2+3 singular.  Gaussian and Q(sqrt 5) entries make B[q, a]
    # and N[q, r] non-real or irrational.
    m = matrix_of(rows)
    assert m._mask_signs() == _oracle_sign_table(m)


@pytest.mark.parametrize(
    "diagonal",
    [[(1, 1)], [(2, 0), (1, 1)], [(1, 0), (2, 1), (3, 0)], [(1, 0), (2, 0), (3, 1)], [(1, 0), (2, 0), (3, 0), (-1, 2)]],
    ids=["pivot", "leaf", "two-level-leaf-q", "two-level-leaf-r", "reduced-block"],
)
def test_sign_walk_rejects_non_real_minor(diagonal):
    # A grid with a non-real diagonal entry is not Hermitian, so some
    # principal minor the Z[i] walk signs has a nonzero imaginary part: the
    # 1 x 1 minor itself, or the leaf or two-level-leaf numerator it enters.
    n = len(diagonal)
    grid = [[diagonal[i] if i == j else (1, 0) for j in range(n)] for i in range(n)]
    with pytest.raises(RuntimeError, match="came out non-real"):
        matrix_module._sign_walk(grid, -1)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grid_rank_matches_oracle(kind, data):
    # the elimination kernel on a rectangular grid that need not be
    # Hermitian, as the rank-drop check's deletions give it
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
        expected = oracle_signs_by_order(m, elimination_det)
        assert m.rank() == max((k for k, row in enumerate(expected, 1) if any(row)), default=0)


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


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_deletion_branches_match_scratch_elimination(kind):
    # _column_deletions eliminates the columns before j once for every
    # deletion of a later column; each branch must repeat _eliminate on the
    # grid without column j: the same rank, swap sign and last pivot.
    # Low-rank draws, zero rows and columns and small entries make skipped
    # columns and row swaps common, and Gaussian swaps non-real pivots.
    rng = random.Random(1977)
    unit = {"real": Gauss(0), "gaussian": _I, "sqrt5": _R5}[kind]

    def entry():
        return rng.randint(-2, 2) + rng.randint(-2, 2) * unit

    for _ in range(150):
        n, style = rng.randint(2, 7), rng.choice(("dense", "low-rank", "zero-column"))
        if style == "low-rank":
            vs = [[entry() for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            rows = product(list(zip(*vs)), [[v.conj() for v in row] for row in vs])
        else:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = entry() if kind == "sqrt5" else rng.randint(-2, 2)
                for j in range(i + 1, n):
                    rows[i][j] = entry()
                    rows[j][i] = rows[i][j].conj()
            if style == "zero-column":
                k = rng.randrange(n)
                for j in range(n):
                    rows[k][j] = rows[j][k] = 0
        m = matrix_of(rows)
        d, grid = m._d, m._grid
        for i in range(n):
            shared = [list(row) for q, row in enumerate(grid) if q != i]
            expected = [matrix_module._eliminate(d, [row[:j] + row[j + 1 :] for row in shared]) for j in range(n)]
            assert matrix_module._column_deletions(d, shared) == expected, (style, grid, i)


def test_same_sign_at_rank_random():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        r = m.rank()
        if r == 0:
            continue
        signs = {s for s in oracle_signs_by_order(m, elimination_det)[r - 1] if s}
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
