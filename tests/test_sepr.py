import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Gauss, matrix_of, oracle_sign_table, random_hermitian
from seprkit.catalog import build_witness
from seprkit.matrix import HermitianMatrix, SingularMatrixError
from seprkit.sepr import (
    EprSequence,
    EprTerm,
    SeprSequence,
    SeprTerm,
    SequenceParseError,
    classify_signs,
    compute_epr,
    compute_sepr,
    direct_sum_table,
    duplicate_last_table,
    epr_terms,
    inverse_table,
    negation_table,
    parse_sequence,
    permutation_table,
    sepr_terms,
    table_sequence,
)

sepr_sequences = st.lists(st.sampled_from(list(SeprTerm)), min_size=1, max_size=8).map(
    SeprSequence
)


def test_classify_order_examples():
    assert classify_signs([1, -1, -1, 0]) == SeprTerm.S_STAR
    assert classify_signs([1, 0, 0, 0]) == SeprTerm.S_PLUS
    assert classify_signs([1]) == SeprTerm.A_PLUS
    assert classify_signs([-1, -1]) == SeprTerm.A_MINUS
    assert classify_signs([1, -1]) == SeprTerm.A_STAR
    assert classify_signs([0, 0]) == SeprTerm.N
    assert classify_signs([0, -1]) == SeprTerm.S_MINUS
    with pytest.raises(ValueError):
        classify_signs([])


@pytest.mark.parametrize("values, named", [([2], "2"), ([0, 5], "5"), (["x"], "'x'"), ([1, -2, 0], "-2")])
def test_classify_rejects_values_other_than_signs(values, named):
    with pytest.raises(ValueError, match=f"must be -1, 0 or 1, not {named}$"):
        classify_signs(values)


@given(st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=9))
def test_classify_order_against_naive(values):
    got = classify_signs(values)
    pos = any(v > 0 for v in values)
    neg = any(v < 0 for v in values)
    zero = any(v == 0 for v in values)
    if not zero:
        expected = "A*" if pos and neg else ("A+" if pos else "A-")
    elif not pos and not neg:
        expected = "N"
    elif pos and neg:
        expected = "S*"
    else:
        expected = "S+" if pos else "S-"
    assert got.value == expected


def test_compute_sepr_examples():
    assert str(compute_sepr(HermitianMatrix.zero(2))) == "NN"
    assert str(compute_sepr(HermitianMatrix.diagonal([1, -1, -1, 0]))) == "S*S*S+N"
    assert str(compute_sepr(HermitianMatrix.identity(3))) == "A+A+A+"
    assert str(compute_sepr(HermitianMatrix.zero(1))) == "N"  # order 1 works


def test_compute_epr_examples():
    assert str(compute_epr(HermitianMatrix.diagonal([1, -1, -1, 0]))) == "SSSN"
    assert str(compute_epr(HermitianMatrix.zero(2))) == "NN"
    assert str(compute_epr(HermitianMatrix.identity(3))) == "AAA"


def test_epr_terms_read_each_orders_sign_set():
    # the coarse term of an order is N for the signs {0}, A for signs
    # without 0 and S otherwise, on every sign set and on walked matrices,
    # whose sign tables are checked mask by mask against the oracle
    sign_sets = [frozenset(s) for s in ({-1}, {0}, {1}, {-1, 0}, {-1, 1}, {0, 1}, {-1, 0, 1})]
    rng = random.Random(608)
    for _ in range(200):
        sets = rng.choices(sign_sets, k=rng.randint(1, 5))
        expected = tuple(EprTerm.N if s == {0} else EprTerm.A if 0 not in s else EprTerm.S for s in sets)
        assert epr_terms(sets) == expected
    for _ in range(40):
        m = random_hermitian(rng, rng.randint(1, 5), real=bool(rng.getrandbits(1)))
        table = oracle_sign_table(m)
        assert m._mask_signs() == table
        expected = tuple(
            EprTerm.N if not any(s for mask, s in enumerate(table) if mask.bit_count() == k)
            else EprTerm.A if all(s for mask, s in enumerate(table) if mask.bit_count() == k)
            else EprTerm.S
            for k in range(1, m.n + 1)
        )
        sets = m.minor_sign_sets()
        assert epr_terms(sets) == expected
        assert EprSequence(expected) == compute_epr(m) == SeprSequence(sepr_terms(sets)).underlying()
    assert [str(t) for t in epr_terms(HermitianMatrix.diagonal([1, -1, 0]).minor_sign_sets())] == ["S", "S", "N"]


def test_compute_sepr_and_epr_split_the_table_once(monkeypatch):
    # seprkit compute prints both sequences: the second summary reads the
    # sign sets the first one cached on the matrix
    import seprkit.matrix

    calls = []
    split = seprkit.matrix._sign_sets
    monkeypatch.setattr(seprkit.matrix, "_sign_sets", lambda table: calls.append(len(table)) or split(table))
    m = HermitianMatrix.diagonal([1, -1, 0])
    assert (str(compute_sepr(m)), str(compute_epr(m))) == ("S*S-N", "SSN")
    assert calls == [8]
    assert m.minor_sign_sets() is m.minor_sign_sets()


def test_diagonal_sepr_against_subset_product_oracle():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(1, 6)
        vals = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        m = HermitianMatrix.diagonal(vals)
        expected_terms = []
        for k in range(1, n + 1):
            prods = []
            for s in combinations(range(n), k):
                p = Fraction(1)
                for i in s:
                    p *= vals[i]
                prods.append(p)
            expected_terms.append(classify_signs((p > 0) - (p < 0) for p in prods))
        assert compute_sepr(m) == SeprSequence(expected_terms)


def test_uepr_examples():
    assert str(parse_sequence("A+NS-S*").underlying()) == "ANSS"
    assert str(parse_sequence("NN").underlying()) == "NN"
    assert str(parse_sequence("S*S*S+N").underlying()) == "SSSN"


def test_contains_subsequence():
    s = parse_sequence("S*S*S+N")
    assert s.find(parse_sequence("S+N")) == 3
    assert parse_sequence("NN").find(parse_sequence("A*N")) is None
    assert parse_sequence("A+A*A*A+").find(parse_sequence("A*A*")) == 2
    # a pattern longer than the sequence is simply absent
    assert parse_sequence("NN").find(parse_sequence("NNN")) is None
    # contiguity: A+ ... A- with a gap is not a subsequence
    assert parse_sequence("A+NA-").find(parse_sequence("A+A-")) is None


@given(sepr_sequences)
def test_parse_format_roundtrip(s):
    assert parse_sequence(str(s)) == s


def test_parse_errors():
    with pytest.raises(SequenceParseError) as err:
        parse_sequence("A?")
    assert err.value.offset == 1
    with pytest.raises(SequenceParseError) as err:
        parse_sequence("X")
    assert err.value.offset == 0
    with pytest.raises(SequenceParseError):
        parse_sequence("")
    with pytest.raises(SequenceParseError) as err:
        parse_sequence("NA")  # dangling A without superscript
    assert err.value.offset == 2
    assert str(EprSequence.parse("ANS")) == "ANS"
    with pytest.raises(SequenceParseError):
        EprSequence.parse("A*")


def test_last_term_law_random():
    rng = random.Random(606)
    allowed = {SeprTerm.A_PLUS, SeprTerm.A_MINUS, SeprTerm.N}
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        assert compute_sepr(m).terms[-1] in allowed


def test_underlying_matches_epr_random():
    rng = random.Random(607)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_hermitian(rng, n, real=bool(rng.getrandbits(1)))
        assert compute_sepr(m).underlying() == compute_epr(m)


def _random_block(rng, n, *, real):
    """A random test matrix of order n: full, or a signed sum of one or two
    rank-one terms v v*, whose many zero minors exercise the S and N
    terms."""
    terms = rng.randrange(3)
    if terms == 0:
        return random_hermitian(rng, n, real=real)
    rows = [[Gauss(0)] * n for _ in range(n)]
    for _ in range(terms):
        v = [Gauss(rng.randint(-2, 2), 0 if real else rng.randint(-2, 2)) for _ in range(n)]
        sign = rng.choice((1, -1))
        for i in range(n):
            for j in range(n):
                rows[i][j] = rows[i][j] + sign * v[i] * v[j].conj()
    return matrix_of(rows)


@pytest.mark.parametrize("real", (True, False), ids=("real", "hermitian"))
def test_direct_sum_rule_matches_engine(real):
    # the table rule gives the walked table of A (+) B mask by mask, and
    # its summary is the sum's sequence: for two blocks of one field, then
    # for a real block beside the Q(sqrt 5) witness VierFour.9 (real) or
    # beside a Gaussian block (hermitian), in both orders
    rng = random.Random(808 + real)
    pairs = [
        (_random_block(rng, rng.randint(1, 4), real=real), _random_block(rng, rng.randint(1, 4), real=real))
        for _ in range(600)
    ]
    root5 = build_witness("VierFour.9")
    for _ in range(100):
        block = _random_block(rng, rng.randint(1, 4), real=True)
        other = root5 if real else _random_block(rng, rng.randint(1, 4), real=False)
        pairs += [(block, other), (other, block)]
    for a, b in pairs:
        image = a.direct_sum(b)
        predicted = direct_sum_table(a._mask_signs(), b._mask_signs())
        assert predicted == image._mask_signs()
        assert table_sequence(predicted) == compute_sepr(image)
    assert {a._d for a, _ in pairs} == ({0, 5} if real else {0, -1})


@pytest.mark.parametrize("real", (True, False), ids=("real", "hermitian"))
def test_transform_rules_match_engine(real):
    # each transform's table rule, applied to the operand's walked sign
    # table, gives the built matrix's walked table mask by mask; bordering
    # with a zero is the direct sum with [1, 0], the 1 x 1 zero's table,
    # and the permutation is drawn from its own generator
    rng, perms = random.Random(809 + real), random.Random(909 + real)
    determinants = set()
    for _ in range(200):
        m = _random_block(rng, rng.randint(1, 5), real=real)
        table = m._mask_signs()
        perm = perms.sample(range(1, m.n + 1), m.n)
        assert permutation_table(table, perm) == m.permute(perm)._mask_signs()
        assert negation_table(table) == m.negate()._mask_signs()
        assert direct_sum_table(table, [1, 0]) == m.direct_sum(HermitianMatrix.zero(1))._mask_signs()
        assert duplicate_last_table(table) == m.duplicate_last()._mask_signs()
        if table[-1]:
            assert inverse_table(table) == m.inverse()._mask_signs()
            determinants.add(table[-1])
        else:
            with pytest.raises(SingularMatrixError):
                m.inverse()
    assert determinants == {1, -1}


def test_append_zero_is_the_direct_sum_with_n():
    # bordering with a zero row and column is the direct sum with N: the
    # summary of the direct sum with [1, 0], the 1 x 1 zero's table, is the
    # bordered matrix's sequence, for one matrix of each sequence reached
    rng = random.Random(810)
    reached = {}
    for _ in range(300):
        m = _random_block(rng, rng.randint(1, 5), real=bool(rng.getrandbits(1)))
        reached.setdefault(compute_sepr(m), m)
    for m in reached.values():
        bordered = compute_sepr(m.direct_sum(HermitianMatrix.zero(1)))
        assert table_sequence(direct_sum_table(m._mask_signs(), [1, 0])) == bordered
