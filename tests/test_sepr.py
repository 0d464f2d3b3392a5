import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Gauss, matrix_of, random_hermitian
from seprkit.matrix import HermitianMatrix
from seprkit.sepr import (
    EprSequence,
    SeprSequence,
    SeprTerm,
    SequenceParseError,
    classify_signs,
    compute_epr,
    compute_sepr,
    direct_sum_rule,
    duplicate_last_rule,
    inverse_rule,
    negation_rule,
    parse_sequence,
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
    rng = random.Random(808 + real)
    for _ in range(600):
        a = _random_block(rng, rng.randint(1, 4), real=real)
        b = _random_block(rng, rng.randint(1, 4), real=real)
        assert direct_sum_rule(compute_sepr(a), compute_sepr(b)) == compute_sepr(a.direct_sum(b))


@pytest.mark.parametrize("real", (True, False), ids=("real", "hermitian"))
def test_transform_rules_match_engine(real):
    rng = random.Random(809 + real)
    inverted = set()
    for _ in range(200):
        m = _random_block(rng, rng.randint(1, 5), real=real)
        s = compute_sepr(m)
        assert negation_rule(s) == compute_sepr(m.negate())
        assert duplicate_last_rule(s) == compute_sepr(m.duplicate_last())
        if s.terms[-1] is SeprTerm.N:
            with pytest.raises(ValueError):
                inverse_rule(s)
        else:
            assert inverse_rule(s) == compute_sepr(m.inverse())
            inverted.add(s.terms[-1])
    assert inverted == {SeprTerm.A_PLUS, SeprTerm.A_MINUS}


def test_append_zero_is_the_direct_sum_with_n():
    rng = random.Random(810)
    reached = {}
    for _ in range(300):
        m = _random_block(rng, rng.randint(1, 5), real=bool(rng.getrandbits(1)))
        reached.setdefault(compute_sepr(m), m)
    zero = SeprSequence((SeprTerm.N,))
    for s, m in reached.items():
        assert direct_sum_rule(s, zero) == compute_sepr(m.direct_sum(HermitianMatrix.zero(1)))
