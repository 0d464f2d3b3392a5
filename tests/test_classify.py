"""The forbidden sets are checked three ways: against a literal fixture
(transcribed independently of the generator), against a from-scratch
re-derivation of the rule families (which also gives each pattern's
rule, by first match), and through the documented counting
identities (20 + 12 + 50 + 15 overlapping down to 92, plus the nine
real-only patterns giving 101)."""

from collections import Counter
from itertools import product

import pytest

from seprkit.classify import (
    Field,
    RULE_BRACKET_A,
    RULE_BRACKET_S,
    RULE_INITIAL_PAIR,
    RULE_ORDER2_PAIR,
    RULE_ORDER2_WINDOW,
    RULE_REAL_NAN_NAS,
    RULE_REAL_NAPLUS_ASTAR,
    RULE_UNDERLYING_EPR,
    Verdict,
    all_patterns,
    classify_sequence,
    epr_forbidden_order3,
    forbidden_order2,
    forbidden_order3,
    scan_for_forbidden,
)
from seprkit.sepr import parse_sequence

# fmt: off
ORDER3_FORBIDDEN_HERMITIAN_FIXTURE = [
    "A+A*A+", "A-A*A-", "A*A*N", "A+A*N", "A-A*N", "A+A*S+", "A-A*S-",
    "A*NA*", "A*NA+", "A*NA-", "A+NA*", "A+NA+", "A-NA*", "A-NA-",
    "A*NN", "A*NS*", "A*NS+", "A*NS-", "A+NS*", "A+NS+", "A-NS*", "A-NS-",
    "A+S*A+", "A+S+A+", "A+S-A+", "A-S*A-", "A-S+A-", "A-S-A-",
    "A*S*N", "A+S*N", "A-S*N", "A+S*S+", "A-S*S-",
    "NA*A*", "NA*A+", "NA*A-", "NA*N", "NA*S*", "NA*S+", "NA*S-",
    "NNA*", "NNA+", "NNA-", "NNS*", "NNS+", "NNS-",
    "NS*A*", "NS*A+", "NS*A-", "NS+A*", "NS+A+", "NS+A-",
    "NS-A*", "NS-A+", "NS-A-", "NS*N", "NS*S*", "NS*S+", "NS*S-",
    "S+A*A+", "S-A*A-", "S*A*N", "S+A*N", "S-A*N", "S+A*S+", "S-A*S-",
    "S*NA*", "S*NA+", "S*NA-", "S+NA*", "S+NA+", "S-NA*", "S-NA-",
    "S*NN", "S*NS*", "S*NS+", "S*NS-", "S+NS*", "S+NS+", "S-NS*", "S-NS-",
    "S+S*A+", "S+S+A+", "S+S-A+", "S-S*A-", "S-S+A-", "S-S-A-",
    "S*S*N", "S+S*N", "S-S*N", "S+S*S+", "S-S*S-",
]
# fmt: on

NINE_REAL_ONLY = [
    "NA+A*",
    "NA+N", "NA+S*", "NA+S+", "NA+S-",
    "NA-N", "NA-S*", "NA-S+", "NA-S-",
]

ALL_TERMS = ["A*", "A+", "A-", "N", "S*", "S+", "S-"]


def _rederive_rules(real):
    """Independent re-derivation of the rule families: each order-2 and
    order-3 pattern, as its tuple of term texts, mapped to the first
    family, in the documented order, whose literal membership test holds."""
    pairs = {"A*N", "NA*", "NS*", "S*N"}
    bracket_a = {("A+", "A+"), ("A-", "A-"), ("S+", "A+"), ("S-", "A-")}
    bracket_s = {("A+", "S+"), ("A-", "S-"), ("S+", "S+"), ("S-", "S-")}

    def coarse(t):
        return "".join(x[0] for x in t)

    families = [
        (RULE_ORDER2_PAIR, lambda t: len(t) == 2 and t[0] + t[1] in pairs),
        (RULE_BRACKET_A, lambda t: len(t) == 3 and (t[0], t[2]) in bracket_a and t[1] in ("A*", "N", "S*", "S+", "S-")),
        (RULE_BRACKET_S, lambda t: len(t) == 3 and (t[0], t[2]) in bracket_s and t[1] in ("A*", "N", "S*")),
        (RULE_ORDER2_WINDOW, lambda t: len(t) == 3 and (t[0] + t[1] in pairs or t[1] + t[2] in pairs)),
        (RULE_UNDERLYING_EPR, lambda t: coarse(t) in ("NNA", "NNS", "NSA")),
    ]
    if real:
        families += [
            (RULE_REAL_NAN_NAS, lambda t: coarse(t) in ("NAN", "NAS")),
            (RULE_REAL_NAPLUS_ASTAR, lambda t: t == ("N", "A+", "A*")),
        ]
    rules = {}
    for order in (2, 3):
        for t in product(ALL_TERMS, repeat=order):
            rules[t] = next((rule for rule, holds in families if holds(t)), None)
    return rules


def test_order2_sets():
    for field in Field:
        got = {str(p) for p in forbidden_order2(field)}
        assert got == {"A*N", "NA*", "NS*", "S*N"}
    assert len(all_patterns(2)) == 49
    assert 49 - len(forbidden_order2(Field.HERMITIAN)) == 45


def test_order3_hermitian_matches_fixture():
    assert len(ORDER3_FORBIDDEN_HERMITIAN_FIXTURE) == 92
    assert len(set(ORDER3_FORBIDDEN_HERMITIAN_FIXTURE)) == 92
    got = {str(p) for p in forbidden_order3(Field.HERMITIAN)}
    assert got == set(ORDER3_FORBIDDEN_HERMITIAN_FIXTURE)


def test_order3_hermitian_matches_rederivation():
    got = {str(p) for p in forbidden_order3(Field.HERMITIAN)}
    rules = _rederive_rules(real=False)
    assert got == {"".join(t) for t, rule in rules.items() if len(t) == 3 and rule}


def test_order3_real_is_hermitian_plus_nine():
    herm = forbidden_order3(Field.HERMITIAN)
    real = forbidden_order3(Field.REAL_SYMMETRIC)
    assert herm < real
    assert len(herm) == 92
    assert len(real) == 101
    assert {str(p) for p in real - herm} == set(NINE_REAL_ONLY)
    assert len(all_patterns(3)) == 343


def test_rule_family_counts():
    """20 and 12 patterns from the two bracket families; the full union
    deduplicates to 92."""
    from seprkit.classify import _BRACKET_A_SET, _BRACKET_S_SET

    assert len(_BRACKET_A_SET) == 20
    assert len(_BRACKET_S_SET) == 12
    assert len(forbidden_order3(Field.HERMITIAN)) == 92


def test_order2_windows_all_forbidden():
    forb = forbidden_order3(Field.HERMITIAN)
    pairs = forbidden_order2(Field.HERMITIAN)
    for t in product(ALL_TERMS, repeat=3):
        s = parse_sequence("".join(t))
        if any(w in pairs for _, w in s.windows(2)):
            assert s in forb


def test_classify_examples():
    assert classify_sequence(parse_sequence("A+NA+"), Field.HERMITIAN) == Verdict(
        True, RULE_BRACKET_A
    )
    assert classify_sequence(parse_sequence("S+S*S+"), Field.HERMITIAN).forbidden
    assert not classify_sequence(parse_sequence("NA+A*"), Field.HERMITIAN).forbidden
    assert classify_sequence(parse_sequence("NA+A*"), Field.REAL_SYMMETRIC) == Verdict(
        True, RULE_REAL_NAPLUS_ASTAR
    )
    for field in Field:
        assert not classify_sequence(parse_sequence("A+A+A+"), field).forbidden
    assert classify_sequence(parse_sequence("A*N"), Field.HERMITIAN) == Verdict(
        True, RULE_ORDER2_PAIR
    )
    assert not classify_sequence(parse_sequence("A+N"), Field.HERMITIAN).forbidden


def test_classify_rule_precedence():
    # bracket family wins over the underlying-epr family
    assert classify_sequence(parse_sequence("S+NA+"), Field.HERMITIAN).rule == RULE_BRACKET_A
    # an order-2 window wins over underlying-epr
    assert classify_sequence(parse_sequence("NNA*"), Field.HERMITIAN).rule == RULE_ORDER2_WINDOW
    assert classify_sequence(parse_sequence("NNA+"), Field.HERMITIAN).rule == RULE_UNDERLYING_EPR
    assert classify_sequence(parse_sequence("A+S*S+"), Field.HERMITIAN).rule == RULE_BRACKET_S
    assert classify_sequence(parse_sequence("NA+N"), Field.REAL_SYMMETRIC).rule == RULE_REAL_NAN_NAS


def test_rule_assignment_matches_rederivation():
    """Every one of the 49 + 343 patterns gets, in both fields, the rule
    the literal families give it with first-match precedence."""
    for field in Field:
        expected = _rederive_rules(real=field is Field.REAL_SYMMETRIC)
        assert len(expected) == 49 + 343
        for terms, rule in expected.items():
            assert classify_sequence(parse_sequence("".join(terms)), field) == Verdict(rule is not None, rule), terms
    real_only = Counter(_rederive_rules(real=True).values()) - Counter(_rederive_rules(real=False).values())
    assert real_only == {RULE_REAL_NAN_NAS: 8, RULE_REAL_NAPLUS_ASTAR: 1}


def test_classify_rejects_other_orders():
    with pytest.raises(ValueError, match="^classification supports orders 2 and 3, got 4$"):
        classify_sequence(parse_sequence("A+A+A+A+"), Field.HERMITIAN)
    with pytest.raises(ValueError):
        classify_sequence(parse_sequence("N"), Field.HERMITIAN)


def test_epr_forbidden_sets():
    assert {str(p) for p in epr_forbidden_order3(Field.HERMITIAN)} == {"NNA", "NNS", "NSA"}
    assert {str(p) for p in epr_forbidden_order3(Field.REAL_SYMMETRIC)} == {
        "NAN", "NAS", "NNA", "NNS", "NSA",
    }


def test_underlying_family_consistent_with_epr_set():
    from seprkit.classify import _UNDERLYING_EPR_SET

    eset = epr_forbidden_order3(Field.HERMITIAN)
    assert len(_UNDERLYING_EPR_SET) == 15
    for p in _UNDERLYING_EPR_SET:
        assert p.underlying() in eset


def test_scan_examples():
    assert scan_for_forbidden(parse_sequence("NN"), Field.HERMITIAN) == []
    hits = scan_for_forbidden(parse_sequence("A*NS+"), Field.HERMITIAN)
    assert any(h.position == 1 and str(h.pattern) == "A*N" for h in hits)
    rules = {h.rule for h in hits}
    assert RULE_ORDER2_PAIR in rules and RULE_INITIAL_PAIR in rules


def test_scan_initial_pairs():
    # NA+ can occur as an interior window but never initially
    hits = scan_for_forbidden(parse_sequence("NA+A+"), Field.HERMITIAN)
    assert any(h.rule == RULE_INITIAL_PAIR for h in hits)
    assert scan_for_forbidden(parse_sequence("A+NA-"), Field.HERMITIAN) == []


def test_scan_real_sna_window():
    from seprkit.classify import RULE_REAL_SNA

    # coarse S,N,A inside the first n-2 terms is flagged over the reals
    s = parse_sequence("S+NA+A+A+")
    hits = scan_for_forbidden(s, Field.REAL_SYMMETRIC)
    assert any(h.rule == RULE_REAL_SNA and h.position == 1 for h in hits)
    # the same window touching the tail is not in scope of that rule
    t = parse_sequence("A+S+NA+A+")  # S,N,A at positions 2..4 of n=5: position 4 > n-2=3
    hits_t = [h for h in scan_for_forbidden(t, Field.REAL_SYMMETRIC) if h.rule == RULE_REAL_SNA]
    assert hits_t == []
    # not flagged for the complex field
    assert not any(
        h.rule == RULE_REAL_SNA for h in scan_for_forbidden(s, Field.HERMITIAN)
    )
