"""Forbidden-pattern rule sets for windows of orders 2 and 3.

A pattern is *forbidden* for a field if it never occurs as a contiguous
window of the sign sequence of any matrix over that field.  The complete
answer at orders 2 and 3 comes from closed rule families, in this order:

* ``order2-pair``, both fields: exactly A*N, NA*, NS*, S*N.
* ``same-sign-bracket-A``: uXv with (u, v) one of (A+,A+), (A-,A-),
  (S+,A+), (S-,A-) and middle X in {A*, N, S*, S+, S-}.
* ``same-sign-bracket-S``: uYv with (u, v) one of (A+,S+), (A-,S-),
  (S+,S+), (S-,S-) and middle Y in {A*, N, S*}.
* ``order2-window``: any order-3 pattern with a forbidden order-2 window.
* ``underlying-epr``: any pattern whose underlying coarse sequence is
  NNA, NNS or NSA.
* real symmetric only, nine more: ``real-underlying-NAN-NAS``, any
  pattern with coarse sequence NAN or NAS that no family above names
  (NA+Z and NA-Z for Z in {N, S*, S+, S-}), then ``real-NA+A*``.

At the coarse (underlying) level the order-3 forbidden sets are
{NNA, NNS, NSA} for Hermitian and additionally {NAN, NAS} over the reals.

Each field has one table, built at import, from each forbidden pattern to
its rule, where the first rule listed wins.  The forbidden sets,
``classify_sequence`` and ``scan_for_forbidden`` all read it.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Union

from .sepr import EprSequence, EprTerm, SeprSequence, SeprTerm


class Field(Enum):
    HERMITIAN = "hermitian"
    REAL_SYMMETRIC = "real-symmetric"

    @classmethod
    def parse(cls, text: str) -> "Field":
        key = text.strip().lower()
        if key in ("hermitian", "complex", "c"):
            return cls.HERMITIAN
        if key in ("real-symmetric", "real", "realsymmetric", "symmetric", "r"):
            return cls.REAL_SYMMETRIC
        raise ValueError(f"unknown field {text!r} (try 'hermitian' or 'real')")

    @property
    def human(self) -> str:
        return "hermitian" if self is Field.HERMITIAN else "real symmetric"


RULE_ORDER2_PAIR = "order2-pair"
RULE_BRACKET_A = "same-sign-bracket-A"
RULE_BRACKET_S = "same-sign-bracket-S"
RULE_ORDER2_WINDOW = "order2-window"
RULE_UNDERLYING_EPR = "underlying-epr"
RULE_REAL_NAN_NAS = "real-underlying-NAN-NAS"
RULE_REAL_NAPLUS_ASTAR = "real-NA+A*"
RULE_INITIAL_PAIR = "initial-pair"
RULE_REAL_SNA = "real-SNA-window"


class _VerdictFields(NamedTuple):
    forbidden: bool
    rule: Optional[str] = None


class Verdict(_VerdictFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.forbidden and not self.rule:
            raise ValueError("a forbidden verdict must name its rule")
        return self


_ORDER2_FORBIDDEN = frozenset(map(SeprSequence.parse, ("A*N", "NA*", "NS*", "S*N")))

# pairs that never start the sign sequence of any Hermitian matrix
INITIAL_FORBIDDEN_PAIRS = frozenset(
    map(
        SeprSequence.parse,
        (
            "A*A+", "A*N", "A*S+",
            "NA*", "NA+", "NS*", "NS+",
            "S*A+", "S*N", "S*S+",
            "S+A+", "S-A+",
        ),
    )
)

_BRACKET_A_OUTER = (
    (SeprTerm.A_PLUS, SeprTerm.A_PLUS),
    (SeprTerm.A_MINUS, SeprTerm.A_MINUS),
    (SeprTerm.S_PLUS, SeprTerm.A_PLUS),
    (SeprTerm.S_MINUS, SeprTerm.A_MINUS),
)
_BRACKET_A_MIDDLE = (
    SeprTerm.A_STAR, SeprTerm.N, SeprTerm.S_STAR, SeprTerm.S_PLUS, SeprTerm.S_MINUS,
)
_BRACKET_S_OUTER = (
    (SeprTerm.A_PLUS, SeprTerm.S_PLUS),
    (SeprTerm.A_MINUS, SeprTerm.S_MINUS),
    (SeprTerm.S_PLUS, SeprTerm.S_PLUS),
    (SeprTerm.S_MINUS, SeprTerm.S_MINUS),
)
_BRACKET_S_MIDDLE = (SeprTerm.A_STAR, SeprTerm.N, SeprTerm.S_STAR)

_EPR_FORBIDDEN_HERMITIAN = frozenset(map(EprSequence.parse, ("NNA", "NNS", "NSA")))
_EPR_FORBIDDEN_REAL = _EPR_FORBIDDEN_HERMITIAN | frozenset(map(EprSequence.parse, ("NAN", "NAS")))


def _by_underlying(coarse_patterns) -> FrozenSet[SeprSequence]:
    """Every pattern whose underlying coarse sequence is one of these."""
    return frozenset(
        SeprSequence(terms)
        for coarse in coarse_patterns
        for terms in product(*([t for t in SeprTerm if t.underlying is c] for c in coarse))
    )


_BRACKET_A_SET = frozenset(
    SeprSequence((u, x, v)) for (u, v) in _BRACKET_A_OUTER for x in _BRACKET_A_MIDDLE
)
_BRACKET_S_SET = frozenset(
    SeprSequence((u, y, v)) for (u, v) in _BRACKET_S_OUTER for y in _BRACKET_S_MIDDLE
)
_ORDER2_WINDOW_SET = frozenset(
    SeprSequence(terms)
    for a, b in _ORDER2_FORBIDDEN
    for x in SeprTerm
    for terms in ((a, b, x), (x, a, b))
)
_UNDERLYING_EPR_SET = _by_underlying(_EPR_FORBIDDEN_HERMITIAN)

_HERMITIAN_FAMILIES = (
    (RULE_ORDER2_PAIR, _ORDER2_FORBIDDEN),
    (RULE_BRACKET_A, _BRACKET_A_SET),
    (RULE_BRACKET_S, _BRACKET_S_SET),
    (RULE_ORDER2_WINDOW, _ORDER2_WINDOW_SET),
    (RULE_UNDERLYING_EPR, _UNDERLYING_EPR_SET),
)
_REAL_FAMILIES = _HERMITIAN_FAMILIES + (
    (RULE_REAL_NAN_NAS, _by_underlying(_EPR_FORBIDDEN_REAL - _EPR_FORBIDDEN_HERMITIAN)),
    (RULE_REAL_NAPLUS_ASTAR, (SeprSequence.parse("NA+A*"),)),
)


def _rule_table(families) -> Dict[SeprSequence, str]:
    """Each pattern of the families mapped to the first rule naming it."""
    table: Dict[SeprSequence, str] = {}
    for rule, patterns in families:
        for pattern in patterns:
            table.setdefault(pattern, rule)
    return table


_RULES = {
    Field.HERMITIAN: _rule_table(_HERMITIAN_FAMILIES),
    Field.REAL_SYMMETRIC: _rule_table(_REAL_FAMILIES),
}


def forbidden_order2(field: Field) -> FrozenSet[SeprSequence]:
    """The four order-2 forbidden patterns (identical for both fields)."""
    return frozenset(p for p in _RULES[field] if len(p) == 2)


def forbidden_order3(field: Field) -> FrozenSet[SeprSequence]:
    """The order-3 forbidden set: 92 patterns for Hermitian, 101 over the
    reals (the Hermitian set plus the nine real-only patterns)."""
    return frozenset(p for p in _RULES[field] if len(p) == 3)


def epr_forbidden_order3(field: Field) -> FrozenSet[EprSequence]:
    """Coarse-level order-3 forbidden sets."""
    if field is Field.HERMITIAN:
        return _EPR_FORBIDDEN_HERMITIAN
    return _EPR_FORBIDDEN_REAL


def classify_sequence(pattern: SeprSequence, field: Field) -> Verdict:
    """Decide whether an order-2 or order-3 pattern is forbidden, naming
    the first rule that fires."""
    if not isinstance(pattern, SeprSequence):
        raise TypeError("pattern must be a SeprSequence")
    if len(pattern) not in (2, 3):
        raise ValueError(f"classification supports orders 2 and 3, got {len(pattern)}")
    rule = _RULES[field].get(pattern)
    return Verdict(rule is not None, rule)


_SNA = (EprTerm.S, EprTerm.N, EprTerm.A)


def real_sna_starts(coarse: EprSequence) -> List[int]:
    """The 1-based starts of the window S,N,A inside the first n - 2 terms
    of a coarse sequence, where no real symmetric matrix has it."""
    terms = coarse.terms
    return [p + 1 for p in range(len(terms) - 4) if terms[p : p + 3] == _SNA]


class ForbiddenHit(NamedTuple):
    """One offending window of a full sign sequence."""

    position: int  # 1-based start of the window
    pattern: Union[SeprSequence, EprSequence]
    rule: str

    def __str__(self):
        return f"pos={self.position} pattern={self.pattern} rule={self.rule}"


def scan_for_forbidden(sequence: SeprSequence, field: Field) -> List[ForbiddenHit]:
    """Scan a full sign sequence for impossible content.

    Checks every length-2 and length-3 window against the forbidden sets,
    the first two terms against the never-initial pairs, and (over the
    reals) the coarse S,N,A window confined to the first n-2 terms.  A
    sequence computed from an actual matrix of the matching field must
    come back clean.
    """
    rules = _RULES[field]
    hits = [
        ForbiddenHit(pos, window, rules[window])
        for size in (2, 3)
        for pos, window in sequence.windows(size)
        if window in rules
    ]
    if len(sequence) >= 2:
        head = sequence[0:2]
        if head in INITIAL_FORBIDDEN_PAIRS:
            hits.append(ForbiddenHit(1, head, RULE_INITIAL_PAIR))
    if field is Field.REAL_SYMMETRIC and len(sequence) >= 5:
        sna = EprSequence(_SNA)
        hits.extend(ForbiddenHit(p, sna, RULE_REAL_SNA) for p in real_sna_starts(sequence.underlying()))
    return hits


def all_patterns(order: int):
    """Every sign pattern of the given order, in sorted text order."""
    return sorted(
        (SeprSequence(t) for t in product(SeprTerm, repeat=order)), key=str
    )
