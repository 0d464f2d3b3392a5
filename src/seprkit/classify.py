"""Forbidden-pattern rule sets for windows of orders 2 and 3.

A pattern is *forbidden* for a field if it never occurs as a contiguous
window of the sign sequence of any matrix over that field.  The complete
answer at orders 2 and 3 is generated here from closed rule families:

Order 2, both fields: exactly A*N, NA*, NS*, S*N.

Order 3, complex Hermitian - the union of four families:

* ``same-sign-bracket-A``: uXv with (u, v) one of (A+,A+), (A-,A-),
  (S+,A+), (S-,A-) and middle X in {A*, N, S*, S+, S-}.
* ``same-sign-bracket-S``: uYv with (u, v) one of (A+,S+), (A-,S-),
  (S+,S+), (S-,S-) and middle Y in {A*, N, S*}.
* ``order2-window``: any order-3 pattern containing a forbidden order-2
  pair as a window.
* ``underlying-epr``: any pattern whose underlying coarse sequence is
  NNA, NNS or NSA.

Real symmetric adds exactly nine more patterns on top of those:

* ``real-underlying-NAN-NAS``: NA+Z and NA-Z for Z in {N, S*, S+, S-}.
* ``real-NA+A*``: the single pattern NA+A*.

At the coarse (underlying) level the order-3 forbidden sets are
{NNA, NNS, NSA} for Hermitian and additionally {NAN, NAS} over the reals.

Rule labels are stable strings; when several rules match, the named rule is
the first in the order listed above.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from typing import FrozenSet, List, NamedTuple, Optional, Union

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


def _seq(text: str) -> SeprSequence:
    return SeprSequence.parse(text)


def _eseq(text: str) -> EprSequence:
    return EprSequence.parse(text)


_ORDER2_FORBIDDEN = frozenset(map(_seq, ("A*N", "NA*", "NS*", "S*N")))

# pairs that never start the sign sequence of any Hermitian matrix
INITIAL_FORBIDDEN_PAIRS = frozenset(
    map(
        _seq,
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

_EPR_FORBIDDEN_HERMITIAN = frozenset(map(_eseq, ("NNA", "NNS", "NSA")))
_EPR_FORBIDDEN_REAL = _EPR_FORBIDDEN_HERMITIAN | frozenset(map(_eseq, ("NAN", "NAS")))

_NINE_REAL_ONLY = frozenset(
    map(
        _seq,
        (
            "NA+A*",
            "NA+N", "NA+S*", "NA+S+", "NA+S-",
            "NA-N", "NA-S*", "NA-S+", "NA-S-",
        ),
    )
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
_UNDERLYING_EPR_SET = frozenset(
    SeprSequence(terms)
    for coarse in _EPR_FORBIDDEN_HERMITIAN
    for terms in product(*([t for t in SeprTerm if t.underlying is c] for c in coarse))
)

RULE_FAMILIES = (
    (RULE_BRACKET_A, _BRACKET_A_SET),
    (RULE_BRACKET_S, _BRACKET_S_SET),
    (RULE_ORDER2_WINDOW, _ORDER2_WINDOW_SET),
    (RULE_UNDERLYING_EPR, _UNDERLYING_EPR_SET),
)


def forbidden_order2(field: Field) -> FrozenSet[SeprSequence]:
    """The four order-2 forbidden patterns (identical for both fields)."""
    del field
    return _ORDER2_FORBIDDEN


@lru_cache(maxsize=None)
def forbidden_order3(field: Field) -> FrozenSet[SeprSequence]:
    """The order-3 forbidden set: 92 patterns for Hermitian, 101 over the
    reals (the Hermitian set plus the nine real-only patterns)."""
    hermitian = (
        _BRACKET_A_SET | _BRACKET_S_SET | _ORDER2_WINDOW_SET | _UNDERLYING_EPR_SET
    )
    if field is Field.HERMITIAN:
        return frozenset(hermitian)
    return frozenset(hermitian | _NINE_REAL_ONLY)


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
    n = len(pattern)
    if n == 2:
        if pattern in _ORDER2_FORBIDDEN:
            return Verdict(True, RULE_ORDER2_PAIR)
        return Verdict(False)
    if n != 3:
        raise ValueError(f"classification supports orders 2 and 3, not {n}")
    for rule, patterns in RULE_FAMILIES:
        if pattern in patterns:
            return Verdict(True, rule)
    if field is Field.REAL_SYMMETRIC:
        if pattern in _NINE_REAL_ONLY:
            if pattern == _seq("NA+A*"):
                return Verdict(True, RULE_REAL_NAPLUS_ASTAR)
            return Verdict(True, RULE_REAL_NAN_NAS)
    return Verdict(False)


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
    hits: List[ForbiddenHit] = []
    n = len(sequence)
    for size in (2, 3):
        if n < size:
            continue
        for pos, window in sequence.windows(size):
            verdict = classify_sequence(window, field)
            if verdict.forbidden:
                hits.append(ForbiddenHit(pos, window, verdict.rule))
    if n >= 2:
        head = sequence[0:2]
        if head in INITIAL_FORBIDDEN_PAIRS:
            hits.append(ForbiddenHit(1, head, RULE_INITIAL_PAIR))
    if field is Field.REAL_SYMMETRIC and n >= 5:
        coarse = sequence.underlying()
        sna = (EprTerm.S, EprTerm.N, EprTerm.A)
        # the window must sit inside the first n-2 terms
        for p in range(n - 4):
            if coarse.terms[p : p + 3] == sna:
                hits.append(
                    ForbiddenHit(p + 1, EprSequence(sna), RULE_REAL_SNA)
                )
    return hits


def all_patterns(order: int):
    """Every sign pattern of the given order, in sorted text order."""
    return sorted(
        (SeprSequence(t) for t in product(SeprTerm, repeat=order)), key=str
    )
