"""Sign-pattern sequences of principal minors and their algebra.

For a Hermitian matrix of order n, the order-k principal minors (all real)
are summarized per k by one of seven symbols:

=====  =======================================================
A*     all nonzero, both signs present
A+     all positive
A-     all negative
N      all zero
S*     a zero, a positive and a negative minor all present
S+     some zero, the rest positive
S-     some zero, the rest negative
=====  =======================================================

The coarse three-letter variant (A / S / N: all, some-but-not-all, or none
of the order-k minors nonzero) is the "underlying" sequence.  Throughout,
"subsequence" means a *contiguous* run of terms, and positions are 1-based.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Union

from .exact import real_sign
from .matrix import HermitianMatrix


class SequenceParseError(ValueError):
    """Sequence text did not match the grammar; ``offset`` points at the
    first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EprTerm(Enum):
    A = "A"
    N = "N"
    S = "S"

    def __str__(self):
        return self.value


class SeprTerm(Enum):
    A_STAR = "A*"
    A_PLUS = "A+"
    A_MINUS = "A-"
    N = "N"
    S_STAR = "S*"
    S_PLUS = "S+"
    S_MINUS = "S-"

    def __str__(self):
        return self.value

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def superscript(self) -> str:
        return self.value[1:] if len(self.value) > 1 else ""

    @property
    def underlying(self) -> EprTerm:
        return EprTerm(self.letter)

    @property
    def negated(self) -> "SeprTerm":
        """Swap + and - superscripts; * and N are fixed."""
        if self.superscript == "+":
            return SeprTerm(self.letter + "-")
        if self.superscript == "-":
            return SeprTerm(self.letter + "+")
        return self

    @property
    def weakened(self) -> "SeprTerm":
        """A -> S keeping the superscript; S and N are fixed."""
        if self.letter == "A":
            return SeprTerm("S" + self.superscript)
        return self


_SEPR_BY_TEXT = {t.value: t for t in SeprTerm}
_EPR_BY_TEXT = {t.value: t for t in EprTerm}


class _TermSequence:
    """Shared machinery for the two sequence kinds."""

    __slots__ = ("terms",)
    _term_enum: type = None  # set by subclasses

    def __init__(self, terms: Iterable):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a sequence needs at least one term")
        for t in terms:
            if not isinstance(t, self._term_enum):
                raise TypeError(f"{t!r} is not a {self._term_enum.__name__}")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        got = self.terms[i]
        if isinstance(i, slice):
            return type(self)(got)
        return got

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.terms))

    def __str__(self):
        return "".join(t.value for t in self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return str(self) < str(other)

    @classmethod
    def parse(cls, text: str):
        if not isinstance(text, str):
            raise SequenceParseError("sequence text must be a string", 0)
        terms = []
        i = 0
        table = _SEPR_BY_TEXT if cls._term_enum is SeprTerm else _EPR_BY_TEXT
        while i < len(text):
            ch = text[i]
            if ch == "N":
                terms.append(table["N"])
                i += 1
                continue
            if cls._term_enum is SeprTerm and ch in "AS":
                token = text[i : i + 2]
                if token not in table:
                    raise SequenceParseError(
                        f"expected superscript *, + or - after {ch!r}", i + 1
                    )
                terms.append(table[token])
                i += 2
                continue
            if cls._term_enum is EprTerm and ch in "AS":
                terms.append(table[ch])
                i += 1
                continue
            raise SequenceParseError(f"unexpected character {ch!r}", i)
        if not terms:
            raise SequenceParseError("empty sequence", 0)
        return cls(terms)

    def windows(self, size: int):
        """Yield (1-based position, window) for every contiguous window."""
        for p in range(len(self.terms) - size + 1):
            yield p + 1, type(self)(self.terms[p : p + size])

    def find(self, pattern) -> Optional[int]:
        """Earliest 1-based position where ``pattern`` occurs as a
        contiguous run, or None."""
        if type(pattern) is not type(self):
            raise TypeError("pattern must be a sequence of the same kind")
        m = len(pattern.terms)
        if m > len(self.terms):
            return None
        for p in range(len(self.terms) - m + 1):
            if self.terms[p : p + m] == pattern.terms:
                return p + 1
        return None


class EprSequence(_TermSequence):
    _term_enum = EprTerm


class SeprSequence(_TermSequence):
    _term_enum = SeprTerm

    def underlying(self) -> EprSequence:
        """Strip superscripts termwise."""
        return EprSequence(t.underlying for t in self.terms)

    def negative(self) -> "SeprSequence":
        """Swap + and - superscripts termwise (an involution)."""
        return SeprSequence(t.negated for t in self.terms)


# ---------------------------------------------------------------------------
# classification of minors
# ---------------------------------------------------------------------------


def classify_signs(signs) -> SeprTerm:
    """Seven-way classification of a nonempty collection of minor signs."""
    present = set(signs)
    if not present:
        raise ValueError("cannot classify an empty collection of minors")
    has_zero = 0 in present
    has_pos = 1 in present
    has_neg = -1 in present
    if not has_zero:
        if has_pos and has_neg:
            return SeprTerm.A_STAR
        return SeprTerm.A_PLUS if has_pos else SeprTerm.A_MINUS
    if not has_pos and not has_neg:
        return SeprTerm.N
    if has_pos and has_neg:
        return SeprTerm.S_STAR
    return SeprTerm.S_PLUS if has_pos else SeprTerm.S_MINUS


def classify_order(minors) -> SeprTerm:
    """Classify one order's principal minors, given their exact values."""
    values = list(minors)
    if not values:
        raise ValueError("cannot classify an empty collection of minors")
    return classify_signs(real_sign(v) for v in values)


def compute_sepr(matrix: HermitianMatrix) -> SeprSequence:
    """The full sign-refined sequence of the matrix, one term per order."""
    return SeprSequence(
        classify_signs(signs) for signs in matrix.minor_signs_by_order()
    )


def compute_epr(matrix: HermitianMatrix) -> EprSequence:
    """The coarse all/some/none sequence, computed directly from the minors
    (not by stripping the sign-refined sequence)."""
    terms = []
    for signs in matrix.minor_signs_by_order():
        nonzero = sum(1 for s in signs if s != 0)
        if nonzero == 0:
            terms.append(EprTerm.N)
        elif nonzero == len(signs):
            terms.append(EprTerm.A)
        else:
            terms.append(EprTerm.S)
    return EprSequence(terms)


# ---------------------------------------------------------------------------
# functional surface
# ---------------------------------------------------------------------------

AnySequence = Union[SeprSequence, EprSequence]


def uepr(sequence: SeprSequence) -> EprSequence:
    return sequence.underlying()


def neg_sequence(sequence: SeprSequence) -> SeprSequence:
    return sequence.negative()


def contains_subsequence(sequence: AnySequence, pattern: AnySequence) -> Optional[int]:
    """Earliest 1-based position of ``pattern`` as a contiguous run, or
    None if it does not occur."""
    return sequence.find(pattern)


def parse_sequence(text: str) -> SeprSequence:
    return SeprSequence.parse(text)


def format_sequence(sequence: AnySequence) -> str:
    return str(sequence)
