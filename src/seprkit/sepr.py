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

Each term stands for the set of signs its minors take (``SeprTerm.signs``):
A* = {+, -}, A+ = {+}, A- = {-}, N = {0}, S* = {0, +, -}, S+ = {0, +},
S- = {0, -}, and ``classify_signs`` maps a sign set back to its term.  The
sequence of a matrix built from others therefore follows from theirs, with
no matrix at hand (signs_0 = {+} is the empty minor):

* direct sum: an order-k principal minor of A (+) B is the product of an
  order-i minor of A and an order-(k - i) minor of B, and every such pair
  occurs, so term k has the signs {x y : x in signs_i(A), y in
  signs_(k-i)(B)};
* negation: an order-k minor of -B is (-1)^k times that of B, so + and -
  swap on odd orders;
* inverse: det(B^-1[a]) = det(B[a']) / det(B) for the complement a' of a,
  so term k of B^-1 is term n - k of B, swapped when det(B) < 0, and the
  last term is kept;
* duplicating the last row and column: order-1 minors are diagonal entries,
  one repeated; from order 2 on, the minors containing both copies vanish
  and the others are B's, so every later term gains 0; the top minor is 0.

Bordering with a zero row and column is the direct sum with the sequence N.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

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

    # members are singletons compared by identity, so hash them in C: the
    # census hashes a sequence per matrix it records and per window
    __hash__ = object.__hash__

    def __str__(self):
        return self.value

    @property
    def underlying(self) -> EprTerm:
        return EprTerm(self.value[0])

    @property
    def negated(self) -> "SeprTerm":
        """Swap + and - superscripts; * and N are fixed."""
        return classify_signs(-x for x in _SIGNS[self])

    @property
    def signs(self) -> frozenset:
        """The signs (1, -1, 0) that this term's minors take."""
        return _SIGNS[self]


_SIGNS = {
    SeprTerm.A_STAR: frozenset((1, -1)),
    SeprTerm.A_PLUS: frozenset((1,)),
    SeprTerm.A_MINUS: frozenset((-1,)),
    SeprTerm.N: frozenset((0,)),
    SeprTerm.S_STAR: frozenset((0, 1, -1)),
    SeprTerm.S_PLUS: frozenset((0, 1)),
    SeprTerm.S_MINUS: frozenset((0, -1)),
}

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


def parse_sequence(text: str) -> SeprSequence:
    return SeprSequence.parse(text)


# ---------------------------------------------------------------------------
# transform rules: a built matrix's sequence from the sequences of its parts
# ---------------------------------------------------------------------------


def _sign_sets(seq: SeprSequence) -> tuple:
    """signs_0, ..., signs_n of a sequence; the empty minor is 1."""
    return (frozenset((1,)),) + tuple(t.signs for t in seq.terms)


def direct_sum_rule(a: SeprSequence, b: SeprSequence) -> SeprSequence:
    """The sequence of A (+) B, for A with sequence a and B with b."""
    sa, sb = _sign_sets(a), _sign_sets(b)
    n, m = len(a), len(b)
    return SeprSequence(
        classify_signs(
            {x * y for i in range(max(0, k - m), min(k, n) + 1) for x in sa[i] for y in sb[k - i]}
        )
        for k in range(1, n + m + 1)
    )


def negation_rule(seq: SeprSequence) -> SeprSequence:
    """The sequence of -B: + and - swap on odd orders."""
    return SeprSequence(t.negated if k % 2 else t for k, t in enumerate(seq.terms, start=1))


def inverse_rule(seq: SeprSequence) -> SeprSequence:
    """The sequence of B^-1: the terms before the last reversed, swapped
    when the last term is A-, then the last term.  A sequence ending in
    neither A+ nor A- has no inverse (ValueError)."""
    *front, last = seq.terms
    if last not in (SeprTerm.A_PLUS, SeprTerm.A_MINUS):
        raise ValueError(f"a sequence ending in {last} belongs to no invertible matrix")
    if last is SeprTerm.A_MINUS:
        front = [t.negated for t in front]
    return SeprSequence(front[::-1] + [last])


def duplicate_last_rule(seq: SeprSequence) -> SeprSequence:
    """The sequence of B with its last row and column duplicated: term 1
    kept, 0 added to every later term's signs, then N."""
    first, *rest = seq.terms
    return SeprSequence([first] + [classify_signs(t.signs | {0}) for t in rest] + [SeprTerm.N])
