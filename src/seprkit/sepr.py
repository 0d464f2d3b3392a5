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
S- = {0, -}, and ``classify_signs`` maps a sign set back to its term.

A sign table T lists the signs of a matrix's principal minors indexed by
mask, bit i for index i + 1, with T[0] = 1 the empty minor;
``table_sequence`` summarises it.  Each transform law holds minor by minor,
so one table rule per transform maps the operands' tables to the built
matrix's, and the built matrix's sequence is the summary of that table:

* direct sum A (+) B, B's indices after A's: the mask M_A | M_B reads
  T_A(M_A) T_B(M_B), every minor of a block-diagonal matrix being the
  product of its blocks' minors;
* bordering with a zero row and column: the direct sum with [1, 0], the
  table of the 1 x 1 zero matrix;
* negation: an order-k minor of -B is (-1)^k times that of B, so M reads
  T(M) (-1)^|M|;
* duplicating the last row and column: T on the masks without the copy;
  a mask with the copy but not the original reads T at the mask with the
  original in its place, and a mask with both is 0;
* inverse, by Jacobi's identity det(B^-1[a]) det(B) = det(B[a']) for the
  complement a' of a: the mask M reads T(full - M) T(full), full the mask
  of every index;
* simultaneous row/column permutation by p: the mask M reads T at its
  image, the mask of the indices p(i) for i in M.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .matrix import HermitianMatrix, _sign_sets


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


_TERM_BY_SIGNS = {signs: term for term, signs in _SIGNS.items()}
# the coarse term of each sign set, read from the signs themselves
_EPR_BY_SIGNS = {s: EprTerm.N if s == {0} else EprTerm.A if 0 not in s else EprTerm.S for s in _TERM_BY_SIGNS}


def classify_signs(signs) -> SeprTerm:
    """Seven-way classification of a nonempty collection of minor signs,
    each -1, 0 or 1 (ValueError otherwise): one lookup of the set of
    signs present."""
    present = frozenset(signs)
    term = _TERM_BY_SIGNS.get(present)
    if term is None:
        if not present:
            raise ValueError("cannot classify an empty collection of minors")
        bad = ", ".join(sorted(repr(v) for v in present if v not in (-1, 0, 1)))
        raise ValueError(f"minor signs must be -1, 0 or 1, not {bad}")
    return term


def sepr_terms(sign_sets) -> tuple:
    """The terms of the sequence whose order-k minors take the signs
    sign_sets[k - 1], as HermitianMatrix.minor_sign_sets gives them."""
    return tuple(map(classify_signs, sign_sets))


def epr_terms(sign_sets) -> tuple:
    """The coarse all/some/none terms of the sequence whose order-k minors
    take the signs sign_sets[k - 1]: N for {0}, A for a set without 0 and
    S otherwise, read from the minors' signs (not by stripping the
    sign-refined terms)."""
    return tuple(map(_EPR_BY_SIGNS.__getitem__, sign_sets))


def compute_sepr(matrix: HermitianMatrix) -> SeprSequence:
    """The full sign-refined sequence of the matrix, one term per order."""
    return SeprSequence(sepr_terms(matrix.minor_sign_sets()))


def compute_epr(matrix: HermitianMatrix) -> EprSequence:
    """The coarse all/some/none sequence, computed directly from the minors
    (not by stripping the sign-refined sequence)."""
    return EprSequence(epr_terms(matrix.minor_sign_sets()))


def parse_sequence(text: str) -> SeprSequence:
    return SeprSequence.parse(text)


# ---------------------------------------------------------------------------
# table rules: a built matrix's sign table from its operands' tables
# ---------------------------------------------------------------------------


def table_sequence(table) -> SeprSequence:
    """The sequence that summarises a sign table indexed by mask."""
    return SeprSequence(sepr_terms(_sign_sets(table)))


def direct_sum_table(a: list, b: list) -> list:
    """The sign table of A (+) B from A's and B's, B's indices after A's:
    the sign at a mask is A's sign on its low bits times B's on the rest."""
    return [y * x for y in b for x in a]


def negation_table(table: list) -> list:
    """The sign table of -B from B's: the sign at M times (-1)^|M|."""
    return [-sign if mask.bit_count() & 1 else sign for mask, sign in enumerate(table)]


def inverse_table(table: list) -> list:
    """The sign table of B^-1 from B's, for B nonsingular: the sign at the
    complement of each mask, times the determinant's sign."""
    return table[::-1] if table[-1] > 0 else [-sign for sign in reversed(table)]


def duplicate_last_table(table: list) -> list:
    """The sign table of B with its last row and column duplicated, from
    B's: a mask with the copy reads the original's mask, 0 if it holds
    both."""
    h = len(table) // 2
    return table + table[h:] + [0] * h


def permutation_table(table: list, perm) -> list:
    """The sign table of B.permute(perm) from B's: the sign at the image of
    each mask, the mask of the indices perm[i] (1-based) for i in it."""
    image = [0]
    for p in perm:
        image += [low | 1 << (p - 1) for low in image]
    return [table[mask] for mask in image]
