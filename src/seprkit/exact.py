"""Exact scalars: rationals, Gaussian rationals, and one quadratic extension.

The scalar types are values, not a field: the package takes every sign
from scaled integer grids (see ``seprkit.matrix``), so a scalar is only
built, parsed, formatted, compared, hashed, negated and conjugated, and
a Q(sqrt 5) value also gives its certified sign.  They do no field
arithmetic.  Both are immutable with structural equality, so they can be
shared freely (including across threads) and used as dict keys.

``Rational`` is an alias for :class:`fractions.Fraction`, which already
guarantees the invariants we need: arbitrary-precision integers, positive
denominator, and storage in lowest terms.

Scalar text has one grammar, ``['-'] digits ['/' digits]``, read by
:func:`parse_ratio` into an unreduced ``(numerator, denominator)`` pair.
:func:`parse_rational` and :func:`parse_pool_token` build exact scalars
from those pairs, and :func:`parse_gaussian_ratios` reads a serialized
[re, im] pair; the matrix JSON loader takes its pairs straight to a
scaled integer grid without building scalars at all.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

Rational = Fraction


class ScalarParseError(ValueError):
    """A scalar literal did not match the text grammar.

    ``offset`` is the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_RATIONAL_RE = _re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse ``['-'] digits ['/' digits]`` into ``(numerator, denominator)``.

    This is the package's one rational grammar; every scalar literal
    (matrix documents, pool tokens, :func:`parse_rational`) is read through
    it.  The grammar is deliberately strict: no whitespace, no leading '+',
    no decimals.  The pair is not reduced ("2/4" gives (2, 4)), and its
    denominator is positive.
    """
    if not isinstance(text, str):
        raise ScalarParseError(f"expected a rational string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        m = _RATIONAL_RE.match(text)
        raise ScalarParseError(f"malformed rational {text!r}", m.end() if m else 0)
    sign, num, den = m.groups()
    den = int(den) if den is not None else 1
    if den == 0:
        raise ScalarParseError(f"zero denominator in {text!r}", len(sign) + len(num) + 1)
    return (-int(num) if sign else int(num)), den


def parse_rational(text: str) -> Fraction:
    """:func:`parse_ratio` as a reduced Fraction."""
    return Fraction(*parse_ratio(text))


def parse_pool_token(token: str) -> GaussianRational:
    """One pool entry: '2', '-1/2', 'i', '-i', '2i', '1+i', '1-2i', ...

    The real part and the signed imaginary coefficient each follow the
    scalar grammar of :func:`parse_ratio`; an omitted coefficient is 1.
    """
    text = token.strip()
    if not text.endswith("i"):
        return GaussianRational(parse_rational(text))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:  # imaginary only
        re_text, imag = "0", body
    else:
        re_text, imag = body[:cut], body[cut:].lstrip("+")
    if imag in ("", "-"):
        imag += "1"
    return GaussianRational(parse_rational(re_text), parse_rational(imag))


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sign_of_real(q) -> int:
    """Exact trichotomy: -1, 0, or +1."""
    num = Fraction(q).numerator
    return (num > 0) - (num < 0)


class GaussianRational:
    """An element a + b*i of Q(i), with exact rational a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates and hashing ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # real values hash like their Fraction so x == q implies equal hashes
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}i"
        sep = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sep}{format_rational(abs(self.im))}i"


I = GaussianRational(0, 1)


def parse_gaussian_ratios(pair) -> tuple[tuple[int, int], tuple[int, int]]:
    """The real and imaginary parts, as :func:`parse_ratio` pairs, of the
    serialized form of a Gaussian rational: a [re, im] pair of rational
    strings."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ScalarParseError(f"expected a [re, im] pair, got {pair!r}")
    return parse_ratio(pair[0]), parse_ratio(pair[1])


def format_gaussian(z: GaussianRational) -> list:
    return [format_rational(z.re), format_rational(z.im)]


class Sqrt5Rational:
    """An element a + b*sqrt(5) of Q(sqrt 5), with exact rational a and b.

    Exists solely for the one catalog witness whose defining parameter is
    2 + sqrt(5).  Complex conjugation is the identity (these are real
    numbers), and the sign of any element is decided exactly: sqrt(5) is
    irrational, so a + b*sqrt(5) = 0 only when a = b = 0, and otherwise the
    sign follows from comparing a**2 with 5*b**2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt5Rational is immutable")

    @staticmethod
    def _coerce(value) -> "Sqrt5Rational | None":
        if isinstance(value, Sqrt5Rational):
            return value
        if isinstance(value, (int, Fraction)):
            return Sqrt5Rational(value)
        if isinstance(value, GaussianRational) and value.im == 0:
            return Sqrt5Rational(value.re)
        return None

    def __neg__(self):
        return Sqrt5Rational(-self.a, -self.b)

    def conjugate(self) -> "Sqrt5Rational":
        # complex conjugation; these values are real
        return self

    def sign(self) -> int:
        """Certified sign: exact, never approximate."""
        sa, sb = sign_of_real(self.a), sign_of_real(self.b)
        if sa == 0 and sb == 0:
            return 0
        if sa >= 0 and sb >= 0:
            return 1
        if sa <= 0 and sb <= 0:
            return -1
        # opposite signs: compare |a| with |b|*sqrt(5) via squares
        cmp = sign_of_real(self.a * self.a - 5 * self.b * self.b)
        if cmp == 0:
            raise ArithmeticError("a**2 = 5*b**2 with a, b != 0 is impossible")
        return cmp if sa > 0 else -cmp

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt5"))

    def __repr__(self):
        return f"Sqrt5Rational({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return format_rational(self.a)
        tail = f"{format_rational(abs(self.b))}*sqrt(5)"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        sep = "+" if self.b > 0 else "-"
        return f"{format_rational(self.a)}{sep}{tail}"
