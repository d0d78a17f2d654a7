"""Exact scalars: the number types, text parsing, and formatting.

:class:`Rational` and :class:`GaussianRational` compose
:class:`fractions.Fraction`, which keeps the reduced,
positive-denominator normal form; :class:`GaussianRational` pairs two of
them. Matrices do not store these objects (see ``exacteig.matrices``);
they build them on demand when entries are read out. This module also
defines the canonical text form used across the CLI and JSON interfaces.

Scalar grammar (no whitespace anywhere)::

    scalar := real | imag | real imag
    real   := ['-'] digits ['/' digits]
    imag   := sign [digits ['/' digits]] 'i'
    digits := one or more of the ASCII digits 0-9

where ``sign`` is mandatory between a real and an imaginary part and
optional on a standalone imaginary part. ``"i"`` and ``"-i"`` mean ±1i,
and ``"3/2i"`` means (3/2)i. Examples: ``3``, ``-3/2``, ``i``, ``2i``,
``1-1/2i``, ``-1/2+3/4i``.

Every value has exactly one text form, the one :func:`format_scalar`
writes: fractions in lowest terms with no denominator 1, no leading
zeros, no ``-0``, no zero part beside a nonzero one, and no coefficient
1 on ``i``. :func:`parse_scalar` rejects any other spelling of a value
(``"01"``, ``"2/4"``, ``"1/1"``, ``"0i"``, ``"1i"``, ``"1+0i"``).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DigitLimitExceeded, DivisionByZero, ParseError

__all__ = [
    "GaussianRational",
    "IMAG_UNIT",
    "ONE",
    "Rational",
    "ZERO",
    "format_rational",
    "format_scalar",
    "parse_scalar",
    "scalar_key",
    "to_scalar",
]


class Rational:
    """Exact rational number, always reduced with positive denominator."""

    __slots__ = ("_f",)

    def __init__(self, numerator=0, denominator=1):
        if isinstance(numerator, Rational):
            numerator = numerator._f
        elif not isinstance(numerator, int):
            raise TypeError(f"numerator must be int, not {type(numerator).__name__}")
        if not isinstance(denominator, int):
            raise TypeError(f"denominator must be int, not {type(denominator).__name__}")
        if denominator == 0:
            raise DivisionByZero("rational with zero denominator")
        self._f = Fraction(numerator, denominator)

    @classmethod
    def _wrap(cls, frac):
        self = object.__new__(cls)
        self._f = frac
        return self

    @property
    def numerator(self):
        return self._f.numerator

    @property
    def denominator(self):
        return self._f.denominator

    def __add__(self, other):
        if isinstance(other, Rational):
            return Rational._wrap(self._f + other._f)
        if isinstance(other, int):
            return Rational._wrap(self._f + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rational):
            return Rational._wrap(self._f - other._f)
        if isinstance(other, int):
            return Rational._wrap(self._f - other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return Rational._wrap(other - self._f)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Rational._wrap(self._f * other._f)
        if isinstance(other, int):
            return Rational._wrap(self._f * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            if not other._f:
                raise DivisionByZero("division by zero rational")
            return Rational._wrap(self._f / other._f)
        if isinstance(other, int):
            if other == 0:
                raise DivisionByZero("division by zero")
            return Rational._wrap(self._f / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            if not self._f:
                raise DivisionByZero("division by zero rational")
            return Rational._wrap(other / self._f)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0 and not self._f:
            raise DivisionByZero("zero raised to a negative power")
        return Rational._wrap(self._f ** exponent)

    def __neg__(self):
        return Rational._wrap(-self._f)

    def __pos__(self):
        return self

    def __abs__(self):
        return Rational._wrap(abs(self._f))

    def __bool__(self):
        return bool(self._f)

    def _cmp_value(self, other):
        if isinstance(other, Rational):
            return other._f
        if isinstance(other, int):
            return other
        return None

    def __eq__(self, other):
        value = self._cmp_value(other)
        if value is None:
            return NotImplemented
        return self._f == value

    def __lt__(self, other):
        value = self._cmp_value(other)
        if value is None:
            return NotImplemented
        return self._f < value

    def __le__(self, other):
        value = self._cmp_value(other)
        if value is None:
            return NotImplemented
        return self._f <= value

    def __gt__(self, other):
        value = self._cmp_value(other)
        if value is None:
            return NotImplemented
        return self._f > value

    def __ge__(self, other):
        value = self._cmp_value(other)
        if value is None:
            return NotImplemented
        return self._f >= value

    def __hash__(self):
        # Consistent with equality against plain ints.
        if self._f.denominator == 1:
            return hash(self._f.numerator)
        return hash((self._f.numerator, self._f.denominator))

    def __repr__(self):
        if self._f.denominator == 1:
            return str(self._f.numerator)
        return f"{self._f.numerator}/{self._f.denominator}"


def _as_rational(value, what):
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value)
    raise TypeError(f"{what} must be int or Rational, not {type(value).__name__}")


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("_real", "_imag")

    def __init__(self, re=0, im=0):
        self._real = _as_rational(re, "real part")
        self._imag = _as_rational(im, "imaginary part")

    @classmethod
    def _make(cls, re_frac, im_frac):
        self = object.__new__(cls)
        self._real = Rational._wrap(re_frac)
        self._imag = Rational._wrap(im_frac)
        return self

    @property
    def re(self):
        return self._real

    @property
    def im(self):
        return self._imag

    def conjugate(self):
        return GaussianRational._make(self._real._f, -self._imag._f)

    def is_real(self):
        return not self._imag._f

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational._make(Fraction(other), Fraction(0))
        if isinstance(other, Rational):
            return GaussianRational._make(other._f, Fraction(0))
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(self._real._f + w._real._f, self._imag._f + w._imag._f)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(self._real._f - w._real._f, self._imag._f - w._imag._f)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(w._real._f - self._real._f, w._imag._f - self._imag._f)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        a, b = self._real._f, self._imag._f
        c, d = w._real._f, w._imag._f
        return GaussianRational._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        c, d = w._real._f, w._imag._f
        norm = c * c + d * d
        if not norm:
            raise DivisionByZero("division by zero scalar")
        a, b = self._real._f, self._imag._f
        return GaussianRational._make((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w.__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            base = GaussianRational._make(Fraction(1), Fraction(0)) / self
            exponent = -exponent
        else:
            base = self
        result = GaussianRational._make(Fraction(1), Fraction(0))
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __neg__(self):
        return GaussianRational._make(-self._real._f, -self._imag._f)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self._real._f) or bool(self._imag._f)

    def __eq__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self._real._f == w._real._f and self._imag._f == w._imag._f

    def __hash__(self):
        # Consistent with equality against Rational and int when im == 0.
        if not self._imag._f:
            return hash(self._real)
        return hash((self._real._f.numerator, self._real._f.denominator,
                     self._imag._f.numerator, self._imag._f.denominator))

    def __repr__(self):
        if not self._imag._f:
            return repr(self._real)
        return f"({self._real!r}{'+' if self._imag._f > 0 else '-'}{abs(self._imag)!r}i)"


_SCALAR_RE = re.compile(
    r"""(?:(?P<re>-?[0-9]+(?:/[0-9]+)?)          # real part
          (?:(?P<im1>[+-](?:[0-9]+(?:/[0-9]+)?)?)i)?  # signed imaginary part
        |(?P<im2>-?(?:[0-9]+(?:/[0-9]+)?)?)i     # standalone imaginary part
       )\Z""",
    re.VERBOSE,
)


def _int_from_digits(text):
    try:
        return int(text)
    except ValueError as exc:  # the grammar admits only the digit limit
        raise ParseError(
            f"integer of {len(text.lstrip('-'))} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit of int "
            "conversion") from exc


def _rational_from_text(text):
    if "/" in text:
        num, den = text.split("/")
        return Rational(_int_from_digits(num), _int_from_digits(den))
    return Rational(_int_from_digits(text))


def parse_scalar(text):
    """Parse the canonical scalar grammar into a :class:`GaussianRational`.

    Raises DivisionByZero on a zero denominator literal such as
    ``"1/0"``, and ParseError on malformed input and on any text that is
    not the canonical form of its value (``"2/4"``, ``"1i"``).
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    if m.group("im2") is not None:
        sign_mag = m.group("im2")
        re_part = Rational(0)
        im_part = _signed_magnitude(sign_mag)
    else:
        re_part = _rational_from_text(m.group("re"))
        im1 = m.group("im1")
        im_part = _signed_magnitude(im1) if im1 is not None else Rational(0)
    z = GaussianRational(re_part, im_part)
    canonical = format_scalar(z)
    if canonical != text:
        raise ParseError(
            f"non-canonical scalar {text!r}; its canonical form is "
            f"{canonical!r}")
    return z


def _signed_magnitude(text):
    """Imaginary-part coefficient from its text, where a bare sign (or
    empty string) means magnitude 1."""
    sign = 1
    if text.startswith(("+", "-")):
        if text[0] == "-":
            sign = -1
        text = text[1:]
    if not text:
        return Rational(sign)
    return _rational_from_text(text) * sign


def format_rational(r):
    """Canonical text of a Rational: ``"3"``, ``"-3/2"``.

    Raises DigitLimitExceeded when a part has more digits than Python
    converts to text."""
    try:
        if r.denominator == 1:
            return str(r.numerator)
        return f"{r.numerator}/{r.denominator}"
    except ValueError as exc:
        raise DigitLimitExceeded(
            "result has an integer beyond the "
            f"{sys.get_int_max_str_digits()}-digit limit of int-to-text "
            "conversion") from exc


def format_scalar(z):
    """Canonical text of a scalar; exact inverse of :func:`parse_scalar`."""
    z = to_scalar(z)
    re_part, im_part = z.re, z.im
    if not im_part:
        return format_rational(re_part)
    mag = abs(im_part)
    imag = "i" if mag == 1 else f"{format_rational(mag)}i"
    if not re_part:
        return imag if im_part > 0 else f"-{imag}"
    sign = "+" if im_part > 0 else "-"
    return f"{format_rational(re_part)}{sign}{imag}"


def to_scalar(value):
    """Coerce int, Rational, GaussianRational, or grammar text to a
    GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Rational)):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


def scalar_key(z):
    """Deterministic sort key: ascending by real part, then imaginary."""
    z = to_scalar(z)
    return (z.re, z.im)


ZERO = GaussianRational()
ONE = GaussianRational(1)
IMAG_UNIT = GaussianRational(0, 1)
