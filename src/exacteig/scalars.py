"""Exact scalars: the number types, text parsing, and formatting.

``Rational`` is :class:`fractions.Fraction` itself, which keeps the
reduced, positive-denominator normal form, and :class:`GaussianRational`
pairs two of them. Matrices do not store these objects (see
``exacteig.matrices``); they build them on demand when entries are read
out. This module also defines the canonical text form used across the
CLI and JSON interfaces: :func:`format_rational` and
:func:`format_scalar` write it, while ``repr`` and ``str`` of a
``Fraction`` are Python's own (``Fraction(3, 2)``, ``3/2``).

Floats never enter: a ``Fraction`` mixes with floats like any
``Fraction``, but :class:`GaussianRational`, :func:`to_scalar` and
everything built on them accept only ``int`` and ``Fraction``.

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

One tokenizer, ``_scalar_parts``, reads text into the reduced integer
parts (re_num, re_den, im_num, im_den) and checks the canonical form on
them and the text; one formatter, ``_scalar_text``, writes the text of
such parts. :func:`parse_scalar` and :func:`format_scalar` wrap them,
and ``matrices`` and ``io_json`` use them to read and write matrices
and vectors without building a scalar per entry.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

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


Rational = Fraction
_FRACTION_ZERO = Fraction(0)


def _as_rational(value, what):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("_real", "_imag")

    def __init__(self, re=0, im=0):
        self._real = _as_rational(re, "real part")
        self._imag = _as_rational(im, "imaginary part")

    @classmethod
    def _make(cls, re, im):
        self = object.__new__(cls)
        self._real = re
        self._imag = im
        return self

    def __reduce__(self):
        return GaussianRational._make, (self._real, self._imag)

    @property
    def re(self):
        return self._real

    @property
    def im(self):
        return self._imag

    def conjugate(self):
        return GaussianRational._make(self._real, -self._imag)

    def is_real(self):
        return not self._imag

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return GaussianRational._make(other, _FRACTION_ZERO)
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(self._real + w._real, self._imag + w._imag)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(self._real - w._real, self._imag - w._imag)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational._make(w._real - self._real, w._imag - self._imag)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        a, b = self._real, self._imag
        c, d = w._real, w._imag
        return GaussianRational._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        c, d = w._real, w._imag
        norm = c * c + d * d
        if not norm:
            raise DivisionByZero("division by zero scalar")
        a, b = self._real, self._imag
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
            base = ONE / self
            exponent = -exponent
        else:
            base = self
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __neg__(self):
        return GaussianRational._make(-self._real, -self._imag)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self._real) or bool(self._imag)

    def __eq__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self._real == w._real and self._imag == w._imag

    def __hash__(self):
        # Consistent with equality against Fraction and int when im == 0.
        if not self._imag:
            return hash(self._real)
        return hash((self._real, self._imag))

    def __repr__(self):
        if not self._imag:
            return format_rational(self._real)
        sign = "+" if self._imag > 0 else "-"
        return f"({format_rational(self._real)}{sign}{format_rational(abs(self._imag))}i)"


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


def _rational_parts(text):
    """(numerator, denominator, canonical) of ``[-]digits[/digits]``:
    the value reduced, with a positive denominator, and whether ``text``
    is its canonical form (no leading zero, no ``-0``, and a denominator
    of at least 2 coprime to the numerator, or none)."""
    num, slash, den = text.partition("/")
    digits = num.lstrip("-")
    canonical = digits[0] != "0" or num == "0"
    if not slash:
        return _int_from_digits(num), 1, canonical
    d = _int_from_digits(den)
    if not d:
        raise DivisionByZero("rational with zero denominator")
    n = _int_from_digits(num)
    g = gcd(n, d)
    return n // g, d // g, canonical and g == 1 and d != 1 and den[0] != "0"


def _imaginary_parts(text):
    """(numerator, denominator, canonical) of an imaginary coefficient's
    text: an optional sign, then a magnitude, which a bare ``i`` leaves
    out for 1 (``"1i"`` is not canonical)."""
    magnitude = text.lstrip("+-")
    if not magnitude:
        return (-1 if text == "-" else 1), 1, True
    n, d, canonical = _rational_parts(magnitude)
    if text[0] == "-":
        n = -n
    return n, d, canonical and n != 0 and magnitude != "1"


def _scalar_parts(text):
    """The scalar grammar's tokenizer: (re_num, re_den, im_num, im_den)
    of canonical scalar text, each part reduced with a positive
    denominator.

    Raises DivisionByZero on a zero denominator literal such as
    ``"1/0"``, and ParseError on malformed input, on an integer past the
    digit limit of int conversion, and on any text that is not the
    canonical form of its value (``"2/4"``, ``"1i"``), naming that form.
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    real, imag = m.group("re"), m.group("im1")
    if real is None:
        a, b = 0, 1
        c, d, canonical = _imaginary_parts(m.group("im2"))
    else:
        a, b, canonical = _rational_parts(real)
        if imag is None:
            c, d = 0, 1
        else:
            c, d, imag_canonical = _imaginary_parts(imag)
            canonical = canonical and a != 0 and imag_canonical
    if not canonical:
        raise ParseError(
            f"non-canonical scalar {text!r}; its canonical form is "
            f"{_scalar_text(a, b, c, d)!r}")
    return a, b, c, d


def parse_scalar(text):
    """Parse the canonical scalar grammar into a :class:`GaussianRational`.

    Raises DivisionByZero on a zero denominator literal such as
    ``"1/0"``, and ParseError on malformed input and on any text that is
    not the canonical form of its value (``"2/4"``, ``"1i"``).
    """
    a, b, c, d = _scalar_parts(text)
    return GaussianRational._make(Fraction(a, b), Fraction(c, d))


def _rational_text(num, den):
    """Canonical text of num/den, reduced with den > 0.

    Raises DigitLimitExceeded when a part has more digits than Python
    converts to text."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise DigitLimitExceeded(
            "result has an integer beyond the "
            f"{sys.get_int_max_str_digits()}-digit limit of int-to-text "
            "conversion") from exc


def _scalar_text(re_num, re_den, im_num, im_den):
    """The scalar grammar's formatter: canonical text of
    re_num/re_den + (im_num/im_den)·i, each part reduced with a positive
    denominator."""
    if not im_num:
        return _rational_text(re_num, re_den)
    if im_den == 1 and (im_num == 1 or im_num == -1):
        imag = "i"
    else:
        imag = _rational_text(abs(im_num), im_den) + "i"
    if not re_num:
        return imag if im_num > 0 else "-" + imag
    sign = "+" if im_num > 0 else "-"
    return _rational_text(re_num, re_den) + sign + imag


def format_rational(r):
    """Canonical text of a Fraction: ``"3"``, ``"-3/2"``.

    Raises DigitLimitExceeded when a part has more digits than Python
    converts to text."""
    return _rational_text(r.numerator, r.denominator)


def format_scalar(z):
    """Canonical text of a scalar; exact inverse of :func:`parse_scalar`."""
    z = to_scalar(z)
    re_part, im_part = z.re, z.im
    return _scalar_text(re_part.numerator, re_part.denominator,
                        im_part.numerator, im_part.denominator)


def to_scalar(value):
    """Coerce int, Fraction, GaussianRational, or grammar text to a
    GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
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
