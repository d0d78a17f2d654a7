"""Exact scalars: construction helpers, text parsing, and formatting.

The scalar types themselves (:class:`Rational`, :class:`GaussianRational`)
come from the selected arithmetic backend (see ``exacteig._backend``);
this module adds the canonical text form used across the CLI and JSON
interfaces.

Scalar grammar (no whitespace anywhere)::

    scalar := real | imag | real imag
    real   := ['-'] digits ['/' digits]
    imag   := sign [digits ['/' digits]] 'i'
    digits := one or more of the ASCII digits 0-9

where ``sign`` is mandatory between a real and an imaginary part and
optional on a standalone imaginary part. ``"i"`` and ``"-i"`` mean ±1i,
and ``"3/2i"`` means (3/2)i. Examples: ``3``, ``-3/2``, ``i``, ``2i``,
``1-1/2i``, ``-1/2+3/4i``.
"""

from __future__ import annotations

import re
import sys

from ._backend import BACKEND_NAME, GaussianRational, Rational, active_backend
from .errors import DigitLimitExceeded, ParseError

__all__ = [
    "BACKEND_NAME",
    "GaussianRational",
    "IMAG_UNIT",
    "ONE",
    "Rational",
    "ZERO",
    "active_backend",
    "format_rational",
    "format_scalar",
    "parse_scalar",
    "scalar_key",
    "to_scalar",
]

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

    Raises ParseError on malformed input and DivisionByZero on a zero
    denominator literal such as ``"1/0"``.
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
    return GaussianRational(re_part, im_part)


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
