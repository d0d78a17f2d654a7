"""JSON wire format for matrices, spectra, and vectors.

Matrices travel as ``{"rows": R, "cols": C, "entries": [[...]]}`` with
every entry a scalar string in the exact grammar of
:mod:`exacteig.scalars` (e.g. ``"-3/2"``, ``"2+i"``, ``"1/2-3i"``);
spectra as ``{"eigenvalues": [{"value": "...", "multiplicity": k}]}``.
Schema violations raise :class:`~exacteig.errors.SchemaError` with the
offending location in the message.

One tokenizer and one formatter, both in :mod:`exacteig.scalars`, serve
scalars, matrices and vectors alike. A matrix document's entries are
tokenized straight into the reduced integer parts of each entry, from
which ``matrices`` builds the planes with one lcm; matrix and vector
text is written from the planes, each part reduced by one gcd with the
common denominator. No scalar object is built on either way.
"""

from __future__ import annotations

import json

from .errors import DivisionByZero, ParseError, SchemaError
from .matrices import Matrix
from .scalars import _scalar_parts, format_scalar, parse_scalar
from .spectra import Spectrum

__all__ = [
    "matrix_to_json",
    "parse_matrix_json",
    "parse_spectrum_json",
    "spectrum_to_json",
    "vector_to_json",
]


def _loads(text):
    """``json.loads`` with every failure a SchemaError: malformed text, a
    number past the digit limit, or nesting past the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def parse_matrix_json(text):
    """Parse the matrix wire format (a JSON string) into a Matrix."""
    data = _loads(text)
    if not isinstance(data, dict):
        raise SchemaError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise SchemaError(f"matrix document is missing {key!r}")
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
               for n in (rows, cols)):
        raise SchemaError("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise SchemaError(f"entries must be a list of {rows} rows")
    parts = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"row {i} must be a list of {cols} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise SchemaError(
                    f"entry ({i},{j}) must be a scalar string")
            try:
                parts.append(_scalar_parts(cell))
            except (ParseError, DivisionByZero) as exc:
                raise SchemaError(
                    f"entry ({i},{j}): {exc}") from exc
    return Matrix._from_parts(rows, cols, parts)


def matrix_to_json(matrix):
    """Matrix → wire-format dict (serialize with ``json.dumps``)."""
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": matrix._texts(),
    }


def parse_spectrum_json(text):
    """Parse the spectrum wire format (a JSON string) into a Spectrum."""
    data = _loads(text)
    if not isinstance(data, dict) or "eigenvalues" not in data:
        raise SchemaError(
            "spectrum document must be an object with 'eigenvalues'")
    items = data["eigenvalues"]
    if not isinstance(items, list) or not items:
        raise SchemaError("'eigenvalues' must be a non-empty list")
    pairs = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"eigenvalue {idx} must be an object")
        if "value" not in item or "multiplicity" not in item:
            raise SchemaError(
                f"eigenvalue {idx} needs 'value' and 'multiplicity'")
        value, mult = item["value"], item["multiplicity"]
        if not isinstance(value, str):
            raise SchemaError(f"eigenvalue {idx}: value must be a string")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(
                f"eigenvalue {idx}: multiplicity must be a positive integer")
        try:
            pairs.append((parse_scalar(value), mult))
        except (ParseError, DivisionByZero) as exc:
            raise SchemaError(f"eigenvalue {idx}: {exc}") from exc
    return Spectrum(pairs)


def spectrum_to_json(spectrum):
    """Spectrum → wire-format dict."""
    return {
        "eigenvalues": [
            {"value": format_scalar(v), "multiplicity": m}
            for v, m in spectrum.pairs
        ],
    }


def vector_to_json(vector):
    """Vector → list of scalar strings."""
    return vector._texts()
