"""JSON ingestion and serialization with located error messages."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import worked
from exacteig import (
    GaussianRational,
    InvalidSpectrum,
    Matrix,
    SchemaError,
    Vector,
    format_scalar,
    matrix_to_json,
    parse_matrix_json,
    parse_scalar,
    parse_spectrum_json,
    spectrum_to_json,
    vector_to_json,
)
from exacteig.scalars import _scalar_parts

from worked import (
    COMPLEX_FIVE,
    COMPLEX_FIVE_SPECTRUM,
    HALVES,
    SHORTCUT,
    SHORTCUT_SPECTRUM,
    v,
)


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("matrix", [SHORTCUT, HALVES, COMPLEX_FIVE],
                             ids=["integer", "fractional", "complex"])
    def test_round_trip(self, matrix):
        payload = matrix_to_json(matrix)
        assert parse_matrix_json(json.dumps(payload)) == matrix

    def test_payload_shape(self):
        payload = matrix_to_json(SHORTCUT)
        assert payload == {
            "rows": 2, "cols": 2,
            "entries": [["3", "1"], ["2", "4"]],
        }

    def test_entries_are_canonical_strings(self):
        payload = matrix_to_json(HALVES)
        assert payload["entries"][0] == ["3/2", "-1/2", "1/2"]


class TestMatrixErrors:
    @pytest.mark.parametrize("text,needle", [
        ('not json', "invalid JSON"),
        ('[]', "must be a JSON object"),
        ('{"rows": 2}', "missing 'cols'"),
        ('{"rows": 2, "cols": 2, "entries": [["1","2"]]}', "entries"),
        ('{"rows": 2, "cols": 2, "entries": [["1","2"],["3"]]}',
         "row 1"),
        ('{"rows": 2, "cols": 2, "entries": [["1","2"],["3","x"]]}',
         "entry (1,1)"),
        ('{"rows": 2, "cols": 2, "entries": [["1","2"],["3","1/0"]]}',
         "entry (1,1)"),
        pytest.param(
            '{"rows": 1, "cols": 1, "entries": [["1' + "0" * 5000 + '"]]}',
            "entry (0,0)", id="entry-past-digit-limit"),
        ('{"rows": true, "cols": 1, "entries": [["1"]]}', "positive"),
        ('{"rows": 1, "cols": true, "entries": [["1"]]}', "positive"),
        pytest.param(
            '{"rows": 1' + "0" * 5000 + ', "cols": 1, "entries": []}',
            "invalid JSON", id="json-number-past-digit-limit"),
    ])
    def test_locating_messages(self, text, needle):
        with pytest.raises(SchemaError) as excinfo:
            parse_matrix_json(text)
        assert needle in str(excinfo.value)


class TestSpectrumRoundTrip:
    @pytest.mark.parametrize("spec", [SHORTCUT_SPECTRUM,
                                      COMPLEX_FIVE_SPECTRUM],
                             ids=["integer", "complex"])
    def test_round_trip(self, spec):
        payload = spectrum_to_json(spec)
        assert parse_spectrum_json(json.dumps(payload)) == spec

    def test_payload_shape(self):
        assert spectrum_to_json(SHORTCUT_SPECTRUM) == {
            "eigenvalues": [
                {"value": "2", "multiplicity": 1},
                {"value": "5", "multiplicity": 1},
            ],
        }


class TestSpectrumErrors:
    def test_duplicate_value(self):
        text = json.dumps({"eigenvalues": [
            {"value": "1", "multiplicity": 1},
            {"value": "1", "multiplicity": 1},
        ]})
        with pytest.raises(InvalidSpectrum):
            parse_spectrum_json(text)

    @pytest.mark.parametrize("payload,needle", [
        ({"eigenvalues": []}, "non-empty"),
        ({"eigenvalues": [{"value": "1", "multiplicity": 0}]},
         "positive integer"),
        ({"eigenvalues": [{"value": "2+i"}]}, "'multiplicity'"),
        ({}, "eigenvalues"),
        ({"eigenvalues": [{"value": "1", "multiplicity": True}]},
         "positive integer"),
    ])
    def test_schema_violations(self, payload, needle):
        with pytest.raises(SchemaError) as excinfo:
            parse_spectrum_json(json.dumps(payload))
        assert needle in str(excinfo.value)


class TestVectorSerialization:
    def test_canonical_strings(self):
        assert vector_to_json(v([1, "-1/2", "2+i"])) == \
            ["1", "-1/2", "2+i"]


def digits(low, high):
    """Positive integers of ``low`` to ``high`` decimal digits."""
    return st.integers(low, high).flatmap(
        lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))


# zero parts, negatives, and numerators and denominators of 1-60 digits
parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda sign, num, den: Fraction(sign * num, den),
              st.sampled_from([1, -1]), digits(1, 60),
              st.one_of(st.just(1), digits(1, 60))))
wide_scalars = st.builds(GaussianRational, parts, parts)
grammar_soup = st.text(alphabet="0123456789/-+i", max_size=10)
cells = st.one_of(grammar_soup, wide_scalars.map(format_scalar))


def document(entries):
    return json.dumps({"rows": len(entries), "cols": len(entries[0]),
                       "entries": entries})


def outcome(parse, text):
    """The matrix that ``parse`` reads from ``text``, or the message of
    the SchemaError it raises."""
    try:
        return parse(text)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


def entry_texts(matrix):
    return [[format_scalar(matrix.entry(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


class TestOneTokenizerAndFormatter:
    """Scalars, matrices and vectors share one tokenizer and one
    formatter; the matrix route must agree with the scalar-by-scalar
    route it replaced, entry for entry and message for message."""

    @given(wide_scalars)
    def test_scalar_round_trip(self, z):
        text = format_scalar(z)
        assert parse_scalar(text) == z
        assert _scalar_parts(text) == (z.re.numerator, z.re.denominator,
                                       z.im.numerator, z.im.denominator)

    @given(st.lists(wide_scalars, min_size=4, max_size=4))
    def test_matrix_round_trip(self, values):
        matrix = Matrix([values[:2], values[2:]])
        payload = matrix_to_json(matrix)
        assert payload["entries"] == entry_texts(matrix)
        assert parse_matrix_json(json.dumps(payload)) == matrix

    @settings(max_examples=300)
    @given(grammar_soup)
    @example("1/0")
    @example("-0")
    @example("01")
    @example("2/4")
    @example("1/1")
    @example("0/3")
    @example("1/01")
    @example("1/02")
    @example("3-1/02i")
    @example("0i")
    @example("-0i")
    @example("1i")
    @example("-1/1i")
    @example("1+0i")
    @example("0+i")
    @example("3-01i")
    @example("+i")
    @example("1" + "0" * 5001 + "/1" + "0" * 5000)
    @example("1" + "0" * 5000 + "/0")
    @example("")
    def test_one_entry_matches_the_scalar_route(self, cell):
        text = document([[cell]])
        assert outcome(parse_matrix_json, text) == \
            outcome(ref.parse_matrix_json, text)

    @settings(max_examples=200)
    @given(st.lists(cells, min_size=4, max_size=4))
    def test_two_by_two_matches_the_scalar_route(self, texts):
        text = document([texts[:2], texts[2:]])
        assert outcome(parse_matrix_json, text) == \
            outcome(ref.parse_matrix_json, text)

    @pytest.mark.parametrize("cell,where", [
        ("1" + "0" * 5000, "(1,0)"),
        ("-1" + "0" * 5000, "(1,0)"),
        ("1/1" + "0" * 5000, "(1,0)"),
        ("2-1" + "0" * 5000 + "i", "(1,0)"),
    ], ids=["numerator", "negative", "denominator", "imaginary"])
    def test_integer_past_the_digit_limit_keeps_its_location(self, cell,
                                                             where):
        text = document([["1", "1/2"], [cell, "i"]])
        with pytest.raises(SchemaError) as excinfo:
            parse_matrix_json(text)
        assert str(excinfo.value) == (
            f"entry {where}: integer of 5001 digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit of int conversion")
        assert outcome(ref.parse_matrix_json, text) == \
            f"SchemaError: {excinfo.value}"


def worked_values():
    return [(name, value) for name, value in vars(worked).items()
            if isinstance(value, (Matrix, Vector))]


def gaussian_variants(matrix):
    """``matrix`` with real, rational and Gaussian entries."""
    return [matrix, matrix.scaled(Fraction(-7, 6)),
            matrix.scaled(GaussianRational(Fraction(1, 3), Fraction(-2, 5))),
            matrix - matrix.transpose().scaled(GaussianRational(0, 1))
            if matrix.is_square else matrix]


class TestTextFromThePlanes:
    """Matrix and vector text read off the integer planes equals
    ``format_scalar`` of each entry."""

    def assert_texts(self, matrix):
        texts = entry_texts(matrix)
        assert matrix_to_json(matrix)["entries"] == texts
        assert repr(matrix) == "Matrix([" + ", ".join(
            "[" + ", ".join(row) + "]" for row in texts) + "])"
        for j in range(matrix.cols):
            column = matrix.column(j)
            column_texts = [format_scalar(e) for e in column.entries]
            assert vector_to_json(column) == column_texts
            assert repr(column) == "[" + ", ".join(column_texts) + "]"
            assert vector_to_json(column.transposed()) == column_texts

    @pytest.mark.parametrize("name,value", worked_values(),
                             ids=[name for name, _ in worked_values()])
    def test_worked_examples(self, name, value):
        matrix = value._matrix if isinstance(value, Vector) else value
        for variant in gaussian_variants(matrix):
            self.assert_texts(variant)

    def test_corpus(self, corpus):
        for entry in corpus[:100]:
            for variant in gaussian_variants(entry.matrix):
                self.assert_texts(variant)
                self.assert_texts(variant.scaled(Fraction(1, 2 ** 70)))

    def test_large_common_denominator_of_reducible_entries(self):
        den = 2 ** 61 * 3 ** 40 * 7 ** 15
        numerators = [2 ** 61, -(3 ** 40) * 5, 7 ** 15 * 6, 1,
                      den - 1, -(2 ** 10) * 3 ** 5, den, 0, 2 * 3 * 7]
        entries = [[GaussianRational(Fraction(numerators[3 * i + j], den),
                                     Fraction(numerators[3 * j + i], den))
                    for j in range(3)] for i in range(3)]
        matrix = Matrix(entries)
        # one common denominator, which most entries reduce away from
        assert matrix._den == den
        assert len({e.re.denominator for row in entries for e in row}) > 4
        self.assert_texts(matrix)
