"""JSON ingestion and serialization with located error messages."""

import json

import pytest

from exacteig import (
    InvalidSpectrum,
    SchemaError,
    matrix_to_json,
    parse_matrix_json,
    parse_spectrum_json,
    spectrum_to_json,
    vector_to_json,
)

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
