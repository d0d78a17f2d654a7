"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import sys

import pytest

from exacteig import matrix_to_json, spectrum_to_json
from exacteig.cli import main

from worked import (
    COMPLEX_FIVE,
    COMPLEX_FIVE_SPECTRUM,
    CROSS_DEMO,
    DEFECTIVE_TRIO,
    FOUR_BY_FOUR_MIXED,
    IRRATIONAL_PAIR,
    JORDAN_CELL,
    SHORTCUT,
    SHORTCUT_SPECTRUM,
    SPIRAL,
    SPIRAL_SPECTRUM,
)


@pytest.fixture
def write_json(tmp_path):
    counter = {"n": 0}

    def writer(payload):
        counter["n"] += 1
        path = tmp_path / f"input{counter['n']}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return writer


@pytest.fixture
def run(capsys):
    def runner(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exit_info:   # argparse usage errors
            code = exit_info.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


class TestEigenvectors:
    def test_single_target_json_is_bit_exact(self, run, write_json):
        path = write_json(matrix_to_json(FOUR_BY_FOUR_MIXED))
        code, out, err = run("eigenvectors", path, "--target", "0",
                             "--json")
        assert code == 0 and err == ""
        assert out == '[["1","1","1","2"]]\n'

    def test_all_eigenvalues_json(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("eigenvectors", path, "--json")
        assert code == 0
        assert json.loads(out) == {"eigenvalues": [
            {"value": "2", "multiplicity": 1, "vectors": [["1", "-1"]]},
            {"value": "5", "multiplicity": 1, "vectors": [["1", "2"]]},
        ]}

    def test_text_output_mentions_multiplicity(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("eigenvectors", path)
        assert code == 0
        assert "eigenvalue 2 (multiplicity 1)" in out

    def test_supplied_spectrum(self, run, write_json):
        matrix = write_json(matrix_to_json(COMPLEX_FIVE))
        spec = write_json(spectrum_to_json(COMPLEX_FIVE_SPECTRUM))
        code, out, _ = run("eigenvectors", matrix, "--spectrum", spec,
                           "--target", "1", "--json")
        assert code == 0
        assert json.loads(out) == [["1", "1", "-1", "0", "2"]]

    @pytest.mark.parametrize("method", ["kappa", "cross", "oracle",
                                        "intersect"])
    def test_methods_agree_on_line_eigenspace(self, run, write_json,
                                              method):
        path = write_json(matrix_to_json(CROSS_DEMO))
        code, out, _ = run("eigenvectors", path, "--target", "0",
                           "--method", method, "--json")
        assert code == 0
        assert json.loads(out) == [["1", "6", "-13"]]

    def test_left_subcommand_and_flag_agree(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        _, via_subcommand, _ = run("left", path, "--json")
        _, via_flag, _ = run("eigenvectors", path, "--left", "--json")
        assert via_subcommand == via_flag
        assert json.loads(via_subcommand)["eigenvalues"][0]["vectors"] \
            == [["2", "-1"]]


class TestFactorizationCommands:
    def test_diagonalize_json_reconstructs(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("diagonalize", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"P", "D", "P_inv"}
        assert payload["D"]["entries"] == [["2", "0"], ["0", "5"]]

    def test_jordan_json(self, run, write_json):
        path = write_json(matrix_to_json(JORDAN_CELL))
        code, out, _ = run("jordan", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["J"]["entries"] == [["2", "1"], ["0", "2"]]

    def test_jordan_accepts_supplied_spectrum(self, run, write_json):
        matrix = write_json(matrix_to_json(SPIRAL))
        spec = write_json(spectrum_to_json(SPIRAL_SPECTRUM))
        code, out, _ = run("jordan", matrix, "--spectrum", spec, "--json")
        assert code == 0
        assert set(json.loads(out)) == {"P", "J", "P_inv"}

    def test_charpoly_text_and_roots(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("charpoly", path)
        assert code == 0
        assert out.splitlines()[0] == "l^2 - 7*l + 10"
        assert "roots:" in out

    def test_charpoly_no_roots(self, run, write_json):
        path = write_json(matrix_to_json(IRRATIONAL_PAIR))
        code, out, _ = run("charpoly", path, "--no-roots")
        assert code == 0
        assert out == "l^2 - 2\n"

    def test_charpoly_json(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("charpoly", path, "--json")
        payload = json.loads(out)
        assert payload["charpoly"] == "l^2 - 7*l + 10"
        assert payload["coefficients"] == ["10", "-7", "1"]
        assert payload["roots"][0] == {"value": "2", "multiplicity": 1}

    def test_check_no_is_still_success(self, run, write_json):
        path = write_json(matrix_to_json(DEFECTIVE_TRIO))
        code, out, _ = run("check", path)
        assert code == 0               # a clean "no" is not an error
        assert "diagonalizable: no" in out
        assert "witness" in out

    def test_check_json(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("check", path, "--json")
        assert code == 0
        assert json.loads(out) == {"diagonalizable": True,
                                   "witness": None}

    def test_power(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("power", path, "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["entries"] == [["11", "7"], ["14", "18"]]

    def test_power_takes_no_spectrum(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        spec = write_json(spectrum_to_json(SHORTCUT_SPECTRUM))
        code, _, err = run("power", path, "--n", "2", "--spectrum", spec)
        assert code == 2
        assert "--spectrum" in err

    def test_ode_text(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("ode", path)
        assert code == 0
        assert out == "x(t) = c1*[1,-1]^T*exp(2t) + c2*[1,2]^T*exp(5t)\n"

    def test_ode_no_realify(self, run, write_json):
        from worked import ROTATION
        path = write_json(matrix_to_json(ROTATION))
        realified = run("ode", path)
        kept_complex = run("ode", path, "--no-realify")
        assert realified[0] == kept_complex[0] == 0
        assert "cos(" in realified[1] and "sin(" in realified[1]
        assert "cos(" not in kept_complex[1]


class TestBench:
    def test_report_schema(self, run):
        code, out, _ = run("bench", "--dim", "3", "--seed", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"input", "methods", "per_eigenvalue"}
        assert set(payload["methods"]) == {"kappa", "oracle"}
        for method in payload["methods"].values():
            assert set(method) == {"scalar_mults", "scalar_adds",
                                   "scalar_divs", "wall_time_ns"}

    def test_counts_deterministic_and_method_separated(self, run):
        def counts(output):
            payload = json.loads(output)
            return {name: {k: v for k, v in stats.items()
                           if k != "wall_time_ns"}
                    for name, stats in payload["methods"].items()}

        first = run("bench", "--dim", "3", "--seed", "5", "--json")
        second = run("bench", "--dim", "3", "--seed", "5", "--json")
        assert counts(first[1]) == counts(second[1])
        assert counts(first[1])["kappa"] != counts(first[1])["oracle"]

    def test_matrix_file_input(self, run, write_json):
        path = write_json(matrix_to_json(CROSS_DEMO))
        code, out, _ = run("bench", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["input"]["dim"] == 3
        values = [row["value"] for row in payload["per_eigenvalue"]]
        assert values == ["-4", "0", "3"]

    def test_no_speedup_claim_in_output(self, run):
        code, out, _ = run("bench", "--dim", "3", "--seed", "5")
        assert code == 0
        assert "speedup" not in out.lower()
        assert "faster" not in out.lower()


class TestExitCodes:
    def test_missing_file_is_2(self, run):
        code, _, err = run("eigenvectors", "/nonexistent/matrix.json")
        assert code == 2 and "error:" in err

    def test_schema_error_is_2(self, run, write_json):
        path = write_json({"rows": 1})
        code, _, err = run("eigenvectors", path)
        assert code == 2 and "cols" in err

    def test_usage_error_is_2(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, _, _ = run("power", path)    # missing required --n
        assert code == 2

    def test_irrational_spectrum_is_3_with_hint(self, run, write_json):
        path = write_json(matrix_to_json(IRRATIONAL_PAIR))
        code, _, err = run("eigenvectors", path)
        assert code == 3
        assert "--spectrum" in err

    def test_defective_diagonalize_is_4_with_hint(self, run, write_json):
        path = write_json(matrix_to_json(DEFECTIVE_TRIO))
        code, _, err = run("diagonalize", path)
        assert code == 4
        assert "jordan" in err

    def test_wrong_spectrum_is_5(self, run, write_json):
        matrix = write_json(matrix_to_json(SHORTCUT))
        spec = write_json({"eigenvalues": [
            {"value": "2", "multiplicity": 1},
            {"value": "6", "multiplicity": 1},
        ]})
        code, _, err = run("eigenvectors", matrix, "--spectrum", spec)
        assert code == 5 and "error:" in err

    def test_entry_past_digit_limit_is_2_with_location(self, run,
                                                        write_json):
        path = write_json({"rows": 1, "cols": 1,
                           "entries": [["1" + "0" * 5000]]})
        code, _, err = run("charpoly", path)
        assert code == 2 and "entry (0,0)" in err and "digit" in err

    def test_output_past_digit_limit_is_1_naming_it(self, run, write_json):
        path = write_json({"rows": 2, "cols": 2,
                           "entries": [["2", "0"], ["0", "1"]]})
        code, out, err = run("power", path, "--n", "20000")
        assert code == 1 and out == ""
        assert f"{sys.get_int_max_str_digits()}-digit limit" in err

    def test_non_ascii_digit_is_2(self, run, write_json):
        path = write_json({"rows": 1, "cols": 1, "entries": [["\u0663"]]})
        code, _, err = run("charpoly", path)
        assert code == 2 and "entry (0,0)" in err

    def test_boolean_rows_is_2(self, run, write_json):
        path = write_json({"rows": True, "cols": 1, "entries": [["1"]]})
        code, _, err = run("charpoly", path)
        assert code == 2
        assert err == "error: rows and cols must be positive integers\n"

    def test_boolean_multiplicity_is_2(self, run, write_json):
        matrix = write_json(matrix_to_json(SHORTCUT))
        spec = write_json({"eigenvalues": [
            {"value": "2", "multiplicity": True},
            {"value": "5", "multiplicity": 1},
        ]})
        code, out, err = run("eigenvectors", matrix, "--spectrum", spec,
                             "--json")
        assert code == 2 and out == ""
        assert err == ("error: eigenvalue 0: multiplicity must be a "
                       "positive integer\n")

    def test_target_not_in_spectrum_is_5(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, _, err = run("eigenvectors", path, "--target", "9")
        assert code == 5 and "--target" in err
