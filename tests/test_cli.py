"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import re
import sys

import pytest

import exacteig
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

    def test_spectrum_with_generated_input_is_2(self, run, write_json):
        spec = write_json(spectrum_to_json(SHORTCUT_SPECTRUM))
        code, out, err = run("bench", "--dim", "3", "--spectrum", spec)
        assert code == 2 and out == ""
        assert "--spectrum" in err

    @pytest.mark.parametrize("options", [
        ("--dim", "5", "--seed", "3"), ("--dim", "5"), ("--seed", "0")])
    def test_generator_options_with_matrix_file_are_2(self, run, write_json,
                                                      options):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, err = run("bench", path, *options)
        assert code == 2 and out == ""
        assert all(flag in err for flag in options if flag.startswith("--"))

    def test_no_speedup_claim_in_output(self, run):
        code, out, _ = run("bench", "--dim", "3", "--seed", "5")
        assert code == 0
        assert "speedup" not in out.lower()
        assert "faster" not in out.lower()


# Per-eigenvalue (value, kappa, oracle) counts as (mults, adds, divs) of
# ``bench --dim d --seed s``, recorded before vectors moved to integer
# planes.
PINNED_BENCH_COUNTS = {
    (2, 0): [("-4", (6, 2, 0), (0, 0, 0)), ("-3", (6, 2, 0), (1, 0, 0))],
    (2, 1): [("-1", (6, 2, 0), (4, 2, 0)), ("3", (6, 2, 0), (2, 0, 0))],
    (2, 2): [("-4", (6, 2, 0), (4, 2, 0)), ("1", (6, 2, 0), (4, 2, 0))],
    (2, 3): [("-1", (6, 2, 0), (1, 0, 0)), ("1", (6, 2, 0), (2, 0, 0))],
    (2, 4): [("-4", (6, 2, 0), (4, 2, 0)), ("0", (6, 2, 0), (4, 2, 0))],
    (3, 0): [("-4", (21, 12, 0), (16, 5, 5)), ("-3", (21, 12, 0), (20, 9, 5)),
             ("3", (30, 18, 0), (22, 11, 5))],
    (3, 1): [("-2", (21, 12, 0), (20, 10, 4)),
             ("-1", (21, 12, 0), (22, 11, 5)),
             ("3", (21, 12, 0), (22, 11, 5))],
    (3, 2): [("-4", (21, 12, 0), (22, 11, 5)), ("1", (57, 33, 0), (12, 6, 0))],
    (3, 3): [("-4", (21, 12, 0), (17, 6, 5)), ("-1", (21, 12, 0), (17, 7, 4)),
             ("1", (21, 12, 0), (17, 6, 5))],
    (3, 4): [("-4", (21, 12, 0), (16, 5, 5)), ("0", (34, 20, 0), (8, 4, 0))],
    (4, 0): [("-4", (52, 36, 0), (62, 31, 9)),
             ("-3", (216, 140, 16), (44, 22, 10)),
             ("3", (52, 36, 0), (60, 30, 18))],
    (4, 1): [("-2", (84, 60, 0), (45, 14, 19)),
             ("-1", (52, 36, 0), (47, 16, 19)),
             ("3", (146, 82, 16), (33, 11, 10))],
    (4, 2): [("-4", (216, 140, 16), (44, 22, 10)),
             ("1", (152, 92, 16), (44, 22, 10))],
    (4, 3): [("-4", (52, 36, 0), (62, 31, 19)),
             ("-1", (52, 36, 0), (60, 30, 18)),
             ("1", (210, 134, 16), (41, 19, 10))],
    (4, 4): [("-4", (192, 124, 12), (34, 14, 8)),
             ("0", (146, 86, 16), (41, 19, 10))],
    (5, 0): [("-4", (557, 391, 46), (100, 50, 30)),
             ("-3", (440, 295, 50), (104, 52, 32)),
             ("3", (105, 80, 0), (132, 66, 46))],
    (5, 1): [("-2", (565, 395, 50), (104, 52, 32)),
             ("-1", (105, 80, 0), (130, 65, 45)),
             ("3", (432, 291, 46), (100, 50, 30))],
    (5, 2): [("-4", (416, 278, 33), (69, 32, 17)),
             ("1", (305, 185, 50), (99, 47, 32))],
    (5, 3): [("-4", (105, 80, 0), (118, 52, 46)),
             ("-1", (534, 369, 50), (101, 49, 32)),
             ("1", (510, 350, 50), (104, 52, 32))],
    (5, 4): [("-4", (426, 288, 33), (74, 37, 17)),
             ("0", (315, 195, 50), (104, 52, 32))],
    (6, 0): [("-4", (1190, 872, 108), (182, 82, 70)),
             ("-3", (996, 714, 108), (200, 100, 70)),
             ("3", (985, 703, 108), (189, 89, 70))],
    (6, 1): [("-2", (1178, 877, 97), (188, 94, 64)),
             ("-1", (186, 150, 0), (236, 116, 90)),
             ("3", (976, 704, 86), (158, 79, 49))],
    (6, 2): [("-4", (970, 698, 86), (158, 79, 49)),
             ("1", (760, 524, 81), (158, 79, 49))],
    (6, 3): [("-4", (186, 150, 0), (238, 118, 90)),
             ("-1", (1168, 856, 108), (196, 96, 70)),
             ("1", (1120, 824, 86), (158, 79, 49))],
    (6, 4): [("-4", (976, 704, 81), (158, 79, 49)),
             ("0", (748, 512, 86), (158, 79, 49))],
}


def _bench_counts(output):
    """(kappa totals, oracle totals, per-eigenvalue rows) of a bench
    report, without the wall times."""
    payload = json.loads(output)

    def triple(stats):
        return stats["scalar_mults"], stats["scalar_adds"], \
            stats["scalar_divs"]

    return (triple(payload["methods"]["kappa"]),
            triple(payload["methods"]["oracle"]),
            [(row["value"], triple(row["kappa"]), triple(row["oracle"]))
             for row in payload["per_eigenvalue"]])


class TestPinnedBenchCounts:
    """Operation counts are part of the bench contract: a change of
    storage or kernels must leave them exactly as recorded."""

    def test_readme_example(self, run, write_json):
        code, out, _ = run("bench", write_json(matrix_to_json(SHORTCUT)),
                           "--json")
        assert code == 0
        assert _bench_counts(out) == (
            (12, 4, 0), (8, 4, 0),
            [("2", (6, 2, 0), (4, 2, 0)), ("5", (6, 2, 0), (4, 2, 0))])

    @pytest.mark.parametrize("dim,seed", sorted(PINNED_BENCH_COUNTS))
    def test_generated_inputs(self, run, dim, seed):
        code, out, _ = run("bench", "--dim", str(dim), "--seed", str(seed),
                           "--json")
        assert code == 0
        kappa, oracle, rows = _bench_counts(out)
        assert rows == PINNED_BENCH_COUNTS[dim, seed]
        assert kappa == tuple(map(sum, zip(*[k for _, k, _ in rows])))
        assert oracle == tuple(map(sum, zip(*[o for _, _, o in rows])))


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

    @pytest.mark.parametrize("text", ["1/0", "0/0"])
    def test_zero_denominator_entry_is_2_with_location(self, run,
                                                       write_json, text):
        path = write_json({"rows": 1, "cols": 1, "entries": [[text]]})
        code, out, err = run("charpoly", path)
        assert code == 2 and out == ""
        assert err == ("error: entry (0,0): rational with zero "
                       "denominator\n")

    @pytest.mark.parametrize("command", ["charpoly", "check"])
    def test_non_square_matrix_is_2(self, run, write_json, command):
        path = write_json({"rows": 2, "cols": 3,
                           "entries": [["1", "2", "3"], ["4", "5", "6"]]})
        code, out, err = run(command, path)
        assert code == 2 and out == ""
        assert err == ("error: characteristic polynomial needs a square "
                       "matrix\n")

    @staticmethod
    def _run_reading(run, write_json, role, path):
        """Run a command that reads ``path`` as its matrix or --spectrum."""
        if role == "matrix":
            return run("charpoly", str(path))
        matrix = write_json(matrix_to_json(SHORTCUT))
        return run("eigenvectors", matrix, "--spectrum", str(path))

    @pytest.mark.parametrize("role,prefix,suffix", [
        ("matrix", "", ""), ("spectrum", '{"eigenvalues": ', "}")])
    def test_deeply_nested_json_is_2(self, run, write_json, tmp_path, role,
                                     prefix, suffix):
        path = tmp_path / "deep.json"
        path.write_text(prefix + "[" * 100000 + "]" * 100000 + suffix)
        code, out, err = self._run_reading(run, write_json, role, path)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON:")

    @pytest.mark.parametrize("role", ["matrix", "spectrum"])
    def test_non_utf8_file_is_2_naming_it(self, run, write_json, tmp_path,
                                          role):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = self._run_reading(run, write_json, role, path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text")


# (non-canonical text, canonical text of the same value)
NON_CANONICAL = [
    ("01", "1"), ("-0", "0"), ("2/4", "1/2"), ("1/1", "1"), ("0/5", "0"),
    ("1/01", "1"), ("0i", "0"), ("-0i", "0"), ("00i", "0"),
    ("1+0i", "1"), ("0+1i", "i"), ("1i", "i"), ("-1i", "-i"),
]


class TestCanonicalGrammar:
    """Every value has one text form; any other spelling is unusable
    input (exit 2) wherever a scalar is read."""

    @pytest.mark.parametrize("text,canonical", NON_CANONICAL)
    def test_matrix_entry_is_2_with_location(self, run, write_json, text,
                                             canonical):
        path = write_json({"rows": 1, "cols": 1, "entries": [[text]]})
        code, out, err = run("charpoly", path)
        assert code == 2 and out == ""
        assert err == (f"error: entry (0,0): non-canonical scalar "
                       f"{text!r}; its canonical form is {canonical!r}\n")

    @pytest.mark.parametrize("text,canonical", NON_CANONICAL)
    def test_spectrum_value_is_2_with_location(self, run, write_json, text,
                                               canonical):
        matrix = write_json({"rows": 1, "cols": 1,
                             "entries": [[canonical]]})
        spec = write_json({"eigenvalues": [
            {"value": text, "multiplicity": 1}]})
        code, out, err = run("eigenvectors", matrix, "--spectrum", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: eigenvalue 0: non-canonical scalar")

    @pytest.mark.parametrize("text,canonical", NON_CANONICAL)
    def test_target_is_2(self, run, write_json, text, canonical):
        matrix = write_json({"rows": 1, "cols": 1,
                             "entries": [[canonical]]})
        spec = write_json({"eigenvalues": [
            {"value": canonical, "multiplicity": 1}]})
        code, out, err = run("eigenvectors", matrix, "--spectrum", spec,
                             f"--target={text}")
        assert code == 2 and out == ""
        assert err == (f"error: non-canonical scalar {text!r}; its "
                       f"canonical form is {canonical!r}\n")

    @pytest.mark.parametrize("text", ["1/0", "0/0"])
    def test_zero_denominator_target_is_2(self, run, write_json, text):
        matrix = write_json(matrix_to_json(SHORTCUT))
        code, out, err = run("eigenvectors", matrix, f"--target={text}")
        assert code == 2 and out == ""
        assert err == (f"error: --target {text}: rational with zero "
                       "denominator\n")


class TestCharpolyCount:
    """The CLI passes the parsed spectrum, or None, through to the
    library, which finds or verifies it: one characteristic polynomial
    per call."""

    CASES = [
        ("diagonalize", SHORTCUT, None),
        ("jordan", JORDAN_CELL, None),
        ("diagonalize", SHORTCUT, SHORTCUT_SPECTRUM),
        ("jordan", SPIRAL, SPIRAL_SPECTRUM),
        ("ode", SHORTCUT, SHORTCUT_SPECTRUM),
    ]

    @pytest.fixture
    def charpoly_calls(self, monkeypatch):
        original = exacteig.spectra.charpoly
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if ((name == "exacteig" or name.startswith("exacteig."))
                    and getattr(module, "charpoly", None) is original):
                monkeypatch.setattr(module, "charpoly", counting)
        return calls

    @pytest.mark.parametrize(
        "command,matrix,spec", CASES,
        ids=["diagonalize", "jordan", "diagonalize-spectrum",
             "jordan-spectrum", "ode-spectrum"])
    def test_one_per_call(self, run, write_json, charpoly_calls, command,
                          matrix, spec):
        argv = [command, write_json(matrix_to_json(matrix))]
        if spec is not None:
            argv += ["--spectrum", write_json(spectrum_to_json(spec))]
        code, _, err = run(*argv)
        assert code == 0, err
        assert len(charpoly_calls) == 1


class TestParserReuse:
    """The parser is built once per process; a sequence of calls must
    behave as if each had a fresh parser."""

    def test_sequence_matches_fresh_parsers(self, run, write_json):
        matrix = write_json(matrix_to_json(SHORTCUT))
        spec = write_json(spectrum_to_json(SHORTCUT_SPECTRUM))
        calls = [
            ["eigenvectors", matrix, "--left", "--target", "5", "--json"],
            ["eigenvectors", matrix],
            ["charpoly", matrix, "--no-roots"],
            ["charpoly", matrix],
            ["power", matrix, "--n", "3", "--json"],
            ["power", matrix],
            ["diagonalize", matrix, "--spectrum", spec],
            ["jordan", matrix],
            ["ode", matrix, "--no-realify"],
            ["ode", matrix],
            ["bench", "--dim", "3"],
            ["eigenvectors", matrix, "--method", "bogus"],
            ["check", matrix, "--json"],
            ["--help"],
            [],
        ]

        def without_walls(result):
            code, out, err = result
            return code, re.sub(r"wall \d+ ns", "wall", out), err

        in_sequence = [without_walls(run(*argv)) for argv in calls]
        fresh = []
        for argv in calls:
            exacteig.cli._build_parser.cache_clear()
            fresh.append(without_walls(run(*argv)))
        assert in_sequence == fresh
        assert [code for code, _, _ in in_sequence] == \
            [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 2]
