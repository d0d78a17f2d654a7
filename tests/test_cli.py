"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exacteig
from exacteig import (Matrix, Singular, Spectrum, format_scalar,
                      left_product_eigenvectors, matrix_to_json,
                      oracle_eigenvectors, product_eigenvectors,
                      spectrum_to_json, vector_to_json)
from exacteig.cli import main
from test_factorizations import corpus_recipe

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


def _main_on(documents, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, where ``documents``
    maps each placeholder in ``argv`` to the JSON payload of a file that
    is written for the call."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in documents.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


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

    def test_intersect_returns_the_whole_eigenspace(self, run, write_json):
        # P·(J₂(2) ⊕ [3])·P⁻¹ for P = [[1, 2, 0], [1, 1, 1], [0, 1, 2]]:
        # no basis vector of the intersection is an eigenvector
        path = write_json({"rows": 3, "cols": 3, "entries": [
            ["8/3", "-2/3", "1/3"], ["1/3", "5/3", "2/3"],
            ["-2/3", "2/3", "8/3"]]})
        code, intersect, _ = run("eigenvectors", path, "--method",
                                 "intersect", "--json")
        _, oracle, _ = run("eigenvectors", path, "--method", "oracle",
                           "--json")
        assert code == 0 and intersect == oracle
        assert [space["vectors"] for space in json.loads(
            intersect)["eigenvalues"]] == [[["1", "1", "0"]],
                                           [["0", "1", "2"]]]

    def test_left_subcommand_and_flag_agree(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        _, via_subcommand, _ = run("left", path, "--json")
        _, via_flag, _ = run("eigenvectors", path, "--left", "--json")
        assert via_subcommand == via_flag
        assert json.loads(via_subcommand)["eigenvalues"][0]["vectors"] \
            == [["2", "-1"]]

    def test_left_oracle_agrees(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        _, kappa, _ = run("left", path, "--json")
        code, oracle, _ = run("eigenvectors", path, "--method", "oracle",
                              "--left", "--json")
        assert code == 0 and oracle == kappa

    @pytest.mark.parametrize("command", ["eigenvectors", "left"])
    @pytest.mark.parametrize("entries,target,vectors", [
        ([["0", "-1"], ["1", "0"]], "-i",
         {"eigenvectors": [["1", "i"]], "left": [["1", "-i"]]}),
        ([["-1/2", "1"], ["0", "3"]], "-1/2",
         {"eigenvectors": [["1", "0"]], "left": [["7", "-2"]]}),
        ([["-1", "2"], ["-2", "-1"]], "-1-2i",
         {"eigenvectors": [["1", "-i"]], "left": [["1", "i"]]}),
    ], ids=["-i", "-1/2", "-1-2i"])
    def test_negative_target_as_its_own_argument(self, run, write_json,
                                                 command, entries, target,
                                                 vectors):
        # argparse alone reads "-i" as an option and "--target" as bare
        path = write_json({"rows": 2, "cols": 2, "entries": entries})
        code, out, err = run(command, path, "--target", target, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == vectors[command]
        assert run(command, path, f"--target={target}", "--json") == \
            (code, out, err)

    @pytest.mark.parametrize("command", ["eigenvectors", "left"])
    @pytest.mark.parametrize("option", ["--t", "--ta", "--targ", "--targe"])
    @pytest.mark.parametrize("entries,target", [
        ([["0", "-1"], ["1", "0"]], "-i"),
        ([["-1/2", "1"], ["0", "3"]], "-1/2"),
    ], ids=["-i", "-1/2"])
    def test_negative_target_after_an_abbreviation(self, run, write_json,
                                                   command, option, entries,
                                                   target):
        # argparse takes any unambiguous prefix of --target for it
        path = write_json({"rows": 2, "cols": 2, "entries": entries})
        joined = run(command, path, f"--target={target}", "--json")
        assert joined[0] == 0
        assert run(command, path, option, target, "--json") == joined
        assert run(command, path, f"{option}={target}", "--json") == joined

    @pytest.mark.parametrize("options,message", [
        (("--method", "cross"), "--method cross only applies to 3x3 "
                                "matrices"),
        (("--method", "intersect", "--left"), "--method intersect does "
                                              "not support --left"),
    ], ids=["cross-on-2x2", "left-intersect"])
    def test_method_that_does_not_apply_is_2(self, run, write_json, options,
                                             message):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, err = run("eigenvectors", path, *options)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


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

    def test_jordan_exits_6_when_the_basis_will_not_invert(
            self, run, write_json, monkeypatch):
        def singular(p):
            raise Singular("matrix is singular")

        # a certified basis is invertible, so Singular there is a fault
        monkeypatch.setattr(exacteig.jordan, "inverse", singular)
        code, out, err = run("jordan", write_json(matrix_to_json(JORDAN_CELL)))
        assert (code, out) == (6, "")
        assert "singular" in err

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

    def test_charpoly_json_reads_the_coefficients_once(
            self, run, write_json, monkeypatch):
        reads = []
        coeffs = exacteig.Polynomial.coeffs
        monkeypatch.setattr(exacteig.Polynomial, "coeffs", property(
            lambda p: reads.append(p) or coeffs.fget(p)))
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("charpoly", path, "--json", "--no-roots")
        assert code == 0
        assert json.loads(out)["charpoly"] == "l^2 - 7*l + 10"
        assert len(reads) == 1

    def test_check_no_is_still_success(self, run, write_json):
        path = write_json(matrix_to_json(DEFECTIVE_TRIO))
        code, out, _ = run("check", path)
        assert code == 0               # a clean "no" is not an error
        assert "diagonalizable: no" in out
        assert "witness" in out

    def test_check_yes(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        code, out, _ = run("check", path)
        assert code == 0
        assert out == "diagonalizable: yes\n"

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

    def test_power_text(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        assert run("power", path, "--n", "2") == (0, "[11, 7]\n[14, 18]\n",
                                                  "")

    def test_negative_power_is_2(self, run, write_json):
        path = write_json(matrix_to_json(SHORTCUT))
        assert run("power", path, "--n", "-1") == (
            2, "", "error: --n must be nonnegative\n")

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

    # a complex matrix's spectrum is given: its charpoly is not real
    @pytest.mark.parametrize("rows,expected", [
        ([[1]], "c1*[1]^T*exp(t)"),
        ([[-1]], "c1*[1]^T*exp(-t)"),
        ([[2]], "c1*[1]^T*exp(2t)"),
        ([["-1/2"]], "c1*[1]^T*exp((-1/2)t)"),
        ([["3/2i"]], "c1*[1]^T*exp((3/2i)t)"),
        ([["1-2i"]], "c1*[1]^T*exp((1-2i)t)"),
        ([["-1/2", "-3/2"], ["3/2", "-1/2"]],
         "c1*([1,0]^T*cos((3/2)t) - [0,-1]^T*sin((3/2)t))*exp((-1/2)t)"
         " + c2*([0,-1]^T*cos((3/2)t) + [1,0]^T*sin((3/2)t))"
         "*exp((-1/2)t)"),
        ([[2, 1, 0], [0, 2, 1], [0, 0, 2]],
         "c1*[1,0,0]^T*exp(2t) + c2*([1,0,0]^T*t + [0,1,0]^T)*exp(2t)"
         " + c3*([1,0,0]^T*t^2/2 + [0,1,0]^T*t + [0,0,1]^T)*exp(2t)"),
    ], ids=["1", "-1", "2", "-1/2", "3/2i", "1-2i", "cos-sin", "jordan-3"])
    def test_ode_rates(self, run, write_json, rows, expected):
        a = Matrix(rows)
        spectrum = ([] if a.is_real() else ["--spectrum", write_json(
            spectrum_to_json(Spectrum([(rows[0][0], 1)])))])
        code, out, _ = run("ode", write_json(matrix_to_json(a)), *spectrum)
        assert code == 0
        assert out == f"x(t) = {expected}\n"

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

    @pytest.mark.parametrize("options,message", [
        ((), "bench needs a matrix file or --dim"),
        (("--dim", "1"), "--dim must be at least 2"),
    ], ids=["no-input", "dim-1"])
    def test_generated_input_needs_a_dimension_of_2(self, run, options,
                                                    message):
        assert run("bench", *options) == (2, "", f"error: {message}\n")

    def test_no_speedup_claim_in_output(self, run):
        code, out, _ = run("bench", "--dim", "3", "--seed", "5")
        assert code == 0
        assert "speedup" not in out.lower()
        assert "faster" not in out.lower()


# Per-eigenvalue (value, kappa, oracle) counts as (mults, adds, divs) of
# ``bench --dim d --seed s``, recorded with forward elimination and
# back-substitution, with every eigenvector checked by (A - lambda*I)*v = 0
# on the integer planes, and with the kernel of A - lambda*I taken first
# for a repeated eigenvalue.
PINNED_BENCH_COUNTS = {
    (2, 0): [("-4", (4, 2, 0), (0, 0, 0)), ("-3", (4, 2, 0), (1, 0, 0))],
    (2, 1): [("-1", (4, 2, 0), (4, 2, 0)), ("3", (4, 2, 0), (2, 0, 0))],
    (2, 2): [("-4", (4, 2, 0), (4, 2, 0)), ("1", (4, 2, 0), (4, 2, 0))],
    (2, 3): [("-1", (4, 2, 0), (1, 0, 0)), ("1", (4, 2, 0), (2, 0, 0))],
    (2, 4): [("-4", (4, 2, 0), (4, 2, 0)), ("0", (4, 2, 0), (4, 2, 0))],
    (3, 0): [("-4", (18, 12, 0), (14, 5, 3)), ("-3", (18, 12, 0), (16, 7, 3)),
             ("3", (27, 18, 0), (18, 9, 3))],
    (3, 1): [("-2", (18, 12, 0), (15, 7, 2)), ("-1", (18, 12, 0), (18, 9, 3)),
             ("3", (18, 12, 0), (18, 9, 3))],
    (3, 2): [("-4", (18, 12, 0), (18, 9, 3)), ("1", (30, 18, 0), (12, 6, 0))],
    (3, 3): [("-4", (18, 12, 0), (13, 4, 3)), ("-1", (18, 12, 0), (14, 7, 1)),
             ("1", (18, 12, 0), (14, 6, 2))],
    (3, 4): [("-4", (18, 12, 0), (12, 3, 3)), ("0", (26, 16, 0), (8, 4, 0))],
    (4, 0): [("-4", (48, 36, 0), (45, 23, 3)),
             ("-3", (72, 44, 8), (40, 20, 8)),
             ("3", (48, 36, 0), (41, 20, 9))],
    (4, 1): [("-2", (80, 60, 0), (33, 12, 9)),
             ("-1", (48, 36, 0), (36, 16, 8)), ("3", (61, 33, 8), (29, 9, 8))],
    (4, 2): [("-4", (72, 44, 8), (40, 20, 8)),
             ("1", (72, 44, 8), (40, 20, 8))],
    (4, 3): [("-4", (48, 36, 0), (45, 23, 10)),
             ("-1", (48, 36, 0), (41, 20, 9)),
             ("1", (69, 41, 8), (37, 17, 8))],
    (4, 4): [("-4", (63, 38, 5), (31, 14, 5)),
             ("0", (67, 39, 8), (35, 15, 8))],
    (5, 0): [("-4", (130, 80, 20), (80, 40, 20)),
             ("-3", (135, 83, 22), (85, 43, 22)),
             ("3", (100, 80, 0), (89, 46, 23))],
    (5, 1): [("-2", (136, 84, 22), (86, 44, 22)),
             ("-1", (100, 80, 0), (84, 42, 22)),
             ("3", (130, 80, 20), (80, 40, 20))],
    (5, 2): [("-4", (140, 90, 15), (65, 30, 15)),
             ("1", (131, 79, 22), (81, 39, 22))],
    (5, 3): [("-4", (100, 80, 0), (79, 37, 22)),
             ("-1", (131, 79, 22), (81, 39, 22)),
             ("1", (134, 82, 22), (84, 42, 22))],
    (5, 4): [("-4", (145, 95, 15), (70, 35, 15)),
             ("0", (135, 83, 22), (85, 43, 22))],
    (6, 0): [("-4", (216, 130, 44), (144, 70, 44)),
             ("-3", (226, 140, 44), (154, 80, 44)),
             ("3", (225, 139, 44), (153, 79, 44))],
    (6, 1): [("-2", (210, 130, 38), (138, 70, 38)),
             ("-1", (180, 150, 0), (152, 78, 44)),
             ("3", (247, 161, 38), (139, 71, 38))],
    (6, 2): [("-4", (247, 161, 38), (139, 71, 38)),
             ("1", (247, 161, 38), (139, 71, 38))],
    (6, 3): [("-4", (180, 150, 0), (152, 78, 44)),
             ("-1", (222, 136, 44), (150, 76, 44)),
             ("1", (247, 161, 38), (139, 71, 38))],
    (6, 4): [("-4", (247, 161, 38), (139, 71, 38)),
             ("0", (247, 161, 38), (139, 71, 38))],
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
    storage must leave them exactly as recorded, and a change of
    kernels or checks re-records them."""

    def test_readme_example(self, run, write_json):
        code, out, _ = run("bench", write_json(matrix_to_json(SHORTCUT)),
                           "--json")
        assert code == 0
        assert _bench_counts(out) == (
            (8, 4, 0), (8, 4, 0),
            [("2", (4, 2, 0), (4, 2, 0)), ("5", (4, 2, 0), (4, 2, 0))])

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

    @pytest.mark.parametrize("payload,code", [
        (matrix_to_json(SHORTCUT), 0), ({"rows": 1}, 2)],
        ids=["valid", "malformed"])
    def test_python_m_exacteig(self, write_json, payload, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(exacteig.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "exacteig", "charpoly",
             write_json(payload)], env=env, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == code, done.stderr
        assert ("error:" in done.stderr) == bool(code)

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

    def test_an_unexpected_fault_is_6_without_a_traceback(
            self, run, write_json, monkeypatch):
        def broken(*args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(exacteig.jordan, "inverse", broken)
        code, out, err = run("jordan", write_json(matrix_to_json(JORDAN_CELL)))
        assert (code, out) == (6, "")
        assert err == "error: unexpected RuntimeError: kernel fault\n"

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

    @pytest.mark.parametrize("command", ["eigenvectors", "left"])
    @pytest.mark.parametrize("text,message", [
        ("1/0", "error: --target 1/0: rational with zero denominator\n"),
        ("2/4", "error: non-canonical scalar '2/4'; its canonical form "
                "is '1/2'\n")], ids=["zero-denominator", "non-canonical"])
    def test_target_is_read_before_the_spectrum(self, run, write_json,
                                                command, text, message):
        # the matrix's spectrum escapes Q(i), which alone exits 3
        matrix = write_json(matrix_to_json(IRRATIONAL_PAIR))
        code, out, err = run(command, matrix, f"--target={text}")
        assert (code, out, err) == (2, "", message)
        code, out, _ = run(command, matrix, "--target=1")
        assert code == 3 and out == ""


class TestCharpolyCount:
    """The CLI passes the parsed spectrum, or None, through to the
    library, which finds or verifies it: one characteristic polynomial
    computed per call."""

    CASES = [
        ("diagonalize", SHORTCUT, None),
        ("jordan", JORDAN_CELL, None),
        ("diagonalize", SHORTCUT, SHORTCUT_SPECTRUM),
        ("jordan", SPIRAL, SPIRAL_SPECTRUM),
        ("ode", SHORTCUT, SHORTCUT_SPECTRUM),
    ]

    @pytest.fixture
    def computed(self, monkeypatch):
        """The matrices whose characteristic polynomial was computed, not
        read off the matrix."""
        original = exacteig.spectra._characteristic_polynomial
        computed = []
        monkeypatch.setattr(exacteig.spectra, "_characteristic_polynomial",
                            lambda a: computed.append(a) or original(a))
        return computed

    @pytest.mark.parametrize(
        "command,matrix,spec", CASES,
        ids=["diagonalize", "jordan", "diagonalize-spectrum",
             "jordan-spectrum", "ode-spectrum"])
    def test_one_per_call(self, run, write_json, computed, command,
                          matrix, spec):
        argv = [command, write_json(matrix_to_json(matrix))]
        if spec is not None:
            argv += ["--spectrum", write_json(spectrum_to_json(spec))]
        code, _, err = run(*argv)
        assert code == 0, err
        assert len(computed) == 1


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


TOP_USAGE = (
    "usage: exacteig [-h]\n"
    "                {eigenvectors,left,diagonalize,jordan,charpoly,check,"
    "power,ode,bench}\n"
    "                ...\n")
CHARPOLY_USAGE = "usage: exacteig charpoly [-h] [--json] [--no-roots] matrix\n"
POWER_USAGE = "usage: exacteig power [-h] [--json] --n N matrix\n"
TOP_HELP = TOP_USAGE + """
Exact eigenvector extraction over the Gaussian rationals.

positional arguments:
  {eigenvectors,left,diagonalize,jordan,charpoly,check,power,ode,bench}
    eigenvectors        eigenvector bases via shifted-matrix products
    left                left (row) eigenvector bases
    diagonalize         exact eigendecomposition A = P D P^-1
    jordan              exact Jordan decomposition A = P J P^-1
    charpoly            characteristic polynomial (and exact roots)
    check               diagonalizability verdict with witness
    power               exact matrix power
    ode                 general solution of x' = Ax
    bench               operation-count comparison of extraction methods

options:
  -h, --help            show this help message and exit
"""
CHARPOLY_HELP = CHARPOLY_USAGE + """
positional arguments:
  matrix      path to a matrix JSON file

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
  --no-roots  skip root finding
"""


class TestPinnedUsage:
    """Exit code, stdout and stderr of help and usage errors, as argparse
    of Python 3.11 prints them 80 columns wide. ``{m}`` and ``{s}`` stand
    for the paths of SHORTCUT and its spectrum. The arguments after a
    subcommand go straight to its parser; an empty argv, one that names
    no subcommand and one with arguments left over go through the top
    parser, so each text is the one argparse gives for the whole argv."""

    CASES = [
        ([], 2, "", TOP_USAGE + "exacteig: error: the following arguments "
         "are required: command\n"),
        (["--help"], 0, TOP_HELP, ""),
        (["bogus"], 2, "", TOP_USAGE + "exacteig: error: argument command: "
         "invalid choice: 'bogus' (choose from 'eigenvectors', 'left', "
         "'diagonalize', 'jordan', 'charpoly', 'check', 'power', 'ode', "
         "'bench')\n"),
        (["charpoly"], 2, "", CHARPOLY_USAGE + "exacteig charpoly: error: "
         "the following arguments are required: matrix\n"),
        (["charpoly", "-h"], 0, CHARPOLY_HELP, ""),
        (["power", "{m}"], 2, "", POWER_USAGE + "exacteig power: error: the "
         "following arguments are required: --n\n"),
        (["power", "{m}", "--n", "x"], 2, "", POWER_USAGE + "exacteig power: "
         "error: argument --n: invalid int value: 'x'\n"),
        (["eigenvectors", "{m}", "--method", "bogus"], 2, "",
         "usage: exacteig eigenvectors [-h] [--json] [--spectrum SPECTRUM]\n"
         "                             [--target TARGET]\n"
         "                             [--method {kappa,cross,oracle,"
         "intersect}]\n"
         "                             [--left]\n"
         "                             matrix\n"
         "exacteig eigenvectors: error: argument --method: invalid choice: "
         "'bogus' (choose from 'kappa', 'cross', 'oracle', 'intersect')\n"),
        (["charpoly", "{m}", "--spectrum", "{s}"], 2, "", TOP_USAGE +
         "exacteig: error: unrecognized arguments: --spectrum {s}\n"),
        (["charpoly", "{m}", "--js"], 0,
         '{"charpoly":"l^2 - 7*l + 10","coefficients":["10","-7","1"],'
         '"roots":[{"value":"2","multiplicity":1},'
         '{"value":"5","multiplicity":1}]}\n', ""),
        (["--json", "charpoly", "{m}"], 2, "", TOP_USAGE +
         "exacteig: error: unrecognized arguments: --json\n"),
    ]

    @pytest.mark.parametrize("argv,code,out,err", CASES,
                             ids=[" ".join(c[0]) or "empty" for c in CASES])
    def test_usage_is_pinned(self, run, write_json, monkeypatch, argv, code,
                             out, err):
        monkeypatch.setenv("COLUMNS", "80")
        m = write_json(matrix_to_json(SHORTCUT))
        s = write_json(spectrum_to_json(SHORTCUT_SPECTRUM))

        def placed(text):
            return text.replace("{m}", m).replace("{s}", s)

        assert run(*map(placed, argv)) == (code, placed(out), placed(err))


class TestWholeEigensystem:
    """Without --target, eigenvectors and left read one eigensystem (of
    Aᵀ for left eigenvectors, transposed), and print what the per-target
    product methods give."""

    @pytest.mark.parametrize("command", [
        ["eigenvectors"], ["eigenvectors", "--left"], ["left"]],
        ids=["right", "eigenvectors-left", "left"])
    @pytest.mark.parametrize("matrix", [CROSS_DEMO, FOUR_BY_FOUR_MIXED],
                             ids=["simple", "repeated"])
    def test_each_shift_is_built_once(self, run, write_json, monkeypatch,
                                      command, matrix):
        # the product columns run on the shift rows of A − λI; the
        # matrix A − λI is built only for a repeated λ, to eliminate
        shifts, matrices = [], []
        for name, built in (("_shift_rows", shifts),
                            ("subtract_scalar_diag", matrices)):
            original = getattr(exacteig.charmatrix, name)
            monkeypatch.setattr(
                exacteig.charmatrix, name,
                lambda a, lam, _f=original, _built=built:
                _built.append(lam) or _f(a, lam))
        code, _, err = run(command[0], write_json(matrix_to_json(matrix)),
                           *command[1:], "--json")
        assert code == 0, err
        assert len(shifts) == len(set(shifts)) == 3
        assert len(matrices) == len(set(matrices)) <= 3

    @pytest.mark.parametrize("command", [
        ["eigenvectors"], ["eigenvectors", "--left"], ["left"]],
        ids=["right", "eigenvectors-left", "left"])
    @given(case=corpus_recipe())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_target_methods(self, command, case):
        a, s = case
        per_target = (left_product_eigenvectors if "left" in " ".join(command)
                      else product_eigenvectors)
        expected = {"eigenvalues": [
            {"value": format_scalar(value), "multiplicity": mult,
             "vectors": [vector_to_json(v)
                         for v in per_target(a, s, value)]}
            for value, mult in s.pairs]}
        code, out, _ = _main_on(
            {"m": matrix_to_json(a), "s": spectrum_to_json(s)},
            [command[0], "m", *command[1:], "--spectrum", "s", "--json"])
        assert code == 0
        assert out == json.dumps(expected, separators=(",", ":")) + "\n"


class TestLeftTarget:
    """With --target, ``left``, ``eigenvectors --left`` and its oracle
    read the one eigenvalue's right eigenvectors of Aᵀ and print them
    transposed, as ``left_product_eigenvectors`` and the oracle on Aᵀ
    give them. The target goes as its own argument, so a negative or
    non-real one is read too."""

    @pytest.mark.parametrize("command", [
        ["left"], ["eigenvectors", "--left"],
        ["eigenvectors", "--left", "--method", "oracle"]],
        ids=["left", "eigenvectors-left", "eigenvectors-left-oracle"])
    @given(case=corpus_recipe(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_library(self, command, case, data):
        a, s = case
        value, mult = data.draw(st.sampled_from(s.pairs))
        if "oracle" in command:
            vectors = [v.transposed()
                       for v in oracle_eigenvectors(a.transpose(), value)]
        else:
            vectors = left_product_eigenvectors(a, s, value)
        code, out, err = _main_on(
            {"m": matrix_to_json(a), "s": spectrum_to_json(s)},
            [command[0], "m", *command[1:], "--spectrum", "s",
             "--target", format_scalar(value)])
        assert (code, err) == (0, "")
        assert out == (f"eigenvalue {format_scalar(value)} (multiplicity "
                       f"{mult}), left eigenvectors:\n"
                       + "".join(f"  {v!r}\n" for v in vectors))


class TestGaussian1x1:
    """A 1×1 matrix with a Gaussian entry has a characteristic polynomial
    of degree 1 with a nonreal coefficient; its one root is the entry,
    so every command answers without --spectrum."""

    @pytest.mark.parametrize("entry,argv,out", [
        ("i", ["charpoly"], "l + (-i)\nroots: i (multiplicity 1)\n"),
        ("i", ["eigenvectors"],
         "eigenvalue i (multiplicity 1), eigenvectors:\n  [1]\n"),
        ("i", ["diagonalize", "--json"],
         '{"P":{"rows":1,"cols":1,"entries":[["1"]]},'
         '"D":{"rows":1,"cols":1,"entries":[["i"]]},'
         '"P_inv":{"rows":1,"cols":1,"entries":[["1"]]}}\n'),
        ("i", ["ode"], "x(t) = c1*[1]^T*exp(it)\n"),
        ("1+2i", ["charpoly"],
         "l + (-1-2i)\nroots: 1+2i (multiplicity 1)\n"),
        ("1+2i", ["eigenvectors"],
         "eigenvalue 1+2i (multiplicity 1), eigenvectors:\n  [1]\n"),
        ("1+2i", ["diagonalize", "--json"],
         '{"P":{"rows":1,"cols":1,"entries":[["1"]]},'
         '"D":{"rows":1,"cols":1,"entries":[["1+2i"]]},'
         '"P_inv":{"rows":1,"cols":1,"entries":[["1"]]}}\n'),
        ("1+2i", ["ode"], "x(t) = c1*[1]^T*exp((1+2i)t)\n"),
    ])
    def test_exits_0(self, entry, argv, out):
        assert _main_on({"m": {"rows": 1, "cols": 1, "entries": [[entry]]}},
                        [argv[0], "m", *argv[1:]]) == (0, out, "")


def test_target_is_declared_once():
    """``eigenvectors`` and ``left`` describe --target alike."""
    _, commands = exacteig.cli._build_parser()
    helps = [[action.help for action in commands[name]._actions
              if "--target" in action.option_strings]
             for name in ("eigenvectors", "left")]
    assert helps == [["one eigenvalue to extract (scalar string); "
                      "default: all"]] * 2


# canonical scalars, negative and non-real ones among them, and the
# spellings the grammar refuses
SCALARS = ["0", "1", "-1", "2", "-3", "1/2", "-2/3", "i", "-i", "2i",
           "1+i", "-1-2i", "-1/2+i"]
MALFORMED = ["x", "01", "2/4", "1/0", "1i"]


@st.composite
def cli_calls(draw):
    """(documents, argv) for one CLI call: a matrix document up to 4x4,
    non-square at times, triangular at times (its spectrum is then its
    diagonal), with now and then a malformed entry; an optional spectrum
    document; and one of the nine subcommands with its flags."""
    rows = draw(st.integers(1, 4))
    cols = rows if draw(st.integers(0, 5)) else draw(st.integers(1, 4))
    triangular = draw(st.booleans())
    entries = [[("0" if triangular and j < i else draw(st.sampled_from(
        MALFORMED if not draw(st.integers(0, 30)) else SCALARS)))
        for j in range(cols)] for i in range(rows)]
    documents = {"m": {"rows": rows, "cols": cols, "entries": entries}}
    diagonal = [entries[i][i] for i in range(min(rows, cols))]
    spectrum = draw(st.sampled_from(["none", "diagonal", "drawn"]))
    if spectrum == "diagonal":
        documents["s"] = {"eigenvalues": [
            {"value": value, "multiplicity": diagonal.count(value)}
            for value in dict.fromkeys(diagonal)]}
    elif spectrum == "drawn":
        documents["s"] = {"eigenvalues": [
            {"value": draw(st.sampled_from(SCALARS)),
             "multiplicity": draw(st.integers(0, 3))}
            for _ in range(draw(st.integers(1, 3)))]}
    command = draw(st.sampled_from([
        "eigenvectors", "left", "diagonalize", "jordan", "charpoly",
        "check", "power", "ode", "bench"]))
    argv = [command]
    if command != "bench" or draw(st.booleans()):
        argv.append("m")
    if command == "bench":
        if draw(st.booleans()):
            argv += ["--dim", str(draw(st.integers(2, 4)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(0, 9)))]
    if command in ("eigenvectors", "left") and draw(st.booleans()):
        argv += ["--target", draw(st.sampled_from(SCALARS + diagonal))]
    if command == "eigenvectors":
        argv += ["--method", draw(st.sampled_from(
            ["kappa", "cross", "oracle", "intersect"]))]
        if draw(st.booleans()):
            argv.append("--left")
    flags = {"charpoly": "--no-roots", "ode": "--no-realify"}
    if command in flags and draw(st.booleans()):
        argv.append(flags[command])
    if command == "power":
        argv += ["--n", str(draw(st.integers(-1, 5)))]
    if "s" in documents and command not in ("charpoly", "power"):
        argv += ["--spectrum", "s"]
    if draw(st.booleans()):
        argv.append("--json")
    return documents, argv


class TestExitCodeContract:
    """Every input ends in a documented exit code: main() returns one of
    0–5 and raises nothing, and a failure prints nothing on stdout and
    one ``error:`` line on stderr."""

    @given(call=cli_calls())
    @settings(max_examples=200, deadline=None)
    def test_every_input_ends_in_a_documented_code(self, call):
        code, out, err = _main_on(*call)
        assert 0 <= code <= 5
        if code:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n")
