"""The benchmark's three workloads.

Each workload turns a seed into an endless stream of cases, times one
analysis per case, and checks the result outside the timed region with
the library's public checkers. A check also returns the canonical text
of the result, whose digest pins the output bit for bit.

Only names exported by ``exacteig``, plus ``exacteig.cli.main``, are
used, and always through the module attribute (``ee.charpoly``), so a
tracer that rebinds those attributes sees every call.

* ``corpus`` -- the test suite's recipe (n = 2..5, eigenvalues in -4..4,
  a planted Jordan block on every fourth seed) through the whole
  pipeline. Many small calls on one matrix: per-call work, recomputed
  facts and the ``matrix_power`` cache dominate.
* ``ladder`` -- n = 6..12 with planted Jordan blocks; each cycle has one
  matrix of every size and five more at the middle size n = 9, so the
  median rests on many matrices. Matrix kernels on growing entries
  dominate.
* ``cli_wide`` -- one ``exacteig.cli.main`` call per matrix on
  pre-written JSON files, with 3-digit eigenvalues and inputs that must
  end in a documented exit code. Root finding and the CLI/JSON layers
  dominate, and no matrix repeats, so no cache can help.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field

import exacteig as ee
import exacteig.cli

# -- canonical text ---------------------------------------------------------


def _spectrum_text(s):
    return [[ee.format_scalar(v), m] for v, m in s.pairs]


def _vectors_text(vectors):
    return [ee.vector_to_json(v) for v in vectors]


def _matrix_text(m):
    return ee.matrix_to_json(m)["entries"]


def _ode_text(terms):
    out = []
    for t in terms:
        trig = t.trig_part
        out.append([
            t.coefficient_label,
            ee.format_scalar(t.exponent),
            [[ee.vector_to_json(v), p, d] for v, p, d in t.vector_polynomial],
            None if trig is None else [
                trig.kind, ee.format_scalar(trig.beta),
                _vectors_text(trig.partner_vectors)],
        ])
    return out


def digest(text):
    """Short digest of one analysis's canonical output text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _dumps(payload):
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


# -- shared checks ----------------------------------------------------------


class CheckFailed(Exception):
    """An output failed a correctness check."""


def _require(condition, what):
    if not condition:
        raise CheckFailed(what)


def _jordan_block_sizes(j):
    """{eigenvalue: sizes, largest first} read off a Jordan matrix."""
    sizes = {}
    n = j.rows
    start = 0
    for col in range(1, n + 1):
        if col == n or not j.entry(col - 1, col):
            value = j.entry(start, start)
            sizes.setdefault(value, []).append(col - start)
            start = col
    return {v: tuple(sorted(s, reverse=True)) for v, s in sizes.items()}


def _planted_sizes(spectrum, blocks):
    blocks = blocks or {}
    return {ee.to_scalar(v): tuple(sorted(blocks.get(v, (1,) * m),
                                          reverse=True))
            for v, m in spectrum.pairs}


def _check_eigenspaces(a, spaces, oracle):
    """Residual-check every vector and compare each span with the
    oracle's; ``spaces`` and ``oracle`` map eigenvalue -> vectors."""
    for lam, vectors in spaces.items():
        _require(vectors, "empty eigenspace")
        for v in vectors:
            _require(ee.residual_check(a, lam, v), "eigenvector residual")
        _require(ee.span_equal(vectors, oracle[lam]), "span differs from oracle")


def _check_jordan(a, jordan, spectrum, blocks):
    _require(ee.matmul(ee.matmul(jordan.p, jordan.j), jordan.p_inv) == a,
             "P*J*P^-1 != A")
    _require(_jordan_block_sizes(jordan.j) == _planted_sizes(spectrum, blocks),
             "Jordan block sizes differ from the planted ones")


def _check_diagonalization(a, p, d, p_inv, spectrum):
    _require(ee.matmul(ee.matmul(p, d), p_inv) == a, "P*D*P^-1 != A")
    _require(tuple(d.entry(i, i) for i in range(d.rows)) == spectrum.expanded(),
             "diagonal differs from the spectrum")


def _is_diagonalizable(blocks):
    return not blocks or all(set(sizes) == {1} for sizes in blocks.values())


# -- generation helpers -----------------------------------------------------


@dataclass
class Case:
    """One input: the matrix, its planted spectrum and Jordan blocks
    ({eigenvalue: sizes}, None when semisimple), and for the CLI the
    command and its expected exit code."""

    index: int
    matrix: object
    spectrum: object
    blocks: dict | None
    kind: str = ""
    argv: list = field(default_factory=list)
    expected_code: int = 0


def _distinct(rng, count, low, high):
    values = []
    while len(values) < count:
        v = rng.randint(low, high)
        if v not in values:
            values.append(v)
    return values


def _conjugated(rng, canonical, entry_bound):
    """P*C*P^-1 for a seeded invertible integer P."""
    n = canonical.rows
    while True:
        p = ee.Matrix([[rng.randint(-entry_bound, entry_bound)
                        for _ in range(n)] for _ in range(n)])
        if ee.det(p):
            return ee.matmul(ee.matmul(p, canonical), ee.inverse(p))


# -- corpus -----------------------------------------------------------------

CORPUS_DIMS = (2, 3, 3, 4, 2, 3, 4, 2, 3, 5)
CORPUS_POWERS = (0, 1, 2, 3, 5, 8, 13)


def corpus_entry(seed):
    """(matrix, spectrum, blocks) drawn exactly as the test suite's
    ``build_corpus_entry`` draws them."""
    rng = ee.SplitMix64(seed)
    dim = CORPUS_DIMS[seed % len(CORPUS_DIMS)]
    distinct = rng.randint(1, min(3, dim))
    values = []
    while len(values) < distinct:
        candidate = rng.randint(-4, 4)
        if candidate not in values:
            values.append(candidate)
    mults = [1] * distinct
    for _ in range(dim - distinct):
        mults[rng.randint(0, distinct - 1)] += 1
    spectrum = ee.Spectrum(list(zip(values, mults)))
    blocks = None
    if seed % 4 == 3:
        for value, mult in spectrum.pairs:
            if mult >= 2:
                blocks = {value: (mult,)}
                break
    config = ee.GeneratorConfig(dim=dim, spectrum=spectrum,
                                seed=rng.next_u64(), entry_bound=2,
                                jordan_blocks=blocks)
    matrix, _ = ee.random_spectral_matrix(config)
    return matrix, spectrum, blocks


def _draw_seed(seed, i, retry):
    """Generator seed of case ``i``; a retry after a repeated matrix
    moves by a multiple of 20, which keeps the corpus recipe's dimension
    and Jordan block choice (both periodic in 20)."""
    return seed * 1_000_000 + i + 20_000_000_000 * retry


def _corpus_case(seed, i, retry):
    matrix, spectrum, blocks = corpus_entry(_draw_seed(seed, i, retry))
    return Case(i, matrix, spectrum, blocks)


def _corpus_analyse(case):
    a = case.matrix
    p = ee.charpoly(a)
    s = ee.find_spectrum(p)
    system = ee.eigensystem(a, s)
    left = [ee.left_product_eigenvectors(a, s, v) for v in s.values()]
    oracle = [ee.oracle_eigenvectors(a, v) for v in s.values()]
    diagonalizable, _ = ee.is_diagonalizable(a, s)
    diag = ee.diagonalize(a, s) if diagonalizable else None
    jordan = ee.jordan_form(a, s)
    powers = [ee.matrix_power(a, k, s) for k in CORPUS_POWERS]
    ode = ee.ode_general_solution(a, s)
    return p, s, system, left, oracle, diag, jordan, powers, ode


def _corpus_check(case, result):
    a = case.matrix
    p, s, system, left, oracle, diag, jordan, powers, ode = result
    _require(s == case.spectrum, "spectrum differs from the planted one")
    values = s.values()
    oracle_by_value = dict(zip(values, oracle))
    _check_eigenspaces(a, {sp.eigenvalue: list(sp.vectors)
                           for sp in system}, oracle_by_value)
    for lam, rows in zip(values, left):
        _require(len(rows) == len(oracle_by_value[lam]),
                 "left eigenspace size differs from the right one")
        for w in rows:
            _require(ee.residual_check(a, lam, w, side="left"),
                     "left eigenvector residual")
    _require((diag is not None) == _is_diagonalizable(case.blocks),
             "diagonalizability verdict differs from the planted one")
    if diag is not None:
        _check_diagonalization(a, diag.p, diag.d, diag.p_inv, s)
    _check_jordan(a, jordan, case.spectrum, case.blocks)
    for k, power in zip(CORPUS_POWERS, powers):
        _require(power == ee.matrix_power_direct(a, k),
                 f"matrix_power(A, {k}) != matrix_power_direct")
    _require(len(ode) == a.rows, "ODE solution count")
    for term in ode:
        _require(ee.ode_term_is_solution(a, term), "ODE term is not a solution")
    return _dumps({
        "charpoly": ee.format_polynomial(p),
        "spectrum": _spectrum_text(s),
        "eigenvectors": [_vectors_text(sp.vectors) for sp in system],
        "left": [_vectors_text(rows) for rows in left],
        "oracle": [_vectors_text(vs) for vs in oracle],
        "diagonalization": None if diag is None else [
            _matrix_text(diag.p), _matrix_text(diag.d),
            _matrix_text(diag.p_inv)],
        "jordan": [_matrix_text(jordan.p), _matrix_text(jordan.j),
                   _matrix_text(jordan.p_inv)],
        "powers": [_matrix_text(m) for m in powers],
        "ode": _ode_text(ode),
    })


# -- ladder -----------------------------------------------------------------

# Analysis times spread by about 15% between matrices of one size, and
# the median of a ladder falls on its middle size: sampling n = 9 six
# times per cycle keeps the median steady from seed to seed.
LADDER_DIMS = (6, 9, 7, 9, 8, 9, 10, 9, 11, 9, 12, 9)
LADDER_POWER = 100


def _ladder_case(seed, i, retry):
    """Two distinct eigenvalues in -4..4, each with a Jordan block of
    size at least n//2 - 1; the block structure depends only on the
    dimension, so seeds differ in values and basis alone."""
    dim = LADDER_DIMS[i % len(LADDER_DIMS)]
    rng = ee.SplitMix64(_draw_seed(seed, i, retry))
    v1, v2 = _distinct(rng, 2, -4, 4)
    m2 = dim // 2
    m1 = dim - m2
    blocks = {v1: (m1 - 1, 1), v2: (m2,)}
    spectrum = ee.Spectrum([(v1, m1), (v2, m2)])
    config = ee.GeneratorConfig(dim=dim, spectrum=spectrum,
                                seed=rng.next_u64(), entry_bound=2,
                                jordan_blocks=blocks)
    matrix, _ = ee.random_spectral_matrix(config)
    return Case(i, matrix, spectrum, blocks)


def _ladder_analyse(case):
    a = case.matrix
    s = ee.find_spectrum(ee.charpoly(a))
    system = ee.eigensystem(a, s)
    jordan = ee.jordan_form(a, s)
    power = ee.matrix_power(a, LADDER_POWER, s)
    return s, system, jordan, power


def _ladder_check(case, result):
    a = case.matrix
    s, system, jordan, power = result
    _require(s == case.spectrum, "spectrum differs from the planted one")
    _check_eigenspaces(
        a, {sp.eigenvalue: list(sp.vectors) for sp in system},
        {v: ee.oracle_eigenvectors(a, v) for v in s.values()})
    _check_jordan(a, jordan, case.spectrum, case.blocks)
    _require(power == ee.matrix_power_direct(a, LADDER_POWER),
             "matrix_power != matrix_power_direct")
    return _dumps({
        "spectrum": _spectrum_text(s),
        "eigenvectors": [_vectors_text(sp.vectors) for sp in system],
        "jordan": [_matrix_text(jordan.p), _matrix_text(jordan.j),
                   _matrix_text(jordan.p_inv)],
        "power": _matrix_text(power),
    })


# -- cli_wide ---------------------------------------------------------------

# (kind, matrix family, command, arguments after the matrix path, expected
# exit code). "{S}" stands for the spectrum file; a malformed document
# goes to a command drawn from MALFORMED_COMMANDS.
CLI_KINDS = (
    ("charpoly-json", "int", "charpoly", ["--json"], 0),
    ("eigenvectors-json", "rat", "eigenvectors", ["--json"], 0),
    ("diagonalize-json", "int", "diagonalize", ["--json"], 0),
    ("check-json", "defective", "check", ["--json"], 0),
    ("power-json", "conj", "power", ["--n", "6", "--json"], 0),
    ("ode-json", "conj", "ode", ["--json"], 0),
    ("charpoly-text", "rat", "charpoly", [], 0),
    ("oracle-json", "int", "eigenvectors", ["--method", "oracle", "--json"], 0),
    ("complex-spectrum-json", "complex", "eigenvectors",
     ["--spectrum", "{S}", "--json"], 0),
    ("irrational-diagonalize", "irrational", "diagonalize", ["--json"], 3),
    ("defective-diagonalize", "defective", "diagonalize", [], 4),
    ("malformed", "malformed", None, [], 2),
)
CLI_DIMS = (2, 3, 4)
MALFORMED_COMMANDS = ("charpoly", "eigenvectors", "diagonalize", "check",
                      "ode")


def _three_digit(rng, count):
    values = []
    while len(values) < count:
        v = rng.randint(100, 999) * (1 if rng.randint(0, 1) else -1)
        if v not in values:
            values.append(v)
    return values


def _spectral(rng, pairs, blocks=None):
    spectrum = ee.Spectrum(pairs)
    config = ee.GeneratorConfig(dim=spectrum.total, spectrum=spectrum,
                                seed=rng.next_u64(), entry_bound=2,
                                jordan_blocks=blocks)
    return ee.random_spectral_matrix(config)[0], spectrum


def _cli_matrix(family, dim, rng):
    """(matrix, spectrum, blocks) for one family. ``irrational`` has no
    exact spectrum (None): its eigenvalues mu +- sqrt(d) escape Q(i)."""
    if family == "int":
        return (*_spectral(rng, [(v, 1) for v in _three_digit(rng, dim)]),
                None)
    if family == "rat":
        values = []
        while len(values) < dim:
            v = ee.Rational(_three_digit(rng, 1)[0], rng.randint(2, 4))
            if v not in values:
                values.append(v)
        return (*_spectral(rng, [(v, 1) for v in values]), None)
    if family == "defective":
        values = _three_digit(rng, dim - 1)
        blocks = {values[0]: (2,)}
        pairs = [(values[0], 2)] + [(v, 1) for v in values[1:]]
        return (*_spectral(rng, pairs, blocks), blocks)
    if family == "complex":
        re, im = _three_digit(rng, 2)
        pairs = [(ee.GaussianRational(re, im), 1)]
        pairs += [(v, 1) for v in _three_digit(rng, dim - 1)]
        return (*_spectral(rng, pairs), None)
    if family == "conj":
        re, im = _three_digit(rng, 2)
        reals = _three_digit(rng, dim - 2)
        rows = [[0] * dim for _ in range(dim)]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = re, -im, im, re
        for k, v in enumerate(reals, start=2):
            rows[k][k] = v
        spectrum = ee.Spectrum(
            [(ee.GaussianRational(re, im), 1), (ee.GaussianRational(re, -im), 1)]
            + [(v, 1) for v in reals])
        return _conjugated(rng, ee.Matrix(rows), 2), spectrum, None
    if family == "irrational":
        mu = ee.GaussianRational(*_three_digit(rng, 2))
        d = (2, 3, 5, 6, 7)[rng.randint(0, 4)]
        others = _three_digit(rng, dim - 2)
        rows = [[0] * dim for _ in range(dim)]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = mu, d, 1, mu
        for k, v in enumerate(others, start=2):
            rows[k][k] = v
        return _conjugated(rng, ee.Matrix(rows), 2), None, None
    raise ValueError(family)


def _malformed_text(matrix, rng):
    doc = ee.matrix_to_json(matrix)
    i, j = rng.randint(0, matrix.rows - 1), rng.randint(0, matrix.cols - 1)
    flaw = rng.randint(0, 5)
    if flaw == 0:
        doc["entries"][i][j] = doc["entries"][i][j] + "//2"
    elif flaw == 1:
        doc["entries"][i][j] = doc["entries"][i][j].lstrip("-") + "/0"
    elif flaw == 2:
        doc["entries"][i] = doc["entries"][i][:-1]
    elif flaw == 3:
        doc["entries"][i][j] = len(doc["entries"][i][j])
    elif flaw == 4:
        del doc["entries"]
    else:
        return json.dumps(doc)[:-1 - i - j]
    return json.dumps(doc)


def _cli_case(seed, i, retry, workdir):
    kind, family, command, extra, code = CLI_KINDS[i % len(CLI_KINDS)]
    dim = CLI_DIMS[(i // len(CLI_KINDS)) % len(CLI_DIMS)]
    rng = ee.SplitMix64(_draw_seed(seed, i, retry))
    matrix_family = "int" if family == "malformed" else family
    matrix, spectrum, blocks = _cli_matrix(matrix_family, dim, rng)
    matrix_path = os.path.join(workdir, f"m{i}.json")
    spectrum_path = os.path.join(workdir, f"s{i}.json")
    if family == "malformed":
        text = _malformed_text(matrix, rng)
        command = MALFORMED_COMMANDS[
            rng.randint(0, len(MALFORMED_COMMANDS) - 1)]
    else:
        text = json.dumps(ee.matrix_to_json(matrix))
    with open(matrix_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    if "{S}" in extra:
        with open(spectrum_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(ee.spectrum_to_json(spectrum)))
    argv = [command, matrix_path] + [spectrum_path if a == "{S}" else a
                                     for a in extra]
    return Case(i, matrix, spectrum, blocks, kind, argv, code)


def _cli_analyse(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exacteig.cli.main(case.argv)
    return code, out.getvalue(), err.getvalue()


def _parsed_matrix(payload):
    return ee.parse_matrix_json(json.dumps(payload))


def _parsed_vectors(payload):
    return [ee.Vector([ee.parse_scalar(x) for x in v]) for v in payload]


def _parsed_ode_terms(payload):
    terms = []
    for t in payload["terms"]:
        trig = t["trig"]
        terms.append(ee.OdeSolutionTerm(
            t["label"],
            tuple((ee.Vector([ee.parse_scalar(x) for x in p["vector"]]),
                   p["power"], p["divisor"]) for p in t["polynomial"]),
            ee.parse_scalar(t["exponent"]),
            None if trig is None else ee.TrigPart(
                trig["kind"], ee.parse_scalar(trig["beta"]).re,
                tuple(_parsed_vectors(trig["partner_vectors"])))))
    return terms


def _check_cli_json(case, payload):
    a, s, kind = case.matrix, case.spectrum, case.kind
    if kind == "charpoly-json":
        roots = ee.Spectrum([(ee.parse_scalar(r["value"]), r["multiplicity"])
                             for r in payload["roots"]])
        _require(roots == s, "roots differ from the planted spectrum")
    elif kind in ("eigenvectors-json", "oracle-json", "complex-spectrum-json"):
        entries = payload["eigenvalues"]
        found = ee.Spectrum([(ee.parse_scalar(e["value"]), e["multiplicity"])
                             for e in entries])
        _require(found == s, "eigenvalues differ from the planted spectrum")
        spaces = {ee.parse_scalar(e["value"]): _parsed_vectors(e["vectors"])
                  for e in entries}
        _check_eigenspaces(a, spaces, {lam: ee.oracle_eigenvectors(a, lam)
                                       for lam in spaces})
    elif kind == "diagonalize-json":
        _check_diagonalization(a, _parsed_matrix(payload["P"]),
                               _parsed_matrix(payload["D"]),
                               _parsed_matrix(payload["P_inv"]), s)
    elif kind == "check-json":
        _require(payload["diagonalizable"] == _is_diagonalizable(case.blocks),
                 "diagonalizability verdict differs from the planted one")
        witness = payload["witness"]
        _require((witness is None) == payload["diagonalizable"]
                 and (witness is None or not _parsed_matrix(witness).is_zero()),
                 "witness does not match the verdict")
    elif kind == "power-json":
        n = int(case.argv[case.argv.index("--n") + 1])
        _require(_parsed_matrix(payload) == ee.matrix_power_direct(a, n),
                 "power differs from matrix_power_direct")
    elif kind == "ode-json":
        terms = _parsed_ode_terms(payload)
        _require(len(terms) == a.rows, "ODE solution count")
        for term in terms:
            _require(ee.ode_term_is_solution(a, term),
                     "ODE term is not a solution")


def _expected_charpoly(spectrum):
    p = ee.Polynomial([1])
    for value, mult in spectrum.pairs:
        for _ in range(mult):
            p = p * ee.Polynomial([-value, 1])
    return p


def _cli_check(case, result):
    code, out, err = result
    _require(code == case.expected_code,
             f"{case.kind}: exit {code}, expected {case.expected_code}")
    if code == 0:
        if "--json" in case.argv:
            _check_cli_json(case, json.loads(out))
        else:
            first = out.splitlines()[0]
            _require(first == ee.format_polynomial(
                _expected_charpoly(case.spectrum)),
                "charpoly text differs from the planted spectrum's")
    return f"{case.kind}\n{code}\n{out}\n{err}"


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``cycle`` cases form one unit of the mix; ``make(seed, i, retry,
    workdir)`` builds case i (``retry`` counts earlier draws that
    repeated a matrix), ``analyse`` is the timed part and ``check`` the
    untimed part, returning canonical output text. An end-to-end pass
    runs at least ``min_samples`` analyses."""

    name: str
    cycle: int
    min_samples: int
    make: object
    analyse: object
    check: object


WORKLOADS = {
    "corpus": Workload(
        "corpus", len(CORPUS_DIMS), 200,
        lambda seed, i, retry, workdir: _corpus_case(seed, i, retry),
        _corpus_analyse, _corpus_check),
    "ladder": Workload(
        "ladder", len(LADDER_DIMS), 2 * len(LADDER_DIMS),
        lambda seed, i, retry, workdir: _ladder_case(seed, i, retry),
        _ladder_analyse, _ladder_check),
    "cli_wide": Workload(
        "cli_wide", len(CLI_KINDS) * len(CLI_DIMS), 200, _cli_case,
        _cli_analyse, _cli_check),
}


def fresh_cases(workload, seed, workdir, seen):
    """Cases of ``workload`` whose matrix is not in ``seen`` (the
    matrices this process has analysed), so the package's caches see no
    repeats. A repeated matrix is drawn again for the same case."""
    for i in itertools.count():
        for retry in itertools.count():
            case = workload.make(seed, i, retry, workdir)
            if case.matrix not in seen:
                break
        seen.add(case.matrix)
        yield case
