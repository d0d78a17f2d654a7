"""The integer-plane storage of matrices and vectors, and the active
operation counter, are decisions of ``exacteig/matrices.py`` alone: no
other module of the package may reach into them, and no function takes
a counter as a parameter. Likewise the integer numerators of a
polynomial, and the spectrum recorded on it, are read by
``exacteig/spectra.py`` alone, and each eigen-structure fact of a matrix
is named only by ``matrices.py`` and the one module that finds it. One
routine in ``jordan.py`` certifies the Jordan basis P before it is
kept, and one inverts it and checks P⁻¹·P = I, for ``jordan_form`` and
``diagonalize`` alike; each fact the package certifies has one exact
check. Every P starts from the eigenvectors that ``eigensystem`` keeps,
read through one call.
Results are records of ``matrices.Record``: importing the package and
its CLI loads neither ``dataclasses`` nor ``inspect``."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import exacteig

PACKAGE = Path(exacteig.__file__).parent
STORAGE = re.compile(
    r"\b_planes\b|\b_scalar\b|\._re\b|\._im\b|\._den\b|\bMatrix\._make\b")
ACTIVE_COUNTER = re.compile(r"\b_active_counters\b|\bcontextvars\b")
# the numerators, and the key of the spectrum a polynomial was factored into
POLYNOMIAL_FIELDS = ("_denom", "_reals", "_imags", "_factored")
POLYNOMIAL_STORAGE = re.compile(
    "|".join(rf"\b{name}\b" for name in POLYNOMIAL_FIELDS))


def references(path, pattern):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{number}: {line.strip()}"
            for number, line in enumerate(lines, 1) if pattern.search(line)]


def storage_references(path):
    return references(path, STORAGE)


def test_only_matrices_reads_the_storage():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "matrices.py" in modules and len(modules) > 1
    offenders = [hit for path in modules if path.name != "matrices.py"
                 for hit in storage_references(path)]
    assert offenders == []


def test_the_pattern_sees_the_storage():
    hits = "\n".join(storage_references(PACKAGE / "matrices.py"))
    for name in ("_planes", "_scalar(", "._re", "._im", "._den",
                 "Matrix._make"):
        assert name in hits


def test_only_matrices_reads_the_active_counter():
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = [hit for path in modules if path.name != "matrices.py"
                 for hit in references(path, ACTIVE_COUNTER)]
    assert offenders == []
    hits = "\n".join(references(PACKAGE / "matrices.py", ACTIVE_COUNTER))
    assert "_active_counters" in hits and "contextvars" in hits


def test_only_spectra_reads_the_polynomial_fields():
    assert exacteig.Polynomial.__slots__ == POLYNOMIAL_FIELDS
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = [hit for path in modules if path.name != "spectra.py"
                 for hit in references(path, POLYNOMIAL_STORAGE)]
    assert offenders == []
    hits = "\n".join(references(PACKAGE / "spectra.py", POLYNOMIAL_STORAGE))
    for name in POLYNOMIAL_FIELDS:
        assert name in hits


def test_the_eigen_structure_is_named_where_it_is_found():
    # one store, ``Matrix._remember``, and no second API keyed by spectrum
    assert not hasattr(exacteig.Matrix, "_keep")
    assert not hasattr(exacteig.Matrix, "_kept")
    for name, owners in (("_eigenvectors", {"matrices.py", "charmatrix.py"}),
                         ("_jordan", {"matrices.py", "jordan.py"})):
        pattern = re.compile(rf"\b{name}\b")
        naming = {path.name for path in PACKAGE.glob("*.py")
                  if references(path, pattern)}
        assert naming == owners, name


def test_only_the_decomposition_and_the_generator_invert():
    # jordan._decomposition serves jordan_form and diagonalize alike;
    # the generator inverts the basis it conjugates with
    calls = re.compile(r"(?<!def )\binverse\(")
    calling = {path.name: references(path, calls)
               for path in PACKAGE.glob("*.py") if references(path, calls)}
    assert set(calling) == {"jordan.py", "verification.py"}
    assert len(calling["jordan.py"]) == 1


def test_an_eigenvector_is_checked_on_the_planes():
    # (A − λI)·V = 0 through matrices._annihilates, not A·v = λ·v
    name = re.compile(r"\b_residual_ok\b")
    assert [hit for path in PACKAGE.glob("*.py")
            for hit in references(path, name)] == []


def test_the_shortcut_has_one_premise_check():
    # (A − λ₁I)(A − λ₂I) = 0 in charmatrix._eigenmatrices certifies the
    # columns of both factors: the column reader checks none again
    reader = exacteig.charmatrix._independent_columns
    assert "_annihilates" not in inspect.getsource(reader)
    assert "shifted" not in inspect.signature(reader).parameters
    for name in ("two_spectrum_eigenvectors", "eigenvectors_2x2",
                 "combined_characteristic_matrix"):
        source = inspect.getsource(getattr(exacteig.charmatrix, name))
        assert "_eigenmatrices(a, " in source, name


def test_a_claimed_eigenvalue_is_checked_by_deflation():
    # the characteristic polynomial, not the trace or determinant,
    # decides whether a value is an eigenvalue; the one exception is the
    # cross-product reader, whose det(A − λI) = 0 runs on the shifted
    # matrix it reads its rows from
    calls = re.compile(r"(?<![\w.])(?:trace|det)\(")
    hits = references(PACKAGE / "charmatrix.py", calls)
    assert [hit.split(": ", 1)[1] for hit in hits] == ["if det(shifted):"]
    reader = inspect.getsource(exacteig.charmatrix.cross_eigenvector_3x3)
    assert "det(shifted)" in reader and "charpoly(" not in reader
    assert references(PACKAGE / "matrices.py", calls)


def test_the_inverse_is_checked_by_one_identity():
    # P is certified where it is kept, so it is invertible and
    # P⁻¹·P = I fixes every entry of P⁻¹: no shift is searched for
    source = inspect.getsource(exacteig.jordan._decomposition)
    assert "inverse(p)" in source
    # one product, P⁻¹·P, compared with the identity
    assert len(re.findall(r"\bmatmul\(", source)) == 1
    assert re.search(r"matmul\(p_inv, p\) != Matrix\.identity\(", source)
    assert not re.search(r"\bcount\b|\bsubtract_scalar_diag\b", source)


def test_only_the_certified_basis_is_kept():
    module = inspect.getsource(exacteig.jordan)
    assert module.count('_remember("_jordan"') == 2
    basis = inspect.getsource(exacteig.jordan._jordan_basis)
    remember = basis.index('_remember("_jordan"')
    assert remember > basis.index("P*J") > basis.index("matmul(a, p)")
    assert remember > basis.index("independent_extension(")
    # the other write keeps the same basis, with a weak reference to the
    # P⁻¹ that passed its check, and comes after that check
    decomposition = inspect.getsource(exacteig.jordan._decomposition)
    write = '_remember("_jordan", (p, sizes, ref(p_inv)))'
    assert decomposition.index(write) > decomposition.index("P^-1*P == I")


def test_one_route_to_the_jordan_basis():
    # every P starts from the eigenvectors that eigensystem keeps, read
    # through charmatrix._kept_kernels, which finds them when not kept;
    # a complete eigenbasis is read only after that call has kept it
    tree = ast.parse((PACKAGE / "factorizations.py").read_text("utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "charmatrix" and node.level == 1
                for alias in node.names]
    assert imported and not [n for n in imported if n.startswith("_")]
    primitive = exacteig.matrices._primitive_chain
    assert "conjugate" not in inspect.signature(primitive).parameters
    basis = inspect.getsource(exacteig.jordan._jordan_basis)
    assert basis.count("_kept_kernels(a, s)") == 1
    assert basis.index("_kept_kernels(") < basis.index(
        "_complete_eigenbasis(")
    assert not re.search(
        r"\beigensystem\(|\b_eigenvectors\b|\bnullspace_basis\("
        r"|\b_eigenbasis\(|\bconjugate", basis)
    assert not hasattr(exacteig.charmatrix, "_all_eigenvectors")


def package_functions():
    """Every function and method defined in a module of the package (the
    package's ``__init__`` only re-exports)."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"exacteig.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = (vars(value).values() if inspect.isclass(value)
                       else [value])
            for member in members:
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield member


def test_no_function_takes_a_counter():
    functions = list(package_functions())
    names = {f.__qualname__ for f in functions}
    assert {"matmul", "_eliminate", "Matrix.transpose"} <= names
    takers = [f"{f.__module__}.{f.__qualname__}" for f in functions
              if "counter" in inspect.signature(f).parameters]
    assert takers == []


def test_the_import_path_leaves_out_dataclasses():
    code = ("import sys, exacteig, exacteig.cli; print(sorted("
            "{'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    # -S: no site hook loads a module on the package's behalf
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    naming = [hit for path in sorted(PACKAGE.glob("*.py"))
              for hit in references(path, re.compile(r"dataclass"))]
    assert naming == []


def test_a_real_pipeline_builds_no_imaginary_plane(monkeypatch):
    # the zero imaginary plane is stored as () and no kernel expands it:
    # the accessor that would build (0, …, 0) is never called on the
    # real matrices, spectra and vectors of the corpus
    from conftest import build_corpus_entry

    def expanded(self):
        raise AssertionError("a zero imaginary plane was built")

    monkeypatch.setattr(exacteig.Matrix, "_imag", expanded)
    for seed in range(40):
        entry = build_corpus_entry(seed)
        a, s = entry.matrix, entry.spectrum
        assert exacteig.find_spectrum(exacteig.charpoly(a)) == s
        exacteig.eigensystem(a, s)
        for value in s.values():
            exacteig.left_product_eigenvectors(a, s, value)
            exacteig.oracle_eigenvectors(a, value)
        try:
            exacteig.diagonalize(a, s)
        except exacteig.NotDiagonalizable:
            assert entry.planned_defective
        exacteig.jordan_form(a, s)
        exacteig.matrix_power(a, 5, s)
        exacteig.matrix_to_json(a)
