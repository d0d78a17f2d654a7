"""The integer-plane storage of matrices and vectors, and the active
operation counter, are decisions of ``exacteig/matrices.py`` alone: no
other module of the package may reach into them, and no function takes
a counter as a parameter."""

import importlib
import inspect
import re
from pathlib import Path

import exacteig

PACKAGE = Path(exacteig.__file__).parent
STORAGE = re.compile(
    r"\b_planes\b|\b_scalar\b|\._re\b|\._im\b|\._den\b|\bMatrix\._make\b")
ACTIVE_COUNTER = re.compile(r"\b_active_counters\b|\bcontextvars\b")


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
