"""The integer-plane storage of matrices and vectors is a decision of
``exacteig/matrices.py`` alone: no other module of the package may
reach into it."""

import re
from pathlib import Path

import exacteig

PACKAGE = Path(exacteig.__file__).parent
STORAGE = re.compile(
    r"\b_planes\b|\b_scalar\b|\._re\b|\._im\b|\._den\b|\bMatrix\._make\b")


def storage_references(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{number}: {line.strip()}"
            for number, line in enumerate(lines, 1) if STORAGE.search(line)]


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
