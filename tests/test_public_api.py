"""The public API: each library module's ``__all__`` is the one list of
its public names, and the package root re-exports every one of them."""

import ast
import importlib
import inspect

import pytest

import exacteig

MODULES = ("charmatrix", "errors", "factorizations", "io_json", "jordan",
           "matrices", "scalars", "spectra", "verification")

PUBLIC = [
    "AllRowsParallel", "CharacteristicMatrix", "Defective", "Diagonalization",
    "DigitLimitExceeded", "DimensionMismatch", "DivisionByZero", "EigenSystem",
    "Eigenspace", "ExactEigError", "GaussianRational", "GenerationFailed",
    "GeneratorConfig", "InternalInconsistency", "InvalidSpectrum",
    "IrrationalSpectrum", "JordanChain", "JordanForm", "Matrix",
    "NotDiagonalizable", "NotInSpectrum", "NotSquare", "OdeSolutionTerm",
    "OpCounter", "ParseError", "Polynomial", "RankTooLarge", "Rational",
    "RealifyOnComplexMatrix", "SchemaError", "Singular", "SpanBasis",
    "Spectrum", "SpectrumTooLarge", "SplitMix64", "TargetNotInSpectrum",
    "TrigPart", "Vector", "WrongSpectrum", "ZeroVector", "build_chains",
    "cayley_hamilton_check", "characteristic_matrix", "charpoly",
    "column_space_intersection", "combined_characteristic_matrix",
    "complementary_product", "cross3", "cross_eigenvector_3x3", "det",
    "diagonalize", "eigensystem", "eigenvectors_2x2", "find_spectrum",
    "format_polynomial", "format_rational", "format_scalar",
    "generalized_eigenvectors", "hstack", "independent_extension",
    "intersection_eigenvectors", "inverse", "is_diagonalizable", "jordan_form",
    "left_product_eigenvectors", "matmul", "matrix_power",
    "matrix_power_direct", "matrix_to_json", "matvec", "multiplicity_of",
    "normalize_eigenvector", "nullspace_basis", "ode_general_solution",
    "ode_term_is_solution", "oracle_eigenvectors", "parse_matrix_json",
    "parse_scalar", "parse_spectrum_json", "primitive_scale",
    "product_eigenvectors", "random_spectral_matrix", "rank", "residual_check",
    "resolve_spectrum", "rref", "shift_spectrum", "shifted_power_ranks",
    "span_equal", "spectrum_to_json", "subtract_scalar_diag", "to_scalar",
    "trace", "two_spectrum_eigenvectors", "vector_to_json", "verify_spectrum",
]


def _module(name):
    return importlib.import_module(f"exacteig.{name}")


def test_the_root_exports_the_frozen_names():
    assert len(PUBLIC) == 96
    assert sorted(exacteig.__all__) == PUBLIC


def test_the_frozen_names_are_the_modules_lists():
    assert sorted(set().union(*(_module(name).__all__
                                for name in MODULES))) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_has_one_home_that_binds_it(name):
    homes = [module for module in MODULES if name in _module(module).__all__]
    assert len(homes) == 1
    assert hasattr(_module(homes[0]), name)


def test_a_star_import_binds_the_module_objects():
    namespace = {}
    exec("from exacteig import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for module in MODULES:
        for name in _module(module).__all__:
            assert namespace[name] is getattr(_module(module), name)


def test_the_root_lists_no_public_name():
    """``exacteig/__init__.py`` star-imports the modules and derives its
    ``__all__``: no import list of names, no literal list."""
    for node in ast.parse(inspect.getsource(exacteig)).body:
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert names == ["*"] or (node.module is None and
                                      sorted(names) == list(MODULES))
        assert not isinstance(getattr(node, "value", None), ast.List)
