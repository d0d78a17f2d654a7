"""The integer-plane matrix core against the scalar-loop reference.

Every kernel must agree exactly with ``reference_kernels`` — the
entry-by-entry Gaussian-rational algorithms — on random matrices
(complex and real, mixed and 50-digit denominators and numerators,
rank-deficient and zero, single rows and columns) and on the corpus.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_kernels as ref
from exacteig import (
    GaussianRational,
    Matrix,
    Rational,
    Singular,
    Vector,
    det,
    inverse,
    matmul,
    matrix_power,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    rank,
    rref,
    subtract_scalar_diag,
    trace,
)

ZERO = GaussianRational()

integers = st.one_of(st.integers(-6, 6), st.integers(-10**55, 10**55))
denominators = st.one_of(st.integers(1, 6), st.integers(10**50, 10**53))
rationals = st.builds(Rational, integers, denominators)
real_scalars = st.one_of(st.just(ZERO), st.builds(GaussianRational, rationals))
complex_scalars = st.one_of(real_scalars,
                            st.builds(GaussianRational, rationals, rationals))
sizes = st.integers(1, 5)


@st.composite
def scalar_rows(draw, rows, cols, scalars):
    return tuple(tuple(draw(scalars) for _ in range(cols))
                 for _ in range(rows))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rows of scalars: dense, rank-deficient (a product through a
    narrower inner dimension) or zero, real or complex."""
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    scalars = draw(st.sampled_from([real_scalars, complex_scalars]))
    kind = draw(st.sampled_from(["dense", "deficient", "zero"]))
    if kind == "zero":
        return tuple((ZERO,) * cols for _ in range(rows))
    if kind == "deficient" and min(rows, cols) > 1:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        return ref.matmul(draw(scalar_rows(rows, inner, scalars)),
                          draw(scalar_rows(inner, cols, scalars)))
    return draw(scalar_rows(rows, cols, scalars))


square_matrices = sizes.flatmap(lambda n: matrices(n, n))


@st.composite
def product_operands(draw):
    rows, inner, cols = draw(sizes), draw(sizes), draw(sizes)
    return draw(matrices(rows, inner)), draw(matrices(inner, cols))


def reference_nullspace(rows):
    reduced, pivots = ref.rref(rows)
    cols = len(rows[0])
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [ZERO] * cols
        v[free] = GaussianRational(1)
        for k, pivot in enumerate(pivots):
            v[pivot] = -reduced[k][free]
        basis.append(ref.normalize_eigenvector(v))
    return basis


def reference_power(rows, k):
    n = len(rows)
    result = tuple(tuple(GaussianRational(int(i == j)) for j in range(n))
                   for i in range(n))
    while k:
        if k & 1:
            result = ref.matmul(result, rows)
        rows = ref.matmul(rows, rows)
        k >>= 1
    return result


def assert_elimination_agrees(rows):
    a = Matrix(rows)
    reduced, pivots = rref(a)
    expected, expected_pivots = ref.rref(rows)
    assert pivots == expected_pivots
    assert ref.scalar_rows(reduced) == expected
    assert rank(a) == len(expected_pivots)
    assert [v.entries for v in nullspace_basis(a)] == reference_nullspace(rows)


class TestAgainstReference:
    @given(product_operands())
    def test_matmul(self, operands):
        left, right = operands
        product = matmul(Matrix(left), Matrix(right))
        assert ref.scalar_rows(product) == ref.matmul(left, right)
        assert product == Matrix(ref.matmul(left, right))

    @given(matrices(), st.data())
    def test_matvec_both_orientations(self, rows, data):
        a = Matrix(rows)
        column = data.draw(scalar_rows(1, a.cols, complex_scalars))[0]
        row = data.draw(scalar_rows(1, a.rows, complex_scalars))[0]
        assert matvec(a, Vector(column)).entries == ref.matvec(rows, column)
        assert matvec(a, Vector(row, "row")).entries == \
            ref.matvec(rows, row, "row")

    @given(matrices())
    def test_elimination(self, rows):
        assert_elimination_agrees(rows)

    @given(square_matrices)
    def test_det_and_inverse(self, rows):
        a = Matrix(rows)
        assert det(a) == ref.det(rows)
        expected = ref.inverse(rows)
        if expected is None:
            with pytest.raises(Singular):
                inverse(a)
        else:
            assert ref.scalar_rows(inverse(a)) == expected

    @given(scalar_rows(1, 5, complex_scalars), st.sampled_from(["column",
                                                                "row"]))
    def test_normalize_eigenvector(self, entries, orientation):
        entries = entries[0]
        if not any(entries):
            return
        got = normalize_eigenvector(Vector(entries, orientation))
        assert got.entries == ref.normalize_eigenvector(entries)
        assert got.orientation == orientation

    @given(matrices(), complex_scalars)
    def test_entrywise_operations(self, rows, c):
        a = Matrix(rows)
        assert ref.scalar_rows(a) == rows
        assert ref.scalar_rows(a.scaled(c)) == tuple(
            tuple(e * c for e in row) for row in rows)
        assert ref.scalar_rows(a + a.scaled(c)) == tuple(
            tuple(e + e * c for e in row) for row in rows)
        assert ref.scalar_rows(a - a.scaled(c)) == tuple(
            tuple(e - e * c for e in row) for row in rows)
        assert ref.scalar_rows(a.transpose()) == tuple(zip(*rows))
        assert (a - a).is_zero() and (a - a) == Matrix.zeros(a.rows, a.cols)

    @given(square_matrices, complex_scalars)
    def test_trace_and_shift(self, rows, lam):
        a = Matrix(rows)
        n = len(rows)
        assert trace(a) == sum((rows[i][i] for i in range(n)), ZERO)
        assert ref.scalar_rows(subtract_scalar_diag(a, lam)) == tuple(
            tuple(e - lam if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(rows))


def test_corpus_agrees_with_reference(corpus):
    for entry in corpus:
        a = entry.matrix
        rows = ref.scalar_rows(a)
        assert_elimination_agrees(rows)
        for value in entry.spectrum.values():
            assert_elimination_agrees(
                ref.scalar_rows(subtract_scalar_diag(a, value)))
        expected = ref.inverse(rows)
        if expected is not None:
            assert ref.scalar_rows(inverse(a)) == expected
        assert ref.scalar_rows(matrix_power(a, 13)) == reference_power(rows,
                                                                       13)
