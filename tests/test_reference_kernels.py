"""The integer-plane matrix core against the scalar-loop reference.

Every kernel must agree exactly with ``reference_kernels`` — the
entry-by-entry Gaussian-rational algorithms — on random matrices
(complex and real, mixed and 50-digit denominators and numerators,
rank-deficient and zero, single rows and columns), on random vectors of
both orientations, and on the corpus. The Jordan kernels must agree
with the rank-pass kernels on planted Jordan structures and on the
corpus, and chains started from a kept kernel, or read off one power of
A − λI beside a line, with those of the null-space sequence. The
characteristic polynomial by the Samuelson–Berkowitz recurrence on
integer numerators must equal the scalar Faddeev–LeVerrier recursion,
with the recurrence's own operation tally, and the chain scaling on
planes the scaling by one rational factor. RREF,
null space and inverse by forward elimination and back-substitution
must equal the fraction-free Gauss–Jordan ones they replaced, on
integer, large-integer, rational and Gaussian-rational matrices of
every shape and on the corpus's shifted matrices. The planted Jordan
form built with ``Matrix.diagonal`` must equal the one filled in entry
by entry, and the generator must conjugate exactly that form, on random
block structures and on every corpus recipe.
"""

import json
from itertools import count
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exacteig.factorizations
import exacteig.jordan
import reference_kernels as ref
from exacteig import (
    GaussianRational,
    GeneratorConfig,
    Matrix,
    OpCounter,
    Rational,
    Singular,
    Spectrum,
    Vector,
    build_chains,
    charpoly,
    complementary_product,
    det,
    eigensystem,
    generalized_eigenvectors,
    hstack,
    independent_extension,
    inverse,
    jordan_form,
    left_product_eigenvectors,
    matmul,
    matrix_power,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    ode_general_solution,
    product_eigenvectors,
    random_spectral_matrix,
    rank,
    rref,
    shifted_power_ranks,
    subtract_scalar_diag,
    trace,
    verify_spectrum,
)
from exacteig.charmatrix import _kept_kernels, _product_factors
from exacteig.jordan import _chains
from exacteig.matrices import (_annihilates, _primitive_chain,
                               _pushed_column, _shift_rows)
from exacteig.verification import _canonical_form
from conftest import CORPUS_SIZE, corpus_config
from test_factorizations import _copy, _text

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
orientations = st.sampled_from(["column", "row"])


@st.composite
def vector_pairs(draw):
    """Two scalar tuples of one length (1 included), real or complex."""
    n = draw(st.one_of(st.just(1), sizes))
    scalars = draw(st.sampled_from([real_scalars, complex_scalars]))
    rows = draw(scalar_rows(2, n, scalars))
    return rows[0], rows[1]


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


class TestVectorsAgainstReference:
    @given(vector_pairs(), complex_scalars, orientations)
    def test_operations(self, pair, c, orientation):
        u, w = pair
        x, y = Vector(u, orientation), Vector(w, orientation)
        assert x.entries == u and len(x) == len(u)
        assert x.dot(y) == ref.vector_dot(u, w)
        assert x.dot(y.transposed()) == ref.vector_dot(u, w)
        for got, expected in [(x + y, ref.vector_add(u, w)),
                              (x - y, ref.vector_sub(u, w)),
                              (-x, ref.vector_neg(u)),
                              (x.scaled(c), ref.vector_scaled(u, c))]:
            assert got.entries == expected
            assert got.orientation == orientation
            assert got == Vector(expected, orientation)

    @given(vector_pairs(), orientations)
    def test_reading_and_shape(self, pair, orientation):
        u, _ = pair
        x = Vector(u, orientation)
        assert list(x) == list(u) and [x[k] for k in range(len(u))] == list(u)
        assert x.is_zero() == (not any(u))
        assert x.first_nonzero_index() == next(
            (k for k, e in enumerate(u) if e), None)
        flipped = x.transposed()
        assert flipped.entries == u and flipped.orientation != orientation
        assert flipped.transposed() == x
        assert x.re.entries == tuple(GaussianRational(e.re) for e in u)
        assert x.im.entries == tuple(GaussianRational(e.im) for e in u)

    @given(matrices(), st.data())
    def test_rows_and_columns_are_plane_views(self, rows, data):
        a = Matrix(rows)
        i = data.draw(st.integers(0, a.rows - 1))
        j = data.draw(st.integers(0, a.cols - 1))
        assert a.row(i) == Vector(rows[i], "row")
        assert a.column(j) == Vector([row[j] for row in rows])
        columns = [a.column(k) for k in range(a.cols)]
        assert Matrix.from_columns(columns) == a
        assert Matrix.from_rows([a.row(k) for k in range(a.rows)]) == a
        assert Matrix.from_rows(columns) == a.transpose()


@st.composite
def vector_lists(draw):
    """1–6 vectors of one length and orientation, each fresh (real,
    complex or 50-digit), zero, parallel to an earlier one or the sum of
    multiples of two earlier ones, split into a basis (dependent when a
    zero, parallel or sum lands in it) and candidates."""
    n = draw(st.one_of(st.just(1), sizes))
    scalars = draw(st.sampled_from([real_scalars, complex_scalars]))
    orientation = draw(orientations)
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["fresh", "zero"] + (["parallel", "sum"] if vectors else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            entries = draw(scalar_rows(1, n, scalars))[0]
            vectors.append(Vector(entries, orientation))
        elif kind == "zero":
            vectors.append(Vector([ZERO] * n, orientation))
        elif kind == "parallel":
            u = draw(st.sampled_from(vectors))
            vectors.append(u.scaled(draw(complex_scalars)))
        else:
            u, w = (draw(st.sampled_from(vectors)) for _ in range(2))
            vectors.append(u.scaled(draw(complex_scalars))
                           + w.scaled(draw(complex_scalars)))
    split = draw(st.integers(0, len(vectors)))
    return vectors[:split], vectors[split:]


def greedy_extension(basis, candidates):
    """The candidates the one-at-a-time rank test keeps, after reducing
    the basis the same way."""
    span, kept = [], []
    for x in basis:
        if ref.is_independent(span, x):
            span.append(x)
    for x in candidates:
        if ref.is_independent(span, x):
            span.append(x)
            kept.append(x)
    return kept


class TestIndependentExtension:
    @given(vector_lists())
    def test_selects_what_the_greedy_rank_test_selects(self, lists):
        basis, candidates = lists
        assert independent_extension(basis, candidates) == \
            greedy_extension(basis, candidates)


class TestVectorEquality:
    @pytest.mark.parametrize("entries", [
        [1, 2, 3], [5], [0], [Rational(1, 2), GaussianRational(0, 1)]])
    def test_never_equal_to_a_matrix(self, entries):
        column, row = Vector(entries), Vector(entries, "row")
        for vector, matrix in [(column, Matrix.from_columns([entries])),
                               (row, Matrix.from_rows([entries]))]:
            assert vector != matrix and matrix != vector
            assert not vector == matrix and not matrix == vector
        assert column != row and row != column
        assert len({column, row}) == 2

    @given(vector_pairs(), complex_scalars, orientations)
    def test_hash_agrees_with_equality(self, pair, c, orientation):
        u, w = pair
        x = Vector(u, orientation)
        same = [Vector(list(u), orientation), x.transposed().transposed(),
                -(-x), x + Vector([ZERO] * len(u), orientation)]
        if c:
            same.append(x.scaled(c).scaled(GaussianRational(1) / c))
        for other in same:
            assert other == x and hash(other) == hash(x)
        y = Vector(w, orientation)
        assert (x == y) == (u == w)
        if x == y:
            assert hash(x) == hash(y)
        assert len({x, *same}) == 1


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
        assert ref.scalar_rows(matrix_power(a, 13)) == \
            ref.reference_power(rows, 13)


@st.composite
def planted_configs(draw, dim=8, denominators=(1,)):
    """Generator configs with 1–3 distinct eigenvalues, one of them
    nonreal Gaussian, each split into random Jordan blocks, n ≤ ``dim``,
    each eigenvalue over one of ``denominators``."""
    gaussian = GaussianRational(draw(st.integers(-3, 3)),
                                draw(st.sampled_from([-2, -1, 1, 2])))
    reals = draw(st.lists(st.integers(-4, 4), max_size=2, unique=True))
    values = [gaussian, *map(GaussianRational, reals)]
    if denominators != (1,):
        values = [v * Rational(1, draw(st.sampled_from(denominators)))
                  for v in values]
        assume(len(set(values)) == len(values))
    budget = dim - len(values)
    blocks = {}
    for value in values:
        sizes = [draw(st.integers(1, budget + 1))]
        budget -= sizes[0] - 1
        while budget and draw(st.booleans()):
            sizes.append(draw(st.integers(1, budget)))
            budget -= sizes[-1]
        blocks[value] = tuple(sizes)
    spectrum = Spectrum([(v, sum(b)) for v, b in blocks.items()])
    return GeneratorConfig(dim=spectrum.total, spectrum=spectrum,
                           seed=draw(st.integers(0, 2**64 - 1)),
                           jordan_blocks=blocks)


@st.composite
def planted_jordan(draw, **options):
    """(matrix, spectrum) of a ``planted_configs`` recipe."""
    config = draw(planted_configs(**options))
    return random_spectral_matrix(config)[0], config.spectrum


def assert_planted_form_agrees(config):
    canonical = ref.canonical_form(config)
    assert _canonical_form(config) == canonical
    a, p = random_spectral_matrix(config)
    assert a == matmul(matmul(p, canonical), inverse(p))


class TestPlantedFormAgainstReference:
    @given(planted_configs())
    def test_planted_structures(self, config):
        assert_planted_form_agrees(config)

    def test_corpus_recipe(self):
        for seed in range(CORPUS_SIZE):
            assert_planted_form_agrees(corpus_config(seed))


def _binary_forbidden(*args):
    raise AssertionError("binary exponentiation ran beside a held "
                         "decomposition")


# the least exponent whose binary exponentiation takes enough products
# for a held decomposition to serve it
CROSSOVER = next(k for k in count(1) if k.bit_length() + k.bit_count() - 2
                 >= exacteig.factorizations._ROUTE_PRODUCTS)


class TestPowerRouteAgainstReference:
    @settings(max_examples=10)
    @given(planted_jordan())
    def test_planted_structures(self, case):
        # while the JordanForm is held, Aᵏ = (P·Jᵏ)·P⁻¹ in one product
        a, spectrum = case
        rows = ref.scalar_rows(a)
        form = jordan_form(a, spectrum)
        assert exacteig.jordan._held_decomposition(a)[2] is form.p_inv
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exacteig.factorizations, "_power",
                          _binary_forbidden)
            for k in (CROSSOVER, 100, 1000):
                assert ref.scalar_rows(matrix_power(a, k)) == \
                    ref.reference_power(rows, k)


def assert_jordan_kernels_agree(a, spectrum):
    for value in spectrum.values():
        ranks = shifted_power_ranks(a, value)
        assert ranks == ref.shifted_power_ranks(a, value)
        for level in range(1, len(ranks) + 1):
            assert generalized_eigenvectors(a, value, level) == \
                ref.generalized_eigenvectors(a, value, level)
        assert build_chains(a, value) == ref.build_chains(a, value)


class TestJordanKernelsAgainstReference:
    @given(planted_jordan())
    def test_planted_structures(self, case):
        assert_jordan_kernels_agree(*case)

    def test_corpus(self, corpus):
        for entry in corpus:
            assert_jordan_kernels_agree(entry.matrix, entry.spectrum)


def assert_product_method_agrees(a, s):
    verify_spectrum(a, s)
    transposed = a.transpose()
    for value in s.values():
        with OpCounter() as new:
            right = product_eigenvectors(a, s, value)
        with OpCounter() as old:
            assert right == ref.matvec_eigenbasis(a, s, value)
        assert new == old
        assert left_product_eigenvectors(a, s, value) == [
            w.transposed()
            for w in ref.matvec_eigenbasis(transposed, s, value)]


class TestProductMethodAgainstReference:
    """The product method on the shift rows of ``matrices`` against the
    ``matvec`` route on shifted matrices that it replaced: the same
    vectors, right and left, with the same operation counts, and each
    pushed column on the line of the product's column."""

    @given(planted_jordan(dim=6, denominators=(1, 1, 2, 3)))
    def test_planted_structures(self, case):
        assert_product_method_agrees(*case)

    def test_corpus(self, corpus):
        for entry in corpus[:100]:
            assert_product_method_agrees(entry.matrix, entry.spectrum)

    @given(planted_jordan(dim=6, denominators=(1, 2)))
    def test_pushed_columns_are_product_columns(self, case):
        # every column j, zero or not, not only the first nonzero one
        # that the product method keeps
        a, s = case
        for k, value in enumerate(s.values()):
            factors = _product_factors(
                s, k, True, lambda i: _shift_rows(a, s.pairs[i][0]))
            if not factors:  # the product is I
                continue
            product = complementary_product(a, s, value,
                                            with_multiplicity=True)
            for j in range(a.rows):
                re, im = _pushed_column(factors, j)
                pushed = Vector([GaussianRational(x, y) for x, y in
                                 zip(re, im or [0] * len(re))])
                column = product.column(j)
                assert pushed.is_zero() == column.is_zero()
                if not column.is_zero():
                    assert normalize_eigenvector(pushed) == \
                        normalize_eigenvector(column)


@st.composite
def line_blocks(draw):
    """(matrix, spectrum) with one Jordan block of size m = 2–6, or the
    blocks (m − 1, 1), at an integer λ, beside one or two simple
    eigenvalues: integers, a Gaussian one (a complex matrix), or a
    conjugate pair α ± βi of a real matrix B·C·B⁻¹."""
    m = draw(st.integers(2, 6))
    sizes = draw(st.sampled_from([(m,), (m - 1, 1)]))
    lam = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["real", "gaussian", "conjugate"]))
    if kind == "conjugate":
        alpha, beta = draw(st.integers(-3, 3)), draw(st.integers(1, 2))
        n = m + 2
        c = [[0] * n for _ in range(n)]
        for i in range(m):
            c[i][i] = lam
        for i in range(m - 1):
            if i + 1 != sizes[0]:  # ones within each block
                c[i][i + 1] = 1
        c[m][m] = c[m + 1][m + 1] = alpha
        c[m][m + 1], c[m + 1][m] = -beta, beta
        basis = Matrix(draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=n, max_size=n)))
        assume(det(basis))
        return (matmul(matmul(basis, Matrix(c)), inverse(basis)),
                Spectrum([(lam, m), (GaussianRational(alpha, beta), 1),
                          (GaussianRational(alpha, -beta), 1)]))
    # distinct from λ: offsets 1–6 within −3..3, taken around
    others = [GaussianRational((lam + 3 + k) % 7 - 3) for k in draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=2, unique=True))]
    if kind == "gaussian":
        others[0] = GaussianRational(others[0].re,
                                     draw(st.sampled_from([-2, -1, 1, 2])))
    spectrum = Spectrum([(lam, m), *((v, 1) for v in others)])
    config = GeneratorConfig(dim=spectrum.total, spectrum=spectrum,
                             seed=draw(st.integers(0, 2**64 - 1)),
                             entry_bound=2,
                             jordan_blocks={GaussianRational(lam): sizes})
    return random_spectral_matrix(config)[0], spectrum


class TestChainsAgainstReference:
    """Chains that start from the kept kernel, or from a line's single
    block read off one power of κ, equal those of one null-space
    elimination per power, element for element."""

    @given(line_blocks())
    def test_line_blocks(self, case):
        a, s = case
        kept = _copy(a)
        eigensystem(kept, s)
        for (value, mult), kernel in zip(s.pairs, _kept_kernels(kept, s)):
            expected = ref.null_sequence_chains(a, value, mult)
            assert _chains(_copy(a), value, mult) == expected
            assert _chains(kept, value, mult, kernel) == expected
            assert build_chains(a, value) == \
                ref.null_sequence_chains(a, value, a.rows)
        # an ODE after eigensystem alone starts its chains from the kernel
        ode_kept = _copy(a)
        eigensystem(ode_kept, s)
        warm = [jordan_form(kept, s), ode_general_solution(ode_kept, s)]
        cold = [jordan_form(_copy(a), s), ode_general_solution(_copy(a), s)]
        assert json.dumps(_text(warm)) == json.dumps(_text(cold))


def berkowitz_tally(n):
    """(mults, adds, divs) of the Samuelson–Berkowitz recurrence on an
    n×n matrix, one trailing block [[a, R], [C, N₁]] at a time, from
    the 2×2 up: the 1×1 costs nothing."""
    mults = adds = 0
    for s in range(1, n):  # the size of N₁
        # s − 1 products R·N₁^k·[C | N₁] of s + 1 dots, then R·N₁^(s−1)·C
        dots = (s - 1) * (s + 1) + 1
        mults += dots * s
        adds += dots * (s - 1)
        # row i of the (s + 2)×(s + 1) Toeplitz matrix: min(i + 1, s + 1)
        terms = [min(i + 1, s + 1) for i in range(s + 2)]
        mults += sum(terms)
        adds += sum(terms) - len(terms)
    return {"scalar_mults": mults, "scalar_adds": adds, "scalar_divs": 0}


def assert_charpoly_agrees(a, new):
    """``new`` is a matrix equal to ``a`` that has no charpoly yet."""
    with OpCounter() as ops:
        p = charpoly(new)
    assert p == ref.faddeev_leverrier(a)
    assert ops.as_dict() == berkowitz_tally(a.rows)


charpoly_scalars = st.sampled_from([
    st.builds(GaussianRational, st.integers(-9, 9)),
    st.builds(GaussianRational, st.integers(-10**20, 10**20)),
    real_scalars,
    complex_scalars,
    st.builds(GaussianRational, st.builds(Rational, st.integers(-9, 9),
                                          st.integers(1, 9)),
              st.builds(Rational, st.integers(-9, 9), st.integers(1, 9))),
])


@st.composite
def charpoly_matrices(draw):
    """Square rows of integers, rationals or Gaussian rationals, n = 1…8."""
    n = draw(st.integers(1, 8))
    return draw(scalar_rows(n, n, draw(charpoly_scalars)))


@st.composite
def chains(draw):
    """1–4 vectors of one length and orientation, rational or Gaussian,
    the first one nonzero, its lead negative, imaginary or positive."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 4))
    scalars = draw(st.sampled_from([real_scalars, complex_scalars]))
    orientation = draw(orientations)
    lead = draw(st.one_of(
        st.builds(GaussianRational, rationals),
        st.builds(GaussianRational, st.just(0), rationals),
        st.builds(GaussianRational, rationals, rationals),
    ).filter(bool))
    at = draw(st.integers(0, n - 1))
    first = [ZERO] * at + [lead] + [draw(scalars) for _ in range(n - at - 1)]
    rest = [[draw(scalars) for _ in range(n)] for _ in range(count - 1)]
    return [Vector(v, orientation) for v in [first, *rest]]


class TestCharpolyAgainstReference:
    @given(charpoly_matrices())
    def test_random_matrices(self, rows):
        assert_charpoly_agrees(Matrix(rows), Matrix(rows))

    def test_corpus(self, fresh, corpus):
        for entry in corpus:
            assert_charpoly_agrees(entry.matrix, fresh(entry.matrix))

    @pytest.mark.parametrize("rows", [
        [[-7]],
        [[0] * 4] * 4,
        [[int(j == i + 1) for j in range(5)] for i in range(5)],
        [[i + 2 * j if j >= i else 0 for j in range(5)] for i in range(5)],
        [[GaussianRational(12345678901234567890 * (i - j) + 10 ** 19,
                           98765432109876543210 * (i + j) - 10 ** 19)
          for j in range(4)] for i in range(4)],
    ], ids=["1x1", "zero", "nilpotent-jordan-block", "triangular",
            "gaussian-20-digit"])
    def test_special_matrices(self, rows):
        assert_charpoly_agrees(Matrix(rows), Matrix(rows))


class TestChainScalingAgainstReference:
    @given(chains())
    def test_random_chains(self, vectors):
        # Vector equality compares orientation too
        assert _primitive_chain(vectors) == ref.scale_chain_uniformly(vectors)

    @pytest.mark.parametrize("lead", [
        -1, Rational(-3, 4), GaussianRational(0, -2),
        GaussianRational(0, Rational(5, 3)), GaussianRational(-2, 7),
        GaussianRational(0, 1)])
    def test_leads(self, lead):
        vectors = [Vector([0, lead, Rational(1, 6)]),
                   Vector([GaussianRational(1, -1), Rational(-4, 9), 2])]
        assert _primitive_chain(vectors) == \
            ref.scale_chain_uniformly(vectors)


elimination_scalars = {
    "integer": st.builds(GaussianRational, st.integers(-6, 6)),
    "large-integer": st.builds(GaussianRational,
                               st.integers(-10**55, 10**55)),
    "rational": st.builds(GaussianRational, rationals),
    "gaussian-rational": st.builds(GaussianRational, rationals, rationals),
}


@st.composite
def elimination_inputs(draw):
    """A Matrix of integers, large integers, rationals or Gaussian
    rationals (with zeros mixed in), square, wide or tall, and dense,
    rank-deficient, zero or the identity (ones down the diagonal)."""
    n = draw(sizes)
    rows, cols = {"square": (n, n), "wide": (n, n + draw(sizes)),
                  "tall": (n + draw(sizes), n)}[
        draw(st.sampled_from(["square", "wide", "tall"]))]
    scalars = st.one_of(st.just(ZERO), elimination_scalars[
        draw(st.sampled_from(sorted(elimination_scalars)))])
    kind = draw(st.sampled_from(["dense", "deficient", "zero", "identity"]))
    if kind == "zero":
        return Matrix.zeros(rows, cols)
    if kind == "identity":
        return Matrix([[int(i == j) for j in range(cols)]
                       for i in range(rows)])
    if kind == "deficient" and min(rows, cols) > 1:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        return Matrix(ref.matmul(draw(scalar_rows(rows, inner, scalars)),
                                 draw(scalar_rows(inner, cols, scalars))))
    return Matrix(draw(scalar_rows(rows, cols, scalars)))


def assert_back_substitution_agrees(a):
    """RREF, null space and inverse by forward elimination and
    back-substitution equal the Gauss–Jordan ones; on a singular square
    matrix both inverses raise Singular."""
    assert rref(a) == ref.gauss_jordan_rref(a)
    assert nullspace_basis(a) == ref.gauss_jordan_nullspace_basis(a)
    if not a.is_square:
        return
    try:
        expected = ref.gauss_jordan_inverse(a)
    except Singular:
        with pytest.raises(Singular):
            inverse(a)
    else:
        assert inverse(a) == expected


class TestBackSubstitutionAgainstGaussJordan:
    @settings(max_examples=300)
    @given(elimination_inputs())
    def test_random_matrices(self, a):
        assert_back_substitution_agrees(a)

    @pytest.mark.parametrize("a", [
        Matrix.identity(1), Matrix.identity(4), Matrix.zeros(3, 3),
        Matrix.zeros(2, 5), Matrix([[0, 0, 1], [0, 0, 0], [2, 0, 0]]),
        Matrix([[GaussianRational(0, 1), 2], [1, GaussianRational(0, -2)]]),
    ], ids=["1", "identity", "zero", "zero-wide", "sparse", "gaussian"])
    def test_fixed_matrices(self, a):
        assert_back_substitution_agrees(a)

    def test_corpus_shifted_matrices(self, corpus):
        for entry in corpus:
            assert_back_substitution_agrees(entry.matrix)
            for value in entry.spectrum.values():
                assert_back_substitution_agrees(
                    subtract_scalar_diag(entry.matrix, value))


# -- canonical storage ---------------------------------------------------------


@st.composite
def storage_scalars(draw, gaussian, integral):
    """A scalar with small parts: a Gaussian one may still come out real,
    an integral one has denominator 1."""
    def part():
        num = draw(st.integers(-9, 9))
        return Rational(num, 1 if integral else draw(st.integers(1, 6)))
    return GaussianRational(part(), part() if gaussian else 0)


@st.composite
def storage_operands(draw, rows, cols):
    """Rows of scalars: real or Gaussian, integral (denominator 1) or
    rational, or all zero."""
    if draw(st.integers(0, 5)) == 0:
        return tuple((ZERO,) * cols for _ in range(rows))
    scalars = storage_scalars(draw(st.booleans()), draw(st.booleans()))
    return draw(scalar_rows(rows, cols, scalars))


storage_sizes = st.integers(1, 4)
storage_shapes = st.tuples(storage_sizes, storage_sizes)


def assert_canonical(m, expected):
    """``m`` is stored canonically — den > 0, no common factor, a zero
    imaginary plane as ``()`` and only then — and holds the scalar rows
    ``expected``: it equals, and hashes like, a matrix built from them."""
    assert type(m._re) is tuple and type(m._im) is tuple
    assert m._den > 0 and gcd(m._den, *m._re, *m._im) == 1
    assert len(m._im) in (0, len(m._re))
    assert (m._im == ()) == (not any(m._im))
    rows = ref.scalar_rows(m)
    assert rows == tuple(map(tuple, expected))
    assert (m._im == ()) == all(not e.im for row in rows for e in row)
    again = Matrix.from_rows(rows)
    assert m == again and hash(m) == hash(again)


def assert_canonical_vector(v, expected, orientation):
    assert v.orientation == orientation
    assert_canonical(v._matrix, [expected] if orientation == "row"
                     else [(e,) for e in expected])


class TestCanonicalStorage:
    """Every kernel returns canonical storage, whatever mix of real and
    Gaussian, integral and rational operands it is given."""

    @given(st.data(), storage_sizes, storage_sizes, storage_sizes)
    def test_products(self, data, rows, inner, cols):
        left = data.draw(storage_operands(rows, inner))
        right = data.draw(storage_operands(inner, cols))
        a, b = Matrix(left), Matrix(right)
        assert_canonical(a, left)
        assert_canonical(matmul(a, b), ref.matmul(left, right))
        column, row = b.column(0), a.row(0)
        assert_canonical_vector(matvec(a, column), ref.matvec(
            left, column.entries), "column")
        assert_canonical_vector(matvec(b, row), ref.matvec(
            right, row.entries, "row"), "row")
        assert row.dot(column) == ref.vector_dot(row.entries,
                                                 column.entries)

    @given(st.data(), storage_shapes)
    def test_entrywise(self, data, shape):
        left = data.draw(storage_operands(*shape))
        right = data.draw(storage_operands(*shape))
        c = data.draw(storage_scalars(data.draw(st.booleans()),
                                      data.draw(st.booleans())))
        a, b = Matrix(left), Matrix(right)
        for got, expected in [
                (a + b, [[x + y for x, y in zip(u, w)]
                         for u, w in zip(left, right)]),
                (a - b, [[x - y for x, y in zip(u, w)]
                         for u, w in zip(left, right)]),
                (-a, [[-x for x in u] for u in left]),
                (a.scaled(c), [[x * c for x in u] for u in left]),
                (a.transpose(), list(zip(*left))),
                (Matrix.zeros(*shape), [[ZERO] * shape[1]] * shape[0])]:
            assert_canonical(got, expected)
        assert a._texts() == [[ref.format_scalar(e) for e in u]
                              for u in left]

    @given(st.data(), storage_shapes, storage_sizes)
    def test_placed_side_by_side(self, data, shape, width):
        left = data.draw(storage_operands(*shape))
        right = data.draw(storage_operands(shape[0], width))
        a, b = Matrix(left), Matrix(right)
        rows = [a.row(i) for i in range(a.rows)]
        columns = [a.column(j) for j in range(a.cols)]
        assert_canonical(Matrix.from_rows(rows), left)
        assert_canonical(Matrix.from_columns(columns), left)
        assert_canonical(Matrix.from_columns(columns + [b.column(0)]),
                         [u + w[:1] for u, w in zip(left, right)])
        assert_canonical(hstack(a, b), [u + w for u, w in zip(left, right)])

    @given(st.data(), storage_sizes, storage_sizes)
    def test_square(self, data, n, values):
        rows = data.draw(storage_operands(n, n))
        lam = data.draw(storage_scalars(data.draw(st.booleans()),
                                        data.draw(st.booleans())))
        a = Matrix(rows)
        assert_canonical(subtract_scalar_diag(a, lam), [
            [e - lam if i == j else e for j, e in enumerate(u)]
            for i, u in enumerate(rows)])
        diagonal = [rows[k % n][k % n] for k in range(values)]
        assert_canonical(Matrix.diagonal(diagonal), [
            [e if i == j else ZERO for j in range(values)]
            for i, e in enumerate(diagonal)])
        expected = ref.inverse(rows)
        if expected is None:
            with pytest.raises(Singular):
                inverse(a)
        else:
            assert_canonical(inverse(a), expected)

    @given(st.data(), storage_shapes)
    def test_elimination(self, data, shape):
        rows = data.draw(storage_operands(*shape))
        a = Matrix(rows)
        reduced, pivots = rref(a)
        expected, expected_pivots = ref.rref(rows)
        assert pivots == expected_pivots
        assert_canonical(reduced, expected)
        basis = nullspace_basis(a)
        assert len(basis) == len(reference_nullspace(rows))
        for v, w in zip(basis, reference_nullspace(rows)):
            assert_canonical_vector(v, w, "column")
        assert _annihilates(a, basis) is True

    @given(st.data(), storage_sizes, st.integers(1, 3), orientations)
    def test_vector_scalings(self, data, n, count, orientation):
        vectors = [Vector(data.draw(storage_operands(1, n))[0], orientation)
                   for _ in range(count)]
        assume(not vectors[0].is_zero())
        assert_canonical_vector(normalize_eigenvector(vectors[0]),
                                ref.normalize_eigenvector(vectors[0]),
                                orientation)
        for got, expected in zip(_primitive_chain(vectors),
                                 ref.scale_chain_uniformly(vectors)):
            assert_canonical_vector(got, expected.entries, orientation)

    def test_a_cancelled_imaginary_plane_is_empty(self):
        i = GaussianRational(0, 1)
        a = Matrix([[i, 0], [0, i]])
        assert_canonical(matmul(a, a), [[-1, 0], [0, -1]])
        assert_canonical(a - a.scaled(1), [[0, 0], [0, 0]])
        assert_canonical(subtract_scalar_diag(a, i), [[0, 0], [0, 0]])
