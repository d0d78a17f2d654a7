"""Shifted-matrix products and every eigenvector extraction route."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import exacteig
from exacteig import (
    AllRowsParallel,
    Defective,
    DimensionMismatch,
    GaussianRational,
    GeneratorConfig,
    InternalInconsistency,
    Matrix,
    NotDiagonalizable,
    NotInSpectrum,
    NotSquare,
    SpanBasis,
    Spectrum,
    TargetNotInSpectrum,
    SpectrumTooLarge,
    Vector,
    WrongSpectrum,
    characteristic_matrix,
    column_space_intersection,
    combined_characteristic_matrix,
    complementary_product,
    cross_eigenvector_3x3,
    diagonalize,
    eigensystem,
    eigenvectors_2x2,
    format_scalar,
    intersection_eigenvectors,
    is_diagonalizable,
    jordan_form,
    matmul,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    ode_general_solution,
    oracle_eigenvectors,
    parse_scalar,
    product_eigenvectors,
    left_product_eigenvectors,
    random_spectral_matrix,
    rank,
    residual_check,
    resolve_spectrum,
    span_equal,
    subtract_scalar_diag,
    to_scalar,
    two_spectrum_eigenvectors,
    verify_spectrum,
)

from worked import (
    ALL_ONES,
    ALL_ONES_SPECTRUM,
    COMPLEX_FIVE,
    COMPLEX_FIVE_SPAN_AT_1,
    COMPLEX_FIVE_SPECTRUM,
    CROSS_DEMO,
    CROSS_DEMO_PRODUCT_AT_0,
    CROSS_DEMO_SHIFTED_BY_3,
    CROSS_DEMO_SPANS,
    CROSS_DEMO_SPECTRUM,
    CROSS_DEMO_VECTOR_AT_0,
    DEFECTIVE_PAIR,
    DEFECTIVE_PAIR_SPAN,
    DEFECTIVE_PAIR_SPECTRUM,
    DEFECTIVE_QUARTET,
    DEFECTIVE_QUARTET_PRODUCT_1_2,
    DEFECTIVE_QUARTET_SPECTRUM,
    DEFECTIVE_TABLE,
    DEFECTIVE_TRIO,
    DEFECTIVE_TRIO_SPECTRUM,
    DEFECTIVE_TRIO_WITNESS,
    DOUBLE_PLUS_SIMPLE,
    DOUBLE_PLUS_SIMPLE_SPECTRUM,
    FOUR_BY_FOUR_MIXED,
    FOUR_BY_FOUR_MIXED_SPECTRUM,
    HALVES,
    HALVES_SPANS,
    HALVES_SPECTRUM,
    SHORTCUT,
    SHORTCUT_COMBINED,
    SHORTCUT_LEFT_SPANS,
    SHORTCUT_SPANS,
    SHORTCUT_SPECTRUM,
    SPAN_TABLE,
    SYMMETRIC_PAIR,
    SYMMETRIC_PAIR_SPANS,
    THREE_DISTINCT,
    THREE_DISTINCT_SHIFTED_BY_2,
    THREE_DISTINCT_SPECTRUM,
    TRIANGULAR_PAIR,
    TRIANGULAR_PAIR_SPANS,
    TRIPLE_EIGENVALUE,
    TRIPLE_EIGENVALUE_SPECTRUM,
    TWO_CHAINS,
    TWO_CHAINS_SPECTRUM,
    TWO_DOUBLES,
    TWO_DOUBLES_SPAN_AT_2,
    TWO_DOUBLES_SPECTRUM,
    m,
    spectrum,
    v,
)
from test_factorizations import corpus_recipe


def assert_same_span(vectors, expected, dim):
    __tracebackhide__ = True
    assert span_equal(SpanBasis(tuple(vectors), dim),
                      SpanBasis(tuple(expected), dim))


# Exact left_product_eigenvectors output (rows, space-separated canonical
# scalars) on the worked fixtures and corpus seeds 0-39. Span checks cannot
# see a change of a vector's scale or of the order; these tables can.
FROZEN_LEFT_WORKED = [
    (SHORTCUT, SHORTCUT_SPECTRUM, {
        "2": ["2 -1"],
        "5": ["1 1"],
    }),
    (FOUR_BY_FOUR_MIXED, FOUR_BY_FOUR_MIXED_SPECTRUM, {
        "0": ["1 1 3 -3"],
        "1": ["1 -2 1 0", "0 2 0 -1"],
        "2": ["1 1 2 -2"],
    }),
]
FROZEN_LEFT_CORPUS = {
    0: {"-4": ["0 1"], "-3": ["1 0"]},
    1: {"-2": ["1 -4 -1"], "-1": ["2 -2 1"], "3": ["1 -1 -1"]},
    2: {"-4": ["1 2 -1"], "1": ["1 1 0", "1 0 -2"]},
    3: {"-1": ["4 2 2 3"]},
    4: {"0": ["1 0", "0 1"]},
    5: {"-2": ["1 -1 1"], "3": ["1 0 -1"], "4": ["1 1 -1"]},
    6: {"-1": ["2 4 -4 -3"], "1": ["1 2 0 0", "0 0 0 1"], "2": ["2 2 0 -3"]},
    7: {"-4": ["1 -1"], "2": ["1 0"]},
    8: {"-2": ["1 -1 0", "2 0 -1"], "0": ["2 1 2"]},
    9: {
        "0": ["1 4 1 0 0", "1 1 0 1 0", "2 4 0 0 1"],
        "2": ["12 -4 10 3 0", "3 -1 3 0 1"],
    },
    10: {"1": ["1 0", "0 1"]},
    11: {"0": ["2 3 2"]},
    12: {"2": ["1 0 0", "0 1 0", "0 0 1"]},
    13: {"2": ["1 4 -1 0", "2 5 0 -1"], "3": ["1 1 -1 0", "0 1 0 -1"]},
    14: {"2": ["1 0", "0 1"]},
    15: {"-2": ["2 -3 1"], "0": ["4 1 2"], "3": ["3 -1 5"]},
    16: {
        "-3": ["5 -3 -4 -8"],
        "0": ["2 3 4 -6"],
        "3": ["1 1 0 0", "1 0 3 -1"],
    },
    17: {"-3": ["1 2"], "4": ["1 -1"]},
    18: {"-1": ["1 -1 0", "1 0 -2"], "3": ["2 5 1"]},
    19: {"1": ["3 10 6 4 -12"]},
    20: {"4": ["1 0", "0 1"]},
    21: {"1": ["1 2 0", "1 0 1"], "4": ["2 0 1"]},
    22: {"-3": ["2 -1 -1"], "2": ["4 -1 -3"], "4": ["0 1 1"]},
    23: {"-3": ["0 1 -2 0"], "-1": ["0 1 2 0", "2 -5 0 -4"]},
    24: {"-3": ["1 0", "0 1"]},
    25: {"-2": ["1 0 0", "0 1 0", "0 0 1"]},
    26: {"-4": ["0 1 0 0", "1 0 1 0", "1 0 0 1"], "1": ["3 -2 2 -1"]},
    27: {"-3": ["2 1"]},
    28: {"-3": ["1 -1 0", "2 0 -1"], "-2": ["0 1 0"]},
    29: {
        "-3": ["2 -4 0 2 3"],
        "3": ["7 2 5 -3 0", "2 -5 1 0 3"],
        "4": ["2 -2 -3 -4 0", "2 -8 -1 0 2"],
    },
    30: {"-4": ["1 0", "0 1"]},
    31: {"0": ["6 -2 -5"]},
    32: {"-4": ["1 -2 0", "1 0 -2"], "4": ["3 1 1"]},
    33: {"1": ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]},
    34: {"-3": ["1 0"], "-1": ["0 1"]},
    35: {"-3": ["5 4 -3"]},
    36: {
        "-1": ["1 0 -3 -4"],
        "1": ["1 -1 -1 -2"],
        "4": ["0 1 0 0", "1 0 -1 0"],
    },
    37: {"2": ["1 0"], "3": ["2 1"]},
    38: {"-4": ["1 0 0", "0 1 0", "0 0 1"]},
    39: {
        "-2": ["4 -4 -5 1 -2"],
        "-1": ["4 -4 -5 9 -2"],
        "4": ["0 2 1 1 0", "2 -1 -1 0 1"],
    },
}


def assert_frozen_left(matrix, spec, table):
    __tracebackhide__ = True
    assert sorted(table) == sorted(format_scalar(v) for v in spec.values())
    for value, rows in table.items():
        expected = [Vector([parse_scalar(x) for x in row.split()], "row")
                    for row in rows]
        assert left_product_eigenvectors(
            matrix, spec, parse_scalar(value)) == expected


class TestCharacteristicMatrix:
    def test_shift_and_metadata(self):
        shifted = characteristic_matrix(THREE_DISTINCT, to_scalar(2))
        assert shifted.matrix == THREE_DISTINCT_SHIFTED_BY_2
        assert shifted.eigenvalue == to_scalar(2)
        assert shifted.source_dim == 3

    def test_singular_exactly_at_eigenvalues(self):
        from exacteig import det
        assert det(characteristic_matrix(SHORTCUT, to_scalar(2)).matrix) \
            == to_scalar(0)
        assert det(characteristic_matrix(SHORTCUT, to_scalar(3)).matrix) \
            != to_scalar(0)


class TestComplementaryProduct:
    def test_known_product(self):
        product = complementary_product(
            CROSS_DEMO, CROSS_DEMO_SPECTRUM, to_scalar(0))
        assert product == CROSS_DEMO_PRODUCT_AT_0

    def test_known_4x4_product(self):
        product = complementary_product(
            DEFECTIVE_QUARTET, DEFECTIVE_QUARTET_SPECTRUM, to_scalar(4))
        assert product == DEFECTIVE_QUARTET_PRODUCT_1_2

    def test_columns_are_eigenvectors(self):
        product = complementary_product(
            CROSS_DEMO, CROSS_DEMO_SPECTRUM, to_scalar(3))
        for j in range(3):
            column = product.column(j)
            if not column.is_zero():
                assert residual_check(CROSS_DEMO, to_scalar(3), column)

    def test_factor_order_is_irrelevant(self):
        # shifted matrices of one source commute, so both orders match
        k3 = characteristic_matrix(CROSS_DEMO, to_scalar(3)).matrix
        k4 = characteristic_matrix(CROSS_DEMO, to_scalar(-4)).matrix
        assert matmul(k3, k4) == matmul(k4, k3)

    def test_with_multiplicity_annihilates(self):
        # the full product over the spectrum is the zero matrix
        product = complementary_product(
            FOUR_BY_FOUR_MIXED, FOUR_BY_FOUR_MIXED_SPECTRUM, to_scalar(1),
            with_multiplicity=True)
        k1 = characteristic_matrix(
            FOUR_BY_FOUR_MIXED, to_scalar(1)).matrix
        assert matmul(product, k1).is_zero()

    def test_single_eigenvalue_gives_identity(self):
        product = complementary_product(
            DEFECTIVE_PAIR, DEFECTIVE_PAIR_SPECTRUM, to_scalar(2))
        assert product == Matrix.identity(2)


class TestProductEigenvectors:
    @pytest.mark.parametrize("matrix,spec,spans", [
        pytest.param(*row, id=f"span-{i}")
        for i, row in enumerate(SPAN_TABLE)
    ])
    def test_matches_frozen_spans(self, matrix, spec, spans):
        for value, expected in spans.items():
            vectors = product_eigenvectors(matrix, spec, to_scalar(value))
            assert_same_span(vectors, expected, matrix.rows)

    def test_every_vector_checks_out(self):
        for matrix, spec, _ in SPAN_TABLE:
            for value, mult in spec.pairs:
                vectors = product_eigenvectors(matrix, spec, value)
                assert len(vectors) == mult
                for x in vectors:
                    assert residual_check(matrix, value, x)

    def test_defective_eigenvalue_yields_short_basis(self):
        vectors = product_eigenvectors(
            DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM, to_scalar(-2))
        assert len(vectors) == 1   # geometric < algebraic
        assert_same_span(vectors, [v([1, -1, 0])], 3)

    def test_complex_matrix(self):
        vectors = product_eigenvectors(
            COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM, to_scalar(1))
        assert_same_span(vectors, COMPLEX_FIVE_SPAN_AT_1, 5)

    def test_target_missing_raises(self):
        with pytest.raises(TargetNotInSpectrum):
            product_eigenvectors(SHORTCUT, SHORTCUT_SPECTRUM, to_scalar(9))

    def test_agrees_with_oracle(self):
        for matrix, spec, _ in SPAN_TABLE:
            for value, _mult in spec.pairs:
                assert_same_span(
                    product_eigenvectors(matrix, spec, value),
                    oracle_eigenvectors(matrix, value),
                    matrix.rows)

    # Wrong spectra that reach each guard of product_eigenvectors; a
    # spectrum is checked before a guard fires, so they raise WrongSpectrum.
    # 3 in place of 2: the product leaves the 2-eigenvector in its range
    # and nothing residual-clean, but 1 is repeated and its kernel a
    # plane, so no product is formed.
    DIRTY_COLUMNS = (Matrix.diagonal([1, 1, 2]), spectrum([(1, 2), (3, 1)]),
                     to_scalar(1))
    # 1 has multiplicity 3 and a 2-dimensional eigenspace, so the product
    # with one factor A - I would not be zero; the kernel decides first.
    KEPT_BESIDE_A_PLANE = (m([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
                           spectrum([(1, 2), (5, 1)]), to_scalar(1))
    # 1 claimed three times where it has a single block of size 2: its
    # kernel is a line, and (A - I)^2 keeps only the 2-eigenvector.
    DIRTY_BESIDE_A_LINE = (m([[2, 0, 0], [0, 1, 1], [0, 0, 1]]),
                           spectrum([(1, 3)]), to_scalar(1))
    # 7 is no eigenvalue: both columns are dirty and the null space empty.
    EMPTY_BASIS = (SHORTCUT, spectrum([(2, 1), (7, 1)]), to_scalar(7))

    def test_dirty_columns_beside_an_eigenspace_raise(self):
        with pytest.raises(WrongSpectrum):
            product_eigenvectors(*self.DIRTY_COLUMNS)

    def test_kept_column_beside_a_plane_raises(self):
        with pytest.raises(WrongSpectrum):
            product_eigenvectors(*self.KEPT_BESIDE_A_PLANE)

    def test_dirty_columns_beside_a_line_raise(self):
        with pytest.raises(WrongSpectrum):
            product_eigenvectors(*self.DIRTY_BESIDE_A_LINE)

    def test_empty_basis_from_a_wrong_spectrum_raises(self):
        with pytest.raises(WrongSpectrum, match="do not factor"):
            product_eigenvectors(*self.EMPTY_BASIS)

    def test_wrong_spectrum_raises_in_eigensystem_and_left(self):
        wrong = spectrum([(2, 1), (6, 1)])
        with pytest.raises(WrongSpectrum, match="do not factor"):
            eigensystem(SHORTCUT, wrong)
        with pytest.raises(WrongSpectrum, match="do not factor"):
            left_product_eigenvectors(SHORTCUT, wrong, to_scalar(6))

    def test_short_basis_from_a_wrong_spectrum_raises(self):
        # one residual-clean product column, as many as the claimed
        # multiplicity of 1, but 3 is no eigenvalue of I
        with pytest.raises(WrongSpectrum, match="do not factor"):
            product_eigenvectors(Matrix.identity(2), {1: 1, 3: 1}, 1)

    @pytest.mark.parametrize("case,outcome", [
        (DIRTY_COLUMNS, [v([1, 0, 0]), v([0, 1, 0])]),
        (KEPT_BESIDE_A_PLANE, [v([0, 1, 0]), v([0, 0, 1])]),
        (DIRTY_BESIDE_A_LINE, "residual"),
        (EMPTY_BASIS, "no eigenvector")],
        ids=["plane-dirty", "plane-kept", "line-dirty", "empty"])
    def test_guards_stand_behind_a_passing_check(self, monkeypatch, case,
                                                 outcome):
        # with the spectrum check passing, the same inputs reach the
        # guards; a kernel of dimension 2 is returned as it is, and it is
        # the target's eigenspace whatever the spectrum claims
        monkeypatch.setattr(exacteig.charmatrix, "verify_spectrum",
                            lambda a, s: s)
        if isinstance(outcome, str):
            with pytest.raises(InternalInconsistency, match=outcome):
                product_eigenvectors(*case)
        else:
            assert product_eigenvectors(*case) == outcome

    def test_a_product_column_must_be_the_kernel_vector(self, monkeypatch):
        # -2 is repeated with a line eigenspace: the product column is
        # checked against the kernel's vector, here replaced
        monkeypatch.setattr(exacteig.charmatrix, "nullspace_basis",
                            lambda k: [Vector([1] * k.cols)])
        with pytest.raises(InternalInconsistency, match="differs"):
            product_eigenvectors(DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM,
                                 to_scalar(-2))

    @pytest.mark.parametrize("call", [
        lambda: product_eigenvectors(
            DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_SPECTRUM, to_scalar(1)),
        lambda: intersection_eigenvectors(
            Matrix([[2, 1], [0, 2]]), {2: 2}, to_scalar(2)),
    ], ids=["eigenspace-not-a-line", "no-other-eigenvalue"])
    def test_null_space_vectors_are_residual_checked(self, monkeypatch,
                                                     call):
        # the all-ones vector is no eigenvector in either case
        original = exacteig.charmatrix.nullspace_basis
        monkeypatch.setattr(
            exacteig.charmatrix, "nullspace_basis",
            lambda k: [*original(k)[1:], Vector([1] * k.cols)])
        with pytest.raises(InternalInconsistency, match="residual"):
            call()

    @given(corpus_recipe())
    def test_every_eigenbasis_is_the_kernel_basis(self, case):
        # a product column, normalized, is the canonical vector of the
        # line that the null-space basis gives
        a, s = case
        for value, _ in s.pairs:
            assert product_eigenvectors(a, s, value) == nullspace_basis(
                subtract_scalar_diag(a, value))

    def test_one_shifted_matrix_per_eigenvalue_per_call(self, monkeypatch,
                                                        corpus):
        original = exacteig.charmatrix.subtract_scalar_diag
        built = []
        monkeypatch.setattr(
            exacteig.charmatrix, "subtract_scalar_diag",
            lambda a, lam: built.append(lam) or original(a, lam))
        for entry in corpus[:60]:
            a, s = entry.matrix, entry.spectrum
            calls = [eigensystem, is_diagonalizable,
                     lambda a, s: product_eigenvectors(a, s, s.values()[-1])]
            if not entry.planned_defective:
                calls.append(diagonalize)
            for call in calls:
                built.clear()
                call(a, s)
                assert len(built) == len(set(built)) <= len(s.pairs)

    def test_a_resolved_spectrum_is_not_recomputed(self, monkeypatch,
                                                   corpus, fresh):
        original = exacteig.spectra._characteristic_polynomial
        computed = []
        monkeypatch.setattr(exacteig.spectra, "_characteristic_polynomial",
                            lambda a: computed.append(a) or original(a))
        for i, entry in enumerate(corpus[:100]):
            a = fresh(entry.matrix)
            # found, or given and verified
            s = resolve_spectrum(a, None if i % 2 else entry.spectrum)
            assert len(computed) == i + 1
            eigensystem(a, s)
            eigensystem(a, entry.spectrum)
            assert len(computed) == i + 1


class TestProductRankFact:
    """With full multiplicities, the complementary product has rank 1
    when the eigenspace is a line and is zero otherwise."""

    def test_corpus_and_defective_table(self, corpus):
        cases = [(e.matrix, e.spectrum) for e in corpus] + DEFECTIVE_TABLE
        seen = set()
        for matrix, spec in cases:
            for value, mult in spec.pairs:
                geom = matrix.rows - rank(subtract_scalar_diag(matrix, value))
                product = complementary_product(matrix, spec, value, True)
                assert rank(product) == (1 if geom == 1 else 0)
                seen.add((mult > 1, geom == 1))
        # repeated eigenvalues with a line and with a larger eigenspace
        assert {(True, True), (True, False)} <= seen


class TestEliminationCount:
    """A repeated eigenvalue costs one elimination of A - lambda*I, whose
    kernel decides between a line and a larger eigenspace; a simple one
    takes a product column and none, and a null-space basis is never
    eliminated again."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        original = exacteig.matrices._eliminate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(exacteig.matrices, "_eliminate", counting)
        return calls

    @pytest.mark.parametrize("call,expected", [
        (lambda: product_eigenvectors(
            DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_SPECTRUM, to_scalar(1)), 1),
        (lambda: eigensystem(DOUBLE_PLUS_SIMPLE,
                             DOUBLE_PLUS_SIMPLE_SPECTRUM), 1),
        (lambda: eigensystem(TWO_CHAINS, TWO_CHAINS_SPECTRUM), 2),
    ], ids=["product-double", "eigensystem-double", "eigensystem-chains"])
    def test_one_per_basis(self, eliminations, call, expected):
        call()
        assert len(eliminations) == expected

    def test_a_plane_costs_one_elimination_and_no_product(
            self, eliminations, monkeypatch, fresh):
        a, s = fresh(DOUBLE_PLUS_SIMPLE), DOUBLE_PLUS_SIMPLE_SPECTRUM
        verify_spectrum(a, s)
        products = []
        for name in ("matmul", "matvec", "_product_eigenvector"):
            original = getattr(exacteig.charmatrix, name)
            monkeypatch.setattr(
                exacteig.charmatrix, name,
                lambda *args, _f=original: products.append(args) or _f(*args))
        vectors = product_eigenvectors(a, s, to_scalar(1))
        assert len(vectors) == 2
        assert len(eliminations) == 1 and products == []


class TestLeftEigenvectors:
    def test_frozen_left_spans(self):
        for value, expected in SHORTCUT_LEFT_SPANS.items():
            vectors = left_product_eigenvectors(
                SHORTCUT, SHORTCUT_SPECTRUM, to_scalar(value))
            assert_same_span(vectors, expected, 2)

    def test_row_orientation_and_residual(self):
        for value, _ in SHORTCUT_SPECTRUM.pairs:
            for w in left_product_eigenvectors(
                    SHORTCUT, SHORTCUT_SPECTRUM, value):
                assert w.orientation == "row"
                assert residual_check(SHORTCUT, value, w, side="left")

    @pytest.mark.parametrize("matrix,spec,table", FROZEN_LEFT_WORKED)
    def test_exact_rows_on_worked_fixtures(self, matrix, spec, table):
        assert_frozen_left(matrix, spec, table)

    def test_exact_rows_on_corpus(self, corpus):
        for seed, table in FROZEN_LEFT_CORPUS.items():
            entry = corpus[seed]
            assert_frozen_left(entry.matrix, entry.spectrum, table)

    def test_left_equals_right_of_transpose(self):
        a = FOUR_BY_FOUR_MIXED
        spec = FOUR_BY_FOUR_MIXED_SPECTRUM
        for value, _ in spec.pairs:
            left = left_product_eigenvectors(a, spec, value)
            transposed_right = product_eigenvectors(
                a.transpose(), spec, value)
            assert_same_span([w.transposed() for w in left],
                             transposed_right, 4)


class TestTwoSpectrum:
    def test_splits_both_eigenspaces(self):
        ones, threes = two_spectrum_eigenvectors(
            SYMMETRIC_PAIR, to_scalar(1), to_scalar(3))
        assert_same_span(ones, SYMMETRIC_PAIR_SPANS[1], 2)
        assert_same_span(threes, SYMMETRIC_PAIR_SPANS[3], 2)

    def test_handles_repeated_eigenvalue(self):
        ones, twos = two_spectrum_eigenvectors(
            HALVES, to_scalar(1), to_scalar(2))
        assert_same_span(ones, HALVES_SPANS[1], 3)
        assert_same_span(twos, HALVES_SPANS[2], 3)

    def test_rejects_wrong_values(self):
        with pytest.raises(WrongSpectrum):
            two_spectrum_eigenvectors(SYMMETRIC_PAIR, to_scalar(1),
                                      to_scalar(4))

    def test_rejects_a_repeated_value(self):
        with pytest.raises(WrongSpectrum, match="must be distinct"):
            two_spectrum_eigenvectors(SYMMETRIC_PAIR, to_scalar(1),
                                      to_scalar(1))

    def test_defect_is_detected(self):
        with pytest.raises(NotDiagonalizable) as excinfo:
            two_spectrum_eigenvectors(DEFECTIVE_TRIO, to_scalar(1),
                                      to_scalar(-2))
        assert excinfo.value.witness == DEFECTIVE_TRIO_WITNESS


class TestTwoByTwoShortcut:
    def test_distinct_eigenvalues(self):
        low, high = eigenvectors_2x2(SHORTCUT, to_scalar(2), to_scalar(5))
        assert_same_span([low], SHORTCUT_SPANS[2], 2)
        assert_same_span([high], SHORTCUT_SPANS[5], 2)

    def test_zero_column_fallback(self):
        low, high = eigenvectors_2x2(TRIANGULAR_PAIR, to_scalar(2),
                                     to_scalar(5))
        assert_same_span([low], TRIANGULAR_PAIR_SPANS[2], 2)
        assert_same_span([high], TRIANGULAR_PAIR_SPANS[5], 2)

    def test_scalar_matrix_gives_standard_basis(self):
        low, high = eigenvectors_2x2(m([[3, 0], [0, 3]]), to_scalar(3),
                                     to_scalar(3))
        assert_same_span([low, high], [v([1, 0]), v([0, 1])], 2)

    def test_defective_raises_with_direction(self):
        with pytest.raises(Defective) as excinfo:
            eigenvectors_2x2(DEFECTIVE_PAIR, to_scalar(2), to_scalar(2))
        assert_same_span([excinfo.value.eigenvector], DEFECTIVE_PAIR_SPAN,
                         2)

    def test_rejects_wrong_pair(self):
        with pytest.raises(WrongSpectrum):
            eigenvectors_2x2(SHORTCUT, to_scalar(2), to_scalar(4))

    # SHORTCUT has trace 7 and determinant 10: (3, 4) has the trace and
    # not the determinant, (1, 10) the determinant and not the trace
    @pytest.mark.parametrize("pair", [(3, 4), (4, 3), (1, 10), (10, 1)])
    def test_rejects_a_pair_that_matches_one_invariant(self, pair):
        with pytest.raises(WrongSpectrum):
            eigenvectors_2x2(SHORTCUT, *map(to_scalar, pair))

    @pytest.mark.parametrize("a,pair,vectors", [
        (SHORTCUT, ("2", "5"), ([1, -1], [1, 2])),
        (TRIANGULAR_PAIR, ("2", "5"), ([7, -3], [1, 0])),
        (m([[1, -2], [2, 1]]), ("1+2i", "1-2i"), ([1, "-i"], [1, "i"])),
    ], ids=["shortcut", "zero-column", "gaussian"])
    def test_exact_vectors(self, a, pair, vectors):
        # the first nonzero column of A − μI for the other eigenvalue μ,
        # normalized, in either order of the pair
        lam1, lam2 = map(to_scalar, pair)
        expected = tuple(map(v, vectors))
        assert eigenvectors_2x2(a, lam1, lam2) == expected
        assert eigenvectors_2x2(a, lam2, lam1) == expected[::-1]

    def test_exact_defective_direction(self):
        with pytest.raises(Defective) as excinfo:
            eigenvectors_2x2(DEFECTIVE_PAIR, to_scalar(2), to_scalar(2))
        assert excinfo.value.eigenvector == v([1, 1])


class TestCombinedMatrix:
    def test_two_by_two_assignment(self):
        combined = combined_characteristic_matrix(SHORTCUT, [2, 5])
        assert combined == SHORTCUT_COMBINED
        for j, value in enumerate([2, 5]):
            assert residual_check(SHORTCUT, to_scalar(value),
                                  combined.column(j))

    def test_single_point_spectrum(self):
        # one eigenvalue: the premise is A − λI = 0, not (A − λI)² = 0
        with pytest.raises(NotDiagonalizable) as excinfo:
            combined_characteristic_matrix(DEFECTIVE_TRIO_WITNESS, [0, 0, 0])
        assert excinfo.value.witness == DEFECTIVE_TRIO_WITNESS
        assert is_diagonalizable(DEFECTIVE_TRIO_WITNESS, spectrum([(0, 3)])) \
            == (False, DEFECTIVE_TRIO_WITNESS)
        combined = combined_characteristic_matrix(Matrix.identity(3) * 2,
                                                  [2, 2, 2])
        assert combined.is_zero() and combined.cols == 3

    def test_rejects_three_distinct(self):
        with pytest.raises(SpectrumTooLarge):
            combined_characteristic_matrix(THREE_DISTINCT, [1, 2, 3])

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(NotInSpectrum):
            combined_characteristic_matrix(SHORTCUT, [2, 9])

    @pytest.mark.parametrize("a,assignment,witness", [
        (m([[2, 1, 0], [0, 2, 0], [0, 0, 3]]), [2, 2, 3],
         m([[0, -1, 0], [0, 0, 0], [0, 0, 0]])),
        (m([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), [1, 1, 1],
         m([[0, 1, 0], [0, 0, 1], [0, 0, 0]])),
        (m([[2, 1], [0, 2]]), [2, 2], m([[0, 1], [0, 0]])),
    ], ids=["two-values", "jordan-block", "jordan-pair"])
    def test_defective_input_raises_with_the_witness(self, a, assignment,
                                                     witness):
        # the columns (1, −1, 0) and (0, 1, 0) would be no eigenvectors
        with pytest.raises(NotDiagonalizable) as excinfo:
            combined_characteristic_matrix(a, assignment)
        assert excinfo.value.witness == witness


@st.composite
def at_most_two_eigenvalues(draw):
    """(A, spectrum, defective) planted with one or two distinct integer
    or Gaussian eigenvalues, n ≤ 6; a defective draw puts a Jordan block
    of size 2 or 3 on one of them."""
    values = draw(st.lists(st.one_of(
        st.builds(GaussianRational, st.integers(-3, 3)),
        st.builds(GaussianRational, st.integers(-3, 3),
                  st.sampled_from([-2, -1, 1, 2]))),
        min_size=1, max_size=2, unique=True))
    defective = draw(st.booleans())
    budget = 6 - len(values)
    blocks = {}
    for i, value in enumerate(values):
        sizes = [draw(st.integers(2, 3)) if defective and i == 0 else 1]
        budget -= sizes[0] - 1
        while budget and draw(st.booleans()):
            sizes.append(draw(st.integers(1, min(budget, 3)))
                         if defective else 1)
            budget -= sizes[-1]
        blocks[value] = tuple(sizes)
    s = Spectrum([(value, sum(sizes)) for value, sizes in blocks.items()])
    config = GeneratorConfig(dim=s.total, spectrum=s, jordan_blocks=blocks,
                             seed=draw(st.integers(0, 2**64 - 1)))
    return random_spectral_matrix(config)[0], s, defective


class TestAtMostTwoEigenvalues:
    """The paper's theorem: with |σ(A)| ≤ 2 the eigenvectors for λ₁ are
    the nonzero columns of A − λ₂I and vice versa, exactly when
    (A − λ₁I)(A − λ₂I) = 0. The three readers return eigenvectors on a
    semisimple matrix and, on a defective one, raise with the witness
    ``is_diagonalizable`` gives: the product, or A − λI for one point."""

    @given(at_most_two_eigenvalues())
    @example((m([[2, 1, 0], [0, 2, 0], [0, 0, 3]]),
              spectrum([(2, 2), (3, 1)]), True))
    @example((m([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), spectrum([(1, 3)]),
              True))
    def test_the_three_readers(self, case):
        a, s, defective = case
        values = s.values()
        lam1, lam2 = values[0], values[-1]
        premise = matmul(subtract_scalar_diag(a, lam1),
                         subtract_scalar_diag(a, lam2))
        assignment = [value for value, mult in s.pairs
                      for _ in range(mult)]
        if defective:
            with pytest.raises(NotDiagonalizable) as excinfo:
                combined_characteristic_matrix(a, assignment, s)
            assert excinfo.value.witness == is_diagonalizable(a, s)[1]
        else:
            combined = combined_characteristic_matrix(a, assignment, s)
            for j, value in enumerate(assignment):
                column = combined.column(j)
                assert column.is_zero() or residual_check(a, value, column)
        if lam1 == lam2:
            return
        if defective:
            with pytest.raises(NotDiagonalizable) as excinfo:
                two_spectrum_eigenvectors(a, lam1, lam2)
            assert excinfo.value.witness == premise
            return
        split = two_spectrum_eigenvectors(a, lam1, lam2)
        for value, vectors in zip((lam1, lam2), split):
            assert all(residual_check(a, value, w) for w in vectors)
            assert_same_span(vectors, oracle_eigenvectors(a, value), a.rows)
        if a.rows == 2:
            assert eigenvectors_2x2(a, lam1, lam2) == \
                tuple(vectors[0] for vectors in split)


class TestCrossProductRoute:
    def test_known_kernel_vector(self):
        result = cross_eigenvector_3x3(CROSS_DEMO, to_scalar(0))
        assert normalize_eigenvector(result) == CROSS_DEMO_VECTOR_AT_0

    def test_all_eigenvalues(self):
        for value, expected in CROSS_DEMO_SPANS.items():
            result = cross_eigenvector_3x3(CROSS_DEMO, to_scalar(value))
            assert_same_span([result], expected, 3)

    def test_first_usable_row_pair_semantics(self):
        # rows 0,1 of the shifted matrix at 3 cross to a usable vector
        from exacteig import cross3
        k3 = CROSS_DEMO_SHIFTED_BY_3
        crossed = cross3(k3.row(0).transposed(), k3.row(1).transposed())
        assert_same_span([crossed], CROSS_DEMO_SPANS[3], 3)

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(NotInSpectrum, match="^7 is not an eigenvalue$"):
            cross_eigenvector_3x3(CROSS_DEMO, to_scalar(7))

    def test_parallel_rows_raise(self):
        with pytest.raises(AllRowsParallel):
            cross_eigenvector_3x3(ALL_ONES, to_scalar(0))

    def test_all_ones_other_eigenvalue_works(self):
        result = cross_eigenvector_3x3(ALL_ONES, to_scalar(3))
        assert residual_check(ALL_ONES, to_scalar(3), result)


class TestColumnSpaceIntersection:
    def test_plane_meets_plane_in_line(self):
        b1 = Matrix.from_columns([[1, 0, 0], [0, 1, 0]])
        b2 = Matrix.from_columns([[0, 1, 0], [0, 0, 1]])
        assert_same_span(column_space_intersection(b1, b2),
                         [v([0, 1, 0])], 3)

    def test_disjoint_spaces_meet_in_zero(self):
        b1 = Matrix.from_columns([[1, 0, 0]])
        b2 = Matrix.from_columns([[0, 1, 0]])
        assert column_space_intersection(b1, b2) == []

    def test_different_dimensions_are_refused(self):
        with pytest.raises(DimensionMismatch):
            column_space_intersection(Matrix.from_columns([[1, 0, 0]]),
                                      Matrix.from_columns([[1, 0]]))

    def test_a_defective_input_keeps_every_eigenvector(self):
        # P·(J₂(2) ⊕ [3])·P⁻¹ for P = [[1, 2, 0], [1, 1, 1], [0, 1, 2]]:
        # no basis vector of the intersection is an eigenvector
        a = m([["8/3", "-2/3", "1/3"], ["1/3", "5/3", "2/3"],
               ["-2/3", "2/3", "8/3"]])
        s = spectrum([(2, 2), (3, 1)])
        for value in s.values():
            assert intersection_eigenvectors(a, s, value) == \
                oracle_eigenvectors(a, value)

    def test_eigenspace_as_product_intersection(self):
        # intersecting two single-shift column spaces recovers the
        # eigenspace of the remaining eigenvalue
        k3 = characteristic_matrix(CROSS_DEMO, to_scalar(3)).matrix
        k4 = characteristic_matrix(CROSS_DEMO, to_scalar(-4)).matrix
        meet = column_space_intersection(k3, k4)
        assert_same_span(meet, CROSS_DEMO_SPANS[0], 3)


class TestDiagonalizability:
    def test_diagonalizable_has_no_witness(self):
        ok, witness = is_diagonalizable(TWO_DOUBLES, TWO_DOUBLES_SPECTRUM)
        assert ok and witness is None

    def test_defective_witness_is_frozen_product(self):
        ok, witness = is_diagonalizable(DEFECTIVE_TRIO,
                                        DEFECTIVE_TRIO_SPECTRUM)
        assert not ok
        assert witness == DEFECTIVE_TRIO_WITNESS

    def test_single_eigenvalue_witness_is_shift_itself(self):
        ok, witness = is_diagonalizable(DEFECTIVE_PAIR,
                                        DEFECTIVE_PAIR_SPECTRUM)
        assert not ok
        assert witness == m([[1, -1], [1, -1]])


class TestEveryEigenvectorIsChecked:
    """Every vector a route returns is checked on the integer planes: by
    (A − λI)·v = 0, or, in the readers of the |σ(A)| ≤ 2 shortcut, by
    the one premise (A − λ₁I)(A − λ₂I) = 0 over the factors they read
    their columns from. A vector that is no eigenvector, put where the
    route reads its vectors, raises or, in the intersection route, is
    dropped, and so does a factor with one wrong entry. (1, 0) and
    (1, 0, 0) are no eigenvectors of the matrices used here."""

    NOT_AN_EIGENVECTOR = Matrix([[1, 1], [0, 0]])

    @pytest.mark.parametrize("call", [product_eigenvectors,
                                      left_product_eigenvectors])
    def test_the_product_column_of_a_simple_eigenvalue(self, monkeypatch,
                                                       call):
        # the factors are shift rows; those of A − 0·I are A's own
        wrong = exacteig.matrices._shift_rows(self.NOT_AN_EIGENVECTOR, 0)
        monkeypatch.setattr(exacteig.charmatrix, "_product_factors",
                            lambda *args, **kwargs: [wrong])
        assert not residual_check(SHORTCUT, to_scalar(5), v([1, 0]))
        with pytest.raises(InternalInconsistency, match="no eigenvector"):
            call(SHORTCUT, SHORTCUT_SPECTRUM, to_scalar(5))

    # a verified 2x2 pair leaves the product zero (Cayley–Hamilton), so
    # there a nonzero one is a fault rather than a witness
    @pytest.mark.parametrize("call,replaced,error", [
        (lambda: two_spectrum_eigenvectors(SHORTCUT, to_scalar(2),
                                           to_scalar(5)),
         0, NotDiagonalizable),
        (lambda: two_spectrum_eigenvectors(SHORTCUT, to_scalar(2),
                                           to_scalar(5)),
         1, NotDiagonalizable),
        (lambda: eigenvectors_2x2(SHORTCUT, to_scalar(2), to_scalar(5)),
         0, InternalInconsistency),
        (lambda: eigenvectors_2x2(SHORTCUT, to_scalar(2), to_scalar(5)),
         1, InternalInconsistency),
        (lambda: eigenvectors_2x2(DEFECTIVE_PAIR, to_scalar(2),
                                  to_scalar(2)), 0, InternalInconsistency),
        (lambda: combined_characteristic_matrix(SHORTCUT, [2, 5]),
         1, NotDiagonalizable),
    ], ids=["two-spectrum-first", "two-spectrum-second", "2x2-first",
            "2x2-second", "2x2-defective-direction", "combined"])
    def test_every_column_set(self, monkeypatch, call, replaced, error):
        # entry (0, 0) of one factor A − λI is off by one; the other
        # factor stays, and every column is read from one of the two
        original = exacteig.charmatrix.subtract_scalar_diag
        factors = []

        def one_wrong(a, lam):
            shifted = original(a, lam)
            if len(factors) == replaced:
                shifted = shifted + Matrix.diagonal([1, 0])
            factors.append(shifted)
            return shifted

        monkeypatch.setattr(exacteig.charmatrix, "subtract_scalar_diag",
                            one_wrong)
        with pytest.raises(error, match="product is nonzero|nonzero product"):
            call()
        assert len(factors) > replaced

    def test_the_cross_product(self, monkeypatch):
        monkeypatch.setattr(exacteig.charmatrix, "cross3",
                            lambda u, w: Vector([1, 0, 0]))
        with pytest.raises(InternalInconsistency, match="not an eigenvector"):
            cross_eigenvector_3x3(CROSS_DEMO, to_scalar(0))

    def test_the_intersection_drops_it(self, monkeypatch):
        expected = intersection_eigenvectors(
            THREE_DISTINCT, THREE_DISTINCT_SPECTRUM, to_scalar(1))
        original = exacteig.charmatrix.column_space_intersection
        monkeypatch.setattr(
            exacteig.charmatrix, "column_space_intersection",
            lambda b1, b2: [*original(b1, b2), Vector([1, 0, 0])])
        assert intersection_eigenvectors(
            THREE_DISTINCT, THREE_DISTINCT_SPECTRUM, to_scalar(1)) == expected


def _faulty_calls():
    """Each product-method entry point on THREE_DISTINCT, by name."""
    calls = {"eigensystem": eigensystem}
    for value in THREE_DISTINCT_SPECTRUM.values():
        for name, call in (("right", product_eigenvectors),
                           ("left", left_product_eigenvectors)):
            calls[f"{name}-{format_scalar(value)}"] = (
                lambda a, s, _call=call, _value=value: _call(a, s, _value))
    return calls


FAULTY_CALLS = _faulty_calls()


class TestKernelFaults:
    """The product columns run on integer shift rows in ``matrices``.
    One wrong entry in the rows of one A − λI, or in a column pushed
    through them, makes ``eigensystem``, ``product_eigenvectors`` and
    ``left_product_eigenvectors`` raise InternalInconsistency, and none
    returns or keeps a vector. Every eigenvalue of THREE_DISTINCT is
    simple, so the residual test on the rows is the only check its
    product columns meet."""

    def assert_no_vector(self, fresh, call):
        a = fresh(THREE_DISTINCT)
        with pytest.raises(InternalInconsistency, match="no eigenvector"):
            call(a, THREE_DISTINCT_SPECTRUM)
        assert getattr(a, "_eigenvectors", None) is None

    @pytest.mark.parametrize("wrong", [0, 1, 2])
    @pytest.mark.parametrize("call", FAULTY_CALLS.values(),
                             ids=FAULTY_CALLS.keys())
    def test_a_wrong_shift_row(self, monkeypatch, fresh, call, wrong):
        # entry (0, 0) of the rows of the wrong-th eigenvalue is off by one
        original = exacteig.charmatrix._shift_rows
        value = THREE_DISTINCT_SPECTRUM.values()[wrong]
        faults = []

        def one_wrong(a, lam):
            re, im = original(a, lam)
            if lam == value:
                faults.append(lam)
                re = [[re[0][0] + 1, *re[0][1:]], *re[1:]]
            return re, im

        monkeypatch.setattr(exacteig.charmatrix, "_shift_rows", one_wrong)
        self.assert_no_vector(fresh, call)
        assert faults

    @pytest.mark.parametrize("call", FAULTY_CALLS.values(),
                             ids=FAULTY_CALLS.keys())
    def test_a_wrong_pushed_column(self, monkeypatch, fresh, call):
        # the first entry of every column pushed through a factor is off
        # by one
        original = exacteig.matrices._push
        faults = []

        def one_wrong(factor, re, im):
            out_re, out_im = original(factor, re, im)
            faults.append(out_re)
            return [out_re[0] + 1, *out_re[1:]], out_im

        monkeypatch.setattr(exacteig.matrices, "_push", one_wrong)
        self.assert_no_vector(fresh, call)
        assert faults


class TestEmptyKernel:
    """A fault that leaves A − λI of a repeated eigenvalue with no
    null-space vector is an InternalInconsistency at every route through
    the product method, before a product is formed, and no basis is
    kept. DEFECTIVE_TRIO has −2 with multiplicity 2."""

    @pytest.mark.parametrize("call", [
        lambda a: eigensystem(a, DEFECTIVE_TRIO_SPECTRUM),
        lambda a: product_eigenvectors(a, DEFECTIVE_TRIO_SPECTRUM, -2),
        lambda a: left_product_eigenvectors(a, DEFECTIVE_TRIO_SPECTRUM, -2),
        jordan_form,
    ], ids=["eigensystem", "right", "left", "jordan_form"])
    def test_no_eigenvector_keeps_no_basis(self, monkeypatch, fresh, call):
        monkeypatch.setattr(exacteig.charmatrix, "nullspace_basis",
                            lambda kappa: [])
        monkeypatch.setattr(exacteig.charmatrix, "_product_eigenvector",
                            None)
        a = fresh(DEFECTIVE_TRIO)
        with pytest.raises(InternalInconsistency,
                           match="a verified eigenvalue has no eigenvector"):
            call(a)
        assert getattr(a, "_eigenvectors", None) is None
        assert not hasattr(a, "_jordan")


class TestEveryEntryPointChecksItsSpectrum:
    """Entry points that take a spectrum, or find one, check it like the
    product methods do (``verify_spectrum`` or ``resolve_spectrum``): a
    wrong spectrum raises WrongSpectrum, and the matrix keeps the one
    that passes, so a later check of it deflates nothing."""

    @pytest.fixture
    def no_deflation(self, monkeypatch):
        return lambda: monkeypatch.setattr(exacteig.spectra, "_deflated",
                                           None)

    def test_is_diagonalizable(self):
        # a diagonal matrix, once declared not diagonalizable
        with pytest.raises(WrongSpectrum):
            is_diagonalizable(Matrix.diagonal([1, 2]), {1: 2})

    def test_intersection_eigenvectors(self):
        # the true spectrum is {2: 2, 3: 1}; one vector came back for 3
        with pytest.raises(WrongSpectrum):
            intersection_eigenvectors(m([[2, 1, 0], [0, 2, 0], [0, 0, 3]]),
                                      {2: 1, 3: 2}, to_scalar(3))

    @pytest.mark.parametrize("lam1,lam2", [(2, 5), (7, 1)],
                             ids=["second-value-wrong", "first-value-wrong"])
    def test_two_spectrum_eigenvectors(self, lam1, lam2):
        # HALVES has the spectrum {2: 2, 1: 1}
        with pytest.raises(WrongSpectrum, match="spectrum is not"):
            two_spectrum_eigenvectors(HALVES, to_scalar(lam1),
                                      to_scalar(lam2))

    @pytest.mark.parametrize("pair", [(2, 5), (5, 2)])
    def test_eigenvectors_2x2_keeps_the_spectrum(self, fresh, no_deflation,
                                                 pair):
        a = fresh(SHORTCUT)
        eigenvectors_2x2(a, *map(to_scalar, pair))
        no_deflation()
        assert verify_spectrum(a, [(pair[0], 1), (pair[1], 1)]) \
            == SHORTCUT_SPECTRUM

    def test_two_spectrum_eigenvectors_keeps_the_spectrum(self, fresh,
                                                          no_deflation):
        a = fresh(HALVES)
        two_spectrum_eigenvectors(a, to_scalar(1), to_scalar(2))
        no_deflation()
        assert verify_spectrum(a, HALVES_SPECTRUM) == HALVES_SPECTRUM

    def test_two_spectrum_eigenvectors_deflates_once_per_value(
            self, fresh, monkeypatch):
        original = exacteig.spectra._deflated
        roots = []
        monkeypatch.setattr(exacteig.spectra, "_deflated", lambda p, root: (
            roots.append(root) or original(p, root)))
        two_spectrum_eigenvectors(fresh(SHORTCUT), to_scalar(2),
                                  to_scalar(5))
        assert roots == [2, 5]

    def test_combined_characteristic_matrix(self):
        with pytest.raises(WrongSpectrum):
            combined_characteristic_matrix(SHORTCUT, [2, 5], {2: 1, 6: 1})
        assert combined_characteristic_matrix(
            SHORTCUT, [2, 5], SHORTCUT_SPECTRUM) == SHORTCUT_COMBINED

    def test_combined_characteristic_matrix_keeps_the_spectrum(
            self, fresh, no_deflation):
        a = fresh(SHORTCUT)
        combined_characteristic_matrix(a, [2, 5])
        no_deflation()
        assert verify_spectrum(a, SHORTCUT_SPECTRUM) == SHORTCUT_SPECTRUM

    @pytest.fixture
    def structure_reads(self, monkeypatch):
        """Names of the eigen-structure facts read or written on any
        matrix, watched through the slots of ``Matrix``."""
        seen = []
        for name in ("_eigenvectors", "_jordan"):
            slot = vars(Matrix)[name]
            monkeypatch.setattr(Matrix, name, property(
                lambda self, _name=name, _slot=slot: (
                    seen.append(_name) or _slot.__get__(self, Matrix)),
                lambda self, value, _name=name, _slot=slot: (
                    seen.append(_name) or _slot.__set__(self, value))))
        return seen

    @pytest.mark.parametrize("entry", [
        eigensystem, is_diagonalizable, diagonalize, jordan_form,
        ode_general_solution])
    @pytest.mark.parametrize("matrix,right,wrong", [
        (THREE_DISTINCT, THREE_DISTINCT_SPECTRUM, {1: 1, 2: 1, 4: 1}),
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM, {1: 2, -2: 1}),
    ], ids=["diagonalizable", "defective"])
    def test_kept_eigen_structure_answers_no_wrong_spectrum(
            self, fresh, structure_reads, entry, matrix, right, wrong):
        # the kept facts carry no spectrum: the check before them guards
        a = fresh(matrix)
        eigensystem(a, right)
        jordan_form(a, right)
        structure_reads.clear()
        with pytest.raises(WrongSpectrum):
            entry(a, wrong)
        assert structure_reads == []
        # the right spectrum reads the kept basis, so the watch sees reads
        jordan_form(a, right)
        assert "_jordan" in structure_reads


class TestEveryEntryPointChecksItsShape:
    """A matrix that is not square raises NotSquare at every entry point
    that takes one, before anything else is computed."""

    @pytest.mark.parametrize("name,args", [
        pytest.param(name, args, id=name) for name, args in [
            ("characteristic_matrix", (1,)),
            ("complementary_product", ({1: 1}, 1)),
            ("two_spectrum_eigenvectors", (1, 2)),
            ("eigenvectors_2x2", (1, 2)),
            ("cross_eigenvector_3x3", (1,)),
            ("combined_characteristic_matrix", ([1, 2],)),
            ("is_diagonalizable", ({1: 1},)),
            ("diagonalize", ()),
            ("matrix_power", (2,)),
            ("ode_general_solution", ()),
            ("shifted_power_ranks", (1,)),
            ("oracle_eigenvectors", (1,)),
            ("cayley_hamilton_check", ({1: 1},)),
            ("verify_spectrum", ({1: 1},))]])
    def test_a_2x3_matrix(self, name, args):
        with pytest.raises(NotSquare):
            getattr(exacteig, name)(m([[1, 2, 3], [4, 5, 6]]), *args)

    @pytest.mark.parametrize("call", [
        lambda: eigenvectors_2x2(CROSS_DEMO, to_scalar(1), to_scalar(2)),
        lambda: cross_eigenvector_3x3(SHORTCUT, to_scalar(2)),
        lambda: combined_characteristic_matrix(SHORTCUT, [2, 5, 5]),
    ], ids=["2x2-shortcut-on-3x3", "cross-product-on-2x2",
            "combined-assignment-too-long"])
    def test_a_square_matrix_of_the_wrong_size(self, call):
        with pytest.raises(DimensionMismatch):
            call()


class TestEigensystem:
    def test_a_1x1_matrix(self):
        # the product complementary to the only eigenvalue has no factor,
        # so its one column is the identity's
        assert eigensystem(m([[3]]), {3: 1}).spaces[0].vectors == (v([1]),)
        assert product_eigenvectors(m([[3]]), {3: 1}, 3) == [v([1])]
        result = diagonalize(m([[3]]))
        assert (result.p, result.d, result.p_inv) == (m([[1]]), m([[3]]),
                                                      m([[1]]))

    def test_collects_every_space(self):
        system = eigensystem(TRIPLE_EIGENVALUE, TRIPLE_EIGENVALUE_SPECTRUM)
        assert system.is_complete
        assert [s.eigenvalue for s in system.spaces] == \
            [to_scalar(1), to_scalar(2)]
        space = system.space_for(to_scalar(1))
        assert space.alg_mult == 3 and space.geom_mult == 3

    def test_incomplete_for_defective(self):
        system = eigensystem(DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM)
        assert not system.is_complete
        space = system.space_for(to_scalar(-2))
        assert space.alg_mult == 2 and space.geom_mult == 1

    def test_two_doubles_span(self):
        system = eigensystem(TWO_DOUBLES, TWO_DOUBLES_SPECTRUM)
        assert_same_span(system.space_for(to_scalar(2)).vectors,
                         TWO_DOUBLES_SPAN_AT_2, 4)
