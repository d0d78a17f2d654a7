"""Dense exact matrices and vectors: construction, reduction, rank,
inverses, and the operation counter with the counts it pins."""

import inspect
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exacteig import (
    DimensionMismatch,
    GaussianRational,
    Matrix,
    NotSquare,
    OpCounter,
    Rational,
    Singular,
    Vector,
    ZeroVector,
    build_chains,
    charpoly,
    complementary_product,
    cross3,
    cross_eigenvector_3x3,
    det,
    diagonalize,
    eigensystem,
    find_spectrum,
    hstack,
    independent_extension,
    inverse,
    is_diagonalizable,
    jordan_form,
    left_product_eigenvectors,
    matmul,
    matrices,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    oracle_eigenvectors,
    parse_scalar,
    rank,
    rref,
    subtract_scalar_diag,
    to_scalar,
    trace,
    two_spectrum_eigenvectors,
)

from worked import (
    INVERTIBLE_TRIO,
    INVERTIBLE_TRIO_INVERSE,
    SHORTCUT,
    SHORTCUT_DET,
    SHORTCUT_SQUARED,
    m,
    v,
)

small_entries = st.integers(-6, 6)


def _random_matrix(draw_rows):
    return Matrix.from_rows(draw_rows)


square_matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=n, max_size=n).map(_random_matrix))


class TestConstruction:
    def test_from_rows_and_entry(self):
        a = m([[1, 2], [3, 4]])
        assert (a.rows, a.cols) == (2, 2)
        assert a.entry(1, 0) == to_scalar(3)

    def test_from_columns_transposes(self):
        a = Matrix.from_columns([[1, 2], [3, 4]])
        assert a == m([[1, 3], [2, 4]])

    def test_identity_and_zeros(self):
        assert Matrix.identity(2) == m([[1, 0], [0, 1]])
        assert Matrix.zeros(2, 3).is_zero()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_is_the_diagonal_of_ones(self, n):
        eye = Matrix.identity(n)
        assert eye == Matrix.diagonal([1] * n)
        assert hash(eye) == hash(Matrix.diagonal([1] * n))
        assert eye.is_real() and (eye.rows, eye.cols) == (n, n)

    def test_diagonal(self):
        assert Matrix.diagonal([2, 5]) == m([[2, 0], [0, 5]])
        # ones above the diagonal sit beside a common denominator
        half, i = Rational(1, 2), GaussianRational(0, 1)
        assert Matrix.diagonal([half, half, i], [1, 2]) == \
            m([[half, 1, 0], [0, half, 1], [0, 0, i]])

    @pytest.mark.parametrize("column", [0, -1, 3])
    def test_diagonal_refuses_a_one_off_the_superdiagonal(self, column):
        # column 0 has no row above the diagonal; -1 and 3 are no column
        with pytest.raises(DimensionMismatch, match=f"no column {column}"):
            Matrix.diagonal([1, 2, 3], [column])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            m([[1, 2], [3]])

    def test_empty_rejected(self):
        # every constructor refuses a 0×0 matrix, as Matrix([]) does
        for build in (Matrix, Matrix.from_rows, Matrix.diagonal):
            with pytest.raises(DimensionMismatch, match="at least one"):
                build([])

    def test_row_and_column_access(self):
        a = m([[1, 2], [3, 4]])
        assert a.row(0).entries == (to_scalar(1), to_scalar(2))
        assert a.column(1).entries == (to_scalar(2), to_scalar(4))
        assert a.row(0).orientation == "row"
        assert a.column(1).orientation == "column"

    def test_transpose(self):
        a = m([[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == m([[1, 4], [2, 5], [3, 6]])

    def test_equal_matrices_hash_equal(self):
        assert hash(m([[1, 2], [3, 4]])) == hash(m([[1, 2], [3, 4]]))

    def test_is_real(self):
        assert m([[1, -2], [Rational(3, 4), 0]]).is_real()
        assert not m([[1, 0], [0, GaussianRational(0, 1)]]).is_real()
        # Gaussian scalars whose imaginary parts are zero are real entries
        assert Matrix([[GaussianRational(2, 0), GaussianRational(0, 0)],
                       [GaussianRational(Rational(-1, 3), 0),
                        to_scalar(5)]]).is_real()


class TestVector:
    def test_orientation_default_and_flip(self):
        x = v([1, 2])
        assert x.orientation == "column"
        assert x.transposed().orientation == "row"
        assert x.transposed().entries == x.entries

    def test_dot(self):
        assert v([1, 2]).dot(v([3, 4])) == to_scalar(11)

    def test_scaled(self):
        assert v([1, 2]).scaled(to_scalar(3)) == v([3, 6])

    def test_first_nonzero_index(self):
        assert v([0, 0, 5]).first_nonzero_index() == 2

    def test_is_zero(self):
        assert v([0, 0]).is_zero() and not v([0, 1]).is_zero()


class TestProducts:
    def test_known_square(self):
        assert matmul(SHORTCUT, SHORTCUT) == SHORTCUT_SQUARED

    def test_annihilating_product(self):
        assert matmul(m([[1, 1], [2, 2]]), m([[-2, 1], [2, -1]])).is_zero()

    def test_matvec(self):
        assert matvec(SHORTCUT, v([1, 2])) == v([5, 10])

    def test_matmul_operator(self):
        assert SHORTCUT @ SHORTCUT == SHORTCUT_SQUARED
        with pytest.raises(TypeError):
            SHORTCUT @ 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(m([[1, 2]]), m([[1, 2]]))
        with pytest.raises(DimensionMismatch):
            matvec(SHORTCUT, v([1, 2, 3]))

    def test_a_row_vector_or_block_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatch, match="row of 3"):
            matvec(SHORTCUT, Vector([1, 2, 3], "row"))
        with pytest.raises(DimensionMismatch, match="row counts differ"):
            hstack(m([[1], [2]]), m([[3]]))

    @given(square_matrices)
    def test_identity_is_neutral(self, a):
        eye = Matrix.identity(a.rows)
        assert matmul(a, eye) == a and matmul(eye, a) == a

    def test_trace_and_shift(self):
        assert trace(SHORTCUT) == to_scalar(7)
        assert subtract_scalar_diag(SHORTCUT, to_scalar(2)) == \
            m([[1, 1], [2, 2]])

    @given(st.data(), st.sampled_from(["integer", "rational", "gaussian",
                                       "gaussian-rational"]))
    def test_an_integer_shift_takes_no_gcd_pass(self, data, kind):
        # with an integer λ the shift is built canonical; it equals the
        # matrix that one gcd pass (Matrix._make) makes of the same planes,
        # and A − λ·I by the subtraction of two matrices, for any λ
        n = data.draw(st.integers(1, 4))
        entries = st.builds(lambda re, im, den: GaussianRational(
            Rational(re, den), Rational(im, den)), small_entries,
            st.sampled_from([0, 0, 1, -3]), st.integers(1, 4))
        a = m(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                 min_size=n, max_size=n)))
        den = 1 if kind in ("integer", "gaussian") else data.draw(
            st.integers(2, 6))
        im = 0 if kind in ("integer", "rational") else data.draw(
            st.sampled_from([-2, -1, 1, 3]))
        lam = GaussianRational(Rational(data.draw(small_entries), den),
                               Rational(im, den))
        shifted = subtract_scalar_diag(a, lam)
        assert shifted._key() == Matrix._make(*shifted._key())._key()
        assert shifted == a - Matrix.diagonal([lam] * n)

    def test_hstack(self):
        assert hstack(m([[1], [2]]), m([[3], [4]])) == m([[1, 3], [2, 4]])

    @given(st.data())
    def test_times_diagonal_is_the_product(self, data):
        # P·J read off P's columns equals the dense product, over ℚ(i)
        n = data.draw(st.integers(1, 4))
        scalars = st.builds(lambda re, im, den: GaussianRational(
            Rational(re, den), Rational(im, den)), small_entries,
            st.sampled_from([0, 0, 1, -3]), st.integers(1, 3))
        rows = data.draw(st.integers(1, 4))
        p = m(data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                                 min_size=rows, max_size=rows)))
        values = data.draw(st.lists(scalars, min_size=n, max_size=n))
        ones = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        parts = [(v.re.numerator, v.re.denominator, v.im.numerator,
                  v.im.denominator) for v in values]
        with OpCounter() as ops:
            shifted = matrices._times_diagonal(p, parts, ones)
        assert shifted == matmul(p, Matrix.diagonal(values, ones))
        assert (ops.scalar_mults, ops.scalar_adds) == \
            (rows * n, rows * len(ones))


class TestReduction:
    def test_rref_rank_deficient(self):
        reduced, pivots = rref(m([[1, 1], [1, 1]]))
        assert reduced == m([[1, 1], [0, 0]])
        assert pivots == (0,)

    def test_rref_invertible(self):
        reduced, pivots = rref(m([[2, 0], [0, 3]]))
        assert reduced == Matrix.identity(2)
        assert pivots == (0, 1)

    @given(square_matrices)
    def test_rref_idempotent(self, a):
        reduced, _ = rref(a)
        assert rref(reduced)[0] == reduced

    @given(square_matrices)
    def test_rank_plus_nullity(self, a):
        assert rank(a) + len(nullspace_basis(a)) == a.cols

    @given(square_matrices)
    def test_nullspace_annihilated(self, a):
        for x in nullspace_basis(a):
            assert matvec(a, x).is_zero()

    def test_rank_of_zero(self):
        assert rank(Matrix.zeros(3, 3)) == 0


class TestDeterminantAndInverse:
    def test_known_determinant(self):
        assert det(SHORTCUT) == to_scalar(SHORTCUT_DET)

    @given(square_matrices, square_matrices)
    def test_det_is_multiplicative(self, a, b):
        if a.rows == b.rows:
            assert det(matmul(a, b)) == det(a) * det(b)

    def test_known_inverse(self):
        assert inverse(INVERTIBLE_TRIO) == INVERTIBLE_TRIO_INVERSE

    @given(square_matrices)
    def test_inverse_round_trip(self, a):
        if det(a) != to_scalar(0):
            assert matmul(a, inverse(a)) == Matrix.identity(a.rows)

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            inverse(m([[1, 1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            det(m([[1, 2, 3], [4, 5, 6]]))


class TestForwardElimination:
    """One elimination mode: forward elimination, followed where a
    reduced form is needed by back-substitution, and one elimination per
    kernel call."""

    def test_no_gauss_jordan_mode(self):
        assert list(inspect.signature(matrices._eliminate).parameters) == [
            "re_rows", "im_rows", "ncols"]
        assert not hasattr(matrices, "_reduced")

    @pytest.mark.parametrize("kernel", [nullspace_basis, rref, inverse, det,
                                        rank], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a", [
        m([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
        m([[1, 2, 3], [2, 4, 6], [1, 0, 1]]),
        m([["i", 1], [2, "1+i"]]),
    ], ids=["invertible", "singular", "gaussian"])
    def test_one_elimination_per_call(self, kernel, a, monkeypatch):
        original = matrices._eliminate
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(matrices, "_eliminate", counting)
        try:
            kernel(a)
        except Singular:
            assert kernel is inverse
        assert len(calls) == 1


class TestCrossProduct:
    def test_known_cross(self):
        assert cross3(v([-2, 1, 2]), v([1, 0, -1])) == v([-1, 0, -1])

    def test_orthogonality(self):
        a, b = v([1, 2, 1]), v([6, -1, 0])
        c = cross3(a, b)
        assert a.dot(c) == to_scalar(0) and b.dot(c) == to_scalar(0)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            cross3(v([1, 2]), v([3, 4]))


class TestNormalization:
    def test_complex_vector(self):
        x = v(["-i", "2i", "1+2i"])
        assert normalize_eigenvector(x) == v([1, -2, "-2+i"])

    def test_fractions_cleared(self):
        assert normalize_eigenvector(v(["1/2", "1/3"])) == v([3, 2])

    def test_leading_sign_positive(self):
        assert normalize_eigenvector(v([-2, 4])) == v([1, -2])

    def test_common_factor_removed(self):
        assert normalize_eigenvector(v([4, 8])) == v([1, 2])

    @given(st.lists(small_entries, min_size=2, max_size=4),
           st.integers(1, 9))
    def test_scale_invariant_and_idempotent(self, entries, k):
        if all(e == 0 for e in entries):
            return
        x = v(entries)
        normalized = normalize_eigenvector(x)
        assert normalize_eigenvector(x.scaled(to_scalar(k))) == normalized
        assert normalize_eigenvector(normalized) == normalized

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize_eigenvector(v([0, 0]))


class TestIndependence:
    def test_zero_never_independent(self):
        assert independent_extension([v([1, 0])], [v([0, 0])]) == []

    def test_multiples_dependent(self):
        assert independent_extension([v([1, 2])], [v([2, 4])]) == []

    def test_basis_extension(self):
        assert independent_extension([v([1, 0, 0]), v([0, 1, 0])],
                                     [v([0, 0, 1])]) == [v([0, 0, 1])]
        assert independent_extension([v([1, 0, 0]), v([0, 1, 0])],
                                     [v([1, 1, 0])]) == []

    def test_earlier_candidates_count_and_order_is_kept(self):
        candidates = [v([0, 0, 0]), v([1, 1, 0]), v([2, 2, 0]),
                      v([0, 0, 1]), v([1, 1, 1]), v([1, 0, 0])]
        assert independent_extension([], candidates) == [
            v([1, 1, 0]), v([0, 0, 1]), v([1, 0, 0])]

    def test_dependent_basis_and_no_candidates(self):
        basis = [v([1, 2]), v([2, 4]), v([0, 0])]
        assert independent_extension(basis, [v([3, 6]), v([0, 1])]) == [
            v([0, 1])]
        assert independent_extension(basis, []) == []


class TestOpCounter:
    def test_matmul_counts(self):
        with OpCounter() as counter:
            matmul(m([[1, 2], [3, 4]]), m([[5, 6], [7, 8]]))
        assert counter.scalar_mults == 8
        assert counter.scalar_adds == 4
        assert counter.scalar_divs == 0

    def test_counts_are_deterministic(self):
        first, second = OpCounter(), OpCounter()
        a = m([[1, 4, 3], [-4, -7, -3], [3, 3, 0]])
        with first:
            rref(a)
        with second:
            rref(a)
        assert first.as_dict() == second.as_dict()
        assert first.total > 0

    def test_counts_accumulate(self):
        with OpCounter() as counter:
            matvec(m([[1, 1], [1, 1]]), v([1, 1]))
            before = counter.total
            matvec(m([[1, 1], [1, 1]]), v([1, 1]))
        assert counter.total == 2 * before

    def test_as_dict_keys(self):
        assert sorted(OpCounter().as_dict()) == [
            "scalar_adds", "scalar_divs", "scalar_mults"]


MATMUL_2X2 = {"scalar_mults": 8, "scalar_adds": 4, "scalar_divs": 0}


def count_matmul():
    matmul(m([[1, 2], [3, 4]]), m([[5, 6], [7, 8]]))


class TestCountScope:
    def test_nothing_is_counted_outside_a_block(self):
        ops = OpCounter()
        count_matmul()
        with ops:
            count_matmul()
        count_matmul()
        rref(m([[1, 4, 3], [-4, -7, -3], [3, 3, 0]]))
        assert ops.as_dict() == MATMUL_2X2

    def test_a_raising_block_leaves_no_counter_active(self):
        with pytest.raises(Singular):
            with OpCounter() as ops:
                inverse(m([[1, 2], [2, 4]]))
        counted = ops.as_dict()
        assert ops.total > 0
        count_matmul()
        assert ops.as_dict() == counted

    def test_work_in_another_thread_is_not_seen(self):
        seen = {}

        def work():
            count_matmul()
            with OpCounter() as own:
                count_matmul()
            seen["own"] = own.as_dict()

        with OpCounter() as ops:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert ops.total == 0
        assert seen["own"] == MATMUL_2X2

    def test_a_nested_counter_takes_over_and_the_outer_resumes(self):
        with OpCounter() as outer:
            count_matmul()
            with OpCounter() as inner:
                count_matmul()
                count_matmul()
            count_matmul()
        doubled = {k: 2 * x for k, x in MATMUL_2X2.items()}
        assert inner.as_dict() == doubled
        assert outer.as_dict() == doubled

    def test_reentering_a_counter_accumulates(self):
        ops = OpCounter()
        with ops:
            count_matmul()
        with ops:
            with ops:
                count_matmul()
            count_matmul()
        count_matmul()
        assert ops.as_dict() == {k: 3 * x for k, x in MATMUL_2X2.items()}

    def test_jordan_form_is_counted_deterministically(self):
        rows = [[2, 0, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 1, 5]]
        first, second = OpCounter(), OpCounter()
        with first:
            jordan_form(m(rows))
        with second:
            jordan_form(m(rows))
        with OpCounter() as charpoly_only:
            charpoly(m(rows))
        assert first.as_dict() == second.as_dict()
        assert first.total > charpoly_only.total > 0


# Matrices of the pinned counts: a diagonalizable 2×2, a 3×3 Jordan
# block, two 2×2 Jordan blocks, a 3×3 with a double eigenvalue and a
# rotation with eigenvalues ±i.
COUNTED = [
    m([[3, 1], [2, 4]]),
    m([[2, 1, 0], [0, 2, 1], [0, 0, 2]]),
    m([[2, 0, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 1, 5]]),
    m([[4, 1, -1], [2, 5, -2], [1, 1, 2]]),
    m([[0, -1], [1, 0]]),
]


# (mults, adds, divs) of each call on a fresh copy of the COUNTED
# matrices, in order; functions of one eigenvalue run once for every
# eigenvalue.
PINNED_COUNTS = {
    charpoly: [(6, 2, 0), (23, 11, 0), (64, 38, 0), (23, 11, 0),
               (6, 2, 0)],
    rank: [(4, 2, 0), (8, 0, 2), (26, 6, 8), (16, 8, 2), (0, 0, 0)],
    rref: [(4, 2, 4), (8, 0, 11), (26, 6, 24), (16, 8, 11), (0, 0, 4)],
    det: [(4, 2, 1), (8, 0, 3), (26, 6, 9), (16, 8, 3), (0, 0, 1)],
    nullspace_basis: [(4, 2, 0), (8, 0, 2), (26, 6, 8), (16, 8, 2),
                      (0, 0, 0)],
    # these three verify the spectrum: their work plus one charpoly
    eigensystem: [(14, 6, 0), (50, 29, 0), (309, 220, 0), (71, 41, 0),
                  (14, 6, 0)],
    left_product_eigenvectors: [(14, 6, 0), (41, 23, 0), (337, 242, 0),
                                (71, 41, 0), (14, 6, 0)],
    # a simple spectrum answers with no product: the charpoly alone
    is_diagonalizable: [(6, 2, 0), (23, 11, 0), (192, 134, 0),
                        (50, 29, 0), (6, 2, 0)],
    oracle_eigenvectors: [(8, 4, 0), (0, 0, 0), (53, 12, 14), (30, 15, 3),
                          (8, 4, 0)],
    # its multiplicity is read off one charpoly
    build_chains: [(14, 6, 0), (122, 77, 0), (203, 112, 14),
                   (53, 26, 3), (14, 6, 0)],
    complementary_product: [(0, 0, 0), (27, 18, 0), (384, 288, 0),
                            (54, 36, 0), (0, 0, 0)],
}

CALLS = {
    charpoly: lambda a, s: charpoly(a),
    rank: lambda a, s: rank(a),
    rref: lambda a, s: rref(a),
    det: lambda a, s: det(a),
    nullspace_basis: lambda a, s: nullspace_basis(a),
    eigensystem: eigensystem,
    left_product_eigenvectors: lambda a, s: [
        left_product_eigenvectors(a, s, value) for value in s.values()],
    is_diagonalizable: is_diagonalizable,
    oracle_eigenvectors: lambda a, s: [
        oracle_eigenvectors(a, value) for value in s.values()],
    build_chains: lambda a, s: [
        build_chains(a, value) for value in s.values()],
    complementary_product: lambda a, s: [
        complementary_product(a, s, value, True) for value in s.values()],
}


def counted(call, a, fresh):
    s = find_spectrum(charpoly(a))
    a = fresh(a)  # nothing computed before the count is reused
    with OpCounter() as ops:
        call(a, s)
    return ops.scalar_mults, ops.scalar_adds, ops.scalar_divs


class TestPinnedCounts:
    """Operation counts follow the conventions of the ``matrices``
    docstring; a change of storage must leave them exactly as recorded,
    and a change of kernels or checks re-records them."""

    @pytest.mark.parametrize("function", list(PINNED_COUNTS),
                             ids=lambda f: f.__name__)
    def test_kernels_and_methods(self, function, fresh):
        assert [counted(CALLS[function], a, fresh)
                for a in COUNTED] == PINNED_COUNTS[function]

    @pytest.mark.parametrize("call,index,expected", [
        # the kept eigenbasis is certified already: P⁻¹·P = I alone; a
        # simple spectrum forms no product for the verdict
        (lambda a, s: diagonalize(a), 0, (33, 15, 4)),
        (lambda a, s: diagonalize(a), 3, (165, 97, 9)),
        (lambda a, s: diagonalize(a), 4, (33, 15, 4)),
        # the premise product certifies both column sets: no column is
        # checked again
        (lambda a, s: two_spectrum_eigenvectors(a, *s.values()), 0,
         (22, 10, 0)),
        (lambda a, s: two_spectrum_eigenvectors(a, *s.values()), 3,
         (78, 43, 2)),
        (lambda a, s: two_spectrum_eigenvectors(a, *s.values()), 4,
         (22, 10, 0)),
        # membership is det(A − λI) = 0 on the shifted matrix the cross
        # products are read from: a fresh matrix computes no
        # characteristic polynomial
        (lambda a, s: cross_eigenvector_3x3(a, 2), 1, (15, 9, 0)),
        (lambda a, s: cross_eigenvector_3x3(a, 5), 3, (31, 17, 2)),
    ])
    def test_characteristic_polynomial_and_checks_are_counted(
            self, call, index, expected, fresh):
        assert counted(call, COUNTED[index], fresh) == expected
