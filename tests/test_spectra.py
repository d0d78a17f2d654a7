"""Characteristic polynomials, exact root finding, and spectrum
validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exacteig import (
    InvalidSpectrum,
    IrrationalSpectrum,
    Matrix,
    Polynomial,
    Spectrum,
    SpectrumTooLarge,
    WrongSpectrum,
    charpoly,
    find_spectrum,
    format_polynomial,
    matmul,
    multiplicity_of,
    parse_scalar,
    shift_spectrum,
    to_scalar,
    verify_spectrum,
)

from worked import (
    DEFECTIVE_PAIR,
    DEFECTIVE_PAIR_SPECTRUM,
    DOUBLE_PLUS_SIMPLE,
    DOUBLE_PLUS_SIMPLE_CHARPOLY_COEFFS,
    DOUBLE_PLUS_SIMPLE_SPECTRUM,
    HALVES,
    HALVES_SPECTRUM,
    IRRATIONAL_PAIR,
    ROTATION,
    ROTATION_SPECTRUM,
    SHIFT_DEMO,
    SHIFT_DEMO_SPECTRUM,
    SHORTCUT,
    SHORTCUT_CHARPOLY_COEFFS,
    SHORTCUT_CHARPOLY_TEXT,
    SHORTCUT_SPECTRUM,
    SPIRAL,
    THREE_DISTINCT,
    THREE_DISTINCT_CHARPOLY_COEFFS,
    THREE_DISTINCT_SPECTRUM,
    m,
    spectrum,
)

small_entries = st.integers(-4, 4)
small_square = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=n, max_size=n).map(Matrix.from_rows))


def poly(coeffs):
    return Polynomial([to_scalar(c) for c in coeffs])


class TestPolynomial:
    def test_degree_and_leading(self):
        p = poly([10, -7, 1])
        assert p.degree == 2
        assert p.leading == to_scalar(1)
        assert p.is_monic

    def test_trailing_zeros_stripped(self):
        assert poly([1, 2, 0, 0]) == poly([1, 2])

    def test_zero_polynomial(self):
        assert poly([0]).is_zero
        assert poly([]).is_zero

    def test_evaluation(self):
        p = poly([10, -7, 1])
        assert p(to_scalar(2)) == to_scalar(0)
        assert p(to_scalar(0)) == to_scalar(10)

    def test_deflation(self):
        p = poly([10, -7, 1])
        quotient, remainder = p.deflate(to_scalar(2))
        assert quotient == poly([-5, 1])
        assert remainder == to_scalar(0)

    def test_deflation_by_non_root(self):
        _, remainder = poly([10, -7, 1]).deflate(to_scalar(1))
        assert remainder == to_scalar(4)

    def test_product(self):
        assert poly([-2, 1]) * poly([-5, 1]) == poly([10, -7, 1])

    @given(st.lists(small_entries, min_size=1, max_size=4),
           st.lists(small_entries, min_size=1, max_size=4))
    def test_product_evaluates_pointwise(self, c1, c2):
        p, q = poly(c1), poly(c2)
        at = to_scalar(3)
        assert (p * q)(at) == p(at) * q(at)

    def test_formatting(self):
        assert format_polynomial(poly([10, -7, 1])) == SHORTCUT_CHARPOLY_TEXT
        assert format_polynomial(poly([0, 0, 1])) == "l^2"
        assert format_polynomial(poly([1, -1, -1, 1])) == \
            "l^3 - l^2 - l + 1"
        assert format_polynomial(poly([2])) == "2"
        assert format_polynomial(poly([0])) == "0"

    def test_formatting_complex_coefficient(self):
        p = Polynomial([parse_scalar("1+i"), to_scalar(1)])
        assert format_polynomial(p) == "l + (1+i)"

    def test_formatting_custom_variable(self):
        assert format_polynomial(poly([10, -7, 1]), var="x") == \
            "x^2 - 7*x + 10"


class TestCharpoly:
    @pytest.mark.parametrize("matrix,coeffs", [
        (SHORTCUT, SHORTCUT_CHARPOLY_COEFFS),
        (DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_CHARPOLY_COEFFS),
        (THREE_DISTINCT, THREE_DISTINCT_CHARPOLY_COEFFS),
    ])
    def test_known_coefficients(self, matrix, coeffs):
        assert charpoly(matrix) == poly(coeffs)

    @given(small_square)
    def test_monic_with_matching_degree(self, a):
        p = charpoly(a)
        assert p.is_monic and p.degree == a.rows

    @given(small_square)
    def test_trace_and_determinant_slots(self, a):
        # coefficient of l^{n-1} is -trace; constant term is (-1)^n det
        from exacteig import det, trace
        p = charpoly(a)
        n = a.rows
        assert p.coeffs[n - 1] == -trace(a)
        sign = to_scalar(1 if n % 2 == 0 else -1)
        assert p.coeffs[0] == sign * det(a)

    @given(small_square)
    def test_similarity_invariant(self, a):
        # conjugation by an elementary shear leaves the polynomial alone
        n = a.rows
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[0][n - 1] = 1
        shear = Matrix.from_rows(rows)
        inverse_rows = [row[:] for row in rows]
        inverse_rows[0][n - 1] = -1
        shear_inv = Matrix.from_rows(inverse_rows)
        conjugated = matmul(matmul(shear, a), shear_inv)
        assert charpoly(conjugated) == charpoly(a)


class TestFindSpectrum:
    @pytest.mark.parametrize("matrix,expected", [
        (SHORTCUT, SHORTCUT_SPECTRUM),
        (DEFECTIVE_PAIR, DEFECTIVE_PAIR_SPECTRUM),
        (DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_SPECTRUM),
        (HALVES, HALVES_SPECTRUM),
        (THREE_DISTINCT, THREE_DISTINCT_SPECTRUM),
        (SHIFT_DEMO, SHIFT_DEMO_SPECTRUM),
        (ROTATION, ROTATION_SPECTRUM),
    ])
    def test_exact_roots(self, matrix, expected):
        assert find_spectrum(charpoly(matrix)) == expected

    def test_gaussian_quadratic(self):
        # l^2 - 4l + 5 has roots 2 +- i
        assert find_spectrum(poly([5, -4, 1])) == \
            spectrum([("2+i", 1), ("2-i", 1)])

    def test_fractional_root(self):
        # (l - 1/2)(l - 3) = l^2 - 7/2 l + 3/2
        p = Polynomial([parse_scalar("3/2"), parse_scalar("-7/2"),
                        to_scalar(1)])
        assert find_spectrum(p) == spectrum([("1/2", 1), (3, 1)])

    def test_irrational_quadratic_rejected(self):
        with pytest.raises(IrrationalSpectrum):
            find_spectrum(charpoly(IRRATIONAL_PAIR))

    def test_unfactorable_quartic_rejected(self):
        # (l^2+1)^2 leaves a degree-4 remainder with no rational root
        with pytest.raises(IrrationalSpectrum):
            find_spectrum(charpoly(SPIRAL))

    def test_cubic_remainder_rejected(self):
        # l^3 - 2 has no rational root at all
        with pytest.raises(IrrationalSpectrum):
            find_spectrum(poly([-2, 0, 0, 1]))

    def test_zero_root(self):
        assert find_spectrum(poly([0, 0, 1])) == spectrum([(0, 2)])

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=4))
    def test_reconstructs_planted_roots(self, roots):
        product = poly([1])
        for r in roots:
            product = product * poly([-r, 1])
        found = find_spectrum(product)
        assert found.expanded() == tuple(
            to_scalar(r) for r in sorted(roots))


class TestSpectrumContainer:
    def test_sorted_and_deduplicated(self):
        s = spectrum([(3, 1), (1, 2)])
        assert [val for val, _ in s.pairs] == [to_scalar(1), to_scalar(3)]
        assert s.total == 3

    def test_duplicate_values_rejected(self):
        with pytest.raises(InvalidSpectrum):
            spectrum([(1, 1), (1, 2)])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(InvalidSpectrum):
            spectrum([(1, 0)])

    def test_boolean_multiplicity_rejected(self):
        with pytest.raises(InvalidSpectrum):
            Spectrum([(1, True)])

    def test_membership_and_multiplicity(self):
        s = spectrum([(1, 2), (3, 1)])
        assert to_scalar(1) in s and to_scalar(2) not in s
        assert s.multiplicity(to_scalar(1)) == 2
        assert s.multiplicity(to_scalar(7)) == 0

    def test_expanded(self):
        assert spectrum([(1, 2), (3, 1)]).expanded() == (
            to_scalar(1), to_scalar(1), to_scalar(3))

    def test_complex_ordering_is_stable(self):
        s = spectrum([("2+i", 1), ("2-i", 1), (0, 1)])
        assert s == spectrum([(0, 1), ("2-i", 1), ("2+i", 1)])


class TestMultiplicity:
    def test_multiplicity_of_roots(self):
        p = charpoly(DOUBLE_PLUS_SIMPLE)   # (l-1)^2 (l+1)
        assert multiplicity_of(p, to_scalar(1)) == 2
        assert multiplicity_of(p, to_scalar(-1)) == 1
        assert multiplicity_of(p, to_scalar(5)) == 0


class TestShift:
    def test_shift_moves_every_value(self):
        shifted = shift_spectrum(SHIFT_DEMO_SPECTRUM, to_scalar(1))
        assert shifted == spectrum([(3, 1), (0, 2)])
        shifted = shift_spectrum(SHIFT_DEMO_SPECTRUM, to_scalar(4))
        assert shifted == spectrum([(0, 1), (-3, 2)])

    def test_shift_matches_shifted_matrix(self):
        from exacteig import subtract_scalar_diag
        shifted_matrix = subtract_scalar_diag(SHIFT_DEMO, to_scalar(1))
        assert find_spectrum(charpoly(shifted_matrix)) == \
            shift_spectrum(SHIFT_DEMO_SPECTRUM, to_scalar(1))


class TestVerifySpectrum:
    def test_accepts_correct(self):
        assert verify_spectrum(SHORTCUT, SHORTCUT_SPECTRUM) == \
            SHORTCUT_SPECTRUM

    def test_rejects_wrong_values(self):
        with pytest.raises(WrongSpectrum):
            verify_spectrum(SHORTCUT, spectrum([(2, 1), (6, 1)]))

    def test_rejects_wrong_multiplicities(self):
        with pytest.raises(WrongSpectrum):
            verify_spectrum(DOUBLE_PLUS_SIMPLE,
                            spectrum([(1, 1), (-1, 2)]))

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidSpectrum):
            verify_spectrum(SHORTCUT, spectrum([(2, 1)]))

    def test_rejects_too_many_distinct(self):
        with pytest.raises(SpectrumTooLarge):
            verify_spectrum(SHORTCUT, spectrum([(1, 1), (2, 1), (3, 1)]))

    def test_accepts_supplied_irrational_dodger(self):
        # the spiral matrix's spectrum cannot be found, but a supplied
        # one can still be verified by refactoring the polynomial
        assert verify_spectrum(SPIRAL, spectrum([("i", 2), ("-i", 2)])) \
            == spectrum([("i", 2), ("-i", 2)])
