"""Characteristic polynomials, exact root finding, and spectrum
validation."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import exacteig
import reference_kernels as ref
from exacteig import (
    ExactEigError,
    GaussianRational,
    InternalInconsistency,
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
    resolve_spectrum,
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
        assert poly([0]).is_zero()
        assert poly([]).is_zero()
        assert poly([0, 0]) == poly([]) and poly([0]).degree == 0
        assert not poly([1, 2]).is_zero()
        assert not poly([0, 1]).is_zero()

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

    def test_deflation_stores_only_its_quotient(self, monkeypatch):
        p = poly([10, -7, 1]) * poly([-2, 1])  # (λ − 2)²(λ − 5)
        original, stored = exacteig.spectra._store, []
        monkeypatch.setattr(exacteig.spectra, "_store",
                            lambda q, *planes: stored.append(q)
                            or original(q, *planes))
        quotient, _ = p.deflate(to_scalar(2))
        assert len(stored) == 1 and stored[0] is quotient
        stored.clear()
        # two exact divisions; the third leaves a remainder, and its
        # quotient is not built
        assert multiplicity_of(p, to_scalar(2)) == 2
        assert len(stored) == 2

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

    def test_unfactorable_quartic_rejected(self, fresh):
        # (l^2+1)^2 leaves a degree-4 remainder with no rational root; a
        # fresh copy, as a polynomial that recorded a verified spectrum
        # returns that one
        with pytest.raises(IrrationalSpectrum):
            find_spectrum(charpoly(fresh(SPIRAL)))

    def test_cubic_remainder_rejected(self):
        # l^3 - 2 has no rational root at all
        with pytest.raises(IrrationalSpectrum):
            find_spectrum(poly([-2, 0, 0, 1]))

    def test_zero_root(self):
        assert find_spectrum(poly([0, 0, 1])) == spectrum([(0, 2)])

    # λ − r has the root r over ℚ(i), nonreal coefficient or not
    @pytest.mark.parametrize("root", ["i", "1+2i", "-1/2+3/4i", "-i", "5"])
    def test_linear_over_gaussian_rationals(self, root):
        p = poly([-parse_scalar(root), 1])
        assert find_spectrum(p) == spectrum([(root, 1)])
        assert ref.find_spectrum(p) == spectrum([(root, 1)])

    @pytest.mark.parametrize("entry", ["i", "1+2i"])
    def test_a_gaussian_1x1_matrix_resolves(self, entry):
        assert resolve_spectrum(m([[entry]]), None) == spectrum([(entry, 1)])

    # from degree 2 on a nonreal coefficient is refused as before
    @pytest.mark.parametrize("coeffs", [[1, "i", 1], ["2i", 0, 0, 1]])
    def test_nonreal_from_degree_two_is_refused(self, coeffs):
        with pytest.raises(IrrationalSpectrum) as info:
            find_spectrum(poly(coeffs))
        assert str(info.value) == \
            "nonreal coefficients; supply the spectrum explicitly"

    # the search runs only while the residual has degree ≥ 3: a dropped
    # candidate is found by the formula once the rest falls to degree 2,
    # and a residual of degree ≥ 3 with no candidate left is refused;
    # either way no wrong spectrum comes out
    @pytest.mark.parametrize("coeffs,dropped,expected", [
        ([-6, 11, -6, 1], [(1, 1)], [(1, 1), (2, 1), (3, 1)]),
        ([-6, 11, -6, 1], [(2, 1), (3, 1)], [(1, 1), (2, 1), (3, 1)]),
        ([24, -50, 35, -10, 1], [(1, 1), (4, 1)],
         [(1, 1), (2, 1), (3, 1), (4, 1)]),
        ([-6, 11, -6, 1], [(1, 1), (2, 1), (3, 1)], "degree 3"),
        ([2, -7, 9, -5, 1], [(1, 1)], "degree 3"),
    ], ids=["cubic-recovered", "cubic-two-dropped", "quartic-recovered",
            "cubic-refused", "triple-root-refused"])
    def test_a_dropped_candidate_gives_no_wrong_spectrum(
            self, monkeypatch, coeffs, dropped, expected):
        search = exacteig.spectra._root_candidates
        monkeypatch.setattr(
            exacteig.spectra, "_root_candidates",
            lambda f: (c for c in search(f) if c not in dropped))
        if isinstance(expected, str):
            with pytest.raises(IrrationalSpectrum, match=expected):
                find_spectrum(poly(coeffs))
        else:
            assert find_spectrum(poly(coeffs)) == spectrum(expected)

    @pytest.mark.parametrize("coeffs", [
        [-2, 1], [6, -5, 1], [1, -2, 1], [5, -4, 1], [-2, 0, 1]],
        ids=["linear", "rational", "double-root", "gaussian", "irrational"])
    def test_no_search_below_degree_three(self, monkeypatch, coeffs):
        monkeypatch.setattr(exacteig.spectra, "_root_candidates",
                            lambda f: pytest.fail("searched below degree 3"))
        assert _outcome(find_spectrum, poly(coeffs)) == \
            _outcome(ref.find_spectrum, poly(coeffs))

    # the formula solves every residual of degree ≤ 2, so a root that it
    # loses leaves the multiplicities short of the degree: a bug
    @pytest.mark.parametrize("coeffs", [[2, -3, 1], [-8, 14, -7, 1]],
                             ids=["quadratic", "cubic"])
    def test_a_lost_root_is_a_bug(self, monkeypatch, coeffs):
        monkeypatch.setattr(exacteig.spectra, "_resolve_quadratic",
                            lambda *f: [(to_scalar(2), 1)])
        with pytest.raises(InternalInconsistency, match="incomplete"):
            find_spectrum(poly(coeffs))

    @pytest.mark.parametrize("coeffs", [
        [6, -5, 1], [2, -3, 0, 1], [-3, 1, -3, 1], [2, -2, -1, 1],
        [-2, -2, 0, 1, 1],
    ], ids=["rational", "repeated", "gaussian-quadratic",
            "irrational-quadratic", "cubic-residual"])
    def test_builds_no_polynomial_but_its_argument(self, monkeypatch,
                                                    coeffs):
        p = poly(coeffs)
        original, stores = exacteig.spectra._store, []
        monkeypatch.setattr(exacteig.spectra, "_store",
                            lambda *args: stores.append(args)
                            or original(*args))
        try:
            find_spectrum(p)
        except IrrationalSpectrum:
            pass
        assert stores == []

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

    def test_found_values_take_the_same_order(self):
        found = {to_scalar(z): 1 for z in ("2+i", "-1", "2-i", "1/2")}
        assert Spectrum._of_distinct(found).pairs == Spectrum(found).pairs

    def test_iteration_yields_the_pairs(self):
        s = spectrum([(3, 1), (1, 2)])
        assert list(s) == [(to_scalar(1), 2), (to_scalar(3), 1)]


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


class TestPerMatrixFacts:
    """A matrix keeps its characteristic polynomial, and the polynomial
    the last spectrum verified against it; both are exact, so nothing is
    checked with a tolerance."""

    @pytest.fixture
    def computed(self, monkeypatch):
        original = exacteig.spectra._characteristic_polynomial
        calls = []
        monkeypatch.setattr(exacteig.spectra, "_characteristic_polynomial",
                            lambda a: calls.append(a) or original(a))
        return calls

    def test_a_recorded_spectrum_is_not_searched_again(self, fresh,
                                                        monkeypatch):
        # three-digit roots of a cubic: the p-adic search runs once
        searches = []
        original = exacteig.spectra._root_candidates
        monkeypatch.setattr(exacteig.spectra, "_root_candidates",
                            lambda f: searches.append(f) or original(f))
        a = fresh(m([[101, 1, 0], [0, 202, 1], [0, 0, -303]]))
        found = exacteig.resolve_spectrum(a, None)
        assert found == spectrum([(101, 1), (202, 1), (-303, 1)])
        assert len(searches) == 1
        assert exacteig.resolve_spectrum(a, None) == found
        assert find_spectrum(charpoly(a.transpose())) == found
        assert len(searches) == 1
        # a supplied spectrum that the polynomial verified is returned as
        # well, though the search alone cannot factor (λ² + 1)²
        b = fresh(SPIRAL)
        verify_spectrum(b, spectrum([("i", 2), ("-i", 2)]))
        assert find_spectrum(charpoly(b)) == spectrum([("i", 2), ("-i", 2)])
        assert len(searches) == 1

    def test_charpoly_is_computed_once(self, fresh, computed):
        a = fresh(THREE_DISTINCT)
        assert charpoly(a) is charpoly(a)
        assert charpoly(a).coeffs == THREE_DISTINCT_CHARPOLY_COEFFS
        assert len(computed) == 1

    def test_each_matrix_computes_its_own(self, fresh, computed):
        a, b = fresh(SHORTCUT), fresh(SHORTCUT)
        verify_spectrum(a, SHORTCUT_SPECTRUM)
        verify_spectrum(b, SHORTCUT_SPECTRUM)
        assert computed == [a, b]

    @pytest.mark.parametrize("wrong", [
        [(2, 1), (6, 1)], [(2, 1), ("5/2", 1)], [(2, 1), ("5i", 1)],
        [("2+5i", 1), (5, 1)]])
    def test_a_wrong_spectrum_after_a_verified_one_raises(self, fresh, wrong):
        with pytest.raises(WrongSpectrum) as unverified:
            verify_spectrum(fresh(SHORTCUT), spectrum(wrong))
        a = fresh(SHORTCUT)
        verify_spectrum(a, SHORTCUT_SPECTRUM)
        with pytest.raises(WrongSpectrum) as after:
            verify_spectrum(a, spectrum(wrong))
        assert str(after.value) == str(unverified.value)
        assert verify_spectrum(a, SHORTCUT_SPECTRUM) == SHORTCUT_SPECTRUM

    def test_shape_checks_run_on_every_call(self, fresh, computed):
        a = fresh(SHORTCUT)
        verify_spectrum(a, SHORTCUT_SPECTRUM)
        with pytest.raises(InvalidSpectrum):
            verify_spectrum(a, spectrum([(2, 1)]))
        with pytest.raises(SpectrumTooLarge):
            verify_spectrum(a, spectrum([(1, 1), (2, 1), (5, 1)]))
        assert len(computed) == 1

    def test_an_equal_spelling_is_not_verified_again(self, fresh, computed):
        a = fresh(SPIRAL)
        verify_spectrum(a, spectrum([("i", 2), ("-i", 2)]))
        verify_spectrum(a, {parse_scalar("-i"): 2, GaussianRational(0, 1): 2})
        assert len(computed) == 1

    def test_a_found_spectrum_is_kept(self, fresh, monkeypatch, computed):
        a = fresh(DOUBLE_PLUS_SIMPLE)
        s = exacteig.resolve_spectrum(a, None)
        monkeypatch.setattr(exacteig.spectra, "_deflated", None)
        assert verify_spectrum(a, DOUBLE_PLUS_SIMPLE_SPECTRUM) == s
        assert len(computed) == 1

    def test_a_supplied_spectrum_is_kept_once(self, fresh, monkeypatch,
                                              computed):
        # the polynomial alone keeps the spectrum, and the transpose,
        # even one taken before the check, shares the polynomial
        assert {name for name in Matrix.__slots__
                if name not in ("rows", "cols", "_den", "_re", "_im",
                                "__weakref__")} \
            == {"_charpoly", "_eigenvectors", "_jordan"}
        a = fresh(THREE_DISTINCT)
        charpoly(a)
        early = a.transpose()
        assert verify_spectrum(a, THREE_DISTINCT_SPECTRUM) \
            == THREE_DISTINCT_SPECTRUM
        monkeypatch.setattr(exacteig.spectra, "_deflated", None)
        for b in (a, a.transpose(), early):
            assert verify_spectrum(b, THREE_DISTINCT_SPECTRUM) \
                == THREE_DISTINCT_SPECTRUM
        for value in THREE_DISTINCT_SPECTRUM.values():
            assert exacteig.product_eigenvectors(
                a.transpose(), THREE_DISTINCT_SPECTRUM, value)
        assert computed == [a]

    @pytest.fixture
    def deflations(self, monkeypatch):
        original = exacteig.spectra._deflated
        calls = []
        monkeypatch.setattr(exacteig.spectra, "_deflated",
                            lambda p, d: calls.append(d) or original(p, d))
        return calls

    def test_the_factored_polynomial_records_its_spectrum(self, fresh,
                                                           deflations):
        a = fresh(DOUBLE_PLUS_SIMPLE)
        s = find_spectrum(charpoly(a))
        deflations.clear()
        assert verify_spectrum(a, s) == DOUBLE_PLUS_SIMPLE_SPECTRUM
        exacteig.eigensystem(a, DOUBLE_PLUS_SIMPLE_SPECTRUM)
        assert deflations == []

    def test_a_wrong_spectrum_beside_a_factored_polynomial_raises(
            self, fresh):
        a = fresh(DOUBLE_PLUS_SIMPLE)
        find_spectrum(charpoly(a))
        with pytest.raises(WrongSpectrum):
            verify_spectrum(a, spectrum([(1, 1), (-1, 2)]))
        with pytest.raises(WrongSpectrum):
            exacteig.eigensystem(a, spectrum([(1, 2), (2, 1)]))

    def test_an_equal_polynomial_built_apart_records_nothing(self, fresh,
                                                             deflations):
        a = fresh(DOUBLE_PLUS_SIMPLE)
        apart = Polynomial(charpoly(a).coeffs)
        s = find_spectrum(apart)
        assert apart == charpoly(a) and hash(apart) == hash(charpoly(a))
        assert not hasattr(charpoly(a), "_factored")
        deflations.clear()
        assert verify_spectrum(a, s) == DOUBLE_PLUS_SIMPLE_SPECTRUM
        assert len(deflations) == len(s.pairs)

    def test_facts_change_neither_equality_nor_hash(self, fresh):
        a, b = fresh(THREE_DISTINCT), fresh(THREE_DISTINCT)
        before = hash(a)
        exacteig.resolve_spectrum(a, None)
        exacteig.eigensystem(a, THREE_DISTINCT_SPECTRUM)
        exacteig.jordan_form(a, THREE_DISTINCT_SPECTRUM)
        assert a == b and b == a
        assert hash(a) == hash(b) == before
        assert len({a, b}) == 1

    def test_the_transpose_takes_the_facts_over(self, fresh, computed):
        a = fresh(THREE_DISTINCT)
        verify_spectrum(a, THREE_DISTINCT_SPECTRUM)
        t = a.transpose()
        assert charpoly(t) is charpoly(a)
        verify_spectrum(t, THREE_DISTINCT_SPECTRUM)
        assert len(computed) == 1
        # computed afresh, the transpose's polynomial is the same
        assert charpoly(fresh(t)) == charpoly(a)

    def test_left_eigenvectors_compute_one(self, fresh, computed):
        a = fresh(THREE_DISTINCT)
        for value in THREE_DISTINCT_SPECTRUM.values():
            exacteig.left_product_eigenvectors(
                a, THREE_DISTINCT_SPECTRUM, value)
        assert computed == [a]

    def test_a_new_matrix_holds_no_fact(self, fresh):
        a = Matrix([[1, 2], [3, 4]])
        assert not any(hasattr(a, name)
                       for name in ("_charpoly", "_eigenvectors", "_jordan"))
        assert not hasattr(Matrix.identity(3).transpose(), "_charpoly")
        # the eigen-structure is kept for the matrix alone: neither its
        # transpose nor an equal new matrix has it
        b = fresh(THREE_DISTINCT)
        exacteig.eigensystem(b, THREE_DISTINCT_SPECTRUM)
        exacteig.jordan_form(b, THREE_DISTINCT_SPECTRUM)
        assert hasattr(b, "_eigenvectors") and hasattr(b, "_jordan")
        for other in (b.transpose(), fresh(b)):
            assert not hasattr(other, "_eigenvectors")
            assert not hasattr(other, "_jordan")


# -- the p-adic finder against the divisor-enumeration reference ------------

# Factors without rational roots, as ascending integer coefficients. The
# strategy below also draws x² + c, which may split over ℚ or ℚ(i).
NO_RATIONAL_ROOT_FACTORS = (
    [-2, 0, 1],            # x² − 2
    [1, 1, 1],             # x² + x + 1
    [-2, 0, 0, 1],         # x³ − 2
    [1, -1, 0, 1],         # x³ − x + 1
    [4, 0, 5, 0, 1],       # (x² + 1)(x² + 4)
    [1, 0, 0, 0, 1],       # x⁴ + 1
)

# The reference takes O(√|c₀|) steps and tries every divisor pair, so
# the product of the planted roots' heights is capped to keep it fast.
REFERENCE_HEIGHT_CAP = 10**9


@st.composite
def planted_polynomials(draw):
    """A monic product of planted rational roots (height ≤ 300,
    denominators 1–7, multiplicities 1–3, zero roots included) and up
    to two factors without rational roots."""
    roots = draw(st.lists(
        st.tuples(st.one_of(st.just(0), st.integers(-300, 300)),
                  st.integers(1, 7), st.integers(1, 3)),
        max_size=4))
    factors = draw(st.lists(
        st.one_of(st.sampled_from(NO_RATIONAL_ROOT_FACTORS),
                  st.integers(-60, 60).map(lambda c: [c, 0, 1])),
        max_size=2))
    product = poly([1])
    height = 1
    for numerator, denominator, mult in roots:
        height *= max(abs(numerator), denominator) ** mult
        if height > REFERENCE_HEIGHT_CAP:
            break
        for _ in range(mult):
            product = product * poly([Fraction(-numerator, denominator), 1])
    for factor in factors:
        product = product * poly(factor)
    assume(product.degree >= 1)
    return product


def _outcome(finder, p):
    try:
        return ("spectrum", finder(p))
    except IrrationalSpectrum as exc:
        return ("irrational", str(exc))


class TestAgainstReference:
    @given(planted_polynomials())
    def test_same_spectrum_or_same_message(self, p):
        assert _outcome(find_spectrum, p) == _outcome(ref.find_spectrum, p)

    @pytest.mark.parametrize("coeffs", [
        [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [4, 0, 5, 0, 1],
        [0, 0, 4, 0, 1], [-6, 11, -6, 1], [3, -7, 2], [1, 1, 1, 1],
        [-4, -4, -9, 6],       # (x − 2)(x² + x/2 + 1/3): denominators 2, 3
        [1, -7, 12],           # (3x − 1)(4x − 1): 1/4 must not pass as 1/3
        [-4, 8, -1, -5, 1, 1],  # (x − 1)³(x + 2)²
        [45, -51, 8, 4],       # (2x − 3)²(x + 5)
        [-5, 1, -10, 2, -5, 1],  # (x² + 1)²(x − 5): residual of degree 4
        [-2, 4, -1, -2, 1],    # (x² − 2)(x − 1)²
        # degree 2, solved by formula with no search
        [-15, 2, 8],           # (2x + 3)(4x − 5): two rationals
        [9, -12, 4],           # (2x − 3)²: a rational double root
        [5, -4, 4],            # 4x² − 4x + 5: the Gaussian pair 1/2 ± i
        [-1, -1, 1],           # x² − x − 1: an irrational pair
    ])
    def test_fixed_cases(self, coeffs):
        p = poly(coeffs)
        p = poly([c / p.leading for c in p.coeffs])
        assert _outcome(find_spectrum, p) == _outcome(ref.find_spectrum, p)


# -- the integer-numerator Polynomial against the scalar reference ----------

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
    st.integers(-10**50, 10**50),
    st.builds(Fraction, st.integers(-10**50, 10**50), st.integers(1, 10**50)))
gaussian = st.builds(lambda re, im: GaussianRational(Fraction(re),
                                                     Fraction(im)),
                     rationals, st.one_of(st.just(0), rationals))
coefficient_lists = st.lists(gaussian, max_size=5)
# roots with denominators shared by both parts, e.g. (1+i)/2
roots = st.one_of(gaussian, st.sampled_from(
    ["1/2+1/2i", "1/2-1/2i", "3/4i", "-1+2/3i", "0", "7"]).map(parse_scalar))


def both(coeffs):
    return Polynomial(coeffs), ref.Polynomial(coeffs)


class TestAgainstScalarReference:
    @given(coefficient_lists)
    def test_same_coefficients(self, coeffs):
        p, r = both(coeffs)
        assert p.coeffs == r.coeffs
        assert (p.degree, p.leading, p.is_monic, p.is_zero()) == \
            (r.degree, r.leading, r.is_monic, r.is_zero())
        assert format_polynomial(p) == format_polynomial(r)

    @given(coefficient_lists, coefficient_lists)
    def test_products(self, c1, c2):
        (p1, r1), (p2, r2) = both(c1), both(c2)
        assert (p1 * p2).coeffs == (r1 * r2).coeffs

    @given(coefficient_lists, roots)
    @example([Fraction(-7, 3)], parse_scalar("2+i"))  # a constant
    @example([], parse_scalar("1/2"))  # the zero polynomial
    # parts with coprime denominators, w = 6
    @example([Fraction(1, 5), parse_scalar("-3+1/4i"), 1],
             parse_scalar("1/2+1/3i"))
    def test_deflation_and_evaluation(self, coeffs, root):
        p, r = both(coeffs)
        quotient, remainder = p.deflate(root)
        expected_quotient, expected_remainder = r.deflate(root)
        assert quotient.coeffs == expected_quotient.coeffs
        assert remainder == expected_remainder == r(root) == p(root)

    @given(st.lists(roots, min_size=1, max_size=4), coefficient_lists)
    def test_planted_roots_deflate_exactly(self, planted, coeffs):
        p, r = both(coeffs)
        assume(not p.is_zero())
        for root in planted:
            p, r = p * Polynomial([-root, 1]), r * ref.Polynomial([-root, 1])
        for root in planted:
            assert multiplicity_of(p, root) >= planted.count(root)
        for root in planted:
            p, remainder = p.deflate(root)
            r, expected = r.deflate(root)
            assert remainder == expected == 0 and p.coeffs == r.coeffs

    @given(st.lists(st.integers(-10**50, 10**50), max_size=5),
           st.integers(0, 2))
    def test_equal_spellings_are_equal_and_hash_alike(self, ints, zeros):
        spellings = [
            ints + [0] * zeros,
            [Fraction(k) for k in ints],
            [GaussianRational(k) for k in ints] + [Fraction(0)] * zeros,
            [GaussianRational(Fraction(2 * k, 2), 0) for k in ints],
        ]
        polys = [Polynomial(s) for s in spellings]
        assert all(q == polys[0] for q in polys)
        assert len({hash(q) for q in polys}) == 1
        assert polys[0] != Polynomial(ints + [1])

    @given(coefficient_lists, coefficient_lists)
    def test_equal_values_by_different_routes(self, c1, c2):
        (p1, r1), (p2, r2) = both(c1), both(c2)
        product = p1 * p2
        rebuilt = Polynomial((r1 * r2).coeffs)
        assert product == rebuilt and hash(product) == hash(rebuilt)

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            Polynomial([1, 0.5])


def _verdict(check, a, s):
    try:
        return ("accepted", check(a, s))
    except ExactEigError as exc:
        return (type(exc), str(exc))


def _moved(s):
    """``s`` with one unit of the first multiplicity moved to the next
    eigenvalue (to first + 1 when there is only one)."""
    (v1, m1), *rest = s.pairs
    v2, m2 = rest[0] if rest else (v1 + 1, 0)
    pairs = dict(s.pairs)
    pairs.update({v1: m1 - 1, v2: m2 + 1})
    return Spectrum([(v, m) for v, m in pairs.items() if m])


class TestVerifySpectrumAgainstReference:
    def test_corpus(self, corpus):
        for entry in corpus:
            a, s = entry.matrix, entry.spectrum
            shifted = shift_spectrum(s, to_scalar(-1))
            moved = _moved(s)
            assert _verdict(verify_spectrum, a, s) == ("accepted", s) == \
                _verdict(ref.verify_spectrum, a, s)
            for wrong in (shifted, moved):
                verdict = _verdict(verify_spectrum, a, wrong)
                assert verdict[0] is WrongSpectrum
                assert verdict == _verdict(ref.verify_spectrum, a, wrong)

    def test_multiplies_no_polynomials(self, corpus, monkeypatch):
        def refuse(self, other):
            raise AssertionError("verify_spectrum multiplied polynomials")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        for entry in corpus[:100]:
            assert verify_spectrum(entry.matrix, entry.spectrum) == \
                entry.spectrum
        assert verify_spectrum(SPIRAL, spectrum([("i", 2), ("-i", 2)]))
        with pytest.raises(WrongSpectrum):
            verify_spectrum(SPIRAL, spectrum([("i", 3), ("-i", 1)]))

    @pytest.mark.parametrize("claimed", [
        [(1, 2)], [(1, 1), (2, 1), (3, 1)], [(2, 1), (5, 2)], [(2, 1)]])
    def test_same_errors_before_the_polynomial(self, claimed):
        assert _verdict(verify_spectrum, SHORTCUT, spectrum(claimed)) == \
            _verdict(ref.verify_spectrum, SHORTCUT, spectrum(claimed))

    def test_gaussian_spectra(self):
        for matrix, claimed in [
                (SPIRAL, [("i", 2), ("-i", 2)]),
                (SPIRAL, [("i", 3), ("-i", 1)]),
                (m([["1/2", "-1/2"], ["1/2", "1/2"]]),
                 [("1/2+1/2i", 1), ("1/2-1/2i", 1)]),
                (m([["1/2", "-1/2"], ["1/2", "1/2"]]),
                 [("1/2+1/2i", 2)])]:
            assert _verdict(verify_spectrum, matrix, spectrum(claimed)) == \
                _verdict(ref.verify_spectrum, matrix, spectrum(claimed))


# -- eigenvalue size does not limit root finding ----------------------------

# Run in a fresh interpreter under a time limit, so that a search that
# scales with the eigenvalues fails the test instead of hanging the suite.
TIME_LIMIT_S = 5
SRC = str(Path(exacteig.__file__).resolve().parents[1])

FIND_IN_CHILD = """
import sys
from exacteig import Matrix, Polynomial, charpoly, find_spectrum, parse_scalar
mode, values = sys.argv[1], [parse_scalar(t) for t in sys.argv[2:]]
if mode == "diagonal":
    n = len(values)
    p = charpoly(Matrix([[values[i] if i == j else 0 for j in range(n)]
                         for i in range(n)]))
else:
    p = Polynomial([1])
    for v in values:
        p = p * Polynomial([-v, 1])
print(find_spectrum(p))
"""


def _run_isolated(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True,
                          timeout=TIME_LIMIT_S)


class TestLargeEigenvalues:
    @pytest.mark.parametrize("mode,values,expected", [
        ("diagonal", ["10000019", "10000079"],
         "{10000019:1, 10000079:1}"),
        ("diagonal", ["314159265358", "-271828182845"],
         "{-271828182845:1, 314159265358:1}"),
        ("product", ["123456789/7", "-98765/3", "5", "5", "5",
                     "-12345678901"],
         "{-12345678901:1, -98765/3:1, 5:3, 123456789/7:1}"),
    ])
    def test_recovers_planted_spectrum(self, mode, values, expected):
        done = _run_isolated(FIND_IN_CHILD, mode, *values)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected + "\n"

    def test_charpoly_cli_exits_0(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(exacteig.matrix_to_json(
            m([[10000019, 0], [0, 10000079]]))))
        done = _run_isolated(
            "import sys; from exacteig.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "charpoly", str(path), "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["roots"] == [
            {"value": "10000019", "multiplicity": 1},
            {"value": "10000079", "multiplicity": 1}]
