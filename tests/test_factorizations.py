"""Diagonalization and its payoffs: exact powers and ODE solutions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exacteig.factorizations
import exacteig.spectra
from exacteig import (
    GaussianRational,
    IrrationalSpectrum,
    Matrix,
    NotDiagonalizable,
    RealifyOnComplexMatrix,
    Vector,
    diagonalize,
    matmul,
    matrix_power,
    matrix_power_direct,
    ode_general_solution,
    ode_term_is_solution,
    parse_scalar,
    residual_check,
    to_scalar,
)

from worked import (
    COMPLEX_FIVE,
    COMPLEX_FIVE_SPECTRUM,
    CROSS_DEMO,
    CROSS_DEMO_SPECTRUM,
    DEFECTIVE_TRIO,
    DEFECTIVE_TRIO_SPECTRUM,
    DEFECTIVE_TRIO_WITNESS,
    HALVES,
    HALVES_SPECTRUM,
    IRRATIONAL_PAIR,
    JORDAN_CELL,
    JORDAN_CELL_SPECTRUM,
    ROTATION,
    ROTATION_SPECTRUM,
    SHORTCUT,
    SHORTCUT_SPECTRUM,
    SHORTCUT_SQUARED,
    SPIRAL,
    SPIRAL_SPECTRUM,
    SYMMETRIC_PAIR,
    THREE_DISTINCT,
    THREE_DISTINCT_SPECTRUM,
    TRIPLE_EIGENVALUE,
    TRIPLE_EIGENVALUE_SPECTRUM,
    m,
)

DIAGONALIZABLE = [
    (THREE_DISTINCT, THREE_DISTINCT_SPECTRUM),
    (HALVES, HALVES_SPECTRUM),
    (TRIPLE_EIGENVALUE, TRIPLE_EIGENVALUE_SPECTRUM),
    (CROSS_DEMO, CROSS_DEMO_SPECTRUM),
]


class TestDiagonalize:
    @pytest.mark.parametrize("matrix,spec", [
        pytest.param(*row, id=f"diag-{i}")
        for i, row in enumerate(DIAGONALIZABLE)
    ])
    def test_exact_reconstruction(self, matrix, spec):
        decomposition = diagonalize(matrix, spec)
        product = matmul(matmul(decomposition.p, decomposition.d),
                         decomposition.p_inv)
        assert product == matrix

    @pytest.mark.parametrize("matrix,spec", [
        pytest.param(*row, id=f"diag-{i}")
        for i, row in enumerate(DIAGONALIZABLE)
    ])
    def test_diagonal_matches_spectrum(self, matrix, spec):
        decomposition = diagonalize(matrix, spec)
        assert sorted(decomposition.eigen_order, key=str) == \
            sorted(spec.expanded(), key=str)
        for idx, value in enumerate(decomposition.eigen_order):
            assert decomposition.d.entry(idx, idx) == value
            assert residual_check(matrix, value,
                                  decomposition.p.column(idx))

    def test_spectrum_is_optional(self):
        decomposition = diagonalize(SHORTCUT)
        assert matmul(matmul(decomposition.p, decomposition.d),
                      decomposition.p_inv) == SHORTCUT

    def test_complex_matrix(self):
        decomposition = diagonalize(COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)
        assert matmul(matmul(decomposition.p, decomposition.d),
                      decomposition.p_inv) == COMPLEX_FIVE

    def test_defective_carries_witness(self):
        with pytest.raises(NotDiagonalizable) as excinfo:
            diagonalize(DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM)
        assert excinfo.value.witness == DEFECTIVE_TRIO_WITNESS

    def test_irrational_spectrum_propagates(self):
        with pytest.raises(IrrationalSpectrum):
            diagonalize(IRRATIONAL_PAIR)


# Square matrices of three kinds: integer, Gaussian-integer and rational
# entries.
_integers = st.integers(-3, 3)
_entries = st.one_of(
    _integers.map(GaussianRational),
    st.builds(GaussianRational, _integers, _integers),
    st.builds(lambda p, q: GaussianRational(Fraction(p, q)), _integers,
              st.integers(1, 4)))
_powered = st.integers(1, 4).flatmap(lambda n: st.one_of(
    st.lists(st.lists(_integers, min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.lists(_entries, min_size=n, max_size=n),
             min_size=n, max_size=n)).map(Matrix.from_rows))


class TestMatrixPower:
    @given(_powered)
    def test_matches_a_running_product(self, matrix):
        running = Matrix.identity(matrix.rows)
        for exponent in range(21):
            assert matrix_power(matrix, exponent) == running
            running = matmul(running, matrix)

    def test_known_square(self):
        assert matrix_power(SHORTCUT, 2, SHORTCUT_SPECTRUM) == \
            SHORTCUT_SQUARED
        assert matrix_power_direct(SHORTCUT, 2) == SHORTCUT_SQUARED

    def test_zeroth_power_is_identity(self):
        assert matrix_power(SHORTCUT, 0) == Matrix.identity(2)
        assert matrix_power_direct(SHORTCUT, 0) == Matrix.identity(2)

    def test_first_power_is_the_matrix(self):
        assert matrix_power(SHORTCUT, 1) == SHORTCUT

    def test_both_routes_agree(self):
        # the eigendecomposition P·Dᵏ·P⁻¹ is an independent second route
        for matrix, spec in DIAGONALIZABLE:
            decomposition = diagonalize(matrix, spec)
            for exponent in range(9):
                powered = Matrix.diagonal(
                    [v ** exponent for v in decomposition.eigen_order])
                via_eigen = matmul(matmul(decomposition.p, powered),
                                   decomposition.p_inv)
                assert matrix_power(matrix, exponent) == via_eigen

    def test_needs_no_spectrum(self, monkeypatch):
        class Forbidden(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Forbidden("matrix_power must not analyse the spectrum")

        for module in (exacteig.factorizations, exacteig.spectra):
            for name in ("diagonalize", "charpoly", "find_spectrum"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for matrix in (IRRATIONAL_PAIR, DEFECTIVE_TRIO, THREE_DISTINCT):
            running = Matrix.identity(matrix.rows)
            for exponent in range(7):
                assert matrix_power(matrix, exponent) == running
                running = matmul(running, matrix)

    def test_defective_falls_back(self):
        for exponent in range(6):
            assert matrix_power(DEFECTIVE_TRIO, exponent,
                                DEFECTIVE_TRIO_SPECTRUM) == \
                matrix_power_direct(DEFECTIVE_TRIO, exponent)

    def test_irrational_falls_back(self):
        assert matrix_power(IRRATIONAL_PAIR, 2) == m([[2, 0], [0, 2]])

    def test_repeated_calls_stay_exact(self):
        first = matrix_power(THREE_DISTINCT, 5, THREE_DISTINCT_SPECTRUM)
        second = matrix_power(THREE_DISTINCT, 5, THREE_DISTINCT_SPECTRUM)
        assert first == second == matrix_power_direct(THREE_DISTINCT, 5)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            matrix_power(SHORTCUT, -1)
        with pytest.raises(ValueError):
            matrix_power_direct(SHORTCUT, "2")


def checked_solution(matrix, spec=None, realify=None):
    terms = ode_general_solution(matrix, spec, realify=realify)
    assert len(terms) == matrix.rows
    assert [t.coefficient_label for t in terms] == \
        [f"c{i + 1}" for i in range(matrix.rows)]
    for term in terms:
        assert ode_term_is_solution(matrix, term)
    return terms


class TestOdeSolutions:
    def test_distinct_real_eigenvalues(self):
        terms = checked_solution(SYMMETRIC_PAIR)
        assert {str(t.exponent) for t in terms} == {"1", "3"}
        for term in terms:
            assert term.trig_part is None
            ((vec, power, divisor),) = term.vector_polynomial
            assert power == 0 and divisor == 1
            assert residual_check(SYMMETRIC_PAIR, term.exponent, vec)

    def test_defective_chain_brings_polynomial(self):
        terms = checked_solution(JORDAN_CELL, JORDAN_CELL_SPECTRUM)
        by_length = sorted(terms, key=lambda t: len(t.vector_polynomial))
        assert len(by_length[0].vector_polynomial) == 1
        assert len(by_length[1].vector_polynomial) == 2
        # t-powers and factorial divisors of the longer solution
        powers = [(p, d) for _, p, d in by_length[1].vector_polynomial]
        assert powers == [(1, 1), (0, 1)]

    def test_rotation_realifies_into_cos_sin_pair(self):
        terms = checked_solution(ROTATION, ROTATION_SPECTRUM)
        kinds = sorted(t.trig_part.kind for t in terms)
        assert kinds == ["cos", "sin"]
        for term in terms:
            assert term.exponent == to_scalar(0)      # pure oscillation
            assert term.trig_part.beta == to_scalar(1).re

    def test_realified_defective_complex_pair(self):
        terms = checked_solution(SPIRAL, SPIRAL_SPECTRUM)
        assert sum(1 for t in terms if t.trig_part.kind == "cos") == 2
        assert sum(1 for t in terms if t.trig_part.kind == "sin") == 2
        assert max(len(t.vector_polynomial) for t in terms) == 2

    def test_opt_out_of_realification(self):
        terms = checked_solution(ROTATION, ROTATION_SPECTRUM,
                                 realify=False)
        from exacteig import format_scalar
        exponents = {format_scalar(t.exponent) for t in terms}
        assert exponents == {"i", "-i"}
        for term in terms:
            assert term.trig_part is None

    def test_complex_matrix_stays_complex(self):
        terms = checked_solution(COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)
        assert all(t.trig_part is None for t in terms)

    def test_realify_rejected_on_complex_matrix(self):
        with pytest.raises(RealifyOnComplexMatrix):
            ode_general_solution(COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM,
                                 realify=True)

    def test_defective_real_matrix(self):
        checked_solution(DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM)

    def test_checker_rejects_perturbed_terms(self):
        terms = ode_general_solution(SYMMETRIC_PAIR)
        good = terms[0]
        vec, power, divisor = good.vector_polynomial[0]
        bumped = Vector([e + to_scalar(1) for e in vec.entries],
                        vec.orientation)
        from exacteig import OdeSolutionTerm
        bad_vector = OdeSolutionTerm(
            good.coefficient_label, ((bumped, power, divisor),),
            good.exponent)
        assert not ode_term_is_solution(SYMMETRIC_PAIR, bad_vector)
        bad_exponent = OdeSolutionTerm(
            good.coefficient_label, good.vector_polynomial,
            good.exponent + to_scalar(1))
        assert not ode_term_is_solution(SYMMETRIC_PAIR, bad_exponent)

    def test_checker_rejects_wrong_trig_partner(self):
        terms = ode_general_solution(ROTATION, ROTATION_SPECTRUM)
        from exacteig import OdeSolutionTerm, TrigPart
        good = next(t for t in terms if t.trig_part.kind == "cos")
        wrong_beta = OdeSolutionTerm(
            good.coefficient_label, good.vector_polynomial, good.exponent,
            TrigPart("cos", good.trig_part.beta + good.trig_part.beta,
                     good.trig_part.partner_vectors))
        assert not ode_term_is_solution(ROTATION, wrong_beta)
