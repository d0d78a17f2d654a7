"""Diagonalization and its payoffs: exact powers and ODE solutions."""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import exacteig.charmatrix
import exacteig.factorizations
import exacteig.jordan
import exacteig.spectra
from exacteig import (
    GaussianRational,
    GeneratorConfig,
    InternalInconsistency,
    IrrationalSpectrum,
    JordanChain,
    Matrix,
    NotDiagonalizable,
    RealifyOnComplexMatrix,
    Spectrum,
    Vector,
    det,
    diagonalize,
    eigensystem,
    format_scalar,
    inverse,
    is_diagonalizable,
    jordan_form,
    matmul,
    matrix_power,
    matrix_power_direct,
    matrix_to_json,
    ode_general_solution,
    ode_term_is_solution,
    parse_scalar,
    random_spectral_matrix,
    residual_check,
    to_scalar,
    vector_to_json,
)
from exacteig.matrices import Record

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
    TWO_CHAINS,
    TWO_CHAINS_SPECTRUM,
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

    # a 1×1 matrix is its own spectrum, Gaussian entry or not
    @pytest.mark.parametrize("entry", ["i", "1+2i"])
    def test_gaussian_1x1_needs_no_spectrum(self, entry):
        a, lam = m([[entry]]), parse_scalar(entry)
        decomposition = diagonalize(a)
        assert (decomposition.p, decomposition.d, decomposition.p_inv,
                decomposition.eigen_order) == (m([[1]]), a, m([[1]]), (lam,))
        assert jordan_form(a).j == a
        (term,) = checked_solution(a)
        assert term.exponent == lam and term.trig_part is None


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

    @pytest.fixture
    def binary(self, monkeypatch):
        """The exponents binary exponentiation ran for, through either
        function."""
        ran = []
        original = exacteig.factorizations._power
        monkeypatch.setattr(exacteig.factorizations, "_power",
                            lambda a, k: ran.append(k) or original(a, k))
        return ran

    @pytest.mark.parametrize("matrix,spec", [
        (THREE_DISTINCT, THREE_DISTINCT_SPECTRUM),
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM),
        (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)])
    def test_a_held_decomposition_serves_large_exponents(
            self, binary, matrix, spec):
        # ⌊log₂ k⌋ + popcount(k) − 1 products decide, not k itself: 16
        # takes 4 and stays binary, 11 takes 5
        a = _copy(matrix)
        form = jordan_form(a, spec)
        threshold = exacteig.factorizations._ROUTE_PRODUCTS
        running = Matrix.identity(a.rows)
        for k in range(40):
            binary.clear()
            assert matrix_power(a, k) == running
            products = k.bit_length() + k.bit_count() - 2
            assert binary == ([] if products >= threshold else [k])
            running = matmul(running, a)
        assert exacteig.jordan._held_decomposition(a)[2] is form.p_inv

    def test_direct_is_binary_exponentiation_alone(self, binary):
        a = _copy(DEFECTIVE_TRIO)
        form = jordan_form(a, DEFECTIVE_TRIO_SPECTRUM)
        assert exacteig.jordan._held_decomposition(a)[2] is form.p_inv
        # two routes: only matrix_power_direct runs binary exponentiation
        assert matrix_power_direct(a, 100) == matrix_power(a, 100)
        assert binary == [100]

    def test_a_dropped_decomposition_leaves_binary(self, binary):
        a = _copy(DEFECTIVE_TRIO)
        form = jordan_form(a, DEFECTIVE_TRIO_SPECTRUM)
        routed = matrix_power(a, 100)
        assert binary == []
        del form  # the matrix kept only a weak reference to its P⁻¹
        assert exacteig.jordan._held_decomposition(a) is None
        assert matrix_power(a, 100) == routed
        assert binary == [100]

    def test_the_route_ignores_the_spectrum_argument(self):
        # as binary exponentiation does: J comes from the spectrum that
        # the characteristic polynomial recorded
        a = _copy(DEFECTIVE_TRIO)
        form = jordan_form(a, DEFECTIVE_TRIO_SPECTRUM)
        assert exacteig.jordan._held_decomposition(a)[2] is form.p_inv
        assert matrix_power(a, 100, Spectrum([(5, 3)])) == \
            matrix_power_direct(DEFECTIVE_TRIO, 100)


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
        # negated partners flip the sine half of each term: this pins
        # the signs of the cos and the sin coefficients
        assert {t.trig_part.kind for t in terms} == {"cos", "sin"}
        for term in terms:
            trig = term.trig_part
            assert ode_term_is_solution(ROTATION, term)
            negated = OdeSolutionTerm(
                term.coefficient_label, term.vector_polynomial,
                term.exponent,
                TrigPart(trig.kind, trig.beta,
                         tuple(-w for w in trig.partner_vectors)))
            assert not ode_term_is_solution(ROTATION, negated)

    def test_checker_keeps_the_sine_equation_of_a_zero_rate(self):
        # β = 0 with nonzero partners: the sine equations are not 0 = 0,
        # so A·w = λ·w must hold for the partner w of a power-0 term
        from exacteig import OdeSolutionTerm, TrigPart
        good = ode_general_solution(SYMMETRIC_PAIR)[0]
        (vec, _, _), = good.vector_polynomial
        other = ode_general_solution(SYMMETRIC_PAIR)[1].vector_polynomial
        for partner, verdict in ((vec, True), (other[0][0], False)):
            term = OdeSolutionTerm(
                good.coefficient_label, good.vector_polynomial,
                good.exponent, TrigPart("cos", Fraction(0), (partner,)))
            assert ode_term_is_solution(SYMMETRIC_PAIR, term) is verdict


# -- the eigen-structure a matrix keeps ---------------------------------------


def _copy(a):
    """A new matrix equal to ``a`` that keeps no fact."""
    return Matrix.from_rows([a.row_entries(i) for i in range(a.rows)])


def _text(x):
    """Canonical text of a result: the JSON forms of its matrices,
    vectors and scalars, field by field."""
    if isinstance(x, Matrix):
        return matrix_to_json(x)
    if isinstance(x, Vector):
        return vector_to_json(x)
    if isinstance(x, GaussianRational):
        return format_scalar(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Record):
        return [type(x).__name__,
                *(_text(getattr(x, name)) for name in x.__slots__)]
    if isinstance(x, (list, tuple)):
        return [_text(y) for y in x]
    return x


def _diagonalized(a, s):
    """``diagonalize``, or the witness of a NotDiagonalizable."""
    try:
        return diagonalize(a, s)
    except NotDiagonalizable as exc:
        return exc.witness


@st.composite
def corpus_recipe(draw):
    """(matrix, spectrum) drawn like the corpus: n = 2–5, 1–3 distinct
    eigenvalues in −4..4, at times one Jordan block over a repeated
    eigenvalue. In some draws one eigenvalue moves off the real axis (a
    complex matrix); in others the matrix is real with a conjugate pair
    α ± βi, repeated and in a Jordan block at times."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["real", "gaussian", "conjugate"]))
    if kind == "conjugate":
        return draw(_conjugate_pair_case(n))
    values = [GaussianRational(v) for v in draw(st.lists(
        st.integers(-4, 4), min_size=1, max_size=min(3, n), unique=True))]
    if kind == "gaussian":
        values[0] = GaussianRational(values[0].re, draw(
            st.sampled_from([-2, -1, 1, 2])))
    mults = [1] * len(values)
    for _ in range(n - len(values)):
        mults[draw(st.integers(0, len(values) - 1))] += 1
    spectrum = Spectrum(list(zip(values, mults)))
    repeated = [(v, k) for v, k in spectrum.pairs if k > 1]
    blocks = ({repeated[0][0]: (repeated[0][1],)}
              if repeated and draw(st.booleans()) else None)
    config = GeneratorConfig(dim=n, spectrum=spectrum,
                             seed=draw(st.integers(0, 2**64 - 1)),
                             entry_bound=2, jordan_blocks=blocks)
    return random_spectral_matrix(config)[0], spectrum


@st.composite
def _conjugate_pair_case(draw, n):
    """B·C·B⁻¹ for a real block form C and an integer basis B."""
    alpha, beta = draw(st.integers(-3, 3)), draw(st.integers(1, 2))
    pairs = 2 if n >= 4 and draw(st.booleans()) else 1
    rest = draw(st.lists(st.integers(-4, 4), min_size=n - 2 * pairs,
                         max_size=n - 2 * pairs))
    c = [[0] * n for _ in range(n)]
    for i in range(0, 2 * pairs, 2):
        c[i][i] = c[i + 1][i + 1] = alpha
        c[i][i + 1], c[i + 1][i] = -beta, beta
    if pairs == 2 and draw(st.booleans()):
        c[0][2] = c[1][3] = 1  # one block of size 2 for each of α ± βi
    for i, value in enumerate(rest, 2 * pairs):
        c[i][i] = value
    basis = Matrix(draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    assume(det(basis))
    counts = Counter({GaussianRational(alpha, beta): pairs,
                      GaussianRational(alpha, -beta): pairs})
    counts.update(map(GaussianRational, rest))
    return (matmul(matmul(basis, Matrix(c)), inverse(basis)),
            Spectrum(counts))


@st.composite
def _planted_case(draw, with_zero):
    """(matrix, spectrum, {eigenvalue: block sizes}) with n = 2–6 and
    integer eigenvalues in −3..3, the Jordan blocks of each drawn at
    random. With ``with_zero`` 0 is an eigenvalue, so a block of 0
    starts at one or more columns of J; else it is not one."""
    n = draw(st.integers(2, 6))
    candidates = [v for v in range(-3, 4) if v]
    values = draw(st.lists(st.sampled_from(candidates), min_size=1,
                           max_size=min(3, n) - with_zero, unique=True))
    values = [0, *values] if with_zero else values
    mults = [1] * len(values)
    for _ in range(n - len(values)):
        mults[draw(st.integers(0, len(values) - 1))] += 1
    blocks = {}
    for value, mult in zip(values, mults):
        sizes = []
        while sum(sizes) < mult:
            sizes.append(draw(st.integers(1, mult - sum(sizes))))
        blocks[value] = tuple(sorted(sizes, reverse=True))
    spectrum = Spectrum(list(zip(values, mults)))
    config = GeneratorConfig(dim=n, spectrum=spectrum,
                             seed=draw(st.integers(0, 2**64 - 1)),
                             entry_bound=2, jordan_blocks=blocks)
    return random_spectral_matrix(config)[0], spectrum, blocks


@pytest.fixture
def calls(monkeypatch):
    """Names of the eigen-structure kernels called, in order, counted
    through every exacteig module that binds them."""
    names = []
    modules = [module for module in vars(exacteig).values()
               if getattr(module, "__name__", "").startswith("exacteig.")]
    for name in ("_eigenbasis", "_chains", "nullspace_basis",
                 "_eliminate"):
        original = next(getattr(module, name) for module in modules
                        if hasattr(module, name))

        def logged(*args, _name=name, _original=original):
            names.append(_name)
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, logged)
    return names


def _repeated(spec):
    """Eigenvalues of ``spec`` with multiplicity above 1: on a
    diagonalizable matrix, each has two chains or more, whose bottoms
    one elimination certifies."""
    return sum(mult > 1 for _, mult in spec.pairs)


# λ = 2, defective so that the planted chains reach the certificate: the
# one-vector chains give A·P ≠ P·J on the first matrix; on the second the
# chains (e₀, e₁) and (e₀) give A·P = P·J with blocks (2, 1) and dependent
# bottoms
CERTIFICATE_FAULTS = [
    ([[2, 1, 0], [0, 2, 0], [0, 0, 3]], [[[1, 0, 0]], [[0, 1, 0]]],
     "A\\*P == P\\*J"),
    ([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
     [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0]]], "dependent"),
]


def _plant_chains_at_2(patch, planted):
    """Make ``jordan._chains`` give λ = 2 the ``planted`` chains, each a
    list of vectors from the bottom up, and every other eigenvalue its
    own."""
    original = exacteig.jordan._chains

    def chains(a, lam, *args):
        if lam != 2:
            return original(a, lam, *args)
        return [JordanChain(lam, tuple(map(Vector, chain)))
                for chain in planted]

    patch.setattr(exacteig.jordan, "_chains", chains)


DEFECTIVE = [
    (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM),
    (TWO_CHAINS, TWO_CHAINS_SPECTRUM),
    (JORDAN_CELL, JORDAN_CELL_SPECTRUM),
    (SPIRAL, SPIRAL_SPECTRUM),
]
ALL_CASES = [*DIAGONALIZABLE, (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM),
             (ROTATION, ROTATION_SPECTRUM), *DEFECTIVE]


class TestKeptEigenStructure:
    """``eigensystem`` keeps a complete eigenbasis as the P that
    ``diagonalize`` and ``jordan_form`` take, and the Jordan basis P is
    kept once certified, for ``jordan_form`` and for
    ``ode_general_solution``, which reads the chains from it. What they
    read is what they would compute, and a basis that fails its
    certificate is not kept."""

    @pytest.mark.parametrize("matrix,spec", [
        *DIAGONALIZABLE, (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)])
    def test_diagonalize_after_eigensystem_builds_no_eigenbasis(
            self, calls, matrix, spec):
        a = _copy(matrix)
        eigensystem(a, spec)
        calls.clear()
        kept = diagonalize(a, spec)
        # the bottoms of each repeated eigenvalue, then the inverse
        assert calls == ["_eliminate"] * (_repeated(spec) + 1)
        assert kept == diagonalize(_copy(matrix), spec)

    @pytest.mark.parametrize("matrix,spec", DEFECTIVE)
    def test_a_defective_matrix_keeps_no_eigenbasis(self, calls, matrix,
                                                    spec):
        a = _copy(matrix)
        eigensystem(a, spec)
        calls.clear()
        with pytest.raises(NotDiagonalizable):
            diagonalize(a, spec)
        # the witness product alone: no eigenbasis, chain or elimination
        assert calls == []

    @pytest.mark.parametrize("matrix,spec", [
        *DIAGONALIZABLE, (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)])
    def test_is_diagonalizable_after_eigensystem_forms_no_product(
            self, monkeypatch, calls, matrix, spec):
        a = _copy(matrix)
        eigensystem(a, spec)
        original = exacteig.charmatrix.matmul
        products = []
        monkeypatch.setattr(exacteig.charmatrix, "matmul",
                            lambda x, y: products.append(x) or original(x, y))
        calls.clear()
        assert is_diagonalizable(a, spec) == (True, None)
        assert calls == [] and products == []

    @pytest.mark.parametrize("matrix,spec", ALL_CASES)
    def test_is_diagonalizable_after_eigensystem_keeps_its_verdict(
            self, matrix, spec):
        a = _copy(matrix)
        eigensystem(a, spec)
        assert is_diagonalizable(a, spec) == is_diagonalizable(
            _copy(matrix), spec)

    @pytest.mark.parametrize("matrix,spec", [
        *DIAGONALIZABLE, (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)])
    def test_jordan_form_after_eigensystem_builds_no_chain(
            self, calls, matrix, spec):
        a = _copy(matrix)
        eigensystem(a, spec)
        calls.clear()
        kept = jordan_form(a, spec)
        assert calls == ["_eliminate"] * (_repeated(spec) + 1)
        assert kept == jordan_form(_copy(matrix), spec)

    @pytest.mark.parametrize("matrix,spec", [
        *DIAGONALIZABLE, (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM)])
    def test_a_held_inverse_is_not_inverted_again(
            self, monkeypatch, calls, matrix, spec):
        cold = jordan_form(_copy(matrix), spec)
        inverses = []
        original = exacteig.jordan.inverse
        monkeypatch.setattr(exacteig.jordan, "inverse",
                            lambda p: inverses.append(p) or original(p))
        a = _copy(matrix)
        diagonal = diagonalize(a, spec)
        assert len(inverses) == 1
        calls.clear()
        # while the Diagonalization is referenced: no inverse, no check
        form = jordan_form(a, spec)
        assert len(inverses) == 1 and calls == []
        assert form.p_inv is diagonal.p_inv and form == cold
        del diagonal, form
        # dropped: the matrix did not own P⁻¹, so it is inverted again
        assert jordan_form(a, spec) == cold
        assert len(inverses) == 2 and calls == ["_eliminate"]

    @pytest.mark.parametrize("matrix,spec", ALL_CASES)
    def test_ode_after_jordan_form_makes_no_elimination(
            self, calls, matrix, spec):
        a = _copy(matrix)
        jordan_form(a, spec)
        calls.clear()
        kept = ode_general_solution(a, spec)
        assert calls == []
        assert kept == ode_general_solution(_copy(matrix), spec)

    @pytest.mark.parametrize("matrix,spec", ALL_CASES)
    def test_jordan_form_after_ode_makes_one_elimination(
            self, calls, matrix, spec):
        a = _copy(matrix)
        ode_general_solution(a, spec)
        assert getattr(a, "_jordan", None) is not None
        calls.clear()
        kept = jordan_form(a, spec)
        # the inverse alone eliminates
        assert calls == ["_eliminate"]
        assert kept == jordan_form(_copy(matrix), spec)

    @pytest.mark.parametrize("call", [ode_general_solution, jordan_form])
    @pytest.mark.parametrize("matrix,spec", DEFECTIVE)
    def test_split_chains_fail_the_certificate(self, monkeypatch, call,
                                               matrix, spec):
        # 1×1 blocks make J diagonal, which no defective A is similar to
        original = exacteig.jordan._chains
        monkeypatch.setattr(exacteig.jordan, "_chains", lambda *args: [
            JordanChain(chain.eigenvalue, (x,))
            for chain in original(*args) for x in chain.vectors])
        a = _copy(matrix)
        with pytest.raises(InternalInconsistency, match="A\\*P == P\\*J"):
            call(a, spec)
        assert not hasattr(a, "_jordan")

    @pytest.mark.parametrize("call", [ode_general_solution, jordan_form])
    @pytest.mark.parametrize("rows,planted,message", CERTIFICATE_FAULTS,
                             ids=["a-p-is-not-p-j", "dependent-bottoms"])
    def test_a_basis_that_fails_is_not_kept(self, monkeypatch, call, rows,
                                            planted, message):
        a = Matrix(rows)
        with monkeypatch.context() as patch:
            _plant_chains_at_2(patch, planted)
            with pytest.raises(InternalInconsistency, match=message):
                call(a)
        assert not hasattr(a, "_jordan")
        terms = ode_general_solution(a)
        assert len(terms) == a.rows
        assert all(ode_term_is_solution(a, term) for term in terms)
        assert jordan_form(a) == jordan_form(_copy(a))

    def test_dependent_kept_eigenvectors_fail_the_certificate(
            self, monkeypatch):
        original = exacteig.charmatrix._eigenbasis

        def repeated(*args):
            vectors = original(*args)
            return [vectors[0]] * len(vectors)

        monkeypatch.setattr(exacteig.charmatrix, "_eigenbasis", repeated)
        a = Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
        with pytest.raises(InternalInconsistency, match="dependent"):
            diagonalize(a)
        assert not hasattr(a, "_jordan")

    # the first column of J is zero (a block of eigenvalue 0), so
    # P·J·P⁻¹ = A would hold whatever row 0 of P⁻¹ is; P⁻¹·P = I fixes
    # every row
    @pytest.mark.parametrize("call,rows", [
        (diagonalize, [[1, 1], [0, 0]]),
        (jordan_form, [[1, 1], [0, 0]]),
        (jordan_form, [[0, 1], [0, 0]]),
    ], ids=["diagonalize", "jordan-form", "jordan-cell-at-0"])
    def test_every_row_of_the_inverse_is_checked(self, monkeypatch, call,
                                                 rows):
        def off_in_row_0(p):
            right = inverse(p)
            return Matrix([[right.entry(i, j) + (5, -7)[j] * (i == 0)
                            for j in range(2)] for i in range(2)])

        for module in (exacteig.factorizations, exacteig.jordan):
            if hasattr(module, "inverse"):
                monkeypatch.setattr(module, "inverse", off_in_row_0)
        a = Matrix(rows)
        with pytest.raises(InternalInconsistency, match="P\\^-1\\*P == I"):
            call(a)
        # the certified basis stays kept, and the true inverse passes
        monkeypatch.undo()
        assert call(a) == call(Matrix(rows))

    @pytest.mark.parametrize("with_zero", [True, False],
                             ids=["zero-at-block-starts", "no-zero"])
    @given(data=st.data())
    def test_every_row_of_the_inverse_is_checked_on_planted_matrices(
            self, with_zero, data):
        matrix, spectrum, blocks = data.draw(_planted_case(with_zero))
        n = matrix.rows
        offset = Matrix([data.draw(st.lists(
            st.integers(-3, 3), min_size=n, max_size=n).filter(any))])
        calls = [jordan_form]
        if all(size == 1 for sizes in blocks.values() for size in sizes):
            calls.append(diagonalize)
        for k in range(n):
            def off_in_row_k(p):
                right = inverse(p)
                return Matrix([[right.entry(i, j)
                                + offset.entry(0, j) * (i == k)
                                for j in range(n)] for i in range(n)])

            for call in calls:
                a = _copy(matrix)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(exacteig.jordan, "inverse", off_in_row_k)
                    with pytest.raises(InternalInconsistency,
                                       match="P\\^-1\\*P == I"):
                        call(a, spectrum)
                assert a._jordan is not None  # certified, so kept

    @given(corpus_recipe())
    def test_kept_and_cold_paths_agree(self, case):
        a, s = case
        kept = _copy(a)
        eigensystem(kept, s)
        warm = [jordan_form(kept, s), _diagonalized(kept, s),
                ode_general_solution(kept, s)]
        assert getattr(kept, "_jordan", None) is not None
        # the ODE keeps its basis unverified, and jordan_form verifies it
        ode_first = _copy(a)
        ode = ode_general_solution(ode_first, s)
        late = [jordan_form(ode_first, s), _diagonalized(ode_first, s), ode]
        cold = [jordan_form(_copy(a), s), _diagonalized(_copy(a), s),
                ode_general_solution(_copy(a), s)]
        assert json.dumps(_text(warm)) == json.dumps(_text(cold))
        assert json.dumps(_text(late)) == json.dumps(_text(cold))


class TestHistoryIndependence:
    """Every Jordan basis starts from the eigensystem of its matrix, so
    each call on a fresh copy gives the text of the same call made after
    ``eigensystem``."""

    CALLS = [jordan_form, ode_general_solution, _diagonalized]
    IDS = ["jordan-form", "ode", "diagonalize"]

    @staticmethod
    def cold_and_warm(call, a, s):
        kept = _copy(a)
        eigensystem(kept, s)
        return [json.dumps(_text(call(b, s))) for b in (_copy(a), kept)]

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    @pytest.mark.parametrize("matrix,spec", ALL_CASES)
    def test_worked_cases(self, call, matrix, spec):
        cold, warm = self.cold_and_warm(call, matrix, spec)
        assert cold == warm

    # the first cycle of the corpus: its dimensions repeat every 10
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_first_corpus_cycle(self, corpus, call, seed):
        entry = corpus[seed]
        cold, warm = self.cold_and_warm(call, entry.matrix, entry.spectrum)
        assert cold == warm
