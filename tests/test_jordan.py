"""Generalized eigenvectors, chain construction, and the full Jordan
decomposition."""

import json
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import exacteig
from exacteig import (
    GaussianRational,
    GeneratorConfig,
    InternalInconsistency,
    Matrix,
    NotInSpectrum,
    RankTooLarge,
    Spectrum,
    SplitMix64,
    build_chains,
    characteristic_matrix,
    charpoly,
    eigensystem,
    generalized_eigenvectors,
    independent_extension,
    inverse,
    jordan_form,
    matmul,
    matrix_to_json,
    matvec,
    ode_general_solution,
    ode_term_is_solution,
    random_spectral_matrix,
    rank,
    shifted_power_ranks,
    to_scalar,
)
from exacteig.cli import main

from worked import (
    COMPLEX_FIVE,
    COMPLEX_FIVE_SPECTRUM,
    DEFECTIVE_QUARTET,
    DEFECTIVE_QUARTET_CHAIN_TOP,
    DEFECTIVE_QUARTET_SPECTRUM,
    DEFECTIVE_TABLE,
    DEFECTIVE_TRIO,
    DEFECTIVE_TRIO_CHAIN_TOP,
    DEFECTIVE_TRIO_RANKS_AT_MINUS2,
    DEFECTIVE_TRIO_SPECTRUM,
    DOUBLE_PLUS_SIMPLE,
    DOUBLE_PLUS_SIMPLE_SPECTRUM,
    JORDAN_CELL,
    JORDAN_CELL_SPECTRUM,
    ONE_EIGENVALUE,
    ONE_EIGENVALUE_BLOCKS,
    ONE_EIGENVALUE_RANKS,
    ONE_EIGENVALUE_SPECTRUM,
    SPIRAL,
    SPIRAL_SPECTRUM,
    TWO_CHAINS,
    TWO_CHAINS_BLOCKS,
    TWO_CHAINS_RANKS,
    TWO_CHAINS_SPECTRUM,
    v,
)


def jordan_blocks_of(j):
    """Read (eigenvalue, size) blocks off an assembled Jordan matrix."""
    blocks = []
    n = j.rows
    start = 0
    for col in range(1, n + 1):
        boundary = (col == n or j.entry(col - 1, col) == to_scalar(0)
                    or j.entry(col - 1, col - 1) != j.entry(col, col))
        if boundary:
            blocks.append((j.entry(start, start), col - start))
            start = col
    return blocks


class TestPowerRanks:
    @pytest.mark.parametrize("matrix,spec,value,expected", [
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM, -2,
         DEFECTIVE_TRIO_RANKS_AT_MINUS2),
        (TWO_CHAINS, TWO_CHAINS_SPECTRUM, 1, TWO_CHAINS_RANKS[1]),
        (TWO_CHAINS, TWO_CHAINS_SPECTRUM, 2, TWO_CHAINS_RANKS[2]),
        (ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM, 2, ONE_EIGENVALUE_RANKS),
    ])
    def test_frozen_rank_sequences(self, matrix, spec, value, expected):
        ranks = [r for _, r in shifted_power_ranks(matrix, to_scalar(value))]
        assert ranks == expected

    def test_powers_are_actual_powers(self):
        shifted = characteristic_matrix(ONE_EIGENVALUE, to_scalar(2)).matrix
        seq = shifted_power_ranks(ONE_EIGENVALUE, to_scalar(2))
        power = shifted
        for matrix, reported_rank in seq:
            assert matrix == power
            assert reported_rank == rank(power)
            power = matmul(power, shifted)

    def test_stops_at_algebraic_multiplicity(self):
        # sequence ends exactly when rank reaches n - alg_mult
        seq = shifted_power_ranks(TWO_CHAINS, to_scalar(2))
        assert seq[-1][1] == 5 - 3
        assert all(r > 2 for _, r in seq[:-1])

    def test_non_eigenvalue_rejected(self):
        for call in (shifted_power_ranks, build_chains):
            with pytest.raises(NotInSpectrum):
                call(DEFECTIVE_TRIO, to_scalar(7))


class TestCharpolyCount:
    """Rank sequences need no characteristic polynomial, and chains read
    their multiplicity off the one the matrix keeps: the only one a
    Jordan decomposition computes is the spectrum check's."""

    CASES = [
        (ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM),
        (TWO_CHAINS, TWO_CHAINS_SPECTRUM),
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM),
    ]

    @pytest.fixture
    def charpoly_calls(self, monkeypatch):
        original = exacteig.spectra.charpoly
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # count through every module that binds it, so that a module
        # importing charpoly for itself is counted too
        for module in vars(exacteig).values():
            if (getattr(module, "__name__", "").startswith("exacteig.")
                    and getattr(module, "charpoly", None) is original):
                monkeypatch.setattr(module, "charpoly", counting)
        monkeypatch.setattr(exacteig, "charpoly", counting)
        return calls

    @pytest.fixture
    def computed(self, monkeypatch):
        """The matrices whose characteristic polynomial was computed, not
        read off the matrix."""
        original = exacteig.spectra._characteristic_polynomial
        computed = []
        monkeypatch.setattr(exacteig.spectra, "_characteristic_polynomial",
                            lambda a: computed.append(a) or original(a))
        return computed

    @pytest.mark.parametrize("matrix,spec", CASES)
    def test_jordan_form_computes_one(self, computed, fresh, matrix, spec):
        a = fresh(matrix)
        jordan_form(a, spec)
        assert computed == [a]

    @pytest.mark.parametrize("matrix,spec", CASES)
    def test_a_second_call_computes_none(self, computed, fresh, matrix,
                                         spec):
        a = fresh(matrix)
        first = jordan_form(a, spec)
        p = charpoly(a)
        assert len(computed) == 1
        assert jordan_form(a, spec) == first
        assert charpoly(a) is p
        assert len(computed) == 1

    @pytest.mark.parametrize("matrix,spec", CASES)
    def test_ranks_compute_none(self, charpoly_calls, matrix, spec):
        for value, _ in spec.pairs:
            shifted_power_ranks(matrix, value)
        assert charpoly_calls == []

    @pytest.mark.parametrize("matrix,spec", CASES)
    def test_chains_compute_one(self, computed, fresh, matrix, spec):
        a = fresh(matrix)
        for value, _ in spec.pairs:
            build_chains(a, value)
        assert computed == [a]


def logged_as(names, name, original):
    """``original``, appending ``name`` to ``names`` on every call."""
    def logged(*args):
        names.append(name)
        return original(*args)
    return logged


def products_of_power(m):
    """Products that binary exponentiation makes for κ^m."""
    return m.bit_length() - 1 + bin(m).count("1") - 1


class TestEliminationCount:
    """One null-space sequence per eigenvalue: a power sequence makes
    index + 1 null-space eliminations (index when the null space fills
    the space) and no separate rank pass. Chains start from ker κ: when
    it is a line, λ has one block, and the chain is read off the null
    space of κ^m, formed by squaring (m is the multiplicity, verified,
    or read off the charpoly by build_chains); otherwise build_chains
    adds one selection per level where chains start beside a nonempty
    context. jordan_form and ode_general_solution start every basis
    from the eigenvectors that ``eigensystem`` keeps, found by it when
    not kept: a complete eigenbasis is P, and no chain is built. Else,
    given the verified multiplicity and the kept kernel, jordan.py
    makes index − 1 null-space eliminations and index − 1 products for
    an eigenvalue whose eigenspace is not a line, none of either for a
    simple eigenvalue, and one elimination (κ^m) and
    ⌊log₂ m⌋ + popcount(m) − 1 products beside a line of multiplicity
    m ≥ 2. The certificate of the basis adds one product, A·P, counted
    with the last eigenvalue: P·J is read off P's columns."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        original = exacteig.matrices._eliminate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(exacteig.matrices, "_eliminate", counting)
        return calls

    # per eigenvalue, ascending: (index + 1, build_chains' eliminations)
    @pytest.mark.parametrize("matrix,spec,powers,chains", [
        (TWO_CHAINS, TWO_CHAINS_SPECTRUM, [3, 4], [2, 2]),
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM, [3, 2], [2, 1]),
        (ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM, [3], [5]),
    ], ids=["two-chains", "trio", "one-eigenvalue"])
    def test_per_eigenvalue(self, eliminations, matrix, spec, powers,
                            chains):
        for call, expected in [(shifted_power_ranks, powers),
                               (build_chains, chains)]:
            counts = []
            for value in spec.values():
                eliminations.clear()
                call(matrix, value)
                counts.append(len(eliminations))
            assert counts == expected

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the kernels jordan.py calls, in order; "matmul" also
        counts the squarings of ``matrices._power``."""
        names = []
        for name in ("subtract_scalar_diag", "nullspace_basis", "matmul",
                     "inverse"):
            monkeypatch.setattr(exacteig.jordan, name, logged_as(
                names, name, getattr(exacteig.jordan, name)))
        original = exacteig.matrices.matmul

        def square_product(x, y):
            if y.cols > 1:  # not a matvec
                names.append("matmul")
            return original(x, y)

        monkeypatch.setattr(exacteig.matrices, "matmul", square_product)
        return names

    @staticmethod
    def per_value(names):
        """(null-space eliminations, products) per eigenvalue: each
        eigenvalue's calls start at its shift; the certificate and the
        inverse follow."""
        return [(segment.split().count("nullspace_basis"),
                 segment.split().count("matmul"))
                for segment in " ".join(names).split("inverse")[0]
                .split("subtract_scalar_diag")[1:]]

    # (null-space eliminations, products) per eigenvalue of jordan.py,
    # ascending, and the eliminations of the whole call but the inverse:
    # eigensystem's, the chains' and the certificate's
    @pytest.mark.parametrize("call", [jordan_form, ode_general_solution])
    @pytest.mark.parametrize("matrix,spec,expected,eliminated", [
        (TWO_CHAINS, TWO_CHAINS_SPECTRUM, [(1, 1), (1, 3)], 4),
        (DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM, [(1, 1), (0, 1)], 2),
        (ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM, [(2, 3)], 6),
        (DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_SPECTRUM, [], 2),
        (COMPLEX_FIVE, COMPLEX_FIVE_SPECTRUM, [], 0),
    ], ids=["two-chains", "trio", "one-eigenvalue", "double-plus-simple",
            "complex-five"])
    def test_verified_multiplicity(self, calls, eliminations, fresh, call,
                                   matrix, spec, expected, eliminated):
        # on a fresh copy: a jordan_form run earlier on the same matrix
        # leaves the ODE no chain to build
        call(fresh(matrix), spec)
        assert self.per_value(calls) == expected
        inverted = call is jordan_form
        assert len(eliminations) == eliminated + inverted

    @pytest.mark.parametrize("m", range(2, 7))
    def test_a_line_after_eigensystem(self, calls, eliminations, fresh, m):
        # one Jordan block of size m at 2 beside a simple eigenvalue −1
        spec = Spectrum([(-1, 1), (2, m)])
        a, _ = random_spectral_matrix(GeneratorConfig(
            dim=m + 1, spectrum=spec, seed=m, entry_bound=2,
            jordan_blocks={to_scalar(2): (m,)}))
        a = fresh(a)
        eigensystem(a, spec)
        calls.clear()
        eliminations.clear()
        jordan_form(a, spec)
        assert self.per_value(calls) == [
            (0, 0), (1, products_of_power(m) + 1)]
        # κ^m and the inverse
        assert len(eliminations) == 2

    # a cold realified ODE: a simple eigenvalue takes eigensystem's
    # product column, conjugate or not, so nothing is eliminated
    @pytest.mark.parametrize("rows", [
        [[1, -2], [2, 1]],
        [[1, -2, 0], [2, 1, 0], [0, 0, 3]],
    ], ids=["pair", "pair-and-real"])
    def test_a_conjugate_pair_eliminates_nothing(self, eliminations, rows):
        a = Matrix(rows)
        terms = ode_general_solution(a)
        assert eliminations == []
        assert len(terms) == len(rows)
        assert all(ode_term_is_solution(a, term) for term in terms)


# λ = 2 with a three-dimensional eigenspace beside 5
SHORT_KERNEL = (Matrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                        [1, 1, 1, 5]]),
                Spectrum([(2, 3), (5, 1)]))


class TestShortKernel:
    """A fault that drops the last of three or more null-space vectors
    leaves ``eigensystem`` a short ker κ. The chains started from it
    then end in the zero vector, which is an InternalInconsistency
    (exit 6 from the CLI), cold or after ``eigensystem``, and no basis
    is kept."""

    @pytest.fixture(autouse=True)
    def short(self, monkeypatch):
        original = exacteig.charmatrix.nullspace_basis

        def dropping(m):
            basis = original(m)
            return basis[:-1] if len(basis) >= 3 else basis

        monkeypatch.setattr(exacteig.charmatrix, "nullspace_basis",
                            dropping)

    @pytest.mark.parametrize("call", [jordan_form, ode_general_solution])
    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold", "after-eigensystem"])
    def test_a_chain_ending_in_zero_is_inconsistent(self, fresh, call,
                                                    warm):
        matrix, spec = SHORT_KERNEL
        a = fresh(matrix)
        if warm:
            eigensystem(a, spec)
        with pytest.raises(InternalInconsistency, match="zero vector"):
            call(a)
        assert not hasattr(a, "_jordan")

    def test_the_cli_exits_6(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(matrix_to_json(SHORT_KERNEL[0])))
        assert main(["jordan", str(path)]) == 6
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "zero vector" in err


class TestLineChainFaults:
    """Beside a line, the one chain of an eigenvalue of multiplicity m
    starts at a vector of ker κ^m that κ^(m−1) does not kill. A fault in
    κ·v that leaves no such start, or in κ^m that yields a chain too
    short for m, is an InternalInconsistency, cold or after
    ``eigensystem``, and no basis is kept. DEFECTIVE_TRIO has −2 with
    multiplicity 2 on a line."""

    @pytest.mark.parametrize("call", [jordan_form, ode_general_solution])
    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold", "after-eigensystem"])
    @pytest.mark.parametrize("patched,fault,message", [
        # κ·v reads zero, so every chain ends before it is long enough
        ("matvec", lambda m, x: x.scaled(0),
         "could not start the chain of a line"),
        # κ^m is κ itself: its kernel gives a chain of one vector
        ("_power", lambda shifted, k: shifted,
         "chain sizes do not add up to the multiplicity"),
    ], ids=["no-start", "short-chain"])
    def test_a_fault_keeps_no_basis(self, monkeypatch, fresh, call, warm,
                                    patched, fault, message):
        a = fresh(DEFECTIVE_TRIO)
        if warm:
            eigensystem(a, DEFECTIVE_TRIO_SPECTRUM)
        monkeypatch.setattr(exacteig.jordan, patched, fault)
        with pytest.raises(InternalInconsistency, match=message):
            call(a)
        assert not hasattr(a, "_jordan")


class TestChainStartFaults:
    """Above ker κ, the chains that start at level j extend the null
    space below and the chains already running. A fault in the extension
    that leaves fewer starts than the null-space sizes ask for is an
    InternalInconsistency, cold or after ``eigensystem``, and no basis is
    kept. ONE_EIGENVALUE has blocks of sizes 3 and 2, so one chain starts
    at level 3 beside a plane."""

    @pytest.mark.parametrize("call", [jordan_form, ode_general_solution])
    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold", "after-eigensystem"])
    def test_a_missing_start_keeps_no_basis(self, monkeypatch, fresh, call,
                                            warm):
        a = fresh(ONE_EIGENVALUE)
        if warm:
            eigensystem(a, ONE_EIGENVALUE_SPECTRUM)
        original = exacteig.jordan.independent_extension
        monkeypatch.setattr(exacteig.jordan, "independent_extension",
                            lambda basis, vs: original(basis, vs)[:-1])
        with pytest.raises(InternalInconsistency,
                           match=r"could not start 1 chain\(s\) at level 3"):
            call(a)
        assert not hasattr(a, "_jordan")


class TestGeneralizedEigenvectors:
    def test_level_one_is_the_eigenspace(self):
        level1 = generalized_eigenvectors(DEFECTIVE_TRIO, to_scalar(-2), 1)
        assert len(level1) == 1
        assert matvec(characteristic_matrix(
            DEFECTIVE_TRIO, to_scalar(-2)).matrix, level1[0]).is_zero()

    def test_level_two_vectors_are_strictly_deeper(self):
        shifted = characteristic_matrix(DEFECTIVE_TRIO, to_scalar(-2)).matrix
        level2 = generalized_eigenvectors(DEFECTIVE_TRIO, to_scalar(-2), 2)
        assert level2
        for x in level2:
            once = matvec(shifted, x)
            assert not once.is_zero()
            assert matvec(shifted, once).is_zero()

    def test_known_deep_vector_is_reachable(self):
        # the frozen rank-2 vector lies in the level-2 layer's span
        shifted = characteristic_matrix(DEFECTIVE_TRIO, to_scalar(-2)).matrix
        top = DEFECTIVE_TRIO_CHAIN_TOP
        assert matvec(matmul(shifted, shifted), top).is_zero()
        assert not matvec(shifted, top).is_zero()

    def test_quartet_deep_vector(self):
        shifted = characteristic_matrix(
            DEFECTIVE_QUARTET, to_scalar(4)).matrix
        top = DEFECTIVE_QUARTET_CHAIN_TOP
        assert matvec(matmul(shifted, shifted), top).is_zero()
        assert not matvec(shifted, top).is_zero()

    def test_level_out_of_range(self):
        with pytest.raises(RankTooLarge):
            generalized_eigenvectors(DEFECTIVE_TRIO, to_scalar(-2), 3)
        with pytest.raises(RankTooLarge):
            generalized_eigenvectors(DEFECTIVE_TRIO, to_scalar(-2), 0)


class TestChains:
    def test_hand_checked_cell(self):
        chains = build_chains(JORDAN_CELL, to_scalar(2))
        assert len(chains) == 1
        assert chains[0].size == 2
        assert chains[0].vectors == (v([1, 0]), v([0, 1]))

    @pytest.mark.parametrize("matrix,value,sizes", [
        (DEFECTIVE_TRIO, -2, [2]),
        (DEFECTIVE_QUARTET, 4, [2]),
        (TWO_CHAINS, 1, [TWO_CHAINS_BLOCKS[1][0]]),
        (TWO_CHAINS, 2, [TWO_CHAINS_BLOCKS[2][0]]),
        (ONE_EIGENVALUE, 2, list(ONE_EIGENVALUE_BLOCKS)),
    ])
    def test_chain_sizes(self, matrix, value, sizes):
        chains = build_chains(matrix, to_scalar(value))
        assert sorted((c.size for c in chains), reverse=True) == sizes

    def test_linkage(self):
        # within a chain x1..xm: (A - lam I) x1 = 0 and
        # (A - lam I) x_{k+1} = x_k
        for matrix, spec in DEFECTIVE_TABLE:
            for value, _ in spec.pairs:
                shifted = characteristic_matrix(matrix, value).matrix
                for chain in build_chains(matrix, value):
                    assert matvec(shifted, chain.vectors[0]).is_zero()
                    for k in range(1, chain.size):
                        assert matvec(shifted, chain.vectors[k]) == \
                            chain.vectors[k - 1]

    def test_chains_jointly_independent(self):
        for matrix, spec in DEFECTIVE_TABLE:
            for value, mult in spec.pairs:
                collected = [x for chain in build_chains(matrix, value)
                             for x in chain.vectors]
                assert independent_extension([], collected) == collected
                assert len(collected) == mult

    def test_semisimple_eigenvalue_gives_singleton_chains(self):
        chains = build_chains(DOUBLE_PLUS_SIMPLE, to_scalar(1))
        assert [c.size for c in chains] == [1, 1]


class TestJordanForm:
    @pytest.mark.parametrize("matrix,spec", [
        pytest.param(*row, id=f"defective-{i}")
        for i, row in enumerate(DEFECTIVE_TABLE)
    ])
    def test_exact_reconstruction(self, matrix, spec):
        form = jordan_form(matrix, spec)
        assert matmul(matmul(form.p, form.j), form.p_inv) == matrix
        assert matmul(form.p, form.p_inv) == Matrix.identity(matrix.rows)

    def test_supplied_spectrum_for_unfactorable_polynomial(self):
        form = jordan_form(SPIRAL, SPIRAL_SPECTRUM)
        assert matmul(matmul(form.p, form.j), form.p_inv) == SPIRAL
        blocks = jordan_blocks_of(form.j)
        assert sorted(size for _, size in blocks) == [2, 2]

    def test_block_structure_two_chains(self):
        form = jordan_form(TWO_CHAINS, TWO_CHAINS_SPECTRUM)
        assert jordan_blocks_of(form.j) == [
            (to_scalar(1), 2), (to_scalar(2), 3)]

    def test_block_structure_one_eigenvalue(self):
        form = jordan_form(ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM)
        assert jordan_blocks_of(form.j) == [
            (to_scalar(2), 3), (to_scalar(2), 2)]

    def test_eigenvalues_ascend_and_blocks_descend(self):
        form = jordan_form(DEFECTIVE_TRIO, DEFECTIVE_TRIO_SPECTRUM)
        blocks = jordan_blocks_of(form.j)
        assert blocks == [(to_scalar(-2), 2), (to_scalar(1), 1)]

    def test_diagonalizable_matrix_gets_diagonal_j(self):
        form = jordan_form(DOUBLE_PLUS_SIMPLE, DOUBLE_PLUS_SIMPLE_SPECTRUM)
        assert jordan_blocks_of(form.j) == [
            (to_scalar(-1), 1), (to_scalar(1), 1), (to_scalar(1), 1)]
        assert matmul(matmul(form.p, form.j), form.p_inv) == \
            DOUBLE_PLUS_SIMPLE

    def test_off_block_entries_are_zero(self):
        form = jordan_form(ONE_EIGENVALUE, ONE_EIGENVALUE_SPECTRUM)
        j = form.j
        for i in range(5):
            for k in range(5):
                if i == k or (k == i + 1 and
                              j.entry(i, k) == to_scalar(1)):
                    continue
                assert j.entry(i, k) == to_scalar(0)


@st.composite
def defective_pair_case(draw):
    """(B·C·B⁻¹, spectrum) for a real Jordan form C and a seeded
    unimodular integer B, n ≤ 8: α ± βi in real blocks of sizes 1–3, one
    of size 2 or more, beside real Jordan blocks."""
    alpha, beta = draw(st.integers(-3, 3)), draw(st.integers(1, 2))
    pair = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)
                .filter(lambda sizes: max(sizes) > 1 and sum(sizes) <= 4))
    room = 8 - 2 * sum(pair)
    rest = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)),
                         max_size=room)
                .filter(lambda blocks: sum(s for _, s in blocks) <= room))
    n = 2 * sum(pair) + sum(size for _, size in rest)
    c = [[0] * n for _ in range(n)]
    i = 0
    for size in pair:
        for k in range(i, i + 2 * size, 2):
            c[k][k] = c[k + 1][k + 1] = alpha
            c[k][k + 1], c[k + 1][k] = -beta, beta
            if k > i:
                c[k - 2][k] = c[k - 1][k + 1] = 1
        i += 2 * size
    for value, size in rest:
        for k in range(i, i + size):
            c[k][k] = value
            if k > i:
                c[k - 1][k] = 1
        i += size
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    lower = Matrix([[int(r == q) if r <= q else rng.randint(-2, 2)
                     for q in range(n)] for r in range(n)])
    upper = Matrix([[int(r == q) if r >= q else rng.randint(-2, 2)
                     for q in range(n)] for r in range(n)])
    b = matmul(lower, upper)
    counts = Counter({GaussianRational(alpha, beta): sum(pair),
                      GaussianRational(alpha, -beta): sum(pair)})
    for value, size in rest:
        counts[GaussianRational(value)] += size
    return matmul(matmul(b, Matrix(c)), inverse(b)), Spectrum(counts)


# one block of size 2 at 1 ± 2i whose chain for 1 − 2i starts with a
# purely imaginary component: the conjugate of the chain for 1 + 2i has
# the wrong sign
SIGN_FLIP = (Matrix([[-32, -14, -1, -4], [55, 23, 1, 7], [-41, -14, 0, -6],
                     [106, 48, 6, 13]]),
             Spectrum([("1-2i", 2), ("1+2i", 2)]))


class TestConjugateChains:
    """For a real A with a defective conjugate pair, ``jordan_form``
    builds the chains of λ̄ as it does those of λ, from the kernel that
    ``eigensystem`` keeps. They must be the chains that elimination
    finds for λ̄, whose first nonzero component may be purely imaginary
    and so signed by its imaginary part."""

    @example(SIGN_FLIP)
    @given(defective_pair_case())
    def test_conjugates_are_the_eliminated_chains(self, case):
        a, spec = case
        eliminated = Matrix.from_columns([
            x for value in spec.values()
            for chain in build_chains(a, value) for x in chain.vectors])
        assert jordan_form(a, spec).p == eliminated
        for realify in (True, False):
            terms = ode_general_solution(a, spec, realify)
            assert len(terms) == a.rows
            assert all(ode_term_is_solution(a, term) for term in terms)
