"""Oracles, span comparison, global identities, and the seeded
matrix generator."""

import pytest

from exacteig import (
    GeneratorConfig,
    InvalidSpectrum,
    Matrix,
    NotInSpectrum,
    RankTooLarge,
    SpanBasis,
    Spectrum,
    SplitMix64,
    ZeroVector,
    cayley_hamilton_check,
    charpoly,
    find_spectrum,
    is_diagonalizable,
    jordan_form,
    matvec,
    oracle_eigenvectors,
    random_spectral_matrix,
    residual_check,
    span_equal,
    to_scalar,
)

from worked import (
    DEFECTIVE_TABLE,
    DEFECTIVE_TRIO,
    DEFECTIVE_TRIO_SPECTRUM,
    SHORTCUT,
    SHORTCUT_SPECTRUM,
    SPAN_TABLE,
    m,
    spectrum,
    v,
)


class TestOracle:
    def test_matches_frozen_spans(self):
        for matrix, spec, spans in SPAN_TABLE:
            for value, expected in spans.items():
                found = oracle_eigenvectors(matrix, to_scalar(value))
                assert span_equal(
                    SpanBasis(tuple(found), matrix.rows),
                    SpanBasis(tuple(expected), matrix.rows))

    def test_every_vector_is_annihilated(self):
        for matrix, spec, _ in SPAN_TABLE:
            for value, _mult in spec.pairs:
                for x in oracle_eigenvectors(matrix, value):
                    assert residual_check(matrix, value, x)

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(NotInSpectrum):
            oracle_eigenvectors(SHORTCUT, to_scalar(9))


class TestResidualCheck:
    def test_right_and_left(self):
        assert residual_check(SHORTCUT, to_scalar(5), v([1, 2]))
        assert residual_check(SHORTCUT, to_scalar(2), v([-2, 1], "row"),
                              side="left")

    def test_wrong_vector_fails(self):
        assert not residual_check(SHORTCUT, to_scalar(5), v([1, 3]))

    def test_wrong_eigenvalue_fails(self):
        assert not residual_check(SHORTCUT, to_scalar(3), v([1, 2]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            residual_check(SHORTCUT, to_scalar(2), v([0, 0]))

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            residual_check(SHORTCUT, to_scalar(2), v([1, 2]), side="up")


class TestSpanBasis:
    def test_rejects_dependent_vectors(self):
        with pytest.raises(ValueError):
            SpanBasis((v([1, 2]), v([2, 4])), 2)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SpanBasis((v([1, 0]), v([0, 1, 3])), 2)

    def test_rejects_oversized_set(self):
        with pytest.raises(RankTooLarge):
            SpanBasis((v([1, 0]), v([0, 1]), v([1, 1])), 2)

    @pytest.mark.parametrize("b1,b2,message", [
        ([], [v([1, 0])], "empty basis"),
        ([v([1, 0])], [v([1, 0, 0])], "different ambient dimensions"),
    ], ids=["bare-empty", "ambient-dims"])
    def test_span_equal_refuses(self, b1, b2, message):
        with pytest.raises(ValueError, match=message):
            span_equal(b1, b2)

    def test_empty_spans_are_equal(self):
        assert span_equal(SpanBasis((), 3), SpanBasis((), 3))

    def test_span_equality_is_scale_blind(self):
        assert span_equal(SpanBasis((v([1, 2]),), 2),
                          SpanBasis((v([-3, -6]),), 2))

    def test_different_spans_differ(self):
        assert not span_equal(SpanBasis((v([1, 0]),), 2),
                              SpanBasis((v([0, 1]),), 2))

    def test_different_dimension_count_differ(self):
        plane = SpanBasis((v([1, 0, 0]), v([0, 1, 0])), 3)
        line = SpanBasis((v([1, 0, 0]),), 3)
        assert not span_equal(plane, line)

    def test_basis_change_preserves_span(self):
        assert span_equal(
            SpanBasis((v([1, 0, 1]), v([1, 2, 3])), 3),
            SpanBasis((v([2, 2, 4]), v([0, 2, 2])), 3))


class TestCayleyHamilton:
    def test_holds_on_worked_matrices(self):
        for matrix, spec, _ in SPAN_TABLE:
            assert cayley_hamilton_check(matrix, spec)
        for matrix, spec in DEFECTIVE_TABLE:
            assert cayley_hamilton_check(matrix, spec)

    def test_fails_for_wrong_spectrum(self):
        assert not cayley_hamilton_check(
            SHORTCUT, spectrum([(2, 1), (6, 1)]))


class TestSplitMix64:
    def test_published_reference_sequence(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        rng = SplitMix64(1)
        assert [rng.next_u64() for _ in range(2)] == [
            0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67]

    def test_determinism(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert [a.next_u64() for _ in range(8)] == \
            [b.next_u64() for _ in range(8)]

    def test_randint_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randint(-3, 3) for _ in range(200)]
        assert all(-3 <= d <= 3 for d in draws)
        assert len(set(draws)) == 7     # every value appears

    def test_randint_degenerate_range(self):
        rng = SplitMix64(7)
        assert rng.randint(5, 5) == 5

    def test_randint_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            SplitMix64(0).randint(2, 1)


class TestGeneratorConfig:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidSpectrum):
            GeneratorConfig(dim=3, spectrum=spectrum([(1, 2)]), seed=0)

    def test_rejects_bad_block_sizes(self):
        with pytest.raises(InvalidSpectrum):
            GeneratorConfig(dim=3, spectrum=spectrum([(1, 2), (2, 1)]),
                            seed=0, jordan_blocks={to_scalar(1): (1,)})

    def test_rejects_blocks_for_missing_value(self):
        with pytest.raises(InvalidSpectrum):
            GeneratorConfig(dim=2, spectrum=spectrum([(1, 2)]),
                            seed=0, jordan_blocks={to_scalar(9): (2,)})


class TestRandomSpectralMatrix:
    def test_deterministic_per_seed(self):
        config = GeneratorConfig(dim=3, spectrum=spectrum([(1, 2), (3, 1)]),
                                 seed=11)
        a1, p1 = random_spectral_matrix(config)
        a2, p2 = random_spectral_matrix(config)
        assert a1 == a2 and p1 == p2

    def test_different_seeds_differ(self):
        spec = spectrum([(1, 2), (3, 1)])
        a1, _ = random_spectral_matrix(
            GeneratorConfig(dim=3, spectrum=spec, seed=1))
        a2, _ = random_spectral_matrix(
            GeneratorConfig(dim=3, spectrum=spec, seed=2))
        assert a1 != a2

    def test_spectrum_is_planted(self):
        spec = spectrum([(-1, 1), (2, 2)])
        a, _ = random_spectral_matrix(
            GeneratorConfig(dim=3, spectrum=spec, seed=5))
        assert find_spectrum(charpoly(a)) == spec

    def test_semisimple_by_default(self):
        spec = spectrum([(1, 2), (4, 1)])
        a, _ = random_spectral_matrix(
            GeneratorConfig(dim=3, spectrum=spec, seed=3))
        ok, _ = is_diagonalizable(a, spec)
        assert ok

    def test_planted_jordan_blocks(self):
        spec = spectrum([(2, 3)])
        a, _ = random_spectral_matrix(
            GeneratorConfig(dim=3, spectrum=spec, seed=4,
                            jordan_blocks={to_scalar(2): (2, 1)}))
        ok, _ = is_diagonalizable(a, spec)
        assert not ok
        form = jordan_form(a, spec)
        from test_jordan import jordan_blocks_of
        assert [size for _, size in jordan_blocks_of(form.j)] == [2, 1]

    def test_conjugator_is_returned(self):
        from exacteig import inverse, matmul
        spec = spectrum([(1, 1), (2, 1)])
        a, p = random_spectral_matrix(
            GeneratorConfig(dim=2, spectrum=spec, seed=9))
        recovered = matmul(matmul(inverse(p), a), p)
        assert find_spectrum(charpoly(recovered)) == spec
