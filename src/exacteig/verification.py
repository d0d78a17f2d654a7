"""Independent oracles, exact residual checks, and seeded test-matrix
generation.

The oracle path computes eigenvectors the classical way — an exact
null-space basis of the shifted matrix — sharing no code path with the
product-based extraction, so agreement between the two is meaningful
evidence. The generator builds matrices with a prescribed spectrum (and
optionally prescribed block structure) by conjugating a canonical form
with a random integer matrix driven by a documented, platform-stable
PRNG, so every test corpus is reproducible from its seeds.
"""

from __future__ import annotations

from .errors import (
    GenerationFailed,
    InvalidSpectrum,
    NotInSpectrum,
    NotSquare,
    RankTooLarge,
    Singular,
    ZeroVector,
)
from .matrices import (
    Matrix,
    Record,
    inverse,
    matmul,
    matvec,
    nullspace_basis,
    rank,
    subtract_scalar_diag,
)
from .scalars import format_scalar, to_scalar
from .spectra import Spectrum

__all__ = [
    "GeneratorConfig",
    "SpanBasis",
    "SplitMix64",
    "cayley_hamilton_check",
    "oracle_eigenvectors",
    "random_spectral_matrix",
    "residual_check",
    "span_equal",
]


def oracle_eigenvectors(a, lam):
    """Eigenvectors for λ by the classical route: an exact null-space
    basis of A − λI (already normalized). Raises NotInSpectrum when the
    null space is trivial. Independent of the product-based extraction,
    which makes it a genuine cross-check."""
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    lam = to_scalar(lam)
    basis = nullspace_basis(subtract_scalar_diag(a, lam))
    if not basis:
        raise NotInSpectrum(
            f"{format_scalar(lam)} is not an eigenvalue")
    return basis


def residual_check(a, lam, v, side="right"):
    """Exact boolean check of A·v = λ·v (``side="right"``) or
    v·A = λ·v (``side="left"``). The zero vector is rejected — it
    satisfies the equation vacuously and indicates a caller bug."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if v.is_zero():
        raise ZeroVector("the zero vector is not an eigenvector")
    lam = to_scalar(lam)
    wanted = "column" if side == "right" else "row"
    oriented = v if v.orientation == wanted else v.transposed()
    return matvec(a, oriented) == oriented.scaled(lam)


class SpanBasis(Record):
    """An explicit basis of a subspace: independent vectors in a common
    ambient dimension. Construction validates both properties, so a
    SpanBasis value can be trusted downstream."""

    __slots__ = ("vectors", "ambient_dim")

    def _validate(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if len(self.vectors) > self.ambient_dim:
            raise RankTooLarge(
                f"{len(self.vectors)} vectors cannot be independent in "
                f"dimension {self.ambient_dim}")
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length differs from ambient dim")
        if self.vectors:
            stacked = Matrix.from_rows(self.vectors)
            if rank(stacked) != len(self.vectors):
                raise ValueError("vectors are not linearly independent")

    @property
    def dim(self):
        return len(self.vectors)


def _as_span(basis):
    if isinstance(basis, SpanBasis):
        return basis
    vectors = tuple(basis)
    if not vectors:
        raise ValueError(
            "cannot infer the ambient dimension of an empty basis; "
            "pass a SpanBasis")
    return SpanBasis(vectors, len(vectors[0]))


def span_equal(b1, b2):
    """Exact equality of the spanned subspaces.

    Since both bases are independent by construction, the spans agree
    iff they have the same size and stacking both leaves the rank at
    that size."""
    b1 = _as_span(b1)
    b2 = _as_span(b2)
    if b1.ambient_dim != b2.ambient_dim:
        raise ValueError("bases live in different ambient dimensions")
    if b1.dim != b2.dim:
        return False
    if b1.dim == 0:
        return True
    stacked = Matrix.from_rows(b1.vectors + b2.vectors)
    return rank(stacked) == b1.dim


def cayley_hamilton_check(a, s):
    """True when the full shifted-matrix product Π (A − λI)^mult over
    the spectrum vanishes — which it must, whenever ``s`` really is the
    complete spectrum of A."""
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    s = Spectrum(s)
    product = None
    for value, mult in s.pairs:
        shifted = subtract_scalar_diag(a, value)
        for _ in range(mult):
            product = shifted if product is None else matmul(product, shifted)
    return product.is_zero()


class SplitMix64:
    """Minimal deterministic 64-bit PRNG (the splitmix64 sequence).

    Chosen over ``random.Random`` so that generated test matrices are
    bit-identical across Python versions and platforms — the constants
    below define the sequence completely."""

    __slots__ = ("state",)

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self._MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randint(self, low, high):
        """Uniform-ish integer in [low, high] (modulo reduction; the
        bias is irrelevant at test-corpus ranges)."""
        if high < low:
            raise ValueError("empty range")
        return low + self.next_u64() % (high - low + 1)


class GeneratorConfig(Record):
    """Recipe for a random matrix with known spectrum.

    ``jordan_blocks`` optionally prescribes block sizes per eigenvalue
    as a mapping {eigenvalue: sizes}; eigenvalues left out get all
    blocks of size 1 (semisimple). Sizes for each eigenvalue must sum
    to its multiplicity. ``entry_bound`` caps the absolute value of the
    integer entries of the random basis matrix."""

    __slots__ = ("dim", "spectrum", "seed", "entry_bound", "jordan_blocks")
    _defaults = {"entry_bound": 3, "jordan_blocks": None}

    def _validate(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be positive")
        spectrum = Spectrum(self.spectrum)
        object.__setattr__(self, "spectrum", spectrum)
        if spectrum.total != self.dim:
            raise InvalidSpectrum(
                f"spectrum multiplicities sum to {spectrum.total}, "
                f"need {self.dim}")
        blocks = self.jordan_blocks
        if blocks is not None:
            if isinstance(blocks, dict):
                blocks = tuple(
                    (to_scalar(k), tuple(v)) for k, v in blocks.items())
            else:
                blocks = tuple(
                    (to_scalar(k), tuple(v)) for k, v in blocks)
            for value, sizes in blocks:
                mult = spectrum.multiplicity(value)
                if not mult:
                    raise InvalidSpectrum(
                        f"block sizes given for {format_scalar(value)}, "
                        "which is not in the spectrum")
                if (not sizes or any(
                        not isinstance(b, int) or b < 1 for b in sizes)
                        or sum(sizes) != mult):
                    raise InvalidSpectrum(
                        f"block sizes for {format_scalar(value)} must be "
                        f"positive integers summing to {mult}")
            object.__setattr__(self, "jordan_blocks", blocks)


def _canonical_form(config):
    """Diagonal (or block upper-bidiagonal) matrix realizing the
    configured spectrum and block structure: eigenvalues ascending, and
    each eigenvalue's blocks largest first."""
    block_map = dict(config.jordan_blocks or ())
    values, ones = [], []
    for value, mult in config.spectrum.pairs:
        for size in sorted(block_map.get(value, (1,) * mult), reverse=True):
            ones.extend(range(len(values) + 1, len(values) + size))
            values.extend([value] * size)
    return Matrix.diagonal(values, ones)


_MAX_GENERATION_ATTEMPTS = 64


def random_spectral_matrix(config):
    """Matrix with the configured spectrum (and block structure), plus
    the change-of-basis matrix that produced it.

    Draws integer matrices P with entries in [−entry_bound, entry_bound]
    from the seeded PRNG until one is invertible, then returns
    (P·C·P⁻¹, P) where C is the canonical form. Deterministic in the
    seed. Raises GenerationFailed if no invertible P appears within a
    bounded number of attempts (vanishingly unlikely for bound ≥ 1)."""
    rng = SplitMix64(config.seed)
    canonical = _canonical_form(config)
    bound = config.entry_bound
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        candidate = Matrix([
            [rng.randint(-bound, bound) for _ in range(config.dim)]
            for _ in range(config.dim)])
        try:
            p_inv = inverse(candidate)
        except Singular:
            continue
        product = matmul(matmul(candidate, canonical), p_inv)
        return product, candidate
    raise GenerationFailed(
        f"no invertible basis matrix found in "
        f"{_MAX_GENERATION_ATTEMPTS} attempts")
