"""Generalized eigenvectors and exact Jordan decompositions.

For an eigenvalue λ of A with shifted matrix κ = A − λI, the ranks of
κ, κ², … fall strictly until they stabilize at n − alg_mult(λ); the
number of steps is the eigenvalue's index. Those ranks determine the
Jordan block sizes exactly — the number of blocks of size ≥ j is
rank(κ^{j−1}) − rank(κ^j). Chains are then built top-down: a chain of
length m starts with a level-m generalized eigenvector x_m and descends
via x_{k−1} = κ·x_k to an ordinary eigenvector x₁. Everything runs in
exact arithmetic, and P·J·P⁻¹ = A is verified before any result is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalInconsistency,
    NotInSpectrum,
    NotSquare,
    RankTooLarge,
    Singular,
)
from .matrices import (
    Matrix,
    inverse,
    is_independent,
    matmul,
    matvec,
    nullspace_basis,
    primitive_scale,
    rank,
    subtract_scalar_diag,
)
from .scalars import ONE, ZERO, GaussianRational, to_scalar
from .spectra import resolve_spectrum

__all__ = [
    "JordanChain",
    "JordanForm",
    "build_chains",
    "generalized_eigenvectors",
    "jordan_form",
    "shifted_power_ranks",
]


@dataclass(frozen=True)
class JordanChain:
    """One Jordan chain: vectors[0] is the ordinary eigenvector x₁ and
    each later vector maps to its predecessor under A − λI."""

    eigenvalue: GaussianRational
    vectors: tuple

    @property
    def size(self):
        return len(self.vectors)


@dataclass(frozen=True)
class JordanForm:
    """A = P·J·P⁻¹ with J in Jordan canonical form."""

    p: Matrix
    j: Matrix
    p_inv: Matrix


def shifted_power_ranks(a, lam):
    """Powers of the shifted matrix κ = A − λI with their exact ranks.

    Returns [(κ, r₁), (κ², r₂), …] up to the index of λ: the ranks fall
    strictly, and the sequence ends at the last power before the rank
    stops falling (the power that shows the stop is not included).
    Raises NotInSpectrum when λ is not an eigenvalue, i.e. when κ has
    full rank.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    n = a.rows
    shifted = subtract_scalar_diag(a, lam)
    current = shifted
    r = rank(current)
    if r == n:
        raise NotInSpectrum("not an eigenvalue of the matrix")
    sequence = []
    while True:
        sequence.append((current, r))
        if len(sequence) > n:
            raise InternalInconsistency(
                "rank sequence failed to stabilize within the dimension")
        current = matmul(current, shifted)
        next_rank = rank(current)
        if next_rank == r:
            return sequence
        r = next_rank


def generalized_eigenvectors(a, lam, level):
    """Generalized eigenvectors of exact level ``level`` for λ.

    A vector has level j when κ^j kills it but κ^{j−1} does not. The
    returned vectors are the null-space basis elements of κ^level that
    survive multiplication by κ^{level−1}; level 1 gives ordinary
    eigenvectors. ``level`` must lie in 1..index(λ) (RankTooLarge
    otherwise).
    """
    sequence = shifted_power_ranks(a, lam)
    index = len(sequence)
    if not isinstance(level, int) or not 1 <= level <= index:
        raise RankTooLarge(
            f"level {level!r} outside 1..{index} for this eigenvalue")
    power = sequence[level - 1][0]
    lower = sequence[level - 2][0] if level >= 2 else None
    out = []
    for v in nullspace_basis(power):
        if lower is None or not matvec(lower, v).is_zero():
            out.append(v)
    return out


def _scale_chain_uniformly(vectors):
    """One rational scale for a whole chain: clears every denominator,
    divides out the common integer content, and signs the result so the
    eigenvector's first nonzero component has positive real part (or
    positive imaginary part when purely imaginary). A uniform scale is
    the only cosmetic freedom a chain has — scaling the vectors
    individually would break the descent relation."""
    factor = primitive_scale(vectors)
    bottom = vectors[0]
    lead = bottom[bottom.first_nonzero_index()]  # factor > 0 keeps its signs
    if lead.re < 0 or (not lead.re and lead.im < 0):
        factor = -factor
    return [v.scaled(factor) for v in vectors]


def build_chains(a, lam):
    """Complete set of Jordan chains for one eigenvalue, sizes
    non-increasing.

    Block counts come from the rank sequence: #blocks of size ≥ j is
    rank(κ^{j−1}) − rank(κ^j). Working down from the index, every
    existing chain is extended by one application of κ, and the chains
    that start at this exact level get their tops from null-space basis
    vectors of κ^j that are independent of the lower level's null space
    together with the vectors already present at this level.
    """
    sequence = shifted_power_ranks(a, lam)
    lam = to_scalar(lam)
    index = len(sequence)
    n = a.rows
    ranks = [n] + [r for _, r in sequence]
    blocks_ge = [ranks[j - 1] - ranks[j] for j in range(1, index + 1)]
    shifted = sequence[0][0]
    null_bases = {0: []}
    for j in range(1, index + 1):
        null_bases[j] = nullspace_basis(sequence[j - 1][0])
    chains_top_first = []
    for j in range(index, 0, -1):
        for chain in chains_top_first:
            chain.append(matvec(shifted, chain[-1]))
        starting_here = blocks_ge[j - 1] - (blocks_ge[j] if j < index else 0)
        if not starting_here:
            continue
        context = list(null_bases[j - 1])
        context.extend(chain[-1] for chain in chains_top_first)
        needed = starting_here
        for candidate in null_bases[j]:
            if not needed:
                break
            if is_independent(context, candidate):
                chains_top_first.append([candidate])
                context.append(candidate)
                needed -= 1
        if needed:
            raise InternalInconsistency(
                f"could not start {needed} chain(s) at level {j}")
    chains = []
    for raw in chains_top_first:
        ordered = list(reversed(raw))
        chains.append(JordanChain(lam, tuple(_scale_chain_uniformly(ordered))))
    return chains


def jordan_form(a, s=None):
    """Exact Jordan decomposition A = P·J·P⁻¹.

    The spectrum ``s`` is verified when given and found exactly when not
    (raising IrrationalSpectrum when it escapes exact representation).
    Eigenvalues appear along J in ascending order; within one eigenvalue
    the blocks come largest first, with ones on the superdiagonal. The
    columns of P are the chain vectors x₁…x_m per block. The identity
    P·J·P⁻¹ = A is verified exactly before returning.
    """
    s = resolve_spectrum(a, s)
    n = a.rows
    columns = []
    j_rows = [[ZERO] * n for _ in range(n)]
    position = 0
    for value, mult in s.pairs:
        chains = build_chains(a, value)
        if sum(c.size for c in chains) != mult:
            raise InternalInconsistency(
                "chain sizes do not add up to the algebraic multiplicity")
        for chain in chains:
            for k, vec in enumerate(chain.vectors):
                col = position + k
                columns.append(vec)
                j_rows[col][col] = value
                if k:
                    j_rows[col - 1][col] = ONE
            position += chain.size
    p = Matrix.from_columns(columns)
    j = Matrix.from_rows(j_rows)
    try:
        p_inv = inverse(p)
    except Singular as exc:
        raise InternalInconsistency(
            "chain vectors are not a basis") from exc
    if matmul(matmul(p, j), p_inv) != a:
        raise InternalInconsistency(
            "decomposition check P*J*P^-1 == A failed")
    return JordanForm(p, j, p_inv)
