"""Generalized eigenvectors and exact Jordan decompositions.

For an eigenvalue λ of A with shifted matrix κ = A − λI, the null
spaces of κ, κ², … grow strictly until their dimension reaches
alg_mult(λ); the number of steps is the eigenvalue's index. Those
dimensions give the ranks (n − dim ker κ^j) and the Jordan block sizes
— the number of blocks of size ≥ j is dim ker κ^j − dim ker κ^{j−1}.
Where the multiplicity is known (verified by ``jordan_form`` and
``ode_general_solution``, read off the characteristic polynomial by
``build_chains``) the sequence stops at the power whose null space
reaches it, so κ^(index+1) is never formed and a simple eigenvalue
costs one null-space elimination, none from a known ker κ; the rank
and level kernels, given only λ, stop at n or where the null space
stops growing.

Chains are then built top-down: a chain of length m starts with a
level-m generalized eigenvector x_m and descends via x_{k−1} = κ·x_k to
an ordinary eigenvector x₁. Beside a line, λ has one block, of size
m = alg_mult(λ), read off κ^m alone. Everything runs in exact
arithmetic. A matrix finds and certifies its Jordan basis once and
keeps it, for ``jordan_form``, ``diagonalize`` and
``ode_general_solution``; the first two check P⁻¹ by P⁻¹·P = I. Every
basis starts from the eigenvectors of ``eigensystem``, the paper's
products: a complete set of them is P, and otherwise the chains start
from the ker κ it kept, so A − λI of a simple eigenvalue is never
eliminated.
The matrix refers to the P⁻¹ that passed only weakly, beside the kept
basis: while a result holds it, later decompositions of the matrix, and
``matrix_power`` for large exponents, read it without inverting again.
"""

from __future__ import annotations

from itertools import accumulate
from weakref import ref

from .errors import (InternalInconsistency, NotInSpectrum, NotSquare,
                     RankTooLarge)
from .charmatrix import _complete_eigenbasis, _kept_kernels
from .matrices import (
    Matrix,
    Record,
    _power,
    _primitive_chain,
    _times_diagonal,
    independent_extension,
    inverse,
    matmul,
    matvec,
    nullspace_basis,
    subtract_scalar_diag,
)
from .scalars import to_scalar
from .spectra import (_eigenvalue_parts, charpoly, multiplicity_of,
                      resolve_spectrum)

__all__ = [
    "JordanChain",
    "JordanForm",
    "build_chains",
    "generalized_eigenvectors",
    "jordan_form",
    "shifted_power_ranks",
]


class JordanChain(Record):
    """One Jordan chain: vectors[0] is the ordinary eigenvector x₁ and
    each later vector maps to its predecessor under A − λI."""

    __slots__ = ("eigenvalue", "vectors")

    @property
    def size(self):
        return len(self.vectors)


class JordanForm(Record):
    """A = P·J·P⁻¹ with J in Jordan canonical form."""

    __slots__ = ("p", "j", "p_inv")


def _null_sequence(a, lam, bound, kernel=None):
    """(κ, basis of ker κ), (κ², basis of ker κ²), … one at a time, up to
    the index of λ, as in shifted_power_ranks: the sequence ends at the
    first power whose null space has ``bound`` vectors (the algebraic
    multiplicity of λ, or n when it is not known), or else before the
    first power whose null space does not grow. ``kernel`` is the basis
    of ker κ when it is known. Raises NotInSpectrum when ker κ = 0."""
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    shifted = subtract_scalar_diag(a, lam)
    power, basis = shifted, kernel or nullspace_basis(shifted)
    if not basis:
        raise NotInSpectrum("not an eigenvalue of the matrix")
    yield power, basis
    while len(basis) < bound:
        power = matmul(power, shifted)
        grown = nullspace_basis(power)
        if len(grown) == len(basis):
            return
        basis = grown
        yield power, basis


def shifted_power_ranks(a, lam):
    """Powers of the shifted matrix κ = A − λI with their exact ranks.

    Returns [(κ, r₁), (κ², r₂), …] up to the index of λ: the ranks fall
    strictly, and the sequence ends at the last power before the rank
    stops falling (the power that shows the stop is not included).
    Raises NotInSpectrum when λ is not an eigenvalue, i.e. when κ has
    full rank.
    """
    return [(power, a.rows - len(basis))
            for power, basis in _null_sequence(a, lam, a.rows)]


def generalized_eigenvectors(a, lam, level):
    """Generalized eigenvectors of exact level ``level`` for λ.

    A vector has level j when κ^j kills it but κ^{j−1} does not. The
    returned vectors are the null-space basis elements of κ^level that
    survive multiplication by κ^{level−1}; level 1 gives ordinary
    eigenvectors. ``level`` must lie in 1..index(λ) (RankTooLarge
    otherwise).
    """
    sequence = list(_null_sequence(a, lam, a.rows))
    index = len(sequence)
    if not isinstance(level, int) or not 1 <= level <= index:
        raise RankTooLarge(
            f"level {level!r} outside 1..{index} for this eigenvalue")
    lower = sequence[level - 2][0] if level >= 2 else None
    return [v for v in sequence[level - 1][1]
            if lower is None or not matvec(lower, v).is_zero()]


def build_chains(a, lam):
    """Complete set of Jordan chains for one eigenvalue, sizes
    non-increasing.

    Block counts come from the null-space dimensions: #blocks of size ≥ j
    is dim ker κ^j − dim ker κ^{j−1}. Working down from the index, every
    existing chain is extended by one application of κ, and the chains
    of size exactly j (those blocks less the chains present) get their
    tops from the null-space basis vectors of κ^j that one elimination
    finds independent of the lower level's null space, the vectors
    already present at this level and the basis vectors before them.
    Each chain is scaled as a whole to primitive Gaussian-integer
    vectors, its eigenvector's first nonzero component with positive
    real part (or positive imaginary part when purely imaginary). The
    null-space sequence stops at the algebraic multiplicity of λ, read
    off the characteristic polynomial that ``a`` keeps.
    """
    return _chains(a, lam, multiplicity_of(charpoly(a), lam))


def _chains(a, lam, bound, kernel=None):
    """build_chains with the null-space sequence stopped once a null
    space has ``bound`` vectors (the verified multiplicity spares the
    power past the index), from ``kernel``, ker κ, when it is known.
    Beside a line with ``bound`` > 1, the single block's top is the
    first basis vector v of ker κ^bound (its size) with κ^(size−1)·v ≠ 0,
    which the sequence selects: v ∉ ker κ^(size−1) exactly then."""
    powers = _null_sequence(a, lam, bound, kernel)
    shifted, kernel = next(powers)
    lam = to_scalar(lam)
    if len(kernel) == 1 and bound > 1:
        basis = nullspace_basis(_power(shifted, bound))
        for top in basis:
            chain = [top]
            while not chain[-1].is_zero() and len(chain) < len(basis):
                chain.append(matvec(shifted, chain[-1]))
            if not chain[-1].is_zero():
                return [JordanChain(lam, tuple(_primitive_chain(chain[::-1])))]
        raise InternalInconsistency("could not start the chain of a line")
    sequence = [(shifted, kernel), *powers]
    null_bases = [[]] + [basis for _, basis in sequence]
    chains_top_first = []
    for j in range(len(sequence), 0, -1):
        for chain in chains_top_first:
            chain.append(matvec(shifted, chain[-1]))
        starting_here = (len(null_bases[j]) - len(null_bases[j - 1])
                         - len(chains_top_first))
        if not starting_here:
            continue
        context = [*null_bases[j - 1], *(c[-1] for c in chains_top_first)]
        # a null-space basis is independent already
        tops = (independent_extension(context, null_bases[j]) if context
                else null_bases[j])[:starting_here]
        if len(tops) < starting_here:
            raise InternalInconsistency(
                f"could not start {starting_here - len(tops)} chain(s) "
                f"at level {j}")
        chains_top_first.extend([top] for top in tops)
    if any(raw[-1].is_zero() for raw in chains_top_first):
        raise InternalInconsistency("a chain ends in the zero vector")
    return [JordanChain(lam, tuple(_primitive_chain(raw[::-1])))
            for raw in chains_top_first]


def jordan_form(a, s=None):
    """Exact Jordan decomposition A = P·J·P⁻¹.

    The spectrum ``s`` is verified when given and found exactly when not
    (raising IrrationalSpectrum when it escapes exact representation).
    Eigenvalues appear along J in ascending order; within one eigenvalue
    the blocks come largest first, with ones on the superdiagonal. The
    columns of P are the chain vectors x₁…x_m per block, which ``a``
    keeps once they are certified (see ``_jordan_basis``); P⁻¹ is
    checked exactly whenever it is inverted, which a result of an
    earlier call on ``a`` that still holds it spares (see
    ``_decomposition``).
    """
    return JordanForm(*_decomposition(a, resolve_spectrum(a, s)))


def _decomposition(a, s):
    """(P, J, P⁻¹) for the verified spectrum ``s``, for ``jordan_form``
    and ``diagonalize`` (1×1 blocks). P is certified invertible where it
    is kept, so the one exact check P⁻¹·P = I fixes all of P⁻¹. ``a``
    refers to the P⁻¹ that passed only weakly, so while a result holds
    it, later calls take it without inverting or checking again."""
    p, sizes = _jordan_basis(a, s)
    held = _held_decomposition(a)
    if held is not None:
        return p, _jordan_matrix(s, sizes), held[2]
    try:
        p_inv = inverse(p)
    except ValueError as singular:  # Singular, on a certified P
        raise InternalInconsistency("certified P is singular") from singular
    if matmul(p_inv, p) != Matrix.identity(a.rows):
        raise InternalInconsistency("inverse check P^-1*P == I failed")
    a._remember("_jordan", (p, sizes, ref(p_inv)))
    return p, _jordan_matrix(s, sizes), p_inv


def _held_decomposition(a):
    """(P, block sizes, P⁻¹) of the Jordan basis that ``a`` keeps, while
    a result of ``_decomposition`` still holds the P⁻¹ checked for it;
    else None."""
    kept = getattr(a, "_jordan", None)
    p_inv = kept[2]() if kept and kept[2] else None
    return None if p_inv is None else (*kept[:2], p_inv)


def _jordan_matrix(s, sizes):
    """J for the spectrum ``s``, with blocks of ``sizes`` along it."""
    return Matrix.diagonal(s.expanded(), _block_ones(sizes))


def _block_ones(sizes):
    """The columns of J, blocks of ``sizes`` along it, with a one above
    the diagonal: all but the first column of each block."""
    return set(range(sum(sizes))).difference(
        accumulate(sizes[:-1], initial=0))


def _jordan_basis(a, s):
    """(P, block sizes in the order of P's columns) for the verified
    spectrum ``s``, found once per matrix, which keeps them. Every P
    starts from the eigenvectors that ``eigensystem`` keeps on ``a``,
    found by it when not kept (``_kept_kernels``): a complete eigenbasis
    is P, with 1×1 blocks; else P holds the chains of every eigenvalue,
    each started from its kept kernel. P is kept once certified
    invertible (see README) by A·P = P·J, which ``eigensystem`` checked
    for its basis, and independent bottoms x₁. P·J is read off P's
    columns: column k is λₖ·pₖ, plus pₖ₋₁ inside a block."""
    if getattr(a, "_jordan", None) is None:
        bottoms = kernels = _kept_kernels(a, s)  # all 1×1 on an eigenbasis
        p, sizes = _complete_eigenbasis(a), [1] * a.rows
        if p is None:
            columns, sizes, bottoms = [], [], []
            for (value, mult), kernel in zip(s.pairs, kernels):
                chains = [c.vectors for c in _chains(a, value, mult, kernel)]
                if sum(map(len, chains)) != mult:
                    raise InternalInconsistency(
                        "chain sizes do not add up to the multiplicity")
                columns += [x for chain in chains for x in chain]
                sizes += map(len, chains)
                bottoms.append([chain[0] for chain in chains])
            p = Matrix.from_columns(columns)
            if matmul(a, p) != _times_diagonal(p, _eigenvalue_parts(a),
                                               _block_ones(sizes)):
                raise InternalInconsistency("basis check A*P == P*J failed")
        if any(v[0].is_zero() if len(v) == 1 else
               len(independent_extension([], v)) < len(v) for v in bottoms):
            raise InternalInconsistency("chain bottoms are dependent")
        a._remember("_jordan", (p, tuple(sizes), None))
    return a._jordan[:2]
