"""Eigenvector extraction from products of shifted matrices.

For a square A with eigenvalue λ, write κ_λ = A − λI. The central fact
this module exploits: a product of the κ_μ over the *other* eigenvalues
μ ≠ λ (with multiplicities) maps everything into the λ-eigenspace, so
its nonzero columns are eigenvectors of A for λ — no linear system is
solved. Left eigenvectors are the right eigenvectors of Aᵀ, transposed.
The matching rank identity pins down exactly how many independent
columns the product can deliver; when the eigenspace is bigger than
that (a defective-adjacent situation), the remainder is topped up from
an exact null-space basis.

Everything is exact; every returned eigenvector is residual-checked
against A·v = λ·v before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AllRowsParallel,
    Defective,
    DimensionMismatch,
    InternalInconsistency,
    NotDiagonalizable,
    NotInSpectrum,
    NotSquare,
    SpectrumTooLarge,
    TargetNotInSpectrum,
    WrongSpectrum,
)
from .matrices import (
    Matrix,
    _tally,
    Vector,
    cross3,
    det,
    hstack,
    is_independent,
    matmul,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    rank,
    subtract_scalar_diag,
    trace,
)
from .scalars import GaussianRational, format_scalar, to_scalar
from .spectra import Spectrum, charpoly, find_spectrum, multiplicity_of

__all__ = [
    "CharacteristicMatrix",
    "EigenSystem",
    "Eigenspace",
    "characteristic_matrix",
    "column_space_intersection",
    "combined_characteristic_matrix",
    "complementary_product",
    "cross_eigenvector_3x3",
    "eigensystem",
    "eigenvectors_2x2",
    "intersection_eigenvectors",
    "is_diagonalizable",
    "left_product_eigenvectors",
    "normalize_eigenvector",
    "product_eigenvectors",
    "two_spectrum_eigenvectors",
]


@dataclass(frozen=True)
class CharacteristicMatrix:
    """A − λI together with the shift that produced it."""

    matrix: Matrix
    eigenvalue: GaussianRational
    source_dim: int


def characteristic_matrix(a, lam):
    """The shifted matrix A − λI, tagged with its shift."""
    if not a.is_square:
        raise NotSquare("characteristic matrix needs a square matrix")
    lam = to_scalar(lam)
    return CharacteristicMatrix(subtract_scalar_diag(a, lam), lam, a.rows)


def _as_spectrum(s):
    return s if isinstance(s, Spectrum) else Spectrum(s)


def _product_factors(a, s, target, with_multiplicity):
    """Shifted-matrix factors for the product complementary to ``target``,
    in ascending eigenvalue order."""
    factors = []
    for value, mult in s.pairs:
        if value == target:
            count = mult - 1 if with_multiplicity else 0
        else:
            count = mult if with_multiplicity else 1
        if count:
            factors.extend([subtract_scalar_diag(a, value)] * count)
    return factors


def complementary_product(a, s, target, with_multiplicity=False):
    """Product of the shifted matrices for all eigenvalues other than
    ``target`` (each once, or to full multiplicity — with the target
    itself contributing multiplicity − 1 factors — when
    ``with_multiplicity`` is set). An empty factor list yields I."""
    s = _as_spectrum(s)
    target = to_scalar(target)
    if not s.multiplicity(target):
        raise TargetNotInSpectrum(
            f"{format_scalar(target)} is not in the given spectrum")
    if not a.is_square:
        raise NotSquare("complementary product needs a square matrix")
    factors = _product_factors(a, s, target, with_multiplicity)
    if not factors:
        return Matrix.identity(a.rows)
    result = factors[0]
    for f in factors[1:]:
        result = matmul(result, f)
    return result


def _residual_ok(a, lam, v):
    """Exact check A·v = λ·v (or v·A = λ·v for a row vector)."""
    _tally(mults=len(v))
    return matvec(a, v) == v.scaled(lam)


def product_eigenvectors(a, s, target):
    """Basis of the eigenspace for ``target``, led by product columns.

    Columns of the full-multiplicity complementary product are formed
    lazily (one column of the rightmost factor, pushed left through the
    others) and kept while they are nonzero,
    residual-clean, and extend the independent set. The product can
    produce at most Σ_{μ≠target} max(0, geom(μ) − (alg(target) − 1))
    independent columns, so when the eigenspace is larger the basis is
    completed from an exact null-space basis of A − target·I. The result
    has exactly geometric-multiplicity many vectors, each normalized.
    """
    s = _as_spectrum(s)
    target = to_scalar(target)
    if not a.is_square:
        raise NotSquare("eigenvector extraction needs a square matrix")
    alg = s.multiplicity(target)
    if not alg:
        raise TargetNotInSpectrum(
            f"{format_scalar(target)} is not in the given spectrum")
    n = a.rows
    # an empty product is the identity
    factors = (_product_factors(a, s, target, with_multiplicity=True)
               or [Matrix.identity(n)])
    kept = []
    saw_dirty_column = False
    for j in range(n):
        v = factors[-1].column(j)
        for f in reversed(factors[:-1]):
            if v.is_zero():
                break
            v = matvec(f, v)
        if v.is_zero():
            continue
        if not _residual_ok(a, target, v):
            saw_dirty_column = True
            continue
        if is_independent(kept, v):
            kept.append(normalize_eigenvector(v))
            if len(kept) == alg:
                break
    if len(kept) < alg:
        shifted = subtract_scalar_diag(a, target)
        geom = n - rank(shifted)
        if geom > 0 and not kept and saw_dirty_column:
            raise InternalInconsistency(
                "product columns failed the residual check although the "
                "eigenspace is nonempty")
        if len(kept) < geom:
            for w in nullspace_basis(shifted):
                if is_independent(kept, w):
                    kept.append(w)
                if len(kept) == geom:
                    break
        if len(kept) != geom:
            raise InternalInconsistency(
                "assembled eigenbasis has the wrong dimension")
    return kept


def left_product_eigenvectors(a, s, target):
    """Row-vector basis of the left eigenspace for ``target``.

    The left eigenvectors of A are the transposed right eigenvectors of
    Aᵀ, and Aᵀ has the same spectrum. The shifted factors are
    polynomials in A and commute, so row i of the product for A is
    column i of the product for Aᵀ, transposed: this reads the same
    vectors, in the same order, as pushing rows through the product.
    """
    return [w.transposed()
            for w in product_eigenvectors(a.transpose(), s, target)]


def two_spectrum_eigenvectors(a, lam1, lam2):
    """Full eigenbasis split for a matrix whose spectrum is exactly
    {λ₁, λ₂}, read directly off the two shifted matrices.

    Requires (A − λ₁I)(A − λ₂I) = 0; the nonzero product is raised as a
    NotDiagonalizable witness otherwise. Returns ``(for_lam1, for_lam2)``
    where the λ₁-eigenvectors are independent columns of A − λ₂I and
    vice versa.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    lam1 = to_scalar(lam1)
    lam2 = to_scalar(lam2)
    if lam1 == lam2:
        raise WrongSpectrum("the two eigenvalues must be distinct")
    p = charpoly(a)
    m1 = multiplicity_of(p, lam1)
    m2 = multiplicity_of(p, lam2)
    if m1 == 0 or m2 == 0 or m1 + m2 != a.rows:
        raise WrongSpectrum(
            "matrix spectrum is not {%s, %s}"
            % (format_scalar(lam1), format_scalar(lam2)))
    k1 = subtract_scalar_diag(a, lam1)
    k2 = subtract_scalar_diag(a, lam2)
    witness = matmul(k1, k2)
    if not witness.is_zero():
        raise NotDiagonalizable(
            "shifted-matrix product is nonzero: an eigenspace is too small",
            witness=witness)
    return (
        _independent_columns(k2, a, lam1, m1),
        _independent_columns(k1, a, lam2, m2),
    )


def _independent_columns(source, a, lam, expected):
    """Collect ``expected`` independent normalized λ-eigenvectors of
    ``a`` from the columns of ``source``."""
    kept = []
    for j in range(source.cols):
        v = source.column(j)
        if v.is_zero():
            continue
        if not _residual_ok(a, lam, v):
            raise InternalInconsistency(
                "column of an annihilating factor is not an eigenvector")
        if is_independent(kept, v):
            kept.append(normalize_eigenvector(v))
            if len(kept) == expected:
                return kept
    raise InternalInconsistency(
        "annihilating factor yielded too few independent columns")


def eigenvectors_2x2(a, lam1, lam2):
    """Eigenvectors of a 2×2 matrix by direct column reading — the
    no-computation shortcut.

    With distinct eigenvalues the λ₁-eigenvector is the first nonzero of
    the columns (a−λ₂, c) / (b, d−λ₂) and symmetrically for λ₂. A scalar
    matrix returns the standard basis. A repeated eigenvalue on a
    non-scalar matrix is defective: the Defective error carries the one
    normalized eigendirection.
    """
    if a.rows != 2 or a.cols != 2:
        if not a.is_square:
            raise NotSquare("shortcut needs a 2x2 matrix")
        raise DimensionMismatch("shortcut needs a 2x2 matrix")
    lam1 = to_scalar(lam1)
    lam2 = to_scalar(lam2)
    if lam1 + lam2 != trace(a) or lam1 * lam2 != det(a):
        raise WrongSpectrum(
            "claimed eigenvalues do not match the trace and determinant")
    if lam1 == lam2:
        if subtract_scalar_diag(a, lam1).is_zero():
            return Vector((1, 0)), Vector((0, 1))
        direction = _nonzero_column(subtract_scalar_diag(a, lam2))
        if not _residual_ok(a, lam1, direction):
            raise InternalInconsistency(
                "defective direction fails the residual check")
        raise Defective(
            f"repeated eigenvalue {format_scalar(lam1)} with a "
            "one-dimensional eigenspace", eigenvector=direction)
    v1 = _nonzero_column(subtract_scalar_diag(a, lam2))
    v2 = _nonzero_column(subtract_scalar_diag(a, lam1))
    if not (_residual_ok(a, lam1, v1) and _residual_ok(a, lam2, v2)):
        raise InternalInconsistency("shortcut column is not an eigenvector")
    return v1, v2


def _nonzero_column(shifted):
    """The first nonzero column of a nonzero 2×2 matrix, normalized; a
    rank-one matrix has parallel columns, so either gives this vector."""
    v = shifted.column(0)
    return normalize_eigenvector(shifted.column(1) if v.is_zero() else v)


def combined_characteristic_matrix(a, column_assignment):
    """Single matrix whose column j is an eigenvector for the j-th
    assigned eigenvalue, for matrices with at most two distinct
    eigenvalues.

    Column j is column j of the shifted matrix for the *complement* of
    the assigned eigenvalue (the other one; itself when the spectrum is
    a single point). Requires every assigned value to be an eigenvalue.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    n = a.rows
    assignment = [to_scalar(x) for x in column_assignment]
    if len(assignment) != n:
        raise DimensionMismatch(
            f"{len(assignment)} assigned columns for a {n}x{n} matrix")
    s = find_spectrum(charpoly(a))
    if len(s.pairs) > 2:
        raise SpectrumTooLarge(
            "combined matrix requires at most two distinct eigenvalues")
    values = s.values()
    if len(values) == 2:
        complement = {values[0]: values[1], values[1]: values[0]}
    else:
        complement = {values[0]: values[0]}
    shifted = {v: subtract_scalar_diag(a, complement[v]) for v in values}
    columns = []
    for j, lam in enumerate(assignment):
        if lam not in complement:
            raise NotInSpectrum(
                f"assigned value {format_scalar(lam)} is not an eigenvalue")
        columns.append(shifted[lam].column(j))
    return Matrix.from_columns(columns)


def cross_eigenvector_3x3(a, lam):
    """Eigenvector of a 3×3 matrix as a cross product of rows of A − λI.

    The rows of the shifted matrix are orthogonal (bilinear dot) to the
    eigenspace, so the cross product of two independent rows spans it
    when it is one-dimensional. Row pairs are tried in the fixed order
    (0,1), (0,2), (1,2); if all pairs are parallel the eigenspace has
    dimension ≥ 2 and AllRowsParallel directs the caller to the product
    method.
    """
    if a.rows != 3 or a.cols != 3:
        if not a.is_square:
            raise NotSquare("cross-product extraction needs a 3x3 matrix")
        raise DimensionMismatch("cross-product extraction needs a 3x3 matrix")
    lam = to_scalar(lam)
    if charpoly(a)(lam):
        raise NotInSpectrum(
            f"{format_scalar(lam)} is not an eigenvalue")
    shifted = subtract_scalar_diag(a, lam)
    rows = [shifted.row(i) for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = cross3(rows[i], rows[j])
        if not c.is_zero():
            v = normalize_eigenvector(c)
            if not _residual_ok(a, lam, v):
                raise InternalInconsistency(
                    "cross product of shifted rows is not an eigenvector")
            return v
    raise AllRowsParallel(
        "all row pairs are parallel: the eigenspace has dimension >= 2; "
        "use the product method")


def column_space_intersection(b1, b2):
    """Normalized basis of col(B₁) ∩ col(B₂).

    Null vectors of [B₁ | −B₂] encode the matching coefficients: the
    B₁-part of each weight vector maps to a vector lying in both column
    spaces. The result size is checked against the exact rank identity
    dim(∩) = rank B₁ + rank B₂ − rank [B₁ B₂].
    """
    if b1.rows != b2.rows:
        raise DimensionMismatch("column spaces live in different dimensions")
    block = hstack(b1, -b2)
    weights = nullspace_basis(block)
    kept = []
    for w in weights:
        u = Vector(w[:b1.cols])
        v = matvec(b1, u)
        if v.is_zero():
            continue
        if is_independent(kept, v):
            kept.append(normalize_eigenvector(v))
    joint_rank = b1.cols + b2.cols - len(weights)
    expected = rank(b1) + rank(b2) - joint_rank
    if len(kept) != expected:
        raise InternalInconsistency(
            "intersection basis size does not match the rank identity")
    return kept


def intersection_eigenvectors(a, s, target):
    """Eigenvectors for ``target`` from the iterated column-space
    intersection of the shifted matrices of the other eigenvalues.

    Equals the eigenspace whenever the matrix is diagonalizable; the
    final residual filter drops any excess directions a defective input
    would leave behind. With no other eigenvalue the result is the
    null-space basis of A − target·I.
    """
    s = _as_spectrum(s)
    target = to_scalar(target)
    if not s.multiplicity(target):
        raise TargetNotInSpectrum(
            f"{format_scalar(target)} is not in the given spectrum")
    others = [v for v in s.values() if v != target]
    if not others:
        return nullspace_basis(subtract_scalar_diag(a, target))
    current = subtract_scalar_diag(a, others[0])
    for value in others[1:]:
        vectors = column_space_intersection(
            current, subtract_scalar_diag(a, value))
        if not vectors:
            return []
        current = Matrix.from_columns(vectors)
    kept = []
    for j in range(current.cols):
        v = current.column(j)
        if v.is_zero() or not _residual_ok(a, target, v):
            continue
        if is_independent(kept, v):
            kept.append(normalize_eigenvector(v))
    return kept


def is_diagonalizable(a, s):
    """(True, None) when the product of all shifted matrices — one per
    distinct eigenvalue, ascending — vanishes; otherwise (False, P) with
    the nonzero product as an explicit witness of a too-small eigenspace.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    s = _as_spectrum(s)
    product = None
    for value, _ in s.pairs:
        k = subtract_scalar_diag(a, value)
        product = k if product is None else matmul(product, k)
    if product.is_zero():
        return True, None
    return False, product


@dataclass(frozen=True)
class Eigenspace:
    """One eigenvalue with its algebraic multiplicity and an exact basis
    of its eigenspace (so geometric multiplicity = len(vectors))."""

    eigenvalue: GaussianRational
    alg_mult: int
    vectors: tuple

    @property
    def geom_mult(self):
        return len(self.vectors)


@dataclass(frozen=True)
class EigenSystem:
    """Every eigenspace of a matrix, in ascending eigenvalue order."""

    spaces: tuple

    def __iter__(self):
        return iter(self.spaces)

    def space_for(self, lam):
        lam = to_scalar(lam)
        for space in self.spaces:
            if space.eigenvalue == lam:
                return space
        raise NotInSpectrum(f"{format_scalar(lam)} has no eigenspace here")

    @property
    def is_complete(self):
        """True when every eigenspace is as large as its multiplicity."""
        return all(s.geom_mult == s.alg_mult for s in self.spaces)


def eigensystem(a, s):
    """Assemble all eigenspaces via the product method."""
    s = _as_spectrum(s)
    spaces = []
    for value, mult in s.pairs:
        vectors = product_eigenvectors(a, s, value)
        spaces.append(Eigenspace(value, mult, tuple(vectors)))
    return EigenSystem(tuple(spaces))
