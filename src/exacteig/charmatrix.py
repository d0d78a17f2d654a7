"""Eigenvector extraction from products of shifted matrices.

For a square A with eigenvalue λ, write κ_λ = A − λI. The central fact
this module exploits: a product of the κ_μ over the *other* eigenvalues
μ ≠ λ (with multiplicities) maps everything into the λ-eigenspace, so
its nonzero columns are eigenvectors of A for λ — no linear system is
solved. Left eigenvectors are the right eigenvectors of Aᵀ, transposed.
With full multiplicities, Π_{μ≠λ} κ_μ^{m_μ}·κ_λ^{m_λ−1} has rank 1 when
the λ-eigenspace is a line and is zero otherwise (κ_λ^{m_λ−1} is
nonzero on the generalized eigenspace only for a single Jordan block of
full size), so one nonzero column is the whole eigenbasis. For a simple
eigenvalue that column is all the work. For a repeated one the exact
null-space basis of κ_λ decides first: a larger eigenspace is that
basis and no product is formed, and beside a line the product column
must equal the kernel's vector, an exact cross-check of the two.

The product-method entry points (``product_eigenvectors``,
``left_product_eigenvectors``, ``eigensystem``) verify the spectrum
first, which costs a comparison once the matrix has verified it. They
form no product matrix: for A = N/d and λ = (u + v·i)/w they build the
scale-free shift rows w·N − d·(u + v·i)·I of d·w·(A − λI)
(``matrices._shift_rows``) of every eigenvalue once per call that forms
a product, and push product column j, read off the rightmost factor,
left through the others as lists of integers
(``matrices._product_eigenvector``). The zero test, the residual test
(A − λI)·x = 0 and the normalization are all blind to the scale d·w, so
the vectors are those of the shifted matrices; A − λI itself is built only
for a repeated eigenvalue, whose kernel it gives. Everything is exact;
every returned eigenvector is checked by (A − λI)·v = 0 on the integer
planes (the shift rows, or the kernel's A − λI), the |σ(A)| ≤ 2
shortcut's columns all at once by (A − λ₁I)(A − λ₂I) = 0. That product,
``complementary_product`` and the ``is_diagonalizable`` witness are the
matrix products, all formed by ``_shifted_product``.
"""

from __future__ import annotations

from itertools import accumulate

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
    Record,
    _annihilates,
    _product_eigenvector,
    _shift_rows,
    Vector,
    cross3,
    det,
    hstack,
    independent_extension,
    matmul,
    matvec,
    normalize_eigenvector,
    nullspace_basis,
    rank,
    subtract_scalar_diag,
)
from .scalars import format_scalar, to_scalar
from .spectra import (Spectrum, _multiplicities, charpoly, resolve_spectrum,
                      verify_spectrum)

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
    "product_eigenvectors",
    "two_spectrum_eigenvectors",
]


class CharacteristicMatrix(Record):
    """A − λI together with the shift that produced it."""

    __slots__ = ("matrix", "eigenvalue", "source_dim")


def characteristic_matrix(a, lam):
    """The shifted matrix A − λI, tagged with its shift."""
    if not a.is_square:
        raise NotSquare("characteristic matrix needs a square matrix")
    lam = to_scalar(lam)
    return CharacteristicMatrix(subtract_scalar_diag(a, lam), lam, a.rows)


def _product_factors(s, k, with_multiplicity, shifts):
    """The factors of the product complementary to the k-th eigenvalue
    of ``s`` (of none when k is None), in ascending eigenvalue order,
    ``shifts[i]`` standing for the i-th: its shift rows, or the value."""
    factors = []
    for i, (shift, (_, mult)) in enumerate(zip(shifts, s.pairs)):
        # the target contributes one factor fewer than the others
        factors += [shift] * ((mult if with_multiplicity else 1) - (i == k))
    return factors


def _shifted_product(a, values):
    """The factors A − λI for λ in ``values``, each distinct one built
    once, and their product in the order given (I when there are
    none)."""
    built = {lam: subtract_scalar_diag(a, lam)
             for lam in dict.fromkeys(values)}
    factors = [built[lam] for lam in values]
    product = factors[0] if factors else Matrix.identity(a.rows)
    for f in factors[1:]:
        product = matmul(product, f)
    return factors, product


def complementary_product(a, s, target, with_multiplicity=False):
    """Product of the shifted matrices for all eigenvalues other than
    ``target`` (each once, or to full multiplicity — with the target
    itself contributing multiplicity − 1 factors — when
    ``with_multiplicity`` is set). An empty factor list yields I."""
    s = Spectrum(s)
    k = _target_index(s, target)
    if not a.is_square:
        raise NotSquare("complementary product needs a square matrix")
    return _shifted_product(
        a, _product_factors(s, k, with_multiplicity, s.values()))[1]


def _target_index(s, target):
    """The position of ``target`` among the eigenvalues of ``s``."""
    values = s.values()
    target = to_scalar(target)
    if target not in values:
        raise TargetNotInSpectrum(
            f"{format_scalar(target)} is not in the given spectrum")
    return values.index(target)


def _residual_checked(shifted, vectors):
    """``vectors``, checked to satisfy (A − λI)·v = 0 exactly."""
    if not _annihilates(shifted, vectors):
        raise InternalInconsistency(
            "a null-space vector failed the residual check")
    return vectors


def product_eigenvectors(a, s, target):
    """Basis of the eigenspace for ``target``, led by product columns.

    Columns of the full-multiplicity complementary product
    Π_{μ≠λ}(A − μI)^{m_μ}·(A − λI)^{m_λ−1} are formed lazily (one column
    of the rightmost factor, pushed left through the others), and the
    first nonzero residual-clean one is kept. That product has rank 1
    when the λ-eigenspace is a line and is zero otherwise, because
    (A − λI)^{m_λ−1} is nonzero on the generalized eigenspace only for a
    single Jordan block of full size. A simple eigenvalue takes that
    column alone. For a repeated one the kernel decides first: one
    null-space basis of A − λI is computed, and when it has two or more
    vectors it is the basis, each vector residual-checked, and no
    product is formed; when it is a line the product column must equal
    its vector. The result has exactly geometric-multiplicity many
    vectors, each normalized.
    ``verify_spectrum`` checks ``s`` first (once per matrix), so a wrong
    spectrum raises WrongSpectrum.
    """
    s = verify_spectrum(a, s)
    return _eigenbasis(a, s, _target_index(s, target), [])


def _eigenbasis(a, s, k, shifts):
    """``product_eigenvectors`` for the k-th eigenvalue of a verified
    spectrum ``s``. ``shifts``, one list per call, holds the shift rows
    of each of its eigenvalues: it is filled the first time the kernel
    leaves a product to form. A − λI is built as a matrix and eliminated
    only for a repeated eigenvalue, at most once."""
    target, alg = s.pairs[k]
    null = None
    if alg > 1:
        # the kernel decides first: the product vanishes beside a plane
        kappa = subtract_scalar_diag(a, target)
        null = nullspace_basis(kappa)
        if len(null) > 1:
            return _residual_checked(kappa, null)
        if not null:
            raise InternalInconsistency(
                "a verified eigenvalue has no eigenvector")
    if not shifts:
        shifts += [_shift_rows(a, value) for value in s.values()]
    # the product has rank 1, so its first nonzero column decides
    v, clean = _product_eigenvector(_product_factors(s, k, True, shifts),
                                    shifts[k])
    if clean:
        if null is not None and v != null[0]:
            raise InternalInconsistency(
                "a product column differs from the kernel vector")
        return [v]
    if null:
        raise InternalInconsistency(
            "product columns failed the residual check although the "
            "eigenspace is nonempty")
    raise InternalInconsistency("a verified eigenvalue has no eigenvector")


def left_product_eigenvectors(a, s, target):
    """Row-vector basis of the left eigenspace for ``target``.

    The left eigenvectors of A are the transposed right eigenvectors of
    Aᵀ, and Aᵀ has the same spectrum. The shifted factors are
    polynomials in A and commute, so row i of the product for A is
    column i of the product for Aᵀ, transposed: this reads the same
    vectors, in the same order, as pushing rows through the product.
    The spectrum is verified against A once: the transpose takes over
    its characteristic polynomial, and the product columns run through
    the same kernel on the transposed planes.
    """
    s = verify_spectrum(a, s)
    return [w.transposed() for w in _eigenbasis(
        a.transpose(), s, _target_index(s, target), [])]


def _eigenmatrices(a, *values):
    """The factors A − λI for the one or two ``values`` under the premise
    of the |σ(A)| ≤ 2 shortcut, that their product is zero: the factors
    commute, so it certifies every column of each. A nonzero product is
    raised as the NotDiagonalizable witness."""
    factors, witness = _shifted_product(a, values)
    if not witness.is_zero():
        raise NotDiagonalizable("shifted-matrix product is nonzero: an "
                                "eigenspace is too small", witness=witness)
    return factors


def two_spectrum_eigenvectors(a, lam1, lam2):
    """Full eigenbasis split for a matrix whose spectrum is exactly
    {λ₁, λ₂}, read directly off the two shifted matrices.

    Requires (A − λ₁I)(A − λ₂I) = 0, checked once; the nonzero product
    is raised as a NotDiagonalizable witness otherwise. Returns
    ``(for_lam1, for_lam2)`` where the λ₁-eigenvectors are independent
    columns of A − λ₂I and vice versa. Deflating the characteristic
    polynomial once by each eigenvalue finds both multiplicities, which
    must take the whole degree, so ``charpoly(a)`` keeps the spectrum.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    lam1 = to_scalar(lam1)
    lam2 = to_scalar(lam2)
    if lam1 == lam2:
        raise WrongSpectrum("the two eigenvalues must be distinct")
    m1, m2 = _multiplicities(charpoly(a), [lam1, lam2])
    if not m1 or not m2 or m1 + m2 != a.rows:
        raise WrongSpectrum("matrix spectrum is not {%s, %s}" % (
            format_scalar(lam1), format_scalar(lam2)))
    k1, k2 = _eigenmatrices(a, lam1, lam2)
    return _independent_columns(k2, m1), _independent_columns(k1, m2)


def _independent_columns(source, expected):
    """``expected`` independent normalized columns of ``source``, a factor
    that ``_eigenmatrices`` has certified."""
    picked = independent_extension(
        [], [source.column(j) for j in range(source.cols)])[:expected]
    if len(picked) < expected:
        raise InternalInconsistency(
            "annihilating factor yielded too few independent columns")
    return [normalize_eigenvector(v) for v in picked]


def eigenvectors_2x2(a, lam1, lam2):
    """Eigenvectors of a 2×2 matrix by direct column reading — the
    no-computation shortcut.

    The pair is verified by deflating the characteristic polynomial,
    which keeps it; by Cayley–Hamilton (A − λ₁I)(A − λ₂I) = 0 then
    holds, and a nonzero product is a fault. With distinct
    eigenvalues the λ₁-eigenvector is the first nonzero column of
    A − λ₂I and vice versa. A scalar matrix returns the standard basis;
    on any other, a repeated eigenvalue raises Defective with the one
    normalized eigendirection, a column of A − λI.
    """
    if a.rows != 2 or a.cols != 2:
        if not a.is_square:
            raise NotSquare("shortcut needs a 2x2 matrix")
        raise DimensionMismatch("shortcut needs a 2x2 matrix")
    lam1 = to_scalar(lam1)
    lam2 = to_scalar(lam2)
    verify_spectrum(a, [(lam1, 2)] if lam1 == lam2
                    else [(lam1, 1), (lam2, 1)])
    try:
        k1, k2 = _eigenmatrices(a, lam1, lam2)
    except NotDiagonalizable as fault:
        raise InternalInconsistency(
            "a verified 2x2 pair leaves a nonzero product") from fault
    if lam1 == lam2:
        if k2.is_zero():
            return Vector((1, 0)), Vector((0, 1))
        raise Defective(f"repeated eigenvalue {format_scalar(lam1)} with a "
                        "one-dimensional eigenspace",
                        eigenvector=_independent_columns(k2, 1)[0])
    return _independent_columns(k2, 1)[0], _independent_columns(k1, 1)[0]


def combined_characteristic_matrix(a, column_assignment, s=None):
    """Single matrix whose column j is an eigenvector for the j-th
    assigned eigenvalue, for matrices with at most two distinct
    eigenvalues.

    Column j is column j of the shifted matrix for the *complement* of
    the assigned eigenvalue (the other one; itself when the spectrum is
    a single point). Requires every assigned value to be an eigenvalue.
    The spectrum ``s`` is verified when given and found exactly when not
    (``resolve_spectrum``), and ``charpoly(a)`` keeps it. The premise
    (A − λ₁I)(A − λ₂I) = 0 over two eigenvalues, A − λI = 0 over one
    (the minimal polynomial ``is_diagonalizable`` tests), certifies the
    columns; a nonzero product raises NotDiagonalizable with it as the
    witness.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    n = a.rows
    assignment = [to_scalar(x) for x in column_assignment]
    if len(assignment) != n:
        raise DimensionMismatch(
            f"{len(assignment)} assigned columns for a {n}x{n} matrix")
    s = resolve_spectrum(a, s)
    if len(s.pairs) > 2:
        raise SpectrumTooLarge(
            "combined matrix requires at most two distinct eigenvalues")
    values = s.values()
    for lam in assignment:
        if lam not in values:
            raise NotInSpectrum(
                f"assigned value {format_scalar(lam)} is not an eigenvalue")
    factors = _eigenmatrices(a, *values)
    return Matrix.from_columns([
        (factors[-1] if lam == values[0] else factors[0]).column(j)
        for j, lam in enumerate(assignment)])


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
    shifted = subtract_scalar_diag(a, lam)
    if det(shifted):
        raise NotInSpectrum(
            f"{format_scalar(lam)} is not an eigenvalue")
    rows = [shifted.row(i) for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = cross3(rows[i], rows[j])
        if not c.is_zero():
            v = normalize_eigenvector(c)
            if not _annihilates(shifted, [v]):
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
    images = [matvec(b1, Vector(w[:b1.cols])) for w in weights]
    kept = [normalize_eigenvector(v)
            for v in independent_extension([], images)]
    joint_rank = b1.cols + b2.cols - len(weights)
    expected = rank(b1) + rank(b2) - joint_rank
    if len(kept) != expected:
        raise InternalInconsistency(
            "intersection basis size does not match the rank identity")
    return kept


def intersection_eigenvectors(a, s, target):
    """Eigenvectors for ``target`` from the iterated column-space
    intersection of the shifted matrices of the other eigenvalues.

    It holds the whole eigenspace on any input (A − μI is invertible on
    it for μ ≠ λ): the eigenvectors are B·w for w in ker((A − λI)·B), B
    the intersection basis; with no other eigenvalue, the null-space
    basis of A − λI. Each is residual-checked. ``verify_spectrum``
    checks ``s`` first (WrongSpectrum).
    """
    s = verify_spectrum(a, s)
    target = s.pairs[_target_index(s, target)][0]
    others = [v for v in s.values() if v != target]
    kappa = subtract_scalar_diag(a, target)
    if not others:
        return _residual_checked(kappa, nullspace_basis(kappa))
    current = subtract_scalar_diag(a, others[0])
    for value in others[1:]:
        current = Matrix.from_columns(column_space_intersection(
            current, subtract_scalar_diag(a, value)))
    vectors = [matvec(current, w)
               for w in nullspace_basis(matmul(kappa, current))]
    return [normalize_eigenvector(v) for v in independent_extension(
        [], _residual_checked(kappa, vectors))]


def is_diagonalizable(a, s):
    """(True, None) when the product of all shifted matrices — one per
    distinct eigenvalue, ascending — vanishes; otherwise (False, P) with
    the nonzero product as an explicit witness of a too-small eigenspace.
    ``verify_spectrum`` checks ``s`` first, so a wrong spectrum raises
    WrongSpectrum instead of giving a wrong verdict. A spectrum of n
    distinct eigenvalues answers True with no product formed (distinct
    eigenvalues have independent eigenvectors), and so does a complete
    eigenbasis of ``a`` that ``eigensystem`` has kept.
    """
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    s = verify_spectrum(a, s)
    if len(s.pairs) == a.rows or _complete_eigenbasis(a) is not None:
        return True, None
    product = _shifted_product(a, s.values())[1]
    return (True, None) if product.is_zero() else (False, product)


class Eigenspace(Record):
    """One eigenvalue with its algebraic multiplicity and an exact basis
    of its eigenspace (so geometric multiplicity = len(vectors))."""

    __slots__ = ("eigenvalue", "alg_mult", "vectors")

    @property
    def geom_mult(self):
        return len(self.vectors)


class EigenSystem(Record):
    """Every eigenspace of a matrix, in ascending eigenvalue order."""

    __slots__ = ("spaces",)

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
    """Assemble all eigenspaces via the product method, after one check
    of the spectrum (``verify_spectrum``). ``a`` keeps the vectors as the
    columns of one matrix, with each eigenspace's size: the P of
    ``diagonalize`` and ``jordan_form`` when it is square, and else the
    kernels that their Jordan chains start from."""
    s = verify_spectrum(a, s)
    shifts = []
    spaces = [Eigenspace(value, mult, tuple(_eigenbasis(a, s, k, shifts)))
              for k, (value, mult) in enumerate(s.pairs)]
    a._remember("_eigenvectors", (Matrix.from_columns(
        [v for space in spaces for v in space.vectors]),
        tuple(space.geom_mult for space in spaces)))
    return EigenSystem(tuple(spaces))


def _complete_eigenbasis(a):
    """The eigenvector matrix kept on ``a`` if square (complete), or None."""
    kept = getattr(a, "_eigenvectors", None)
    return kept[0] if kept is not None and kept[0].is_square else None


def _kept_kernels(a, s):
    """Per eigenvalue of the verified spectrum ``s``, the basis of
    ker(A − λI) that ``eigensystem`` keeps on ``a``, found by it when
    not kept."""
    if getattr(a, "_eigenvectors", None) is None:
        eigensystem(a, s)
    p, sizes = a._eigenvectors
    return [[p.column(j) for j in range(start, start + size)]
            for start, size in zip(accumulate(sizes, initial=0), sizes)]
