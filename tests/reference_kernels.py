"""Scalar-loop matrix kernels kept as a reference for the integer core,
and the divisor-enumeration root finder kept as a reference for the
p-adic one.

The matrix kernels are the entry-by-entry Gaussian-rational algorithms
that ``exacteig.matrices`` used before it moved to integer planes and
fraction-free elimination. They work on rows of scalars (tuples of
:class:`GaussianRational`) and share no code with the library's
kernels, so exact agreement between the two is evidence for both;
``reference_power`` is binary exponentiation on those rows, the
reference for both routes of ``matrix_power``.
``find_spectrum`` is the rational-root-theorem search that
``exacteig.spectra`` used before p-adic lifting, with its helpers.
``is_independent`` is the one-candidate rank test that the library's
basis builders looped over before ``independent_extension`` selected a
whole list with one elimination; it uses the library's ``rank``.
``Polynomial`` is the tuple-of-scalars polynomial that ``exacteig.spectra``
used before it stored integer numerators over a common denominator, and
``verify_spectrum`` the check that expanded the claimed product
Π(λ − v)^m with it, where the library now deflates by exact division.
``shifted_power_ranks``, ``generalized_eigenvectors`` and
``build_chains`` are the Jordan kernels that ran a forward rank pass
over the powers of κ = A − λI beside a separate null-space pass, and
read block counts off the rank sequence; the library now takes ranks,
levels and block counts from one null-space sequence. They use the
library's matrix kernels, its ``matmul`` and ``matvec`` under the names
``lib_matmul`` and ``lib_matvec`` (this module's own pair works on rows of
scalars), and are otherwise unchanged. ``null_sequence_chains`` is the
chain builder that ``exacteig.jordan`` ran on every eigenvalue, one
null-space elimination per power of κ, before it started from the kernel
that ``eigensystem`` kept and read a single Jordan block off the null
space of one power of κ. ``scale_chain_uniformly`` is the
chain scaling that ``exacteig.jordan`` ran through one rational factor
from the library's ``primitive_scale`` and ``Vector.scaled``, before
``matrices`` scaled a chain on its integer planes. ``faddeev_leverrier``
is the Faddeev–LeVerrier recursion that ``exacteig.spectra`` ran on
Gaussian-rational scalars with the library's ``matmul``, ``trace`` and
``subtract_scalar_diag``, before it ran on integer numerators and then
gave way to the Samuelson–Berkowitz recurrence.
``parse_scalar`` and ``parse_matrix_json`` are the wire-format route
that ``exacteig.io_json`` took before one tokenizer read the integer
parts of each entry: every entry became two ``Fraction``s and a
``GaussianRational``, was written back to text to check that it was
canonical, and ``Matrix`` then read the planes off the scalars;
``format_scalar`` is the scalar-level writer it checked with.
``canonical_form`` is the planted Jordan form that
``exacteig.verification`` filled in entry by entry, as a table of zero
and one scalars, before it built the form with ``Matrix.diagonal``.
"""

import json
import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

from exacteig import (
    GaussianRational,
    InternalInconsistency,
    InvalidSpectrum,
    IrrationalSpectrum,
    JordanChain,
    Matrix,
    NotInSpectrum,
    NotSquare,
    RankTooLarge,
    Rational,
    Singular,
    Spectrum,
    SpectrumTooLarge,
    WrongSpectrum,
    DivisionByZero,
    ParseError,
    SchemaError,
    ZeroVector,
    charpoly,
    format_polynomial,
    independent_extension,
    nullspace_basis,
    primitive_scale,
    subtract_scalar_diag,
    to_scalar,
    trace,
)
from exacteig.matrices import (_integer_rows, _primitive, _primitive_chain,
                               _quotient, _require_square, _stacked, _tally,
                               rank)
from exacteig.matrices import matmul as lib_matmul
from exacteig.matrices import matvec as lib_matvec
from exacteig.spectra import Polynomial as LibPolynomial

ZERO = GaussianRational()
ONE = GaussianRational(1)


def scalar_rows(matrix):
    """A Matrix as a tuple of rows of scalars."""
    return tuple(tuple(matrix.row_entries(i)) for i in range(matrix.rows))


def matmul(a, b):
    """Product of two row tuples of scalars."""
    cols = len(b[0])
    out = []
    for arow in a:
        out_row = []
        for j in range(cols):
            acc = arow[0] * b[0][j]
            for k in range(1, len(arow)):
                acc = acc + arow[k] * b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def matvec(a, entries, orientation="column"):
    """A·v for a column vector, or v·A for a row vector."""
    if orientation == "column":
        return tuple(_dot(arow, entries) for arow in a)
    return tuple(_dot(entries, [row[j] for row in a])
                 for j in range(len(a[0])))


def _dot(u, v):
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def reference_power(rows, k):
    """Aᵏ of a row tuple of scalars by binary exponentiation."""
    n = len(rows)
    result = tuple(tuple(GaussianRational(int(i == j)) for j in range(n))
                   for i in range(n))
    while k:
        if k & 1:
            result = matmul(result, rows)
        rows = matmul(rows, rows)
        k >>= 1
    return result


def rref(a):
    """(R, pivots) by Gauss–Jordan with the first nonzero pivot down
    each column."""
    m = [list(row) for row in a]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        m[r] = [e / p for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def det(a):
    """Determinant by forward elimination with scalar division."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    result = ONE
    for i in range(n):
        result = result * m[i][i]
    return result if sign > 0 else -result


def inverse(a):
    """Inverse by Gauss–Jordan on [A | I]; None when singular."""
    n = len(a)
    augmented = [tuple(row) + tuple(ONE if i == j else ZERO
                                    for j in range(n))
                 for i, row in enumerate(a)]
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def normalize_eigenvector(entries):
    """Primitive Gaussian-integer representative of the line through
    ``entries`` whose first nonzero component is a positive integer."""
    entries = [to_scalar(e) for e in entries]
    pivot = next((e for e in entries if e), None)
    if pivot is None:
        raise ZeroVector("cannot normalize the zero vector")
    directed = [e / pivot for e in entries]
    scale_up = 1
    for e in directed:
        scale_up = lcm(scale_up, e.re.denominator, e.im.denominator)
    scaled = [e * scale_up for e in directed]
    common = 0
    for e in scaled:
        common = gcd(common, abs(e.re.numerator), abs(e.im.numerator))
    factor = GaussianRational(Rational(1, common))
    return tuple(e * factor for e in scaled)


# Vector operations as ``Vector`` computed them when it stored scalars;
# ``u`` and ``v`` are tuples of scalars.


def vector_dot(u, v):
    """Bilinear dot product Σ uᵢvᵢ (no conjugation)."""
    total = ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


def vector_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vector_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vector_neg(u):
    return tuple(-e for e in u)


def vector_scaled(u, c):
    c = to_scalar(c)
    return tuple(e * c for e in u)


# The root finder as ``exacteig.spectra`` had it before p-adic lifting;
# it takes O(√|c₀|) time in the constant coefficient c₀.


def _divisors(m):
    """Sorted positive divisors of a positive integer."""
    out = []
    high = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                high.append(m // i)
        i += 1
    out.extend(reversed(high))
    return out


def _fraction_sqrt(f):
    """Exact square root of a nonnegative Fraction, or None."""
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _eval_fraction_poly(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _deflate_fraction_poly(coeffs, root):
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    out.pop()
    out.reverse()
    return out


def find_spectrum(p):
    """Complete exact factorization of a monic real-rational polynomial
    over ℚ(i), or IrrationalSpectrum when roots escape it.

    Rational roots come from the rational-root theorem with repeated
    deflation; a remaining quadratic factor is resolved exactly when its
    discriminant is ±r² for rational r. A linear λ + c over ℚ(i) has
    the root −c. A nonreal coefficient of a polynomial of degree ≥ 2, or
    any residual of degree ≥ 3 (even one that happens to factor over
    ℚ(i)), raises IrrationalSpectrum: the caller supplies the spectrum
    instead.
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if p.degree == 1:
        return Spectrum([(-p.coeffs[0], 1)])
    if any(c.im for c in p.coeffs):
        raise IrrationalSpectrum(
            "nonreal coefficients; supply the spectrum explicitly")

    coeffs = [c.re for c in p.coeffs]
    found = {}

    zero_mult = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
        zero_mult += 1
    if zero_mult:
        found[Fraction(0)] = zero_mult

    if len(coeffs) > 1:
        scale = lcm(*(c.denominator for c in coeffs))
        constant = abs(int(coeffs[0] * scale))
        leading = abs(int(coeffs[-1] * scale))
        candidates = set()
        for num in _divisors(constant):
            for den in _divisors(leading):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
        for cand in sorted(candidates):
            mult = 0
            while len(coeffs) > 1 and _eval_fraction_poly(coeffs, cand) == 0:
                coeffs = _deflate_fraction_poly(coeffs, cand)
                mult += 1
            if mult:
                found[cand] = mult
            if len(coeffs) == 1:
                break

    pairs = [(GaussianRational(r), m) for r, m in found.items()]

    residual_degree = len(coeffs) - 1
    if residual_degree == 1:
        # unreachable in theory (a rational root would have been found);
        # resolve it anyway rather than trust the theory at runtime
        pairs.append((GaussianRational(-coeffs[0]), 1))
    elif residual_degree == 2:
        pairs.extend(_resolve_quadratic(coeffs[1], coeffs[0]))
    elif residual_degree >= 3:
        raise IrrationalSpectrum(
            f"residual factor of degree {residual_degree} has no rational "
            "roots; supply the spectrum explicitly")

    spectrum = Spectrum(pairs)
    if spectrum.total != p.degree:
        raise IrrationalSpectrum("factorization incomplete")
    return spectrum


def _resolve_quadratic(b, c):
    """Roots of monic λ² + bλ + c with rational b, c, as (value, mult)
    pairs, when they lie in ℚ(i)."""
    disc = b * b - 4 * c
    if disc == 0:
        return [(GaussianRational(-b / 2), 2)]
    if disc > 0:
        root = _fraction_sqrt(disc)
        if root is None:
            raise IrrationalSpectrum(
                "quadratic discriminant is not a perfect square; supply "
                "the spectrum explicitly")
        return [(GaussianRational((-b + root) / 2), 1),
                (GaussianRational((-b - root) / 2), 1)]
    root = _fraction_sqrt(-disc)
    if root is None:
        raise IrrationalSpectrum(
            "quadratic roots are complex but not Gaussian rational; supply "
            "the spectrum explicitly")
    re, im = -b / 2, root / 2
    return [(GaussianRational(re, -im), 1), (GaussianRational(re, im), 1)]


def is_independent(vectors, candidate):
    """True when ``candidate`` lies outside the span of ``vectors``.

    The given vectors are assumed linearly independent (they come from a
    basis under construction); the test is an exact rank comparison.
    """
    if candidate.is_zero():
        return False
    if not vectors:
        return True
    stacked = _stacked([*vectors, candidate])
    return rank(stacked) == len(vectors) + 1


class Polynomial:
    """Dense univariate polynomial, exact coefficients in ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        data = [to_scalar(c) for c in coeffs]
        while len(data) > 1 and not data[-1]:
            data.pop()
        if not data:
            data = [ZERO]
        object.__setattr__(self, "coeffs", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return self.leading == ONE

    def is_zero(self):
        return len(self.coeffs) == 1 and not self.coeffs[0]

    def __call__(self, x):
        x = to_scalar(x)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def deflate(self, root):
        """Synthetic division by (λ − root): returns (quotient, remainder)."""
        root = to_scalar(root)
        out = []
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        remainder = out.pop()
        out.reverse()
        return Polynomial(out if out else [ZERO]), remainder

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return format_polynomial(self)


def verify_spectrum(a, claimed):
    """Validate a claimed spectrum against a matrix by exact
    refactorization of the characteristic polynomial."""
    if not a.is_square:
        raise NotSquare("spectrum verification needs a square matrix")
    s = Spectrum(claimed)
    n = a.rows
    if len(s.pairs) > n:
        raise SpectrumTooLarge(
            f"{len(s.pairs)} distinct eigenvalues for a {n}x{n} matrix")
    if s.total != n:
        raise InvalidSpectrum(
            f"multiplicities sum to {s.total}, expected {n}")
    product = Polynomial([ONE])
    for value, mult in s.pairs:
        factor = Polynomial([-value, ONE])
        for _ in range(mult):
            product = product * factor
    if product != Polynomial(charpoly(a).coeffs):
        raise WrongSpectrum(
            "claimed eigenvalues do not factor the characteristic polynomial")
    return s


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
        current = lib_matmul(current, shifted)
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
        if lower is None or not lib_matvec(lower, v).is_zero():
            out.append(v)
    return out


def build_chains(a, lam):
    """Complete set of Jordan chains for one eigenvalue, sizes
    non-increasing.

    Block counts come from the rank sequence: #blocks of size ≥ j is
    rank(κ^{j−1}) − rank(κ^j). Working down from the index, every
    existing chain is extended by one application of κ, and the chains
    that start at this exact level get their tops from the null-space
    basis vectors of κ^j that one elimination finds independent of the
    lower level's null space, the vectors already present at this level
    and the basis vectors before them.
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
            chain.append(lib_matvec(shifted, chain[-1]))
        starting_here = blocks_ge[j - 1] - (blocks_ge[j] if j < index else 0)
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
    chains = []
    for raw in chains_top_first:
        ordered = list(reversed(raw))
        chains.append(JordanChain(lam, tuple(scale_chain_uniformly(ordered))))
    return chains


def null_sequence_chains(a, lam, mult):
    """The library's chain builder before it started from a kernel it
    was given and read a single block off the null space of κ^mult: one
    null-space elimination per power of κ, stopped once a null space has
    ``mult`` vectors (or before the first that does not grow), with the
    tops of each level selected by one ``independent_extension``."""
    if not a.is_square:
        raise NotSquare("needs a square matrix")
    shifted = subtract_scalar_diag(a, lam)
    power, basis = shifted, nullspace_basis(shifted)
    if not basis:
        raise NotInSpectrum("not an eigenvalue of the matrix")
    sequence = [(power, basis)]
    while len(basis) < mult:
        power = lib_matmul(power, shifted)
        basis = nullspace_basis(power)
        if len(basis) == len(sequence[-1][1]):
            break
        sequence.append((power, basis))
    lam = to_scalar(lam)
    null_bases = [[]] + [basis for _, basis in sequence]
    chains_top_first = []
    for j in range(len(sequence), 0, -1):
        for chain in chains_top_first:
            chain.append(lib_matvec(shifted, chain[-1]))
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
    chains = []
    for raw in chains_top_first:
        ordered = list(reversed(raw))
        chains.append(JordanChain(lam, tuple(_primitive_chain(ordered))))
    return chains


def scale_chain_uniformly(vectors):
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


def faddeev_leverrier(a):
    """Monic det(λI − A) as a library Polynomial: M₁ = A,
    c_{n−1} = −tr(M₁), then M_k = A·(M_{k−1} + c_{n−k+1}·I) and
    c_{n−k} = −tr(M_k)/k, all on scalars."""
    if not a.is_square:
        raise NotSquare("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = a
    c = -trace(m)
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        m = lib_matmul(a, subtract_scalar_diag(m, -c))
        c = -(trace(m) / k)
        _tally(divs=1)
        coeffs[n - k] = c
    return LibPolynomial(coeffs)


def _eliminate(re_rows, im_rows, ncols, full):
    """Fraction-free (Bareiss) elimination of Gaussian-integer rows, in
    place; ``im_rows`` is None for real rows.

    Pivots are the first nonzero entry down each column, as in
    Gauss–Jordan elimination over the field. After each pivot every row
    equals that pivot (a minor of the input on the pivot rows and
    columns) times the corresponding row of the field elimination, so
    the division by the previous pivot is exact and all entries stay
    Gaussian integers. ``full`` clears the rows above each pivot too,
    which ends at d·RREF with d the last pivot; otherwise only the rows
    below are cleared (echelon form). Returns ``(pivots, d, sign)``,
    with d as a (re, im) pair (1 when there is no pivot) and sign the
    parity of the row swaps.
    """
    nrows = len(re_rows)
    pivots = []
    prev_re, prev_im = 1, 0
    sign = 1
    mults = adds = divs = 0
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, nrows) if re_rows[i][c]
                      or (im_rows is not None and im_rows[i][c])), None)
        if found is None:
            continue
        if found != r:
            sign = -sign
            re_rows[r], re_rows[found] = re_rows[found], re_rows[r]
            if im_rows is not None:
                im_rows[r], im_rows[found] = im_rows[found], im_rows[r]
        p_re = re_rows[r][c]
        p_im = 0 if im_rows is None else im_rows[r][c]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            start = pivots[i] if i < r else c
            f_re = re_rows[i][c]
            f_im = 0 if im_rows is None else im_rows[i][c]
            if not (f_re or f_im) and (p_re, p_im) == (prev_re, prev_im):
                continue  # the update would leave the row as it is
            width = ncols - start
            mults += 2 * width if f_re or f_im else width
            adds += width if f_re or f_im else 0
            if im_rows is None:
                x, y = re_rows[i][start:], re_rows[r][start:]
                new_re = ([p_re * u - f_re * v for u, v in zip(x, y)]
                          if f_re else [p_re * u for u in x])
                new_im = []
            else:
                new_re, new_im = _pivot_update(
                    re_rows[i][start:], im_rows[i][start:],
                    re_rows[r][start:], im_rows[r][start:],
                    p_re, p_im, f_re, f_im)
            if (prev_re, prev_im) != (1, 0):
                divs += width
                new_re, new_im = _exact_division(new_re, new_im,
                                                 prev_re, prev_im)
            re_rows[i][start:] = new_re
            if im_rows is not None:
                im_rows[i][start:] = new_im
        pivots.append(c)
        prev_re, prev_im = p_re, p_im
        if len(pivots) == nrows:
            break
    _tally(mults, adds, divs)
    return tuple(pivots), (prev_re, prev_im), sign


def _pivot_update(x_re, x_im, y_re, y_im, p_re, p_im, f_re, f_im):
    """p·x − f·y entrywise over ℤ[i] (before the division)."""
    new_re = [p_re * a - p_im * b - f_re * c + f_im * d
              for a, b, c, d in zip(x_re, x_im, y_re, y_im)]
    new_im = [p_re * b + p_im * a - f_re * d - f_im * c
              for a, b, c, d in zip(x_re, x_im, y_re, y_im)]
    return new_re, new_im


def _exact_division(re, im, d_re, d_im):
    """Entries re + im·i divided by d_re + d_im·i, known to be exact."""
    if not d_im:
        return [x // d_re for x in re], [y // d_re for y in im]
    norm = d_re * d_re + d_im * d_im
    return ([(x * d_re + y * d_im) // norm for x, y in zip(re, im)],
            [(y * d_re - x * d_im) // norm for x, y in zip(re, im)])


def _reduced(a):
    """d·RREF of the numerators of ``a`` as (re rows, im rows or None,
    pivots, d); the common denominator changes neither."""
    re_rows, im_rows = _integer_rows(a)
    pivots, d, _ = _eliminate(re_rows, im_rows, a.cols, True)
    return re_rows, im_rows, pivots, d


def gauss_jordan_rref(a):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` with pivot column indices ascending. Pivot
    choice is the first nonzero entry down each column — the only
    deterministic rule that makes sense in exact arithmetic; the RREF
    itself is unique.
    """
    re_rows, im_rows, pivots, (d_re, d_im) = _reduced(a)
    _tally(divs=len(pivots) * a.cols)
    re = [x for row in re_rows for x in row]
    im = ([0] * len(re) if im_rows is None
          else [y for row in im_rows for y in row])
    den, re, im = _quotient(re, im, d_re, d_im)
    return Matrix._make(a.rows, a.cols, den, re, im), pivots


def gauss_jordan_nullspace_basis(a):
    """Exact basis of the null space from the free-variable
    parameterization of the RREF, each vector in canonical normalized
    form. Empty list when the matrix is injective.

    With d·RREF in hand, the vector for a free column f has d at f and
    minus column f of d·RREF at the pivot columns: d times the RREF's
    vector, which normalizes to the same line."""
    re_rows, im_rows, pivots, (d_re, d_im) = _reduced(a)
    basis = []
    for free_col in range(a.cols):
        if free_col in pivots:
            continue
        re, im = [0] * a.cols, [0] * a.cols
        re[free_col], im[free_col] = d_re, d_im
        for k, pivot_col in enumerate(pivots):
            re[pivot_col] = -re_rows[k][free_col]
            if im_rows is not None:
                im[pivot_col] = -im_rows[k][free_col]
        basis.append(_primitive(re, im, "column"))
    return basis


def gauss_jordan_inverse(a):
    """Exact inverse by fraction-free Gauss–Jordan on [N | I], where N
    holds the numerators of A = N/den: it ends at [d·I | d·N⁻¹], so
    A⁻¹ = den·(d·N⁻¹)/d. Raises Singular."""
    _require_square(a)
    n = a.rows
    re_rows, im_rows = _integer_rows(a)
    for i in range(n):
        re_rows[i].extend(int(i == j) for j in range(n))
        if im_rows is not None:
            im_rows[i].extend([0] * n)
    pivots, (d_re, d_im), _ = _eliminate(re_rows, im_rows, 2 * n, True)
    if pivots != tuple(range(n)):
        # a singular left block pushes pivots into the identity half
        raise Singular("matrix is singular")
    _tally(divs=n * n)
    re = [a._den * x for row in re_rows for x in row[n:]]
    im = ([0] * len(re) if im_rows is None
          else [a._den * y for row in im_rows for y in row[n:]])
    den, re, im = _quotient(re, im, d_re, d_im)
    return Matrix._make(n, n, den, re, im)


_SCALAR_RE = re.compile(
    r"""(?:(?P<re>-?[0-9]+(?:/[0-9]+)?)          # real part
          (?:(?P<im1>[+-](?:[0-9]+(?:/[0-9]+)?)?)i)?  # signed imaginary part
        |(?P<im2>-?(?:[0-9]+(?:/[0-9]+)?)?)i     # standalone imaginary part
       )\Z""",
    re.VERBOSE,
)


def _int_from_digits(text):
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(
            f"integer of {len(text.lstrip('-'))} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit of int "
            "conversion") from exc


def _rational_from_text(text):
    if "/" in text:
        num, den = text.split("/")
        den = _int_from_digits(den)
        if not den:
            raise DivisionByZero("rational with zero denominator")
        return Fraction(_int_from_digits(num), den)
    return Fraction(_int_from_digits(text))


def _signed_magnitude(text):
    sign = 1
    if text.startswith(("+", "-")):
        if text[0] == "-":
            sign = -1
        text = text[1:]
    if not text:
        return Fraction(sign)
    return _rational_from_text(text) * sign


def _format_rational(r):
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def format_scalar(z):
    """Canonical text of the scalar ``z``, from its two ``Fraction``s."""
    re_part, im_part = z.re, z.im
    if not im_part:
        return _format_rational(re_part)
    mag = abs(im_part)
    imag = "i" if mag == 1 else f"{_format_rational(mag)}i"
    if not re_part:
        return imag if im_part > 0 else f"-{imag}"
    sign = "+" if im_part > 0 else "-"
    return f"{_format_rational(re_part)}{sign}{imag}"


def parse_scalar(text):
    """The scalar of ``text``, checked canonical by writing it back."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    if m.group("im2") is not None:
        re_part = Fraction(0)
        im_part = _signed_magnitude(m.group("im2"))
    else:
        re_part = _rational_from_text(m.group("re"))
        im1 = m.group("im1")
        im_part = _signed_magnitude(im1) if im1 is not None else Fraction(0)
    z = GaussianRational(re_part, im_part)
    canonical = format_scalar(z)
    if canonical != text:
        raise ParseError(
            f"non-canonical scalar {text!r}; its canonical form is "
            f"{canonical!r}")
    return z


def parse_matrix_json(text):
    """The matrix document ``text``: each entry through ``parse_scalar``,
    then ``Matrix`` of the scalars."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise SchemaError(f"matrix document is missing {key!r}")
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
               for n in (rows, cols)):
        raise SchemaError("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise SchemaError(f"entries must be a list of {rows} rows")
    parsed = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"row {i} must be a list of {cols} entries")
        parsed_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise SchemaError(
                    f"entry ({i},{j}) must be a scalar string")
            try:
                parsed_row.append(parse_scalar(cell))
            except (ParseError, DivisionByZero) as exc:
                raise SchemaError(
                    f"entry ({i},{j}): {exc}") from exc
        parsed.append(parsed_row)
    return Matrix(parsed)


def canonical_form(config):
    """Diagonal (or block upper-bidiagonal) matrix realizing the
    configured spectrum and block structure."""
    n = config.dim
    block_map = dict(config.jordan_blocks or ())
    rows = [[ZERO] * n for _ in range(n)]
    position = 0
    for value, mult in config.spectrum.pairs:
        sizes = block_map.get(value, (1,) * mult)
        for size in sorted(sizes, reverse=True):
            for k in range(size):
                col = position + k
                rows[col][col] = value
                if k:
                    rows[col - 1][col] = ONE
            position += size
    return Matrix.from_rows(rows)
