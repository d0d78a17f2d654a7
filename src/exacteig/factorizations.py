"""Diagonalization and its two classic payoffs: matrix powers and the
general solution of x′ = Ax.

Everything is exact. Diagonalization uses the product-extraction
eigenbasis; powers come from binary exponentiation alone, which needs
no spectrum and works for every square matrix; ODE solutions are
returned as structured symbolic terms (vector polynomial ×
exponential, optionally realified into cosine/sine pairs) together
with an exact checker that verifies a term satisfies the system by
comparing coefficients of the basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .charmatrix import is_diagonalizable, product_eigenvectors
from .errors import (
    InternalInconsistency,
    NotDiagonalizable,
    NotSquare,
    RealifyOnComplexMatrix,
)
from .jordan import build_chains
from .matrices import Matrix, Vector, inverse, matmul, matvec
from .scalars import ZERO, GaussianRational, Rational
from .spectra import resolve_spectrum

__all__ = [
    "Diagonalization",
    "OdeSolutionTerm",
    "TrigPart",
    "diagonalize",
    "matrix_power",
    "matrix_power_direct",
    "ode_general_solution",
    "ode_term_is_solution",
]


@dataclass(frozen=True)
class Diagonalization:
    """A = P·D·P⁻¹ with D diagonal; ``eigen_order`` lists the diagonal
    of D (eigenvalues ascending, repeated to multiplicity)."""

    p: Matrix
    d: Matrix
    p_inv: Matrix
    eigen_order: tuple


def diagonalize(a, s=None):
    """Exact eigendecomposition A = P·D·P⁻¹.

    With no spectrum given the eigenvalues are computed (raising
    IrrationalSpectrum when they escape exact representation). Raises
    NotDiagonalizable — carrying the nonzero shifted-matrix product as
    a witness — when some eigenspace is too small. The reconstruction
    is verified exactly before returning.
    """
    if not a.is_square:
        raise NotSquare("diagonalization needs a square matrix")
    s = resolve_spectrum(a, s)
    ok, witness = is_diagonalizable(a, s)
    if not ok:
        raise NotDiagonalizable(
            "an eigenspace is smaller than its algebraic multiplicity",
            witness=witness)
    columns = []
    order = []
    for value, mult in s.pairs:
        vectors = product_eigenvectors(a, s, value)
        if len(vectors) != mult:
            raise InternalInconsistency(
                "diagonalizable matrix yielded a short eigenbasis")
        columns.extend(vectors)
        order.extend([value] * mult)
    p = Matrix.from_columns(columns)
    d = Matrix.diagonal(order)
    p_inv = inverse(p)
    if matmul(matmul(p, d), p_inv) != a:
        raise InternalInconsistency("decomposition check P*D*P^-1 == A failed")
    return Diagonalization(p, d, p_inv, tuple(order))


def matrix_power(a, exponent, s=None):
    """Aᵏ by binary exponentiation (exact, works for any square A).

    ``s`` is accepted for call compatibility and ignored: the power
    needs no spectrum.
    """
    if not a.is_square:
        raise NotSquare("matrix power needs a square matrix")
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Matrix.identity(a.rows)
    base = a
    e = exponent
    while e:
        if e & 1:
            result = matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return result


matrix_power_direct = matrix_power


@dataclass(frozen=True)
class TrigPart:
    """Trigonometric half of a realified solution term.

    ``kind`` is ``"cos"`` for the cosine-led combination
    e^{αt}·Σⱼ (vⱼ·cos βt − wⱼ·sin βt)·t^{pⱼ}/dⱼ and ``"sin"`` for the
    sine-led partner e^{αt}·Σⱼ (wⱼ·cos βt + vⱼ·sin βt)·t^{pⱼ}/dⱼ, where
    vⱼ come from the term's vector polynomial and wⱼ from
    ``partner_vectors`` (aligned index by index)."""

    kind: str
    beta: Rational
    partner_vectors: tuple


@dataclass(frozen=True)
class OdeSolutionTerm:
    """One independent solution of x′ = Ax, as structured data.

    Without ``trig_part`` the term means
    X(t) = (Σⱼ vⱼ·t^{pⱼ}/dⱼ)·e^{λt}, where ``vector_polynomial`` holds
    the triples (vⱼ, pⱼ, dⱼ) — vector, power of t, integer divisor
    (the factorial of the power). With ``trig_part`` the exponent is the
    real part α and the meaning is the cosine/sine combination described
    on :class:`TrigPart`. The general solution is the sum of all terms,
    each multiplied by its free constant ``coefficient_label``."""

    coefficient_label: str
    vector_polynomial: tuple
    exponent: GaussianRational
    trig_part: TrigPart | None = None


def ode_general_solution(a, s=None, realify=None):
    """Complete independent solution set of the linear system x′ = Ax.

    Each Jordan chain x₁…x_m for eigenvalue λ contributes the m
    solutions X_k(t) = (Σ_{i=1..k} x_i·t^{k−i}/(k−i)!)·e^{λt}. For a
    real matrix (``realify`` defaults to true then) each conjugate pair
    of nonreal eigenvalues is replaced by real cosine/sine pairs built
    from the chains of the eigenvalue with positive imaginary part.
    Asking for realification on a matrix with nonreal entries raises
    RealifyOnComplexMatrix. Always returns exactly n terms, labelled
    c1..cn.
    """
    if not a.is_square:
        raise NotSquare("the system matrix must be square")
    all_real = all(
        not a.entry(i, j).im for i in range(a.rows) for j in range(a.cols))
    if realify is None:
        realify = all_real
    elif realify and not all_real:
        raise RealifyOnComplexMatrix(
            "cannot realify solutions of a matrix with nonreal entries")
    s = resolve_spectrum(a, s)
    terms = []

    def next_label():
        return f"c{len(terms) + 1}"

    for value, mult in s.pairs:
        if realify and value.im:
            if value.im < 0:
                continue  # covered by its conjugate partner
            if s.multiplicity(value.conjugate()) != mult:
                raise InternalInconsistency(
                    "conjugate eigenvalues of a real matrix differ in "
                    "multiplicity")
            alpha = GaussianRational(value.re)
            beta = value.im
            for chain in build_chains(a, value):
                for k in range(1, chain.size + 1):
                    poly = []
                    partners = []
                    for i in range(1, k + 1):
                        vec = chain.vectors[i - 1]
                        poly.append((vec.re, k - i, factorial(k - i)))
                        partners.append(vec.im)
                    for kind in ("cos", "sin"):
                        terms.append(OdeSolutionTerm(
                            next_label(), tuple(poly), alpha,
                            TrigPart(kind, beta, tuple(partners))))
        else:
            for chain in build_chains(a, value):
                for k in range(1, chain.size + 1):
                    poly = tuple(
                        (chain.vectors[i - 1], k - i, factorial(k - i))
                        for i in range(1, k + 1))
                    terms.append(OdeSolutionTerm(next_label(), poly, value))
    if len(terms) != a.rows:
        raise InternalInconsistency(
            "solution count does not match the system dimension")
    return terms


def _coefficient_table(term, n):
    """Map power → (cos-coefficient vector, sin-coefficient vector).

    For a plain term the cosine slot holds the coefficient of
    t^p·e^{λt} and the sine slot stays zero."""
    table = {}
    zero = Vector([ZERO] * n)
    if term.trig_part is None:
        for vec, power, divisor in term.vector_polynomial:
            scaled = vec.scaled(Rational(1, divisor))
            cos_part, sin_part = table.get(power, (zero, zero))
            table[power] = (cos_part + scaled, sin_part)
        return table
    lead = term.vector_polynomial
    partners = term.trig_part.partner_vectors
    for (vec, power, divisor), partner in zip(lead, partners):
        inv = Rational(1, divisor)
        v_scaled = vec.scaled(inv)
        w_scaled = partner.scaled(inv)
        cos_part, sin_part = table.get(power, (zero, zero))
        if term.trig_part.kind == "cos":
            table[power] = (cos_part + v_scaled, sin_part - w_scaled)
        else:
            table[power] = (cos_part + w_scaled, sin_part + v_scaled)
    return table


def ode_term_is_solution(a, term):
    """Exact check that a structured term satisfies x′ = Ax.

    Differentiates the term symbolically and compares coefficients of
    the functions t^p·e^{λt} (plain) or t^p·e^{αt}·cos βt / sin βt
    (realified), which are linearly independent — so the check is
    equivalent to the identity and still purely rational arithmetic.
    """
    n = a.rows
    table = _coefficient_table(term, n)
    if not table:
        return False
    zero = Vector([ZERO] * n)
    max_power = max(table)
    lam = term.exponent
    if term.trig_part is None:
        for p in range(max_power + 1):
            cos_p = table.get(p, (zero, zero))[0]
            cos_up = table.get(p + 1, (zero, zero))[0]
            derivative = cos_up.scaled(p + 1) + cos_p.scaled(lam)
            if matvec(a, cos_p) != derivative:
                return False
        return True
    alpha = lam
    beta = GaussianRational(term.trig_part.beta)
    for p in range(max_power + 1):
        cos_p, sin_p = table.get(p, (zero, zero))
        cos_up, sin_up = table.get(p + 1, (zero, zero))
        cos_rhs = cos_up.scaled(p + 1) + cos_p.scaled(alpha) + sin_p.scaled(beta)
        sin_rhs = sin_up.scaled(p + 1) + sin_p.scaled(alpha) - cos_p.scaled(beta)
        if matvec(a, cos_p) != cos_rhs or matvec(a, sin_p) != sin_rhs:
            return False
    return True
