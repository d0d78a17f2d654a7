"""Diagonalization and its two classic payoffs: matrix powers and the
general solution of x′ = Ax.

Everything is exact. Diagonalization uses the product-extraction
eigenbasis; powers come from binary exponentiation, which needs no
spectrum and works for every square matrix, or, for large exponents
while a Jordan decomposition of the matrix is held, from that
decomposition as (P·Jᵏ)·P⁻¹ in one product; ODE solutions are
returned as structured symbolic terms (vector polynomial ×
exponential, optionally realified into cosine/sine pairs) together
with an exact checker that verifies a term satisfies the system by
comparing coefficients of the basis functions.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial

from .charmatrix import is_diagonalizable
from .errors import (
    InternalInconsistency,
    NotDiagonalizable,
    NotSquare,
    RealifyOnComplexMatrix,
)
from .jordan import (_block_ones, _decomposition, _held_decomposition,
                     _jordan_basis)
from .matrices import Record, Vector, _power, _times_diagonal, matmul, matvec
from .scalars import ZERO, GaussianRational, Rational
from .spectra import _eigenvalue_parts, resolve_spectrum

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


class Diagonalization(Record):
    """A = P·D·P⁻¹ with D diagonal; ``eigen_order`` lists the diagonal
    of D (eigenvalues ascending, repeated to multiplicity)."""

    __slots__ = ("p", "d", "p_inv", "eigen_order")


def diagonalize(a, s=None):
    """Exact eigendecomposition A = P·D·P⁻¹.

    With no spectrum given the eigenvalues are computed (raising
    IrrationalSpectrum when they escape exact representation). Raises
    NotDiagonalizable — carrying the nonzero shifted-matrix product as
    a witness — when some eigenspace is too small: the verdict of
    ``is_diagonalizable`` comes first, which is cheaper than the
    eigenbases on a defective matrix. P, D (J with 1×1 blocks) and P⁻¹
    then come from the routine of ``jordan_form``, whose P is the
    eigenvector matrix that ``eigensystem`` keeps on ``a``, found by it
    when not kept.
    """
    if not a.is_square:
        raise NotSquare("diagonalization needs a square matrix")
    s = resolve_spectrum(a, s)
    ok, witness = is_diagonalizable(a, s)
    if not ok:
        raise NotDiagonalizable(
            "an eigenspace is smaller than its algebraic multiplicity",
            witness=witness)
    return Diagonalization(*_decomposition(a, s), s.expanded())


def matrix_power(a, exponent, s=None):
    """Aᵏ, exact, for any square A.

    Binary exponentiation takes ⌊log₂ k⌋ + popcount(k) − 1 products.
    From ``_ROUTE_PRODUCTS`` of them on, while a ``jordan_form`` or
    ``diagonalize`` result of ``a`` holds the P⁻¹ checked for the Jordan
    basis that ``a`` keeps, Aᵏ = (P·Jᵏ)·P⁻¹ is read off that
    decomposition in one product instead (Higham, *Functions of
    Matrices*, §1.2), with Jᵏ applied to P's columns on the planes.
    Its J is that of the spectrum that the kept characteristic
    polynomial recorded, read off its key as ints. Every other call is
    ``matrix_power_direct``, so a fresh matrix needs no spectrum. ``s``
    is accepted for call compatibility and ignored.
    """
    _check_power(a, exponent)
    if exponent.bit_length() + exponent.bit_count() - 2 >= _ROUTE_PRODUCTS:
        held = _held_decomposition(a)
        if held is not None:
            p, sizes, p_inv = held
            p_j = _times_diagonal(p, _eigenvalue_parts(a),
                                  _block_ones(sizes), exponent)
            return matmul(p_j, p_inv)
    return _power(a, exponent)


# The products of binary exponentiation from which a held decomposition
# is cheaper at every n: in-process timings of both routes on corpus
# (n = 2-5) and ladder (n = 6-12) recipe matrices, recorded in
# BENCH_38.json (at 3 products the route is still slower at n = 2, 3).
_ROUTE_PRODUCTS = 4


def matrix_power_direct(a, exponent):
    """Aᵏ by binary exponentiation alone (exact, works for any square A,
    needs no spectrum): ⌊log₂ k⌋ squarings and popcount(k) − 1 further
    products."""
    _check_power(a, exponent)
    return _power(a, exponent)


def _check_power(a, exponent):
    if not a.is_square:
        raise NotSquare("matrix power needs a square matrix")
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")


class TrigPart(Record):
    """Trigonometric half of a realified solution term.

    ``kind`` is ``"cos"`` for the cosine-led combination
    e^{αt}·Σⱼ (vⱼ·cos βt − wⱼ·sin βt)·t^{pⱼ}/dⱼ and ``"sin"`` for the
    sine-led partner e^{αt}·Σⱼ (wⱼ·cos βt + vⱼ·sin βt)·t^{pⱼ}/dⱼ, where
    vⱼ come from the term's vector polynomial and wⱼ from
    ``partner_vectors`` (aligned index by index)."""

    __slots__ = ("kind", "beta", "partner_vectors")


class OdeSolutionTerm(Record):
    """One independent solution of x′ = Ax, as structured data.

    Without ``trig_part`` the term means
    X(t) = (Σⱼ vⱼ·t^{pⱼ}/dⱼ)·e^{λt}, where ``vector_polynomial`` holds
    the triples (vⱼ, pⱼ, dⱼ) — vector, power of t, integer divisor
    (the factorial of the power). With ``trig_part`` the exponent is the
    real part α and the meaning is the cosine/sine combination described
    on :class:`TrigPart`. The general solution is the sum of all terms,
    each multiplied by its free constant ``coefficient_label``."""

    __slots__ = ("coefficient_label", "vector_polynomial", "exponent",
                 "trig_part")
    _defaults = {"trig_part": None}


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

    The chains are the columns of the certified Jordan basis P that
    ``a`` keeps, cut by its block sizes.
    """
    if not a.is_square:
        raise NotSquare("the system matrix must be square")
    if realify is None:
        realify = a.is_real()
    elif realify and not a.is_real():
        raise RealifyOnComplexMatrix(
            "cannot realify solutions of a matrix with nonreal entries")
    s = resolve_spectrum(a, s)
    p, sizes = _jordan_basis(a, s)
    order = s.expanded()
    terms = []
    for start, size in zip(accumulate(sizes, initial=0), sizes):
        value = order[start]
        trig = realify and value.im
        if trig and value.im < 0:
            continue  # covered by its conjugate partner
        vectors = [p.column(j) for j in range(start, start + size)]
        for k in range(1, size + 1):
            poly = tuple((vectors[i - 1], k - i, factorial(k - i))
                         for i in range(1, k + 1))
            if not trig:
                terms.append(OdeSolutionTerm(
                    f"c{len(terms) + 1}", poly, value))
                continue
            # the realified pair splits the plain term's vectors
            lead = tuple((vec.re, power, divisor)
                         for vec, power, divisor in poly)
            partners = tuple(vec.im for vec, _, _ in poly)
            for kind in ("cos", "sin"):
                terms.append(OdeSolutionTerm(
                    f"c{len(terms) + 1}", lead, GaussianRational(value.re),
                    TrigPart(kind, value.im, partners)))
    if len(terms) != a.rows:
        raise InternalInconsistency(
            "solution count does not match the system dimension")
    return terms


def _coefficient_table(term, n):
    """Map power → (cos-coefficient vector, sin-coefficient vector).

    A plain term reads as the cosine half of a pair with zero partner
    vectors: the cosine slot holds the coefficient of t^p·e^{λt} and the
    sine slot stays zero."""
    table = {}
    zero = Vector([ZERO] * n)
    lead, trig = term.vector_polynomial, term.trig_part
    partners = trig.partner_vectors if trig else [zero] * len(lead)
    cosine = trig is None or trig.kind == "cos"
    for (vec, power, divisor), partner in zip(lead, partners):
        inv = Rational(1, divisor)
        v_scaled = vec.scaled(inv)
        w_scaled = partner.scaled(inv)
        cos_part, sin_part = table.get(power, (zero, zero))
        if cosine:
            table[power] = (cos_part + v_scaled, sin_part - w_scaled)
        else:
            table[power] = (cos_part + w_scaled, sin_part + v_scaled)
    return table


def ode_term_is_solution(a, term):
    """Exact check that a structured term satisfies x′ = Ax.

    Differentiates the term symbolically and compares coefficients of
    the functions t^p·e^{αt}·cos βt and t^p·e^{αt}·sin βt, which are
    linearly independent — so the check is equivalent to the identity
    and still purely rational arithmetic. A plain term is the case
    α = λ, β = 0, whose sine equations read 0 = 0; an equation whose two
    sides are both zero like that is not formed.
    """
    n = a.rows
    table = _coefficient_table(term, n)
    if not table:
        return False
    zero = Vector([ZERO] * n)
    alpha = term.exponent
    beta = GaussianRational(term.trig_part.beta) if term.trig_part else ZERO
    for p in range(max(table) + 1):
        cos_p, sin_p = table.get(p, (zero, zero))
        cos_up, sin_up = table.get(p + 1, (zero, zero))
        equations = [(cos_p, cos_up.scaled(p + 1) + cos_p.scaled(alpha)
                      + sin_p.scaled(beta))]
        if beta or not (sin_p.is_zero() and sin_up.is_zero()):
            equations.append((sin_p, sin_up.scaled(p + 1)
                              + sin_p.scaled(alpha) - cos_p.scaled(beta)))
        if any(matvec(a, x) != rhs for x, rhs in equations):
            return False
    return True
