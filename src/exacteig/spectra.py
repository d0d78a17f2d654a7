"""Characteristic polynomials and exact eigenvalue bookkeeping.

The characteristic polynomial is computed monic as det(λI − A) by the
Faddeev–LeVerrier trace recursion — exact, with divisions only by the
integers 1..n, so no pivot-driven fraction growth. Root extraction over
ℚ(i) is a rational-root search with deflation plus quadratic resolution
of a degree-2 residual; anything deeper is reported as out of reach and
the caller must supply the spectrum (which `verify_spectrum` checks by
exact refactorization).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    InvalidSpectrum,
    IrrationalSpectrum,
    NotSquare,
    SpectrumTooLarge,
    WrongSpectrum,
)
from .matrices import matmul, subtract_scalar_diag, trace
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    Rational,
    format_rational,
    format_scalar,
    scalar_key,
    to_scalar,
)

__all__ = [
    "Polynomial",
    "Spectrum",
    "charpoly",
    "find_spectrum",
    "format_polynomial",
    "multiplicity_of",
    "shift_spectrum",
    "verify_spectrum",
]


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

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ZERO
            b = other.coeffs[i] if i < len(other.coeffs) else ZERO
            out.append(a + b)
        return Polynomial(out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return format_polynomial(self)


def format_polynomial(p, var="l"):
    """Deterministic text form, descending powers: ``"l^2 - 7*l + 10"``."""
    if p.is_zero():
        return "0"
    pieces = []
    for power in range(p.degree, -1, -1):
        c = p.coeffs[power]
        if not c:
            continue
        if power == 0:
            body = _coeff_text(c, bare_one=False)
            pieces.append(body if not pieces else _joined(body))
            continue
        var_part = var if power == 1 else f"{var}^{power}"
        body = _coeff_text(c, bare_one=True)
        if body in ("", "-"):
            term = f"{body}{var_part}"
        else:
            term = f"{body}*{var_part}"
        pieces.append(term if not pieces else _joined(term))
    return " ".join(pieces)


def _coeff_text(c, bare_one):
    """Coefficient text; empty string means an implicit 1 before a variable."""
    if c.is_real():
        r = c.re
        if bare_one and r == 1:
            return ""
        if bare_one and r == -1:
            return "-"
        return format_rational(r)
    return f"({format_scalar(c)})"


def _joined(term):
    """Convert a rendered term into ``+ term`` / ``- term`` for joining."""
    if term.startswith("-"):
        return f"- {term[1:]}"
    return f"+ {term}"


def charpoly(a, counter=None):
    """Exact monic characteristic polynomial det(λI − A).

    Faddeev–LeVerrier recursion: M₁ = A, c_{n−1} = −tr(M₁), then
    M_k = A·(M_{k−1} + c_{n−k+1}·I) and c_{n−k} = −tr(M_k)/k.
    """
    if not a.is_square:
        raise NotSquare("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = a
    c = -trace(m, counter)
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        m = matmul(a, subtract_scalar_diag(m, -c), counter)
        c = -(trace(m, counter) / k)
        if counter is not None:
            counter.tally(divs=1)
        coeffs[n - k] = c
    return Polynomial(coeffs)


def multiplicity_of(p, value):
    """Exact multiplicity of ``value`` as a root of ``p`` (0 if not a root)."""
    value = to_scalar(value)
    count = 0
    current = p
    while current.degree >= 1:
        quotient, remainder = current.deflate(value)
        if remainder:
            break
        count += 1
        current = quotient
    return count


class Spectrum:
    """Distinct eigenvalues with algebraic multiplicities, stored in
    canonical ascending order (by real part, then imaginary part)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        if isinstance(pairs, Spectrum):
            object.__setattr__(self, "pairs", pairs.pairs)
            return
        if isinstance(pairs, dict):
            pairs = pairs.items()
        cleaned = []
        for value, mult in pairs:
            value = to_scalar(value)
            if not isinstance(mult, int) or isinstance(mult, bool) \
                    or mult < 1:
                raise InvalidSpectrum(
                    f"multiplicity of {format_scalar(value)} must be a "
                    f"positive integer, got {mult!r}")
            cleaned.append((value, mult))
        cleaned.sort(key=lambda pair: scalar_key(pair[0]))
        for (v1, _), (v2, _) in zip(cleaned, cleaned[1:]):
            if v1 == v2:
                raise InvalidSpectrum(
                    f"eigenvalue {format_scalar(v1)} listed twice")
        if not cleaned:
            raise InvalidSpectrum("empty spectrum")
        object.__setattr__(self, "pairs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    @property
    def total(self):
        return sum(m for _, m in self.pairs)

    def values(self):
        return tuple(v for v, _ in self.pairs)

    def expanded(self):
        """Eigenvalues with repeats, ascending."""
        out = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return tuple(out)

    def multiplicity(self, value):
        value = to_scalar(value)
        for v, m in self.pairs:
            if v == value:
                return m
        return 0

    def __contains__(self, value):
        return self.multiplicity(value) > 0

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        body = ", ".join(f"{format_scalar(v)}:{m}" for v, m in self.pairs)
        return f"{{{body}}}"


def shift_spectrum(s, mu):
    """Spectrum of A − μI from the spectrum of A: each (λ, m) → (λ−μ, m)."""
    mu = to_scalar(mu)
    return Spectrum([(v - mu, m) for v, m in Spectrum(s).pairs])


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
    if product != charpoly(a):
        raise WrongSpectrum(
            "claimed eigenvalues do not factor the characteristic polynomial")
    return s


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
    discriminant is ±r² for rational r. A nonreal coefficient, or any
    residual of degree ≥ 3 (even one that happens to factor over ℚ(i)),
    raises IrrationalSpectrum: the caller supplies the spectrum instead.
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if any(c.im for c in p.coeffs):
        raise IrrationalSpectrum(
            "nonreal coefficients; supply the spectrum explicitly")

    coeffs = [Fraction(c.re.numerator, c.re.denominator) for c in p.coeffs]
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

    pairs = [(GaussianRational(Rational(r.numerator, r.denominator)), m)
             for r, m in found.items()]

    residual_degree = len(coeffs) - 1
    if residual_degree == 1:
        # unreachable in theory (a rational root would have been found);
        # resolve it anyway rather than trust the theory at runtime
        r = -coeffs[0]
        pairs.append((GaussianRational(Rational(r.numerator, r.denominator)), 1))
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
        r = -b / 2
        return [(GaussianRational(Rational(r.numerator, r.denominator)), 2)]
    if disc > 0:
        root = _fraction_sqrt(disc)
        if root is None:
            raise IrrationalSpectrum(
                "quadratic discriminant is not a perfect square; supply "
                "the spectrum explicitly")
        out = []
        for r in ((-b + root) / 2, (-b - root) / 2):
            out.append((GaussianRational(Rational(r.numerator, r.denominator)), 1))
        return out
    root = _fraction_sqrt(-disc)
    if root is None:
        raise IrrationalSpectrum(
            "quadratic roots are complex but not Gaussian rational; supply "
            "the spectrum explicitly")
    re = -b / 2
    im = root / 2
    re_part = Rational(re.numerator, re.denominator)
    im_part = Rational(im.numerator, im.denominator)
    return [
        (GaussianRational(re_part, -im_part), 1),
        (GaussianRational(re_part, im_part), 1),
    ]
