"""Characteristic polynomials and exact eigenvalue bookkeeping.

The characteristic polynomial is computed monic as det(λI − A) by the
Faddeev–LeVerrier trace recursion — exact, with divisions only by the
integers 1..n, so no pivot-driven fraction growth.

Root extraction works on the primitive integer multiple of the
polynomial. Its rational roots come from p-adic lifting (Loos 1983):
the roots of the square-free part modulo the first prime where they are
all simple, lifted by Newton–Hensel steps past twice a Cauchy bound on
the roots, each candidate then confirmed by exact integer division,
which also counts its multiplicity. The cost is polynomial in the degree
and the coefficient digits. A degree-2 residual is resolved by its
discriminant. Nonreal coefficients and residuals of degree ≥ 3 (even
ones that split over ℚ(i)) are reported as out of reach and the caller
must supply the spectrum (which `verify_spectrum` checks by exact
refactorization).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    InvalidSpectrum,
    IrrationalSpectrum,
    NotSquare,
    SpectrumTooLarge,
    WrongSpectrum,
)
from .matrices import _tally, matmul, subtract_scalar_diag, trace
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
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
    "resolve_spectrum",
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


def charpoly(a):
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
    c = -trace(m)
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        m = matmul(a, subtract_scalar_diag(m, -c))
        c = -(trace(m) / k)
        _tally(divs=1)
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


def resolve_spectrum(a, s):
    """The spectrum of ``a``: found exactly when ``s`` is None (raising
    IrrationalSpectrum when it escapes ℚ(i)), else ``s`` verified against
    ``a``. Either way one characteristic polynomial is computed."""
    if s is None:
        return find_spectrum(charpoly(a))
    return verify_spectrum(a, s)


def _fraction_sqrt(f):
    """Exact square root of a nonnegative Fraction, or None."""
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def find_spectrum(p):
    """Complete exact factorization of a monic real-rational polynomial
    over ℚ(i), or IrrationalSpectrum when roots escape it.

    The rational roots come from one p-adic search (`_root_candidates`)
    on the primitive integer multiple of ``p``; each candidate u/v is
    kept only when an exact division by (vλ − u) confirms it, and the
    repeated divisions give its multiplicity. The cost is polynomial in
    the degree and the coefficient digits, so eigenvalue size does not
    limit it. A remaining quadratic factor is resolved exactly when its
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

    coeffs = [c.re for c in p.coeffs]
    scale = lcm(*(c.denominator for c in coeffs))
    f = _primitive([c.numerator * (scale // c.denominator) for c in coeffs])
    found = []

    zero_mult = 0
    while len(f) > 1 and f[0] == 0:
        f = f[1:]
        zero_mult += 1
    if zero_mult:
        found.append((ZERO, zero_mult))

    if len(f) > 1:
        for u, v in _root_candidates(f):
            mult = 0
            while len(f) > 1:
                quotient = _divide(f, [-u, v])
                if quotient is None:
                    break
                f = quotient
                mult += 1
            if mult:
                found.append((GaussianRational(Fraction(u, v)), mult))
            if len(f) == 1:
                break

    residual_degree = len(f) - 1
    if residual_degree == 1:
        # unreachable in theory (a rational root would have been found);
        # resolve it anyway rather than trust the theory at runtime
        found.append((GaussianRational(Fraction(-f[0], f[1])), 1))
    elif residual_degree == 2:
        found.extend(_resolve_quadratic(Fraction(f[1], f[2]),
                                        Fraction(f[0], f[2])))
    elif residual_degree >= 3:
        raise IrrationalSpectrum(
            f"residual factor of degree {residual_degree} has no rational "
            "roots; supply the spectrum explicitly")

    spectrum = Spectrum(found)
    if spectrum.total != p.degree:
        raise IrrationalSpectrum("factorization incomplete")
    return spectrum


# -- rational roots by p-adic lifting ----------------------------------------
#
# Integer polynomials are coefficient lists in ascending order with a
# nonzero last entry. Loos (1983), "Computing rational zeros of integral
# polynomials by p-adic expansion"; von zur Gathen & Gerhard, Modern
# Computer Algebra, ch. 15.

def _root_candidates(f):
    """Every rational root u/v (lowest terms, v > 0) of the integer
    polynomial ``f`` of degree ≥ 1, among at most deg f candidates.

    The square-free part h of f, with leading coefficient a, maps to the
    monic G(y) = a^(d−1)·h(y/a), whose integer roots y = a·r are the
    rational roots r of h; each has |y| ≤ B = 1 + max|Gₖ| (Cauchy). For
    the first prime p modulo which every root of G is simple (all but
    the finitely many primes dividing the discriminant of G qualify),
    each root mod p lifts uniquely by Newton–Hensel steps to the modulus
    p^(2^j) > 2B, where the symmetric residue is y itself. Roots mod p
    that do not come from an integer root lift to spurious candidates,
    which the caller's exact division rejects.
    """
    h = _divide(f, _gcd(f, _derivative(f)))
    a = h[-1]
    g = [1]
    power = 1
    for c in reversed(h[:-1]):
        g.append(c * power)
        power *= a
    g.reverse()
    slope = _derivative(g)
    bound = 2 * (1 + max(abs(c) for c in g[:-1]))
    for prime in _primes():
        roots = [x for x in range(prime) if not _eval_mod(g, x, prime)]
        if all(_eval_mod(slope, x, prime) for x in roots):
            break
    candidates = []
    for root in roots:
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            step = _eval_mod(g, root, modulus) * pow(
                _eval_mod(slope, root, modulus), -1, modulus)
            root = (root - step) % modulus
        y = root - modulus if 2 * root > modulus else root
        common = gcd(y, a)
        candidates.append((y // common, a // common))
    return candidates


def _eval_mod(g, x, modulus):
    """g(x) mod ``modulus`` by Horner's rule."""
    value = 0
    for c in reversed(g):
        value = (value * x + c) % modulus
    return value


def _primitive(f):
    """``f`` divided by its content, with a positive leading coefficient."""
    content = gcd(*f)
    if f[-1] < 0:
        content = -content
    return f if content == 1 else [c // content for c in f]


def _derivative(f):
    return [k * f[k] for k in range(1, len(f))]


def _gcd(f, g):
    """Primitive greatest common divisor of two nonzero integer
    polynomials, by primitive pseudo-remainder sequence."""
    while len(g) > 1:
        rest = list(f)
        lead, top = g[-1], len(g) - 1
        while len(rest) > top:
            c = rest.pop()
            shift = len(rest) - top
            rest = [lead * x for x in rest]
            for i in range(top):
                rest[shift + i] -= c * g[i]
            while rest and not rest[-1]:
                rest.pop()
        if not rest:
            return _primitive(g)
        f, g = g, _primitive(rest)
    return [1]


def _divide(f, g):
    """f / g when the integer polynomial ``g`` divides ``f`` in ℤ[λ],
    else None. For a primitive g = vλ − u that is exactly when u/v is a
    root of f (Gauss's lemma)."""
    top = len(g) - 1
    rest = list(f)
    quotient = [0] * (len(f) - top)
    for k in range(len(quotient) - 1, -1, -1):
        c, remainder = divmod(rest[k + top], g[-1])
        if remainder:
            return None
        quotient[k] = c
        for i in range(top):
            rest[k + i] -= c * g[i]
    if any(rest[:top]):
        return None
    return quotient


def _primes():
    """2, 3, 5, 7, … by trial division, generated on demand."""
    return (n for n in itertools.count(2)
            if all(n % d for d in range(2, isqrt(n) + 1)))


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
