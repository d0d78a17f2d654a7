"""Characteristic polynomials and exact eigenvalue bookkeeping.

A :class:`Polynomial` holds, like a ``Matrix``, only ints: a positive
common denominator over Gaussian-integer numerators. One exact
division on them, deflation by λ − r, serves evaluation, multiplicity
counts and spectrum verification. The root finder works on bare integer
coefficient lists instead and builds no polynomial.

The characteristic polynomial is computed monic as det(λI − A) by the
Samuelson–Berkowitz recurrence on the integer numerators of A
(``matrices._charpoly_numerators``): vector–matrix products and a
Toeplitz product per trailing block, with no division at all, so no
scalar is built until the polynomial is, and no pivot-driven fraction
growth occurs. It is computed once per matrix: the ``Matrix`` keeps
it, and the polynomial keeps a key of the spectrum verified against it
(or found by ``find_spectrum``), so a spectrum is deflated once per
matrix and its transpose, and a repeat check is one comparison. Both
facts are exact and live only on the matrix and its polynomial.

Root extraction works on the coefficient list of the primitive integer
multiple of the polynomial. While that has degree ≥ 3, its rational
roots come from p-adic lifting (Loos 1983): the roots of the square-free
part modulo the first prime where they are all simple, lifted by
Newton–Hensel steps past twice a Cauchy bound on the roots, each
candidate then confirmed by exact integer quotients, which also count
its multiplicity. The cost is polynomial in the degree and the
coefficient digits. A residual of degree ≤ 2 is solved by formula: a
linear one as −f₀/f₁, a quadratic one by its discriminant, so a 2×2
matrix needs no search at all. Nonreal coefficients and residuals of
degree ≥ 3 (even ones that split over ℚ(i)) are reported as out of
reach and the caller must supply the spectrum (which `verify_spectrum`
checks by deflating the characteristic polynomial by each claimed
eigenvalue).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    InternalInconsistency,
    InvalidSpectrum,
    IrrationalSpectrum,
    NotSquare,
    SpectrumTooLarge,
    WrongSpectrum,
)
from .matrices import _charpoly_numerators
from .scalars import (
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
    """Dense univariate polynomial over ℚ(i), built from its exact
    coefficients in ascending order.

    Coefficient k is (``_reals[k]`` + ``_imags[k]``·i) / ``_denom``,
    stored canonical like a ``Matrix``: gcd 1 and no trailing zero
    coefficient (the zero polynomial keeps one). Scalars are built only
    when read (``coeffs``, ``leading``, ``p(x)``). Deflation by λ − r is
    the one division: ``deflate``, evaluation, ``multiplicity_of`` and
    ``verify_spectrum`` use it; ``find_spectrum`` works on the integer
    coefficient list and divides that. ``_factored`` holds the key of the
    spectrum found for, or verified against, the polynomial (unset until
    then); it takes no part in ``==`` or ``hash``.
    """

    __slots__ = ("_denom", "_reals", "_imags", "_factored")

    def __init__(self, coeffs):
        parts = [(c.re, c.im) for c in map(to_scalar, coeffs)]
        # a list: generator-built tuples fill CPython's tuple free lists
        den = lcm(*[x.denominator for pair in parts for x in pair])
        _store(self, den,
               [r.numerator * (den // r.denominator) for r, _ in parts],
               [i.numerator * (den // i.denominator) for _, i in parts])

    @classmethod
    def _make(cls, den, re, im):
        """(re + im·i) / den from numerator lists, which it takes over."""
        return _store(object.__new__(cls), den, re, im)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial._make, (self._denom, list(self._reals),
                                  list(self._imags))

    @property
    def coeffs(self):
        den = self._denom
        return tuple([_coefficient(x, y, den)
                      for x, y in zip(self._reals, self._imags)])

    @property
    def degree(self):
        return len(self._reals) - 1

    @property
    def leading(self):
        return _coefficient(self._reals[-1], self._imags[-1], self._denom)

    @property
    def is_monic(self):
        return self._reals[-1] == self._denom and not self._imags[-1]

    def is_zero(self):
        return self._reals == (0,) and self._imags == (0,)

    def __call__(self, x):
        den, _, _, re, im = _deflation(self, to_scalar(x))
        return _coefficient(re, im, den)

    def deflate(self, root):
        """Synthetic division by (λ − root): returns (quotient, remainder)."""
        den, q_re, q_im, re, im = _deflation(self, to_scalar(root))
        return Polynomial._make(den, q_re, q_im), _coefficient(re, im, den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        re = [0] * (len(self._reals) + len(other._reals) - 1)
        im = list(re)
        for i, (a, b) in enumerate(zip(self._reals, self._imags)):
            for j, (c, d) in enumerate(zip(other._reals, other._imags), i):
                re[j] += a * c - b * d
                im[j] += a * d + b * c
        return Polynomial._make(self._denom * other._denom, re, im)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self._denom, self._reals, self._imags) == \
            (other._denom, other._reals, other._imags)

    def __hash__(self):
        return hash((self._denom, self._reals, self._imags))

    def __repr__(self):
        return format_polynomial(self)


def _coefficient(re, im, den):
    """The scalar (re + im·i) / den."""
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _store(p, den, re, im):
    """Store (re + im·i) / den in ``p`` in canonical form; return ``p``."""
    while len(re) > 1 and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    g = gcd(den, *re, *im) if den != 1 else 1
    if g != 1:
        den //= g
        re = [x // g for x in re]
        im = [y // g for y in im]
    object.__setattr__(p, "_denom", den)
    object.__setattr__(p, "_reals", tuple(re) or (0,))
    object.__setattr__(p, "_imags", tuple(im) or (0,))
    return p


def format_polynomial(p, var="l"):
    """Deterministic text form, descending powers: ``"l^2 - 7*l + 10"``."""
    return _polynomial_text(p.coeffs, var)


def _polynomial_text(coeffs, var="l"):
    """``format_polynomial`` of the polynomial with the coefficients
    ``coeffs``, ascending and with no trailing zero."""
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
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
    return " ".join(pieces) or "0"


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
    """Exact monic characteristic polynomial det(λI − A), computed once
    per matrix: ``a`` keeps it.

    Samuelson–Berkowitz recurrence on the integer numerators N of
    A = N/d (``matrices._charpoly_numerators``): from the trailing 1×1
    block up, the coefficients of det(λI − N₁) times the Toeplitz matrix
    of (1, −a, −R·C, −R·N₁·C, …) give those of the block [[a, R], [C, N₁]],
    without a division; the coefficient of λ^k is c_k·d^k/dⁿ.
    """
    p = getattr(a, "_charpoly", None)
    if p is None:
        p = _characteristic_polynomial(a)
        a._remember("_charpoly", p)
    return p


def _characteristic_polynomial(a):
    if not a.is_square:
        raise NotSquare("characteristic polynomial needs a square matrix")
    return Polynomial._make(*_charpoly_numerators(a))


def _deflation(p, root):
    """Synthetic division of ``p`` by (λ − ``root``) on the numerators:
    (den, q_re, q_im, re, im), the quotient's numerator lists and the
    remainder p(root)'s over the common denominator ``den``.

    With root = (u + v·i)/w and the numerators cₖ of p over d, Horner's
    step x ← cₖ·w^(n−k) + (u + v·i)·x stays in ℤ[i]. Before step k, x
    over d·w^(n−k−1) is the quotient coefficient of λᵏ; after the last
    step, x over d·wⁿ is the remainder.
    """
    re, im = root.re, root.im
    w = lcm(re.denominator, im.denominator)
    u = re.numerator * (w // re.denominator)
    v = im.numerator * (w // im.denominator)
    c_re, c_im, n = p._reals, p._imags, len(p._reals) - 1
    powers = [w ** k for k in range(n + 1)]
    x, y = c_re[n], c_im[n]
    q_re, q_im = [0] * n, [0] * n
    for k in reversed(range(n)):
        # over the common denominator d·wⁿ
        q_re[k], q_im[k] = x * powers[k + 1], y * powers[k + 1]
        scale = powers[n - k]
        x, y = c_re[k] * scale + u * x - v * y, \
            c_im[k] * scale + u * y + v * x
    return p._denom * powers[n], q_re, q_im, x, y


def multiplicity_of(p, value):
    """Exact multiplicity of ``value`` as a root of ``p`` (0 if not a root)."""
    return _deflated(p, to_scalar(value))[1]


def _deflated(p, root):
    """(p / (λ − root)ᵏ, k) for the largest k that leaves remainder zero;
    the quotient of the division that leaves a remainder is not built."""
    count = 0
    while p.degree >= 1:
        den, q_re, q_im, x, y = _deflation(p, root)
        if x or y:
            break
        p, count = Polynomial._make(den, q_re, q_im), count + 1
    return p, count


class Spectrum:
    """Distinct eigenvalues with algebraic multiplicities, stored in
    canonical ascending order (by real part, then imaginary part).

    ``_key`` is the same spectrum as one flat tuple of ints: per
    eigenvalue the numerator and denominator of each part, then the
    multiplicity. A characteristic polynomial keeps it for the spectrum
    verified against it, which is far smaller than the scalars."""

    __slots__ = ("pairs", "_key")

    def __init__(self, pairs):
        if isinstance(pairs, Spectrum):
            object.__setattr__(self, "pairs", pairs.pairs)
            object.__setattr__(self, "_key", pairs._key)
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
        _set_pairs(self, cleaned)

    @classmethod
    def _of_distinct(cls, found):
        """The spectrum of ``found``, a non-empty dict of distinct
        ``GaussianRational`` eigenvalues to positive int multiplicities,
        as ``find_spectrum`` builds it: sorted, and not checked again."""
        self = object.__new__(cls)
        _set_pairs(self, sorted(found.items(),
                                key=lambda pair: (pair[0].re, pair[0].im)))
        return self

    @classmethod
    def _of_key(cls, key):
        """The spectrum whose ``_key`` is ``key``, one that a polynomial
        recorded, rebuilt without sorting or checking it again."""
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", tuple([
            (GaussianRational._make(Fraction(*key[k:k + 2]),
                                    Fraction(*key[k + 2:k + 4])), key[k + 4])
            for k in range(0, len(key), 5)]))
        object.__setattr__(self, "_key", key)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    def __reduce__(self):
        return Spectrum, (self.pairs,)

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


def _set_pairs(s, pairs):
    """Store the sorted, checked ``pairs`` in the spectrum ``s``, with
    their key."""
    object.__setattr__(s, "pairs", tuple(pairs))
    object.__setattr__(s, "_key", tuple([
        x for v, m in pairs for x in (v.re.numerator, v.re.denominator,
                                      v.im.numerator, v.im.denominator, m)]))


def shift_spectrum(s, mu):
    """Spectrum of A − μI from the spectrum of A: each (λ, m) → (λ−μ, m)."""
    mu = to_scalar(mu)
    return Spectrum([(v - mu, m) for v, m in Spectrum(s).pairs])


def verify_spectrum(a, claimed):
    """Validate a claimed spectrum against a matrix: each claimed
    eigenvalue must divide the characteristic polynomial exactly as often
    as its multiplicity. The polynomial records the spectrum that passed,
    or that ``find_spectrum`` found, so checking it again, on any matrix
    that shares the polynomial, costs a comparison after the shape checks."""
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
    p = charpoly(a)
    if getattr(p, "_factored", None) != s._key and _multiplicities(
            p, s.values()) != [m for _, m in s.pairs]:
        raise WrongSpectrum(
            "claimed eigenvalues do not factor the characteristic "
            "polynomial")
    return s


def _multiplicities(p, values):
    """The multiplicity in ``p`` of each distinct value, deflating p by
    each once; when they make up its degree, ``p`` records that spectrum."""
    rest, mults = p, []
    for value in values:
        rest, count = _deflated(rest, value)
        mults.append(count)
    if all(mults) and sum(mults) == p.degree:
        object.__setattr__(p, "_factored", Spectrum._of_distinct(
            dict(zip(values, mults)))._key)
    return mults


def resolve_spectrum(a, s):
    """The spectrum of ``a``: found exactly when ``s`` is None (raising
    IrrationalSpectrum when it escapes ℚ(i)), else ``s`` verified against
    ``a``. Either way ``a`` keeps its characteristic polynomial, which
    keeps the spectrum, so later calls on ``a`` compute neither again."""
    if s is None:  # found spectra are recorded, so not divided again
        s = find_spectrum(charpoly(a))
    return verify_spectrum(a, s)


def _eigenvalue_parts(a):
    """The parts (re numerator, re denominator, im numerator, im
    denominator) of each eigenvalue of ``a``, ascending and repeated to
    multiplicity: ints read off the key of the spectrum that the kept
    characteristic polynomial recorded when it was found or verified,
    with no scalar built."""
    key = charpoly(a)._factored
    return [key[k:k + 4] for k in range(0, len(key), 5)
            for _ in range(key[k + 4])]


def find_spectrum(p):
    """Complete exact factorization of a monic polynomial, real-rational
    from degree 2 on, over ℚ(i), or IrrationalSpectrum when roots escape
    it.

    The search runs on the integer coefficient list of the primitive
    multiple of ``p`` and builds no ``Polynomial``; deflation by λ − r
    is left to evaluation, multiplicity counts and spectrum
    verification. While the residual has degree ≥ 3, rational roots
    come from one p-adic search (`_root_candidates`, which lifts its
    candidates one at a time); each candidate u/v is kept only when an
    exact integer quotient by vλ − u confirms it, and the repeated
    quotients give its multiplicity. The cost is polynomial in the
    degree and the coefficient digits, so eigenvalue size does not limit
    it. The search stops at a residual of degree ≤ 2, which is solved
    exactly by formula: a linear one f₁λ + f₀ has the root −f₀/f₁, a
    quadratic one is resolved when its discriminant is ±r² for rational
    r (a zero discriminant gives a double root). A ``p`` of degree 1 is
    λ + f₀ over ℚ(i), with the root −f₀. A nonreal coefficient of a
    ``p`` of degree ≥ 2, or any residual of degree ≥ 3 left when the
    candidates run out (even one that happens to factor over ℚ(i)),
    raises IrrationalSpectrum: the caller supplies the spectrum
    instead. ``p`` records the result; ``verify_spectrum`` then accepts
    it without dividing for any matrix that holds ``p`` as its
    characteristic one, and a later call returns the spectrum that ``p``
    recorded, found or verified, without a search.
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    recorded = getattr(p, "_factored", None)
    if recorded is not None:
        return Spectrum._of_key(recorded)
    if p.degree > 1 and any(p._imags):
        raise IrrationalSpectrum(
            "nonreal coefficients; supply the spectrum explicitly")

    # canonical numerators are primitive: the leading one is the
    # denominator, and their gcd with it is 1
    f = list(p._reals)
    found = {}
    # the search runs while the residual has degree ≥ 3; below, a formula
    for u, v in _root_candidates(f) if len(f) > 3 else ():
        mult = 0
        while len(f) > 1:
            division = _divide(f, [-u, v])
            if division is None or any(division[1]):
                break
            f, mult = division[0], mult + 1
        if mult:
            found[GaussianRational(Fraction(u, v))] = mult
        if len(f) <= 3:
            break

    degree = len(f) - 1
    if degree >= 3:
        raise IrrationalSpectrum(
            f"residual factor of degree {degree} has no rational "
            "roots; supply the spectrum explicitly")
    if degree == 2:
        found.update(_resolve_quadratic(*f))
    elif degree == 1:
        # −f₀/f₁: p has a nonreal f₀ only at degree 1, where f₁ is its
        # denominator
        found[_coefficient(-f[0], -p._imags[0], f[1])] = 1

    # the search divides out each root it confirms, so a formula root
    # that overwrites one of its keys, like any lost root, is a bug
    if sum(found.values()) != p.degree:
        raise InternalInconsistency("factorization incomplete")
    spectrum = Spectrum._of_distinct(found)
    object.__setattr__(p, "_factored", spectrum._key)
    return spectrum


# -- rational roots by p-adic lifting ----------------------------------------
#
# The integer polynomials here are lists of int coefficients in ascending
# order, the last one nonzero. Loos (1983), "Computing rational zeros of
# integral polynomials by p-adic expansion"; von zur Gathen & Gerhard,
# Modern Computer Algebra, ch. 15. A primitive f has integer quotients by
# its primitive factors (Gauss's lemma), so every division the search
# makes is exact on the integers.

def _root_candidates(f):
    """Every rational root u/v (lowest terms, v > 0) of the primitive
    integer polynomial ``f`` of degree ≥ 1, among at most deg f
    candidates, yielded one at a time: a candidate is lifted only when
    the caller asks for it.

    The square-free part h of f, with leading coefficient a, maps to the
    monic G(y) = a^(d−1)·h(y/a), whose integer roots y = a·r are the
    rational roots r of h; each has |y| ≤ B = 1 + max|Gₖ| (Cauchy). For
    the first prime p modulo which every root of G is simple (all but
    the finitely many primes dividing the discriminant of G qualify),
    each root mod p lifts uniquely by Newton–Hensel steps to the modulus
    p^(2^j) > 2B, where the symmetric residue is y itself. Roots mod p
    that do not come from an integer root lift to spurious candidates,
    which the caller's exact quotient rejects.
    """
    *rest, a = _divide(f, _gcd(f, _derivative(f)))[0]
    g = [1]
    power = 1
    for c in reversed(rest):
        g.append(c * power)
        power *= a
    g.reverse()
    slope = _derivative(g)
    bound = 2 * (1 + max(map(abs, g[:-1])))
    for prime in _primes():
        roots = [x for x in range(prime) if not _eval_mod(g, x, prime)]
        if all(_eval_mod(slope, x, prime) for x in roots):
            break
    for root in roots:
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            step = _eval_mod(g, root, modulus) * pow(
                _eval_mod(slope, root, modulus), -1, modulus)
            root = (root - step) % modulus
        y = root - modulus if 2 * root > modulus else root
        common = gcd(y, a)
        yield y // common, a // common


def _eval_mod(g, x, modulus):
    """g(x) mod ``modulus`` by Horner's rule."""
    value = 0
    for c in reversed(g):
        value = (value * x + c) % modulus
    return value


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _primitive(f):
    """The primitive part of the nonzero ``f``, with a positive leading
    coefficient and no trailing zero."""
    while not f[-1]:
        f = f[:-1]
    content = gcd(*f)
    if f[-1] < 0:
        content = -content
    return [c // content for c in f]


def _gcd(f, g):
    """Primitive greatest common divisor, with a positive leading
    coefficient, of the primitive ``f`` and a nonzero ``g`` of lower
    degree, by primitive pseudo-remainder sequence."""
    g = _primitive(g)
    while len(g) > 1:
        # lead(g)^(deg f − deg g + 1)·f, so that every step divides
        scale = g[-1] ** (len(f) - len(g) + 1)
        rest = _divide([scale * c for c in f], g)[1]
        if not any(rest):
            return g
        f, g = g, _primitive(rest)
    return [1]


def _divide(f, g):
    """(quotient, remainder) of the integer lists f by g, or None as soon
    as a step of the long division is not exact on the integers."""
    top, lead = len(g) - 1, g[-1]
    r = list(f)
    quotient = [0] * (len(f) - top)
    for k in reversed(range(len(quotient))):
        x, rest = divmod(r[k + top], lead)
        if rest:
            return None
        quotient[k] = x
        for i in range(top):
            r[k + i] -= x * g[i]
    return quotient, r[:top]


def _primes():
    """2, 3, 5, 7, … by trial division, generated on demand."""
    return (n for n in itertools.count(2)
            if all(n % d for d in range(2, isqrt(n) + 1)))


def _resolve_quadratic(c0, c1, c2):
    """Roots of the integer quadratic c₂λ² + c₁λ + c₀ as (value, mult)
    pairs, when they lie in ℚ(i): (−c₁ ± √D)/(2c₂), D = c₁² − 4c₀c₂,
    and the one pair (−c₁/(2c₂), 2) when D = 0."""
    disc = c1 * c1 - 4 * c0 * c2
    root = isqrt(abs(disc))
    if root * root != abs(disc):
        problem = ("discriminant is not a perfect square" if disc > 0
                   else "roots are complex but not Gaussian rational")
        raise IrrationalSpectrum(
            f"quadratic {problem}; supply the spectrum explicitly")
    den = 2 * c2
    if disc > 0:
        return [(GaussianRational(Fraction(-c1 + root, den)), 1),
                (GaussianRational(Fraction(-c1 - root, den)), 1)]
    mid = Fraction(-c1, den)
    if not disc:
        return [(GaussianRational(mid), 2)]
    return [(GaussianRational(mid, Fraction(root, den)), 1),
            (GaussianRational(mid, Fraction(-root, den)), 1)]
