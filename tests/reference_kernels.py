"""Scalar-loop matrix kernels kept as a reference for the integer core.

These are the entry-by-entry Gaussian-rational algorithms that
``exacteig.matrices`` used before it moved to integer planes and
fraction-free elimination. They work on rows of scalars (tuples of
:class:`GaussianRational`) and share no code with the library's
kernels, so exact agreement between the two is evidence for both.
"""

from math import gcd, lcm

from exacteig import GaussianRational, Rational, ZeroVector, to_scalar

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
