"""Dense exact matrices and vectors over the Gaussian rationals.

Everything here is immutable and pure: operations return new values and
never mutate their inputs.

Storage. A :class:`Matrix` holds only Python ints: one positive common
denominator and two row-major tuples of numerators, a real plane and an
imaginary plane, so entry (i, j) is (re[k] + im[k]·i) / den with
k = i·cols + j. The storage is canonical — the gcd of the denominator
and all numerators is 1 — so ``==`` and ``hash`` are tuple compares.
A :class:`Vector` is a view of an n×1 or 1×n matrix, so ``row`` and
``column`` slice the planes and vector operations run on the matrix
kernels. Scalars (:class:`GaussianRational`) are built only when they
are read: by ``entry``, ``row_entries`` and a vector's ``entries``.

Products and sums run on the planes as integer dot products, followed
by one gcd pass per result, and skip the imaginary products when an
imaginary plane is zero. Rank, RREF, null space, determinant and inverse
use fraction-free (Bareiss) elimination over ℤ[i] on the numerators:
each update is exact division by the previous pivot, and the division by
the pivot happens once, at the end, to reach the same unique RREF.

Inside ``with OpCounter() as ops:`` these kernels, and the few scalar
steps other modules add, count their scalar operations in ``ops``; the
benchmark compares extraction methods by these machine-independent
counts. Counting conventions (documented so the numbers are meaningful):

* products count one multiplication per scalar pair and one addition per
  accumulation step, whether or not a plane is zero;
* elimination counts each multiplication, subtraction and exact division
  of Gaussian integers it performs on the rows it updates: two
  multiplications and a subtraction per entry of a row with a nonzero
  entry in the pivot column, one multiplication per entry of a row
  merely rescaled by the new pivot, and one exact division per updated
  entry whenever the previous pivot is not 1; the closing division by
  the last pivot counts one division per entry of the pivot rows (RREF,
  null space, inverse) or one for the determinant;
* negations, gcd passes, denominator bookkeeping and the cosmetic
  rescaling of output vectors are not counted.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from itertools import repeat
from math import gcd, lcm
from operator import mul

from .errors import (
    DimensionMismatch,
    NotSquare,
    Singular,
    ZeroVector,
)
from .scalars import ZERO, GaussianRational, Rational, format_scalar, to_scalar

__all__ = [
    "Matrix",
    "OpCounter",
    "Vector",
    "cross3",
    "det",
    "hstack",
    "inverse",
    "is_independent",
    "matmul",
    "matvec",
    "normalize_eigenvector",
    "nullspace_basis",
    "primitive_scale",
    "rank",
    "rref",
    "subtract_scalar_diag",
    "trace",
]


@dataclass
class OpCounter:
    """Tally of exact scalar field operations: ``with OpCounter() as
    ops:`` counts in ``ops`` what the current thread or asyncio task runs
    until the block ends, and a nested block counts into the inner
    counter until it ends."""

    scalar_mults: int = 0
    scalar_adds: int = 0
    scalar_divs: int = 0

    def __enter__(self):
        _active_counters.set(_active_counters.get() + (self,))
        return self

    def __exit__(self, *exc_info):
        _active_counters.set(_active_counters.get()[:-1])

    @property
    def total(self):
        return self.scalar_mults + self.scalar_adds + self.scalar_divs

    def as_dict(self):
        return {
            "scalar_mults": self.scalar_mults,
            "scalar_adds": self.scalar_adds,
            "scalar_divs": self.scalar_divs,
        }


_active_counters = ContextVar("exacteig_op_counters", default=())


def _tally(mults=0, adds=0, divs=0):
    """Add to the innermost counter entered in this context, if any."""
    counters = _active_counters.get()
    if counters:
        counters[-1].scalar_mults += mults
        counters[-1].scalar_adds += adds
        counters[-1].scalar_divs += divs


class Vector:
    """Immutable exact vector; ``orientation`` is ``"column"`` or ``"row"``.

    A vector is a view of one n×1 (column) or 1×n (row) :class:`Matrix`,
    so it has the same integer planes and every operation runs on the
    matrix kernels; scalars are built only when entries are read.
    Orientation matters for matrix-vector products and equality; a row
    vector is the carrier for left eigenvectors.
    """

    __slots__ = ("_matrix", "orientation")

    def __init__(self, entries, orientation="column"):
        data = [to_scalar(e) for e in entries]
        if not data:
            raise DimensionMismatch("empty vector")
        if orientation not in ("column", "row"):
            raise ValueError(f"bad orientation {orientation!r}")
        matrix = _vector(*_planes(data), orientation)._matrix
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "orientation", orientation)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @property
    def entries(self):
        return tuple(self._matrix._scalars(slice(None)))

    @property
    def re(self):
        """The real part, as a vector of the same orientation."""
        return _vector(self._matrix._den, self._matrix._re, (),
                       self.orientation)

    @property
    def im(self):
        """The imaginary part, as a vector of the same orientation."""
        return _vector(self._matrix._den, self._matrix._imag(), (),
                       self.orientation)

    def __len__(self):
        return len(self._matrix._re)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.entries[i]
        k = range(len(self))[i]
        return self._matrix._scalars(slice(k, k + 1))[0]

    def is_zero(self):
        return self._matrix.is_zero()

    def first_nonzero_index(self):
        m = self._matrix
        return next((k for k, (x, y) in enumerate(zip(m._re, m._imag()))
                     if x or y), None)

    def scaled(self, c):
        return _view(self._matrix.scaled(c), self.orientation)

    def transposed(self):
        flipped = "row" if self.orientation == "column" else "column"
        return _view(self._matrix.transpose(), flipped)

    def dot(self, other):
        """Bilinear dot product Σ uᵢvᵢ (no conjugation), orientation-blind."""
        if len(self) != len(other):
            raise DimensionMismatch(
                f"dot of lengths {len(self)} and {len(other)}")
        u, w = self._matrix, other._matrix
        (re,), (im,) = _complex_product([u._re], [u._im] if u._im else None,
                                        [w._re], [w._im] if w._im else None)
        return _scalar(re, im, u._den * w._den)

    def _combine(self, other, sign):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.orientation != other.orientation or len(self) != len(other):
            raise DimensionMismatch("vector shapes differ")
        return _view(self._matrix._combine(other._matrix, sign),
                     self.orientation)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _view(-self._matrix, self.orientation)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.orientation == other.orientation
                and self._matrix == other._matrix)

    def __hash__(self):
        return hash((self.orientation, self._matrix))

    def __repr__(self):
        body = ", ".join(format_scalar(e) for e in self.entries)
        tag = "" if self.orientation == "column" else "^T"
        return f"[{body}]{tag}"


def _view(matrix, orientation):
    """The one-column or one-row ``matrix`` as a Vector."""
    vector = object.__new__(Vector)
    object.__setattr__(vector, "_matrix", matrix)
    object.__setattr__(vector, "orientation", orientation)
    return vector


def _vector(den, re, im, orientation):
    """The vector of the entries (re + im·i) / den, as a view of an n×1
    (column) or 1×n (row) matrix."""
    n = len(re)
    rows, cols = (n, 1) if orientation == "column" else (1, n)
    return _view(Matrix._make(rows, cols, den, re, im), orientation)


def _stacked(vectors):
    """The matrix with ``vectors`` as its rows, read off their planes
    over the least common denominator."""
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise DimensionMismatch("ragged rows")
    den = lcm(*[v._matrix._den for v in vectors])
    re, im = [], []
    for v in vectors:
        f = den // v._matrix._den
        re += [f * x for x in v._matrix._re]
        im += [f * y for y in v._matrix._imag()]
    return Matrix._make(len(vectors), width, den, re, im)


# -- integer planes ---------------------------------------------------------


def _planes(scalars):
    """(den, re, im) of scalars over their least common denominator, the
    planes as lists.

    Each part is reduced, so no prime of the denominator divides every
    numerator: the triple is already canonical."""
    parts = [(e.re, e.im) for e in scalars]
    den = lcm(*[x.denominator for pair in parts for x in pair])
    re = [r.numerator * (den // r.denominator) for r, _ in parts]
    im = [i.numerator * (den // i.denominator) for _, i in parts]
    return den, re, im


def _scalar(re, im, den):
    """The scalar (re + im·i) / den."""
    if den == 1:
        return GaussianRational(re, im)
    return GaussianRational(Rational(re, den), Rational(im, den) if im else 0)


def _quotient(re, im, d_re, d_im):
    """(den, re, im) of the entries re + im·i divided by the nonzero
    Gaussian integer d_re + d_im·i, with a positive denominator."""
    if d_im:
        norm = d_re * d_re + d_im * d_im
        return (norm, [x * d_re + y * d_im for x, y in zip(re, im)],
                [y * d_re - x * d_im for x, y in zip(re, im)])
    if d_re < 0:
        return -d_re, [-x for x in re], [-y for y in im]
    return d_re, re, im


def _rows_of(plane, cols):
    return [plane[k:k + cols] for k in range(0, len(plane), cols)]


def _columns_of(plane, cols):
    return [plane[j::cols] for j in range(cols)]


def _transposed(plane, cols):
    """The row-major plane of the transpose of a plane ``cols`` wide."""
    return [x for col in _columns_of(plane, cols) for x in col]


def _product(left, right):
    """Row-major plane of all dot products of ``left`` rows with
    ``right`` rows (sequences of equal length)."""
    return [sum(map(mul, u, v)) for u in left for v in right]


def _complex_product(left_re, left_im, right_re, right_im):
    """(re, im) planes of the dot products of complex rows, leaving out
    the products with a zero imaginary side (``None``)."""
    re = _product(left_re, right_re)
    im = None
    if left_im is not None:
        im = _product(left_im, right_re)
        if right_im is not None:
            re = [x - y for x, y in zip(re, _product(left_im, right_im))]
    if right_im is not None:
        extra = _product(left_re, right_im)
        im = extra if im is None else [x + y for x, y in zip(im, extra)]
    return re, im if im is not None else [0] * len(re)


class Matrix:
    """Immutable dense matrix of Gaussian-rational entries, stored as a
    common denominator over integer real and imaginary planes."""

    __slots__ = ("rows", "cols", "_den", "_re", "_im")

    def __init__(self, entries):
        data = [[to_scalar(e) for e in row] for row in entries]
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        den, re, im = _planes([e for row in data for e in row])
        _init(self, len(data), width, den, re, im)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _make(cls, rows, cols, den, re, im):
        """Matrix (re + im·i) / den with den > 0, reduced by one gcd pass
        to the canonical form."""
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [y // g for y in im]
        self = object.__new__(cls)
        _init(self, rows, cols, den, re, im)
        return self

    @classmethod
    def identity(cls, n):
        return cls.diagonal([1] * n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._make(rows, cols, 1, (0,) * (rows * cols),
                         (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values):
        den, vre, vim = _planes([to_scalar(v) for v in values])
        n = len(vre)
        re, im = [0] * (n * n), [0] * (n * n)
        re[::n + 1], im[::n + 1] = vre, vim
        return cls._make(n, n, den, re, im)

    @classmethod
    def from_columns(cls, columns):
        """Matrix with the given columns: Vectors, or sequences of
        scalars."""
        return cls.from_rows(columns).transpose()

    @classmethod
    def from_rows(cls, rows):
        """Matrix with the given rows: Vectors, or sequences of scalars."""
        rows = list(rows)
        if rows and all(isinstance(r, Vector) for r in rows):
            return _stacked(rows)
        return cls(rows)

    @property
    def is_square(self):
        return self.rows == self.cols

    def _is_real(self):
        return not self._im

    def _imag(self):
        """The imaginary plane, which is stored empty when it is zero."""
        return self._im or (0,) * len(self._re)

    def _scalars(self, part):
        """Scalars of the entries that the slice ``part`` of the planes
        selects."""
        im = self._im[part] if self._im else repeat(0)
        return [_scalar(x, y, self._den) for x, y in zip(self._re[part], im)]

    def entry(self, i, j):
        k = range(self.rows)[i] * self.cols + range(self.cols)[j]
        return self._scalars(slice(k, k + 1))[0]

    def row_entries(self, i):
        start = range(self.rows)[i] * self.cols
        return tuple(self._scalars(slice(start, start + self.cols)))

    def _sliced(self, part, orientation):
        """The entries that the slice ``part`` of the planes selects, as
        a vector."""
        im = self._im[part] if self._im else ()
        return _vector(self._den, self._re[part], im, orientation)

    def row(self, i):
        start = range(self.rows)[i] * self.cols
        return self._sliced(slice(start, start + self.cols), "row")

    def column(self, j):
        return self._sliced(slice(range(self.cols)[j], None, self.cols),
                            "column")

    def transpose(self):
        return Matrix._make(self.cols, self.rows, self._den,
                            _transposed(self._re, self.cols),
                            _transposed(self._imag(), self.cols))

    def is_zero(self):
        return not any(self._re) and not self._im

    def scaled(self, c):
        den, (c_re,), (c_im,) = _planes([to_scalar(c)])
        re, im = self._re, self._imag()
        if c_im:
            new_re = [x * c_re - y * c_im for x, y in zip(re, im)]
            new_im = [x * c_im + y * c_re for x, y in zip(re, im)]
        else:
            new_re = [x * c_re for x in re]
            new_im = [y * c_re for y in im]
        return Matrix._make(self.rows, self.cols, self._den * den,
                            new_re, new_im)

    def _combine(self, other, sign):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        return Matrix._make(
            self.rows, self.cols, den,
            [f * x + g * y for x, y in zip(self._re, other._re)],
            [f * x + g * y for x, y in zip(self._imag(), other._imag())])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return Matrix._make(self.rows, self.cols, self._den,
                            [-x for x in self._re], [-y for y in self._im])

    def __mul__(self, c):
        if isinstance(c, Matrix):
            return NotImplemented
        return self.scaled(c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return matmul(self, other)

    def _key(self):
        return (self.rows, self.cols, self._den, self._re, self._im)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        rows = ", ".join(
            "[" + ", ".join(format_scalar(e) for e in self.row_entries(i))
            + "]" for i in range(self.rows))
        return f"Matrix([{rows}])"


def _init(matrix, rows, cols, den, re, im):
    object.__setattr__(matrix, "rows", rows)
    object.__setattr__(matrix, "cols", cols)
    object.__setattr__(matrix, "_den", den)
    object.__setattr__(matrix, "_re", tuple(re))
    object.__setattr__(matrix, "_im", tuple(im) if any(im) else ())


def _require_square(a):
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix where square is required")


def _complex_side(matrix, split):
    """``split`` of the imaginary plane, or None when it is zero."""
    return None if matrix._is_real() else split(matrix._im, matrix.cols)


def matmul(a, b):
    """Exact matrix product A·B."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    re, im = _complex_product(
        _rows_of(a._re, a.cols), _complex_side(a, _rows_of),
        _columns_of(b._re, b.cols), _complex_side(b, _columns_of))
    _tally(mults=a.rows * a.cols * b.cols,
           adds=a.rows * (a.cols - 1) * b.cols)
    return Matrix._make(a.rows, b.cols, a._den * b._den, re, im)


def matvec(a, v):
    """A·v for a column vector, or v·A for a row vector: the matrix
    product with the vector's n×1 (or 1×n) matrix."""
    if v.orientation == "column":
        if len(v) != a.cols:
            raise DimensionMismatch(f"{a.rows}x{a.cols} @ column of {len(v)}")
        return _view(matmul(a, v._matrix), "column")
    if len(v) != a.rows:
        raise DimensionMismatch(f"row of {len(v)} @ {a.rows}x{a.cols}")
    return _view(matmul(v._matrix, a), "row")


def trace(a):
    _require_square(a)
    step = a.cols + 1
    _tally(adds=a.rows - 1)
    return _scalar(sum(a._re[::step]), sum(a._im[::step]), a._den)


def subtract_scalar_diag(a, lam):
    """The characteristic (shifted) matrix A − λI."""
    _require_square(a)
    lam_den, (lam_re,), (lam_im,) = _planes([to_scalar(lam)])
    den = lcm(a._den, lam_den)
    f, g = den // a._den, den // lam_den
    re = [f * x for x in a._re]
    im = [f * y for y in a._imag()]
    for k in range(0, len(re), a.cols + 1):
        re[k] -= g * lam_re
        im[k] -= g * lam_im
    return Matrix._make(a.rows, a.cols, den, re, im)


def hstack(a, b):
    """[A | B] with equal row counts."""
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ")
    return Matrix.from_columns(
        [m.column(j) for m in (a, b) for j in range(m.cols)])


# -- fraction-free elimination ------------------------------------------------


def _integer_rows(a):
    """Mutable numerator rows of ``a``: (re rows, im rows or None)."""
    im = None if a._is_real() else [list(r) for r in _rows_of(a._im, a.cols)]
    return [list(r) for r in _rows_of(a._re, a.cols)], im


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


def rref(a):
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


def rank(a):
    re_rows, im_rows = _integer_rows(a)
    return len(_eliminate(re_rows, im_rows, a.cols, False)[0])


def nullspace_basis(a):
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


def det(a):
    """Exact determinant by fraction-free forward elimination: the last
    Bareiss pivot is the determinant of the numerators."""
    _require_square(a)
    n = a.rows
    re_rows, im_rows = _integer_rows(a)
    pivots, (d_re, d_im), sign = _eliminate(re_rows, im_rows, n, False)
    if len(pivots) < n:
        return ZERO
    _tally(divs=1)
    return _scalar(sign * d_re, sign * d_im, a._den ** n)


def inverse(a):
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


def cross3(u, v):
    """Standard determinant-expansion cross product of two length-3
    vectors; exactly orthogonal (bilinear dot) to both inputs."""
    if len(u) != 3 or len(v) != 3:
        raise DimensionMismatch("cross product needs length-3 vectors")
    a1, a2, a3 = u.entries
    b1, b2, b3 = v.entries
    out = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    _tally(mults=6, adds=3)
    return Vector(out, "column")


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


def primitive_scale(vectors):
    """The positive rational c for which the vectors c·v, taken
    together, have Gaussian-integer components with no common integer
    factor above 1 (the vectors must not all be zero)."""
    stacked = _stacked(vectors)
    return Rational(stacked._den, gcd(*stacked._re, *stacked._im))


def _primitive(re, im, orientation):
    """The Gaussian-integer vector re + im·i (not zero) scaled to its
    canonical form: multiplying by the conjugate of the first nonzero
    component makes that component a positive integer, and dividing by
    the gcd of all integer parts makes the vector primitive."""
    k = next(i for i, (x, y) in enumerate(zip(re, im)) if x or y)
    if im[k] or re[k] < 0:
        _, re, im = _quotient(re, im, re[k], im[k])
    g = gcd(*re, *im)
    return _vector(1, [x // g for x in re], [y // g for y in im], orientation)


def normalize_eigenvector(v):
    """Canonical representative of the line (or scaled family) through v.

    The result is the primitive Gaussian-integer vector on the line
    whose first nonzero component is a positive integer: the numerators
    of v over a common denominator, times the conjugate of their first
    nonzero component, with their content removed. Idempotent, and
    invariant under scaling by any nonzero Gaussian-rational factor — so
    equal inputs-up-to-scale yield the identical output.
    """
    if v.is_zero():
        raise ZeroVector("cannot normalize the zero vector")
    return _primitive(v._matrix._re, v._matrix._imag(), v.orientation)
