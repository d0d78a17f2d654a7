"""Dense exact matrices and vectors over the Gaussian rationals.

Everything here is immutable and pure: operations return new values and
never mutate their inputs.

Storage. A :class:`Matrix` holds only Python ints: one positive common
denominator and two row-major tuples of numerators, a real plane and an
imaginary plane, so entry (i, j) is (re[k] + im[k]·i) / den with
k = i·cols + j. The storage is canonical — the gcd of the denominator
and all numerators is 1, and a zero imaginary plane is the empty tuple
— so ``==`` and ``hash`` are tuple compares. The empty plane is the
only form a zero imaginary part takes, from parsed input through every
kernel to output: no kernel builds, multiplies, reduces or scans a
plane of zeros for a real operand. A :class:`Vector` is a view of an
n×1 or 1×n matrix, so ``row`` and ``column`` slice the planes and
vector operations run on the matrix kernels. Scalars
(:class:`GaussianRational`) are built only when they are read: by
``entry``, ``row_entries`` and a vector's ``entries``.
Canonical text is read off the planes without them (``_texts``), and
``_from_parts`` builds a matrix from the integer parts that the scalar
tokenizer reads.

Products and sums run on the planes as integer dot products, followed
by one gcd pass per result; a real product of real operands runs on the
real planes alone, and a complex one skips the products with a zero
imaginary side. The gcd pass is skipped when the denominator is 1, and
results that are canonical by construction (the transpose, the
negation, vectors placed side by side over their least common
denominator, primitive vectors) take none. Rank, RREF, null space,
determinant and inverse run one fraction-free (Bareiss) forward
elimination over ℤ[i] on the numerators, each row update dividing
exactly by the previous pivot; RREF, null space and inverse then take
the columns they need of d·RREF, d the last pivot, by fraction-free
back-substitution.

The product method of ``charmatrix`` runs here on scale-free shift
rows: for A = N/d and λ = (u + v·i)/w, the numerator rows
w·N − d·(u + v·i)·I of d·w·(A − λI) (``_shift_rows``), with no gcd
pass, since every reader of them is blind to the nonzero scale d·w. A
product column is read off the rightmost factor and pushed left through
the others as lists of Gaussian integers, and the first nonzero one is
normalized and checked on the target's rows (``_product_eigenvector``);
each push and the check count as the matrix-vector products they are.

Inside ``with OpCounter() as ops:`` these kernels, and the few scalar
steps other modules add, count their scalar operations in ``ops``; the
benchmark compares extraction methods by these machine-independent
counts. Counting conventions (documented so the numbers are meaningful):

* products count one multiplication per scalar pair and one addition per
  accumulation step, whether or not a plane is zero;
* forward elimination counts each multiplication, subtraction and
  exact division of Gaussian integers it performs on the rows it
  updates: two multiplications and a subtraction per entry of a row with
  a nonzero entry in the pivot column, one multiplication per entry of a
  row merely rescaled by the new pivot, and one exact division per
  updated entry whenever the previous pivot is not 1;
* back-substitution counts, per entry it computes, one multiplication
  per term whose coefficient is nonzero, one subtraction per further
  term and one exact division unless the pivot is 1; the closing
  division by d counts one division per entry of the pivot rows (RREF)
  or of the inverse, one for the determinant and none for the null
  space, whose vectors are rescaled anyway;
* negations, gcd passes, denominator bookkeeping and the cosmetic
  rescaling of output vectors are not counted.
"""

from __future__ import annotations

from bisect import bisect_left
from contextvars import ContextVar
from itertools import repeat
from math import comb, gcd, lcm
from operator import mul

from .errors import (
    DimensionMismatch,
    NotSquare,
    Singular,
    ZeroVector,
)
from .scalars import ZERO, GaussianRational, Rational, _scalar_text, to_scalar

__all__ = [
    "Matrix",
    "OpCounter",
    "Vector",
    "cross3",
    "det",
    "hstack",
    "independent_extension",
    "inverse",
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


class Record:
    """Base of the immutable records that results come in: the
    ``__slots__`` are the fields, in order, given by position or keyword;
    ``_defaults`` fills fields left out, and ``_validate`` checks them.
    Records of one type with equal fields are equal, with equal hashes.
    The fields are written through their slot descriptors, which each
    subclass lists in ``_setters`` when it is defined."""

    __slots__ = ()
    _defaults = {}
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([getattr(cls, name).__set__
                              for name in cls.__slots__])

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if (len(args) > len(names) or given.keys() & kwargs.keys()
                    or values.keys() != set(names)):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(names)}")
            args = [values[name] for name in names]
        for write, value in zip(self._setters, args):
            write(self, value)
        self._validate()

    def _validate(self):
        """Check the fields; records that need no check keep this."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value
                         in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class OpCounter(Record):
    """Tally of exact scalar field operations: ``with OpCounter() as
    ops:`` counts in ``ops`` what the current thread or asyncio task runs
    until the block ends, and a nested block counts into the inner
    counter until it ends. Unlike other records it is mutable."""

    __slots__ = ("scalar_mults", "scalar_adds", "scalar_divs")
    _defaults = dict.fromkeys(__slots__, 0)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __enter__(self):
        _active_counters.set(_active_counters.get() + (self,))
        return self

    def __exit__(self, *exc_info):
        _active_counters.set(_active_counters.get()[:-1])

    @property
    def total(self):
        return self.scalar_mults + self.scalar_adds + self.scalar_divs

    def as_dict(self):
        return dict(zip(self.__slots__, self._fields()))


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
        _set_vector(self, _vector(*_planes(data), orientation)._matrix,
                    orientation)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __reduce__(self):
        return _view, (self._matrix, self.orientation)

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
        return next((k for k, (x, y) in enumerate(zip(m._re, m._im
                                                      or repeat(0)))
                     if x or y), None)

    def scaled(self, c):
        if self.is_zero():
            return self
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
        re, im = _complex_product([u._re], u._im and [u._im],
                                  [w._re], w._im and [w._im])
        return _scalar(re[0], im[0] if im else 0, u._den * w._den)

    def _combine(self, other, sign):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.orientation != other.orientation or len(self) != len(other):
            raise DimensionMismatch("vector shapes differ")
        if other.is_zero():
            return self
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

    def _texts(self):
        """The canonical text of each entry."""
        return _entry_texts(self._matrix)

    def __repr__(self):
        body = ", ".join(self._texts())
        tag = "" if self.orientation == "column" else "^T"
        return f"[{body}]{tag}"


_set_matrix, _set_orientation = (Vector._matrix.__set__,
                                 Vector.orientation.__set__)


def _set_vector(vector, matrix, orientation):
    """Write the slots of ``vector`` through their descriptors."""
    _set_matrix(vector, matrix)
    _set_orientation(vector, orientation)


def _view(matrix, orientation):
    """The one-column or one-row ``matrix`` as a Vector."""
    vector = object.__new__(Vector)
    _set_vector(vector, matrix, orientation)
    return vector


def _vector(den, re, im, orientation):
    """The vector of the entries (re + im·i) / den, as a view of an n×1
    (column) or 1×n (row) matrix."""
    n = len(re)
    rows, cols = (n, 1) if orientation == "column" else (1, n)
    return _view(Matrix._make(rows, cols, den, re, im), orientation)


def _stacked(vectors):
    """The matrix with ``vectors`` as its rows, read off their planes
    over the least common denominator. Canonical parts over their least
    common denominator are canonical: a prime of it divides, to its full
    power, the denominator of some part, which it scales by a factor
    prime to it, and that part's numerators are not all divisible by it.
    So the result takes no gcd pass."""
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise DimensionMismatch("ragged rows")
    den = lcm(*[v._matrix._den for v in vectors])
    real = not any(v._matrix._im for v in vectors)
    re, im = [], []
    for v in vectors:
        m = v._matrix
        f = den // m._den
        re += m._re if f == 1 else [f * x for x in m._re]
        if not real:
            im += [f * y for y in m._im] if m._im else [0] * width
    return _canonical(len(vectors), width, den, re, im)


def _beside(blocks, rows):
    """The matrix of the ``(matrix, width)`` blocks side by side, each
    matrix's planes read as ``width`` columns ``rows`` tall, over the
    least common denominator in one pass; canonical, as in
    ``_stacked``."""
    cols = sum(width for _, width in blocks)
    den = lcm(*[m._den for m, _ in blocks])
    re = [0] * (rows * cols)
    im = [0] * (rows * cols) if any(m._im for m, _ in blocks) else ()
    j = 0
    for m, width in blocks:
        f = den // m._den
        for c in range(width):
            part = m._re[c::width]
            re[j::cols] = part if f == 1 else [f * x for x in part]
            if m._im:
                im[j::cols] = [f * y for y in m._im[c::width]]
            j += 1
    return _canonical(rows, cols, den, re, im)


# -- integer planes ---------------------------------------------------------


def _planes(scalars):
    """(den, re, im) of scalars over their least common denominator, the
    planes as lists."""
    return _part_planes([(r.numerator, r.denominator, i.numerator,
                          i.denominator) for r, i in
                         [(e.re, e.im) for e in scalars]])


def _scalar_planes(c):
    """(den, re, im) of the one scalar ``c``: its parts as integers over
    their least common denominator."""
    r, i = c.re, c.im
    b, d = r.denominator, i.denominator
    den = b if d == 1 else lcm(b, d)
    return den, r.numerator * (den // b), i.numerator * (den // d)


def _part_planes(parts):
    """(den, re, im) of the entries with the parts (re_num, re_den,
    im_num, im_den), each reduced with a positive denominator, over
    their least common denominator, the planes as lists.

    Each part is reduced, so no prime of the denominator divides every
    numerator: the triple is already canonical."""
    den = lcm(*[x for _, b, _, d in parts for x in (b, d)])
    return (den, [a * (den // b) for a, b, _, _ in parts],
            [c * (den // d) for _, _, c, d in parts])


def _entry_texts(matrix):
    """The canonical text of each entry of ``matrix``, row-major, read
    off the planes: each part over the denominator is reduced by its
    gcd with it."""
    den = matrix._den
    texts = []
    if not matrix._im:
        for x in matrix._re:
            g = gcd(x, den)
            texts.append(_scalar_text(x // g, den // g, 0, 1))
        return texts
    for x, y in zip(matrix._re, matrix._im):
        g, h = gcd(x, den), gcd(y, den)
        texts.append(_scalar_text(x // g, den // g, y // h, den // h))
    return texts


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
    the products with a zero imaginary side (empty or ``None``); the
    imaginary plane is ``()`` when both sides are real."""
    re = _product(left_re, right_re)
    im = ()
    if left_im:
        im = _product(left_im, right_re)
        if right_im:
            re = [x - y for x, y in zip(re, _product(left_im, right_im))]
    if right_im:
        extra = _product(left_re, right_im)
        im = [x + y for x, y in zip(im, extra)] if im else extra
    return re, im


# Facts of a matrix's entries that ``spectra`` computes once per matrix:
# the characteristic polynomial, which records the spectrum verified
# against it. It holds for the transpose too.
_FACTS = ("_charpoly",)
# Facts of the eigen-structure, found behind the verified spectrum, the
# only one the matrix has: the matrix of all eigenvectors with the size
# of each eigenspace (``eigensystem``; it is square when every eigenspace
# is complete) and the Jordan P with its block sizes (``jordan_form`` and
# ``ode_general_solution``), beside a weak reference to the P⁻¹ last
# checked for it, or None. They do not hold for the transpose.
_STRUCTURE = ("_eigenvectors", "_jordan")


class Matrix:
    """Immutable dense matrix of Gaussian-rational entries, stored as a
    common denominator over integer real and imaginary planes.

    The slots of ``_FACTS`` and ``_STRUCTURE`` stay unset until a fact is
    first computed, are written by ``_remember`` and read with a default;
    they take no part in ``==``, ``hash`` or pickling, and ``transpose``
    hands on those of ``_FACTS``. A matrix can be weakly referenced, so
    that a matrix refers to a result it does not own (the P⁻¹ that
    ``jordan`` checked) only while something else holds it."""

    __slots__ = ("rows", "cols", "_den", "_re", "_im", *_FACTS, *_STRUCTURE,
                 "__weakref__")

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

    def __reduce__(self):
        return Matrix._make, (self.rows, self.cols, self._den, self._re,
                              self._im)

    @classmethod
    def _make(cls, rows, cols, den, re, im):
        """Matrix (re + im·i) / den with den > 0, reduced by one gcd pass
        to the canonical form; a denominator of 1 needs none."""
        if den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                den //= g
                re = [x // g for x in re]
                im = [y // g for y in im]
        return _canonical(rows, cols, den, re, im)

    @classmethod
    def _from_parts(cls, rows, cols, parts):
        """The rows × cols matrix whose entries, row-major, have the
        reduced parts that ``scalars._scalar_parts`` reads."""
        return _canonical(rows, cols, *_part_planes(parts))

    @classmethod
    def identity(cls, n):
        re = [0] * (n * n)
        re[::n + 1] = [1] * n
        return cls._make(n, n, 1, re, ())

    @classmethod
    def zeros(cls, rows, cols):
        return cls._make(rows, cols, 1, (0,) * (rows * cols), ())

    @classmethod
    def diagonal(cls, values, ones=()):
        """The matrix of ``values`` on the diagonal, with a one above
        the diagonal in each column of ``ones``."""
        values = [to_scalar(v) for v in values]
        if not values:
            raise DimensionMismatch("matrix needs at least one row and column")
        den, vre, vim = _planes(values)
        n = len(vre)
        re, im = [0] * (n * n), ()
        re[::n + 1] = vre
        if any(vim):
            im = [0] * (n * n)
            im[::n + 1] = vim
        for k in ones:
            if not 0 < k < n:
                raise DimensionMismatch(
                    f"no column {k} above the diagonal of a {n}x{n} matrix")
            re[k * (n + 1) - n] = den
        return cls._make(n, n, den, re, im)

    @classmethod
    def from_columns(cls, columns):
        """Matrix with the given columns: Vectors, written side by side
        in one pass, or sequences of scalars."""
        columns = list(columns)
        if columns and all(isinstance(c, Vector) for c in columns):
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise DimensionMismatch("ragged rows")
            return _beside([(c._matrix, 1) for c in columns], height)
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

    def is_real(self):
        return not self._im

    def _imag(self):
        """The imaginary plane, expanded to zeros when it is stored
        empty; no kernel calls it on a real operand."""
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
        flipped = _canonical(self.cols, self.rows, self._den,
                             _transposed(self._re, self.cols),
                             self._im and _transposed(self._im, self.cols))
        for name in _FACTS:
            if hasattr(self, name):
                flipped._remember(name, getattr(self, name))
        return flipped

    def _remember(self, name, value):
        """Record the fact ``name``, one of ``_FACTS`` or ``_STRUCTURE``,
        of these entries."""
        object.__setattr__(self, name, value)

    def is_zero(self):
        return not any(self._re) and not self._im

    def scaled(self, c):
        den, c_re, c_im = _scalar_planes(to_scalar(c))
        re, im = self._re, self._im
        if c_im and im:
            new_re = [x * c_re - y * c_im for x, y in zip(re, im)]
            new_im = [x * c_im + y * c_re for x, y in zip(re, im)]
        else:
            new_re = [x * c_re for x in re]
            new_im = [x * c_im for x in re] if c_im else [y * c_re for y in im]
        return Matrix._make(self.rows, self.cols, self._den * den,
                            new_re, new_im)

    def _combine(self, other, sign):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        im = ()
        if self._im or other._im:
            im = [f * x + g * y for x, y in zip(self._im or repeat(0),
                                                other._im or repeat(0))]
        return Matrix._make(
            self.rows, self.cols, den,
            [f * x + g * y for x, y in zip(self._re, other._re)], im)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return _canonical(self.rows, self.cols, self._den,
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

    def _texts(self):
        """The canonical text of each entry, as a list of rows."""
        return _rows_of(_entry_texts(self), self.cols)

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(row) + "]" for row in self._texts())
        return f"Matrix([{rows}])"


_set_rows, _set_cols, _set_den, _set_re, _set_im = [
    getattr(Matrix, name).__set__
    for name in ("rows", "cols", "_den", "_re", "_im")]


def _init(matrix, rows, cols, den, re, im):
    """Write the storage slots of ``matrix`` through their descriptors,
    a zero imaginary plane as ``()``."""
    _set_rows(matrix, rows)
    _set_cols(matrix, cols)
    _set_den(matrix, den)
    _set_re(matrix, tuple(re))
    _set_im(matrix, tuple(im) if im and any(im) else ())


def _canonical(rows, cols, den, re, im):
    """The matrix (re + im·i) / den of planes already in canonical form
    (den > 0 and no common factor), which takes no gcd pass."""
    matrix = object.__new__(Matrix)
    _init(matrix, rows, cols, den, re, im)
    return matrix


def _require_square(a):
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix where square is required")


def _complex_side(matrix, split):
    """``split`` of the imaginary plane, or None when it is zero."""
    return None if matrix.is_real() else split(matrix._im, matrix.cols)


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


def _times_diagonal(p, parts, ones, k=1):
    """P·Jᵏ with no product, on the planes, for J = Matrix.diagonal(values,
    ones) and k ≥ 1, each value given by its reduced parts (re numerator,
    re denominator, im numerator, im denominator) in ``parts`` and the
    values equal along each block of J (a column in
    ``ones`` continues the block of the column before it): column c is
    Σᵢ C(k, i)·λ_c^(k−i)·p_(c−i) over i = 0 … min(k, depth), depth the
    number of columns of its block before c. At k = 1 that is λ_c·p_c,
    plus p_(c−1) for each c in ``ones``, for any values. It counts one
    multiplication per entry and term with i < k, and one addition per
    entry and term after the first; the powers λᵏ⁻ⁱ and binomials, one
    set per eigenvalue, are coefficients and are not counted."""
    den, v_re, v_im = _part_planes(parts)
    re, rows, cols = p._re, p.rows, p.cols
    depth = [0] * cols
    for c in range(1, cols):
        if c in ones:
            depth[c] = min(depth[c - 1] + 1, k)
    lead_re, lead_im, terms = _power_terms(den, v_re, v_im, depth, k)
    lam_re = lead_re * rows  # λ_cᵏ beside each entry of column c, row-major
    if p._im or any(v_im):
        im, lam_im = p._imag(), lead_im * rows
        out_re = [x * c - y * d for x, y, c, d in zip(re, im, lam_re, lam_im)]
        out_im = [x * d + y * c for x, y, c, d in zip(re, im, lam_re, lam_im)]
    else:
        im, out_re, out_im = None, list(map(mul, re, lam_re)), []
    for c, i, f, g in terms:
        for e in range(c, len(re), cols):
            if im is None:
                out_re[e] += f * re[e - i]
            else:
                x, y = re[e - i], im[e - i]
                out_re[e] += f * x - g * y
                out_im[e] += f * y + g * x
    _tally(mults=rows * (cols + len(terms) - depth.count(k)),
           adds=rows * len(terms))
    return Matrix._make(rows, cols, p._den * den ** k, out_re, out_im)


def _power_terms(den, v_re, v_im, depth, k):
    """The coefficients of P·Jᵏ over den^k, for eigenvalues λ_c =
    (v_re[c] + v_im[c]·i)/den: the lists of real and imaginary parts of
    λ_cᵏ, and (c, i, re, im) of C(k, i)·λ_c^(k−i)·den^i for each column c
    and 1 ≤ i ≤ depth[c]. The powers of each eigenvalue come from one
    ladder λ^(k−m) … λᵏ, m the furthest any column of it reaches."""
    if k == 1:
        return v_re, v_im, [(c, 1, den, 0) for c, d in enumerate(depth) if d]
    values = list(zip(v_re, v_im))
    reach = {}
    for z, d in zip(values, depth):
        reach[z] = max(reach.get(z, 0), d)
    ladders = {z: _gaussian_powers(*z, k - m, k) for z, m in reach.items()}
    terms = []
    for c, (z, d) in enumerate(zip(values, depth)):
        for i in range(1, d + 1):
            scale = comb(k, i) * den ** i
            f, g = ladders[z][-1 - i]
            terms.append((c, i, f * scale, g * scale))
    return ([ladders[z][-1][0] for z in values],
            [ladders[z][-1][1] for z in values], terms)


def _gaussian_powers(x, y, low, high):
    """(x + y·i)ᵉ for e = low … high, as (re, im) pairs of ints."""
    if y:
        px, py, bx, by, e = 1, 0, x, y, low
        while e:
            if e & 1:
                px, py = px * bx - py * by, px * by + py * bx
            e >>= 1
            if e:
                bx, by = bx * bx - by * by, 2 * bx * by
    else:
        px, py = x ** low, 0
    powers = [(px, py)]
    for _ in range(high - low):
        px, py = px * x - py * y, px * y + py * x
        powers.append((px, py))
    return powers


def _power(a, exponent):
    """Aᵏ for k ≥ 0 by binary exponentiation: ⌊log₂ k⌋ squarings and
    popcount(k) − 1 further products."""
    result = None
    while exponent:
        if exponent & 1:
            result = a if result is None else matmul(result, a)
        exponent >>= 1
        if exponent:
            a = matmul(a, a)
    return Matrix.identity(a.rows) if result is None else result


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


def _charpoly_numerators(a):
    """(dⁿ, re, im) of det(λI − A), with A = N/d, by the division-free
    Samuelson–Berkowitz recurrence on the numerators N (Berkowitz 1984).

    The trailing 1×1 block [a] gives (1, −a). Upwards from it, each
    trailing block [[a, R], [C, N₁]] of N, N₁ of size s, gives
    t = (1, −a, −R·C, −R·N₁·C, …, −R·N₁^(s−1)·C) by s − 1 vector–matrix
    products R·N₁^k and s dot products with C; the coefficients of its
    det(λI − ·), highest first, are those of det(λI − N₁) times the
    lower-triangular Toeplitz matrix of t. They are Gaussian integers
    c_k, and the coefficient of λ^k in det(λI − A) is c_k·d^k / dⁿ. The
    tally at block size m ≥ 2 is (m − 1)³ multiplications and
    (m − 2)(m − 1)² additions for t, and m(m + 3)/2 and m(m + 1)/2 − 1
    for the Toeplitz product. ``a`` must be square."""
    n, den, re, im = a.rows, a._den, a._re, a._im
    cols_re, cols_im = _columns_of(re, n), _complex_side(a, _columns_of)
    # the trailing 1×1 block [a] gives (1, −a); a real A keeps no
    # imaginary parts (``()``) until the result
    p_re, p_im = [1, -re[-1]], im and [0, -im[-1]]
    for r in range(n - 2, -1, -1):
        m, diag, end = n - r, r * (n + 1), (r + 1) * n
        # below row r: C, then the columns of N₁; R is row r beside N₁
        right_re = [col[r + 1:] for col in cols_re[r:]]
        right_im = cols_im and [col[r + 1:] for col in cols_im[r:]]
        v_re, v_im = re[diag + 1:end], im and im[diag + 1:end]
        t_re, t_im = [1, -re[diag]], im and [0, -im[diag]]
        for k in range(m - 1, 0, -1):
            if k == 1:  # the last step needs R·N₁^(s−1)·C alone
                right_re, right_im = right_re[:1], right_im and right_im[:1]
            w_re, w_im = _complex_product([v_re], v_im and [v_im],
                                          right_re, right_im)
            t_re.append(-w_re[0])
            if im:
                t_im.append(-w_im[0])
            v_re, v_im = w_re[1:], w_im[1:]
        # row i of the Toeplitz matrix, reversed: t_i … t_0
        rev_re, rev_im = t_re[::-1], t_im[::-1]
        p_re, p_im = _complex_product(
            [p_re], im and [p_im], [rev_re[m - i:] for i in range(m + 1)],
            im and [rev_im[m - i:] for i in range(m + 1)])
    # the sums over m = 2…n of the tally above (at m = 1 it reads 2 and 0)
    squares, cubes = n * (n - 1) * (2 * n - 1) // 6, (n * (n - 1) // 2) ** 2
    _tally(mults=cubes + n * (n + 1) * (n + 5) // 6 - 2,
           adds=cubes - squares + n * (n + 1) * (n + 2) // 6 - n)
    return (den ** n, [x * den ** k for k, x in enumerate(reversed(p_re))],
            [y * den ** k for k, y in enumerate(reversed(p_im))] if im
            else [0] * (n + 1))


def _shift_planes(a, lam):
    """(w, re, im): for A = N/d and λ = (u + v·i)/w, the row-major planes
    of w·N − d·(u + v·i)·I, the numerators of d·w·(A − λI); im is ``()``
    when A and λ are real."""
    _require_square(a)
    w, u, v = _scalar_planes(to_scalar(lam))
    d, step = a._den, a.cols + 1
    re = list(a._re) if w == 1 else [w * x for x in a._re]
    shift = d * u
    re[::step] = [x - shift for x in re[::step]]
    im = a._im if w == 1 else [w * y for y in a._im]
    if v:
        im = list(im) if im else [0] * len(re)
        shift = d * v
        im[::step] = [y - shift for y in im[::step]]
    return w, re, im


def subtract_scalar_diag(a, lam):
    """The characteristic (shifted) matrix A − λI, over d·w
    (``_shift_planes``). When both parts of λ are integers (w = 1) the
    shift d·λ is a multiple of d, so the gcd of d and the numerators
    stays 1: the matrix is canonical as built and takes no gcd pass."""
    w, re, im = _shift_planes(a, lam)
    make = _canonical if w == 1 else Matrix._make
    return make(a.rows, a.cols, a._den * w, re, im)


def hstack(a, b):
    """[A | B] with equal row counts."""
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ")
    return _beside([(a, a.cols), (b, b.cols)], a.rows)


# -- fraction-free elimination ------------------------------------------------


def _integer_rows(a):
    """Mutable numerator rows of ``a``: (re rows, im rows or None)."""
    im = None if a.is_real() else [list(r) for r in _rows_of(a._im, a.cols)]
    return [list(r) for r in _rows_of(a._re, a.cols)], im


def _eliminate(re_rows, im_rows, ncols):
    """Fraction-free (Bareiss) forward elimination of Gaussian-integer
    rows, in place; ``im_rows`` is None for real rows.

    Pivots are the first nonzero entry down each column, as in Gaussian
    elimination over the field. At each pivot p every row x below it
    becomes (p·x − f·y)/q, with f its entry in the pivot column, y the
    pivot row and q the previous pivot. Each row then equals that pivot
    (a minor of the input on the pivot rows and columns) times the
    corresponding row of the field elimination, so the division by q is
    exact and runs in the update's own pass. Ends in echelon form.
    Returns ``(pivots, d, sign)``, with d the last pivot as a (re, im)
    pair (1 when there is no pivot) and sign the parity of the row
    swaps.
    """
    nrows, real = len(re_rows), im_rows is None
    pivots = []
    q = (1, 0)  # the previous pivot
    sign = 1
    mults = adds = divs = 0
    for c in range(ncols):
        r = len(pivots)
        if not (re_rows[r][c] or (not real and im_rows[r][c])):
            found = next((i for i in range(r + 1, nrows) if re_rows[i][c]
                          or (not real and im_rows[i][c])), None)
            if found is None:
                continue
            sign = -sign
            re_rows[r], re_rows[found] = re_rows[found], re_rows[r]
            if not real:
                im_rows[r], im_rows[found] = im_rows[found], im_rows[r]
        p = (re_rows[r][c], 0 if real else im_rows[r][c])
        # rows below with a nonzero entry f in the pivot column, and rows
        # merely rescaled by p/q; a row with f = 0 stays as it is if p = q
        updated = rescaled = 0
        if real:
            p_re, q_re, y = p[0], q[0], re_rows[r][c:]
            for x in re_rows[r + 1:]:
                f = x[c]
                if f:
                    updated += 1
                    x[c:] = ([p_re * u - f * v for u, v in zip(x[c:], y)]
                             if q_re == 1 else
                             [(p_re * u - f * v) // q_re
                              for u, v in zip(x[c:], y)])
                elif p_re != q_re:
                    rescaled += 1
                    x[c:] = [p_re * u // q_re for u in x[c:]]
        else:
            y_re, y_im = re_rows[r][c:], im_rows[r][c:]
            for x_re, x_im in zip(re_rows[r + 1:], im_rows[r + 1:]):
                f = (x_re[c], x_im[c])
                if f != (0, 0):
                    updated += 1
                elif p != q:
                    rescaled += 1
                else:
                    continue
                x_re[c:], x_im[c:] = _gaussian_update(
                    x_re[c:], x_im[c:], y_re, y_im, p, f, q)
        width = ncols - c
        mults += width * (2 * updated + rescaled)
        adds += width * updated
        divs += width * (updated + rescaled) if q != (1, 0) else 0
        pivots.append(c)
        q = p
        if len(pivots) == nrows:
            break
    _tally(mults, adds, divs)
    return tuple(pivots), q, sign


def _gaussian_update(x_re, x_im, y_re, y_im, p, f, q):
    """(p·x − f·y)/q entrywise over ℤ[i], the division known to be
    exact: a nonreal q is turned into its integer norm by multiplying p
    and f by its conjugate first, so every entry takes one pass."""
    (p_re, p_im), (f_re, f_im), (q_re, q_im) = p, f, q
    if q_im:
        p_re, p_im = p_re * q_re + p_im * q_im, p_im * q_re - p_re * q_im
        f_re, f_im = f_re * q_re + f_im * q_im, f_im * q_re - f_re * q_im
        q_re = q_re * q_re + q_im * q_im
    return ([(p_re * a - p_im * b - f_re * c + f_im * d) // q_re
             for a, b, c, d in zip(x_re, x_im, y_re, y_im)],
            [(p_re * b + p_im * a - f_re * d - f_im * c) // q_re
             for a, b, c, d in zip(x_re, x_im, y_re, y_im)])


def _back_substitute(re_rows, im_rows, pivots, d, columns):
    """Columns ``columns`` (no pivot column among them) of d·RREF at the
    pivot rows, from what ``_eliminate`` leaves: one (re, im) pair of
    lists per column, im ``()`` for real rows.

    With u the echelon rows and p_k = u_{k,P[k]} the pivots, entry k of
    column j is z_k = (d·u_kj − Σ_{k'>k} u_{k,P[k']}·z_{k'}) / p_k, from
    the last pivot row up: d times an RREF entry, a Gaussian integer by
    Cramer's rule, so the division is exact. z_k = 0 where P[k] > j, the
    last pivot row gives u_{r−1,j} at no cost, and so does an entry whose
    terms all have a zero coefficient u, which is left out of the count.
    """
    r = len(pivots)
    if not r:
        return [([], [])] * len(columns)
    (d_re, d_im), real = d, im_rows is None
    mults = adds = divs = 0
    out = []
    for j in columns:
        z_re, z_im = [0] * r, () if real else [0] * r
        out.append((z_re, z_im))
        top = bisect_left(pivots, j)  # z_k = 0 from row ``top`` on
        k = top - 1
        if top == r:
            z_re[k] = re_rows[k][j]
            if not real:
                z_im[k] = im_rows[k][j]
            k -= 1
        if k < 0:
            continue
        # the pivot columns before j are 0, 1, ..., top − 1
        leading = pivots[top - 1] == top - 1
        for k in range(k, -1, -1):
            row, w_re = re_rows[k], z_re[k + 1:top]
            c_re = (row[k + 1:top] if leading
                    else [row[c] for c in pivots[k + 1:top]])
            u_re, p_re = row[j], row[pivots[k]]
            if real:
                terms = len(c_re) - c_re.count(0) + (u_re != 0)
                if terms:
                    mults += terms
                    adds += terms - 1
                    divs += p_re != 1
                    z_re[k] = ((d_re * u_re - sum(map(mul, c_re, w_re)))
                               // p_re)
                continue
            row, w_im = im_rows[k], z_im[k + 1:top]
            c_im = (row[k + 1:top] if leading
                    else [row[c] for c in pivots[k + 1:top]])
            u_im, p_im = row[j], row[pivots[k]]
            terms = (sum(1 for x, y in zip(c_re, c_im) if x or y)
                     + (u_re != 0 or u_im != 0))
            if not terms:
                continue
            mults += terms
            adds += terms - 1
            divs += (p_re, p_im) != (1, 0)
            s_re = (d_re * u_re - d_im * u_im - sum(map(mul, c_re, w_re))
                    + sum(map(mul, c_im, w_im)))
            s_im = (d_re * u_im + d_im * u_re - sum(map(mul, c_re, w_im))
                    - sum(map(mul, c_im, w_re)))
            norm = p_re * p_re + p_im * p_im
            z_re[k] = (s_re * p_re + s_im * p_im) // norm
            z_im[k] = (s_im * p_re - s_re * p_im) // norm
    _tally(mults, adds, divs)
    return out


def rref(a):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` with pivot column indices ascending. Pivot
    choice is the first nonzero entry down each column — the only
    deterministic rule that makes sense in exact arithmetic; the RREF
    itself is unique.
    """
    re_rows, im_rows = _integer_rows(a)
    pivots, d, _ = _eliminate(re_rows, im_rows, a.cols)
    cols, end, real = a.cols, len(pivots) * a.cols, im_rows is None
    re = [0] * (a.rows * cols)
    im = () if real else [0] * (a.rows * cols)
    free = [j for j in range(cols) if j not in pivots]
    for j, (z_re, z_im) in zip(free, _back_substitute(
            re_rows, im_rows, pivots, d, free)):
        re[j:end:cols] = z_re
        if not real:
            im[j:end:cols] = z_im
    for k, c in enumerate(pivots):
        re[k * cols + c] = d[0]
        if not real:
            im[k * cols + c] = d[1]
    _tally(divs=end)
    den, re, im = _quotient(re, im, *d)
    return Matrix._make(a.rows, cols, den, re, im), pivots


def rank(a):
    re_rows, im_rows = _integer_rows(a)
    return len(_eliminate(re_rows, im_rows, a.cols)[0])


def nullspace_basis(a):
    """Exact basis of the null space from the free-variable
    parameterization of the RREF, each vector in canonical normalized
    form. Empty list when the matrix is injective.

    The vector for a free column j has d at j and minus column j of
    d·RREF at the pivot columns: d times the RREF's vector, which
    normalizes to the same line."""
    re_rows, im_rows = _integer_rows(a)
    pivots, d, _ = _eliminate(re_rows, im_rows, a.cols)
    free = [j for j in range(a.cols) if j not in pivots]
    basis = []
    for j, (z_re, z_im) in zip(free, _back_substitute(
            re_rows, im_rows, pivots, d, free)):
        re, im = [0] * a.cols, ()
        re[j] = d[0]
        for c, x in zip(pivots, z_re):
            re[c] = -x
        if im_rows is not None:
            im = [0] * a.cols
            im[j] = d[1]
            for c, y in zip(pivots, z_im):
                im[c] = -y
        basis.append(_primitive(re, im, "column"))
    return basis


def det(a):
    """Exact determinant by fraction-free forward elimination: the last
    Bareiss pivot is the determinant of the numerators."""
    _require_square(a)
    n = a.rows
    re_rows, im_rows = _integer_rows(a)
    pivots, (d_re, d_im), sign = _eliminate(re_rows, im_rows, n)
    if len(pivots) < n:
        return ZERO
    _tally(divs=1)
    return _scalar(sign * d_re, sign * d_im, a._den ** n)


def inverse(a):
    """Exact inverse by fraction-free elimination on [N | I], where N
    holds the numerators of A = N/den: forward elimination and
    back-substitution of the identity half give d·N⁻¹, so
    A⁻¹ = den·(d·N⁻¹)/d. Raises Singular."""
    _require_square(a)
    n = a.rows
    re_rows, im_rows = _integer_rows(a)
    for i in range(n):
        re_rows[i].extend(int(i == j) for j in range(n))
        if im_rows is not None:
            im_rows[i].extend([0] * n)
    pivots, (d_re, d_im), _ = _eliminate(re_rows, im_rows, 2 * n)
    if pivots != tuple(range(n)):
        # a singular left block pushes pivots into the identity half
        raise Singular("matrix is singular")
    columns = _back_substitute(re_rows, im_rows, pivots, (d_re, d_im),
                               range(n, 2 * n))
    _tally(divs=n * n)
    re = [a._den * x for row in zip(*[z for z, _ in columns]) for x in row]
    im = () if im_rows is None else [
        a._den * y for row in zip(*[z for _, z in columns]) for y in row]
    den, re, im = _quotient(re, im, d_re, d_im)
    return Matrix._make(n, n, den, re, im)


def _annihilates(a, vectors):
    """Whether A·v = 0 for all the column vectors v, read off the planes
    and counted as the products A·v; ``a`` is a matrix or the shift rows
    of one (``_shift_rows``)."""
    re_rows, im_rows = a if type(a) is tuple else (
        _rows_of(a._re, a.cols), _complex_side(a, _rows_of))
    ws = [v._matrix for v in vectors]
    re, im = _complex_product(
        re_rows, im_rows, [w._re for w in ws],
        [w._imag() for w in ws] if any(w._im for w in ws) else None)
    cols = len(re_rows[0])
    _tally(mults=len(re) * cols, adds=len(re) * (cols - 1))
    return not any(re) and not any(im)


# -- the product method on the planes -----------------------------------------


def _shift_rows(a, lam):
    """The rows of the numerators of d·w·(A − λI) (``_shift_planes``), as
    (real rows, imaginary rows or None when they are zero). They differ
    from A − λI by the nonzero integer d·w alone, and every reader of a
    column pushed through them (the zero test, the residual test and
    ``_primitive``) is blind to a nonzero scale, so they take no gcd
    pass."""
    _, re, im = _shift_planes(a, lam)
    n = a.cols
    return _rows_of(re, n), _rows_of(im, n) if any(im) else None


def _push(factor, re, im):
    """The shift rows ``factor`` times the Gaussian-integer column
    re + im·i (im None for a real column), counted as ``matvec`` counts
    it."""
    rows = factor[0]
    out_re, out_im = _complex_product(rows, factor[1], [re], im and [im])
    _tally(mults=len(rows) * len(re), adds=len(rows) * (len(re) - 1))
    return out_re, out_im or None


def _pushed_column(factors, j):
    """Column j of the product of the shift rows ``factors``, read off
    the last factor and pushed right to left through the others until it
    is zero: (re, im), im None while every factor so far is real."""
    re_rows, im_rows = factors[-1]
    re = [row[j] for row in re_rows]
    im = im_rows and [row[j] for row in im_rows]
    for factor in reversed(factors[:-1]):
        if not (any(re) or im and any(im)):
            break
        re, im = _push(factor, re, im)
    return re, im


def _product_eigenvector(factors, target):
    """The first nonzero column of the product of the shift rows
    ``factors`` (the identity when there are none), normalized, and
    whether the shift rows ``target`` annihilate it; (None, False) when
    every column is zero."""
    n = len(target[0])
    for j in range(n):
        if factors:
            re, im = _pushed_column(factors, j)
        else:
            re, im = [0] * n, None
            re[j] = 1
        if any(re) or im and any(im):
            v = _primitive(re, im or (), "column")
            return v, _annihilates(target, [v])
    return None, False


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


def independent_extension(basis, candidates):
    """The candidates that lie outside the span of ``basis`` and of the
    candidates before them, in order.

    These are the pivot columns past the basis of one forward
    elimination of all the vectors placed side by side as columns, so
    the basis need not be independent and a zero candidate is never
    selected. Orientation is ignored.
    """
    if not candidates:
        return []
    columns = Matrix.from_columns([*basis, *candidates])
    re_rows, im_rows = _integer_rows(columns)
    pivots, _, _ = _eliminate(re_rows, im_rows, columns.cols)
    skip = len(basis)
    return [candidates[c - skip] for c in pivots if c >= skip]


def primitive_scale(vectors):
    """The positive rational c for which the vectors c·v, taken
    together, have Gaussian-integer components with no common integer
    factor above 1 (the vectors must not all be zero)."""
    stacked = _stacked(vectors)
    return Rational(stacked._den, gcd(*stacked._re, *stacked._im))


def _primitive_chain(vectors):
    """The vectors times the one rational c for which, taken together,
    they have Gaussian-integer components with no common integer factor
    above 1, signed so that the first nonzero component of the first
    vector has positive real part (or positive imaginary part when it is
    purely imaginary). One scale for all keeps a Jordan chain's descent
    relation. The first vector must not be zero."""
    stacked = _stacked(vectors)
    width, re, im = stacked.cols, stacked._re, stacked._im
    k = next(i for i in range(width) if re[i] or im and im[i])
    g = gcd(*re, *im)
    if re[k] < 0 or (not re[k] and im[k] < 0):
        g = -g
    return [_vector(1, [x // g for x in re[s:s + width]],
                    [y // g for y in im[s:s + width]], v.orientation)
            for v, s in zip(vectors, range(0, len(re), width))]


def _primitive(re, im, orientation):
    """The Gaussian-integer vector re + im·i (not zero; im may be ``()``)
    scaled to its canonical form: multiplying by the conjugate of the
    first nonzero component makes that component a positive integer, and
    dividing by the gcd of all integer parts makes the vector primitive,
    so its denominator is 1."""
    if im:
        k = next(i for i, (x, y) in enumerate(zip(re, im)) if x or y)
        if im[k] or re[k] < 0:
            _, re, im = _quotient(re, im, re[k], im[k])
    elif re[next(i for i, x in enumerate(re) if x)] < 0:
        re = [-x for x in re]
    g = gcd(*re, *im)
    if g != 1:
        re, im = [x // g for x in re], [y // g for y in im]
    return _vector(1, re, im, orientation)


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
    return _primitive(v._matrix._re, v._matrix._im, v.orientation)
