"""Exact field arithmetic and exact linear algebra.

The ground field is Q.  A scalar is held in one canonical exact form: an
``int`` when it is integral, and otherwise a :class:`fractions.Fraction`
with denominator > 1.  `_frac` puts any input in that form (a float or a
complex is a TypeError), `_div` is the package's one true division, and
the builders below keep their results in it.  The structure data of the
paper are almost all small integers, so their products and comparisons
run on Python ints; an integral Fraction that an elimination keeps still
compares and hashes like its int.  All types are immutable values and
all functions are pure; there is no floating point anywhere in this
package.

The operators of this package are sparse in a Jordan basis (J(aleph) has
O(n) nonzeros, and each structure basis element is a unit map or a
shifted intertwiner), so a matrix is stored by its nonzero rows: per
row, the (column, entry) pairs of its nonzero entries in increasing
column order.  Arithmetic reads and writes only those pairs: a product
costs one multiplication per pair of nonzeros that meet, not n^3, and a
sum, a comparison or a transpose one step per nonzero, not per cell.
Matrices read from dense data keep their dense tuple as well, and
elimination works on dense rows.

The substitution checks of the solvers are identities A B = lam (C D).
`_products_equal` decides one on the factors' nonzero rows: row i of
each side is one row product, a row that is zero in both A and C is
skipped, the first row that differs ends the check, and no product
matrix is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence


def _frac(x):
    """x as a canonical exact scalar: an int when x is integral, else a
    Fraction with denominator > 1.  A float or a complex is a TypeError:
    its binary value is not the number it was written as."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, (float, complex)):
            raise TypeError(f"{x!r} is a {type(x).__name__}, not an exact scalar; "
                            "use an int, a Fraction or a string such as '1/10'")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """a / b of two canonical scalars, canonical: the one true division of
    this package.  Two ints divide by divmod, giving the int quotient
    when the remainder is zero and never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _frac(a / b)


class Polynomial:
    """Dense univariate polynomial over Q, coefficient i of X**i.

    The zero polynomial is the empty coefficient vector with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = _frac(c)
        return Polynomial(c * a for a in self.coeffs)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(_div(1, self.leading))

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, x):
        """Evaluate by Horner at a rational or a square matrix."""
        if isinstance(x, Matrix):
            acc = Matrix.zeros(x.rows, x.cols)
            ident = Matrix.identity(x.rows)
            for c in reversed(self.coeffs):
                acc = acc * x + ident.scale(c)
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _frac(acc)

    # -- comparison, hashing, display ---------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        return format_terms(
            (self.coeffs[k], "X" if k == 1 else f"X^{k}" if k else "")
            for k in range(len(self.coeffs) - 1, -1, -1)
        )


def format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """The sum of c*sym over the nonzero c, as text: a +-1 coefficient is
    dropped (an empty sym is a constant and keeps it), and a negative
    term is joined with " - "; "0" when every c is zero."""
    out = ""
    for c, sym in terms:
        if not c:
            continue
        if not sym:
            term = str(c)
        elif c == 1:
            term = sym
        elif c == -1:
            term = "-" + sym
        else:
            term = f"{c}*{sym}"
        if out:
            term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        out += term
    return out or "0"


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    db, lead = b.degree, b.leading
    q = [0] * max(len(a.coeffs) - db, 0)
    while len(r) - 1 >= db and r:
        c = _div(r[-1], lead)
        k = len(r) - 1 - db
        q[k] = c
        for i, bc in enumerate(b.coeffs):
            r[k + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    return Polynomial(q), Polynomial(r)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.monic() if not a.is_zero else a


def poly_xgcd(a: Polynomial, b: Polynomial):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic or zero."""
    r0, r1 = a, b
    s0, s1 = Polynomial.one(), Polynomial.zero()
    t0, t1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = _div(1, r0.leading)
    return r0.scale(c), s0.scale(c), t0.scale(c)


class Matrix:
    """Immutable exact matrix, stored by its nonzero entries.

    Entries are canonical scalars (`_frac`): ints, and Fractions with
    denominator > 1.  The canonical form is ``nonzero_rows``: per row,
    the (column, entry) pairs of its nonzero entries in strictly
    increasing column order.
    ``==`` and ``hash`` read it, and ``+``, ``-``, ``scale``, products,
    ``transpose``, ``kron``, ``embed`` and the structured constructors
    build their results in it, row by row over the nonzeros of their
    operands, dropping the zeros that cancel.  The dense row-major
    ``entries`` tuple of such a result is derived on first use and kept.
    A matrix built from dense data (the public constructor, ``from_rows``,
    ``column_stack``, an elimination's rref) keeps its dense tuple and
    derives the nonzero view on first use instead.  Either is kept once
    made, which is safe as neither ever changes.
    """

    __slots__ = ("rows", "cols", "_entries", "_nonzero_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(_frac(x) for x in entries)
        if len(es) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._entries = es
        self._nonzero_rows = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return Matrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _sparse(n, n, tuple([((i, 1),) for i in range(n)]))

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return _sparse(r, c, ((),) * r)

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        es = [_frac(x) for x in values]
        return _sparse(len(es), len(es), tuple([((i, x),) if x else () for i, x in enumerate(es)]))

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        out: list = []
        c = 0
        for b in blocks:
            out += [tuple([(c + j, x) for j, x in row]) for row in b.nonzero_rows]
            c += b.cols
        return _sparse(len(out), c, tuple(out))

    @staticmethod
    def column_stack(columns: Sequence[Sequence]) -> "Matrix":
        c = len(columns)
        r = len(columns[0]) if c else 0
        if any(len(col) != r for col in columns):
            raise ValueError("ragged columns")
        return Matrix(r, c, [columns[j][i] for i in range(r) for j in range(c)])

    # -- access -------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The dense row-major entries; derived from the nonzero view on
        first use and kept."""
        es = self._entries
        if es is None:
            c = self.cols
            out = [0] * (self.rows * c)
            for i, row in enumerate(self._nonzero_rows):
                at = i * c
                for j, x in row:
                    out[at + j] = x
            es = self._entries = tuple(out)
        return es

    @property
    def nonzero_rows(self) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
        """Per row, its nonzero (column, entry) pairs in column order: the
        canonical form, derived from ``entries`` on first use when the
        matrix was built from dense data."""
        view = self._nonzero_rows
        if view is None:
            c, e = self.cols, self._entries
            rows = [e[i * c : (i + 1) * c] for i in range(self.rows)]
            view = self._nonzero_rows = tuple(
                [tuple(compress(enumerate(row), row)) for row in rows]
            )
        return view

    def __getitem__(self, ij) -> int | Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        c = self.cols
        if self._entries is not None:
            return self._entries[i * c : (i + 1) * c]
        out = [0] * c
        for j, x in self._nonzero_rows[i]:
            out[j] = x
        return tuple(out)

    def column(self, j: int) -> tuple:
        return tuple([next((x for k, x in row if k == j), 0) for row in self.nonzero_rows])

    def to_rows(self) -> list[list[int | Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def vec(self) -> tuple:
        """Column-stacked vectorization."""
        r = self.rows
        out = [0] * (r * self.cols)
        for i, row in enumerate(self.nonzero_rows):
            for j, x in row:
                out[j * r + i] = x
        return tuple(out)

    @staticmethod
    def unvec(v: Sequence, rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [v[j * rows + i] for i in range(rows) for j in range(cols)])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _sparse(self.rows, self.cols,
                       tuple(map(_add_rows, self.nonzero_rows, other.nonzero_rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return _sparse(self.rows, self.cols, tuple(
            [tuple([(j, -x) for j, x in row]) for row in self.nonzero_rows]))

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        if c == 1:
            return self
        return _sparse(self.rows, self.cols, tuple(
            [tuple([(j, _frac(c * x)) for j, x in row]) for row in self.nonzero_rows]))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        pairs = other.nonzero_rows
        acc = [None] * other.cols
        return _sparse(self.rows, other.cols,
                       tuple([_row_product(row, pairs, acc) for row in self.nonzero_rows]))

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        v = [_frac(x) for x in v]
        out = []
        for row in self.nonzero_rows:
            acc = 0
            for j, a in row:
                x = v[j]
                if x:
                    acc += a * x
            out.append(acc if type(acc) is int else _frac(acc))
        return tuple(out)

    def transpose(self) -> "Matrix":
        cols: list[list] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows):
            for j, x in row:
                cols[j].append((i, x))
        return _sparse(self.cols, self.rows, tuple(map(tuple, cols)))

    def kron(self, other: "Matrix") -> "Matrix":
        """Block matrix with self's entries multiplying copies of other."""
        oc = other.cols
        return _sparse(self.rows * other.rows, self.cols * oc, tuple([
            tuple([(j * oc + l, _frac(a * x)) for j, a in row for l, x in orow])
            for row in self.nonzero_rows for orow in other.nonzero_rows
        ]))

    def embed(
        self, rows: int, cols: int, row_coords: Sequence[int], col_coords: Sequence[int]
    ) -> "Matrix":
        """The rows x cols matrix with self[i, j] at (row_coords[i],
        col_coords[j]) and zeros elsewhere; the coordinates are distinct."""
        out = [()] * rows
        for gi, row in zip(row_coords, self.nonzero_rows):
            out[gi] = tuple(sorted([(col_coords[j], x) for j, x in row], key=itemgetter(0)))
        return _sparse(rows, cols, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not any(self.nonzero_rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.nonzero_rows == other.nonzero_rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzero_rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def _row_product(row: tuple, rows: tuple, acc: list) -> tuple:
    """The canonical row sum of a * rows[k] over the (k, a) of a canonical
    row: one multiplication per pair of nonzeros that meet.  acc is a
    scratch list of None, one per column, and is left as it was found."""
    if len(row) < 2:  # zero or a multiple of one row: no sums
        if not row:
            return row
        k, a = row[0]
        return rows[k] if a == 1 else tuple([(j, _frac(a * x)) for j, x in rows[k]])
    hit = []
    for k, a in row:
        for j, x in rows[k]:
            y = acc[j]
            if y is None:
                acc[j] = a * x
                hit.append(j)
            else:
                acc[j] = y + a * x
    hit.sort()
    out = []
    for j in hit:
        y = acc[j]
        acc[j] = None
        if y:
            out.append((j, y if type(y) is int else _frac(y)))
    return tuple(out)


def _products_equal(a: tuple, b: tuple, c: tuple, d: Optional[tuple],
                    cols: int, lam=1) -> bool:
    """A B == lam (C D), decided row by row on the canonical nonzero rows of
    the four factors (``Matrix.nonzero_rows``; d None is the identity; a
    and c have one row count), cols the width of the products.  Row i of
    each side is one canonical row product, skipped when row i of both A
    and C is zero, and the first row that differs decides; no Matrix is
    built."""
    acc = [None] * cols
    scaled = lam != 1
    for ra, rc in zip(a, c):
        if not ra and not rc:
            continue
        left = _row_product(ra, b, acc)
        right = rc if d is None else _row_product(rc, d, acc)
        if scaled and right:
            right = tuple([(j, lam * x) for j, x in right]) if lam else ()
        if left != right:
            return False
    return True


def _add_rows(p: tuple, q: tuple) -> tuple:
    """The canonical row p + q of two canonical rows."""
    if not q:
        return p
    if not p:
        return q
    acc = dict(p)
    for j, x in q:
        y = acc.get(j)
        if y is None:
            acc[j] = x
        else:
            y += x
            if y:
                acc[j] = y if type(y) is int else _frac(y)
            else:
                del acc[j]
    # the columns are distinct, so the sort never compares two entries
    return tuple(sorted(acc.items()))


def _matrix(rows: int, cols: int, entries) -> Matrix:
    """A Matrix over dense row-major entries that are already canonical
    scalars, without coercing them; its nonzero view is derived on first
    use."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._entries = tuple(entries)
    m._nonzero_rows = None
    return m


def _sparse(rows: int, cols: int, nonzero_rows: tuple) -> Matrix:
    """A Matrix given in its canonical form: per row, a tuple of nonzero
    (column, entry) pairs, canonical scalar entries (`_frac`), strictly
    increasing columns.  The builders of this package write their results
    through it."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._entries = None
    m._nonzero_rows = nonzero_rows
    return m


class RowReduction(NamedTuple):
    """One elimination of m: the strictly increasing pivot columns, the
    reduced row echelon form (row i leads with 1 in column pivots[i]), a
    right-nullspace basis (one vector per free column, in order) and the
    invertible transform with transform * m == rref."""

    pivots: tuple[int, ...]
    rref: Matrix
    kernel: list[tuple]
    transform: Matrix

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _canonical(xs) -> list:
    """The canonical scalars of xs, ints and Fractions of any denominator."""
    return [x if type(x) is int else _frac(x) for x in xs]


def row_reduce(m: Matrix) -> RowReduction:
    """One Gauss-Jordan elimination of m, returned as the RowReduction
    (pivots, rref, kernel, transform); rank + len(kernel) == m.cols.
    The rows may hold integral Fractions while they are reduced; the
    returned matrices and vectors hold canonical scalars."""
    a = m.to_rows()
    t = Matrix.identity(m.rows).to_rows()
    rank = 0
    pivots: list[int] = []
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        t[rank], t[piv] = t[piv], t[rank]
        inv = _div(1, a[rank][col])
        if inv != 1:
            a[rank] = [x * inv for x in a[rank]]
            t[rank] = [x * inv for x in t[rank]]
        for i in range(m.rows):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                t[i] = [x - f * y for x, y in zip(t[i], t[rank])]
        pivots.append(col)
        rank += 1
        if rank == m.rows:
            break
    kernel = []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][free]
        kernel.append(tuple(_canonical(v)))
    return RowReduction(tuple(pivots),
                        _matrix(m.rows, m.cols, _canonical(x for r in a for x in r)),
                        kernel, _matrix(m.rows, m.rows, _canonical(x for r in t for x in r)))


def matrix_rank(m: Matrix) -> int:
    return row_reduce(m).rank


def solve_linear(m: Matrix, b: Sequence) -> Optional[tuple[tuple, list[tuple]]]:
    """Solve m*x = b exactly.

    Returns (particular, nullspace_basis), or None when b is outside the
    column space.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = _matrix(m.rows, m.cols + 1,
                  [x for i in range(m.rows) for x in (*m.row(i), _frac(b[i]))])
    pivots, rref, aug_kernel, _ = row_reduce(aug)
    if pivots and pivots[-1] == m.cols:
        return None  # pivot in the augmented column: inconsistent
    particular = [0] * m.cols
    for i, pc in enumerate(pivots):
        particular[pc] = rref[i, m.cols]
    # the augmented column is free and last, so the other kernel vectors of
    # aug, cut to m.cols entries, are the kernel of m
    kernel = [v[:-1] for v in aug_kernel[:-1]]
    return tuple(particular), kernel


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    red = row_reduce(m)
    if red.rank != m.rows:
        raise ValueError("matrix is singular")
    return red.transform


def span_contains(basis: list[Sequence], v: Sequence) -> bool:
    """Membership of v in the span of the given vectors: v's column of
    [basis | v] is not a pivot."""
    return len(basis) not in row_reduce(Matrix.column_stack([*basis, v])).pivots


def coordinates(w: Sequence[Sequence], images: Sequence[Sequence]) -> Optional[Matrix]:
    """The R with images = W R, W the k vectors w as columns, or None when
    some image is outside span(w).  One reduction of [W | images] answers
    both: w is independent iff its columns are the first k pivots, and the
    images lie in span(w) iff the rank is k; R is then rref's top right."""
    k, c = len(w), len(images)
    red = row_reduce(Matrix.column_stack([*w, *images]))
    if red.pivots[:k] != tuple(range(k)):
        raise ValueError("dependent spanning set")
    if red.rank != k:
        return None
    return _matrix(k, c, [red.rref[i, k + j] for i in range(k) for j in range(c)])
