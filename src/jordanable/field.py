"""Exact field arithmetic and exact dense linear algebra.

The ground field is Q, realized by :class:`fractions.Fraction`.  All
types are immutable values and all functions are pure; there is no
floating point anywhere in this package.

Matrices are stored dense, but the operators of this package are sparse
in a Jordan basis (J(aleph) has O(n) nonzeros).  Each matrix therefore
keeps a row-wise view of its nonzero (column, entry) pairs, computed on
first use and kept, like a cached hash: products, ``kron``, ``apply`` and
``embed`` read it for their operands, so a product costs one
multiplication per pair of nonzeros that meet, not n^3, and a matrix
that takes part in many products has its zeros scanned once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


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
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

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
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        return self.scale(1 / self.leading)

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
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
    q = [Fraction(0)] * max(len(a.coeffs) - db, 0)
    while len(r) - 1 >= db and r:
        c = r[-1] / lead
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
    c = 1 / r0.leading
    return r0.scale(c), s0.scale(c), t0.scale(c)


class Matrix:
    """Immutable dense matrix with exact entries, row-major storage.

    Storage is dense, but the arithmetic skips zeros: a product, ``kron``
    and ``apply`` multiply only nonzero entries of both operands, and a
    result cell that no product reaches is the shared ``Fraction(0)``.
    They find those entries in ``nonzero_rows``, the nonzero view, which
    is computed once per matrix on first use; it is derived from
    ``entries`` alone, so ``==`` and ``hash`` never read it.
    """

    __slots__ = ("rows", "cols", "entries", "_nonzero_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(_frac(x) for x in entries)
        if len(es) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = es
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
        out = [_ZERO] * (n * n)
        out[:: n + 1] = [_ONE] * n
        return _matrix(n, n, out)

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return _matrix(r, c, (_ZERO,) * (r * c))

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        out = [_ZERO] * (n * n)
        out[:: n + 1] = [_frac(x) for x in values]
        return _matrix(n, n, out)

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        r = sum(b.rows for b in blocks)
        c = sum(b.cols for b in blocks)
        out = [_ZERO] * (r * c)
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                at = (i0 + i) * c + j0
                out[at : at + b.cols] = b.row(i)
            i0 += b.rows
            j0 += b.cols
        return _matrix(r, c, out)

    @staticmethod
    def column_stack(columns: Sequence[Sequence]) -> "Matrix":
        c = len(columns)
        r = len(columns[0]) if c else 0
        if any(len(col) != r for col in columns):
            raise ValueError("ragged columns")
        return Matrix(r, c, [columns[j][i] for i in range(r) for j in range(c)])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @property
    def nonzero_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per row, its nonzero (column, entry) pairs in column order;
        computed on first use and kept, which is safe as entries never
        change."""
        view = self._nonzero_rows
        if view is None:
            c, e = self.cols, self.entries
            rows = [e[i * c : (i + 1) * c] for i in range(self.rows)]
            view = self._nonzero_rows = tuple(
                [tuple(compress(enumerate(row), row)) for row in rows]
            )
        return view

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def vec(self) -> tuple:
        """Column-stacked vectorization."""
        return self.transpose().entries

    @staticmethod
    def unvec(v: Sequence, rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [v[j * rows + i] for i in range(rows) for j in range(cols)])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _matrix(self.rows, self.cols, [
            (a + b if a else b) if b else a for a, b in zip(self.entries, other.entries)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _matrix(self.rows, self.cols, [
            (a - b if a else -b) if b else a for a, b in zip(self.entries, other.entries)
        ])

    def __neg__(self) -> "Matrix":
        return _matrix(self.rows, self.cols, [-a if a else a for a in self.entries])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return _matrix(self.rows, self.cols, [c * a if a else a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        m = other.cols
        pairs = other.nonzero_rows
        out = []
        for row in self.nonzero_rows:
            # a cell is _ZERO until its first product lands; products are
            # fresh objects, so the identity test never confuses the two
            acc = [_ZERO] * m
            for k, a in row:
                for j, x in pairs[k]:
                    y = acc[j]
                    acc[j] = a * x if y is _ZERO else y + a * x
            out += acc
        return _matrix(self.rows, m, out)

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
        v = [_frac(x) if x else _ZERO for x in v]
        out = []
        for row in self.nonzero_rows:
            acc = _ZERO
            for j, a in row:
                x = v[j]
                if x:
                    acc = a * x if acc is _ZERO else acc + a * x
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        c = self.cols
        return _matrix(c, self.rows, [x for j in range(c) for x in self.entries[j::c]])

    def kron(self, other: "Matrix") -> "Matrix":
        """Block matrix with self's entries multiplying copies of other."""
        r, c = self.rows * other.rows, self.cols * other.cols
        out = [_ZERO] * (r * c)
        # (offset in a block, entry) for the nonzero entries of other
        pairs = [(k * c + l, x) for k, row in enumerate(other.nonzero_rows) for l, x in row]
        for i, row in enumerate(self.nonzero_rows):
            for j, a in row:
                base = i * other.rows * c + j * other.cols
                for off, x in pairs:
                    out[base + off] = a * x
        return _matrix(r, c, out)

    def embed(
        self, rows: int, cols: int, row_coords: Sequence[int], col_coords: Sequence[int]
    ) -> "Matrix":
        """The rows x cols matrix with self[i, j] at (row_coords[i],
        col_coords[j]) and zeros elsewhere."""
        out = [_ZERO] * (rows * cols)
        for gi, row in zip(row_coords, self.nonzero_rows):
            for j, x in row:
                out[gi * cols + col_coords[j]] = x
        return _matrix(rows, cols, out)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _matrix(rows: int, cols: int, entries) -> Matrix:
    """A Matrix over entries that are already Fractions, without coercing
    them; the methods above build every result through it."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m.entries = tuple(entries)
    m._nonzero_rows = None
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


def row_reduce(m: Matrix) -> RowReduction:
    """One Gauss-Jordan elimination of m, returned as the RowReduction
    (pivots, rref, kernel, transform); rank + len(kernel) == m.cols."""
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
        inv = 1 / a[rank][col]
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
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][free]
        kernel.append(tuple(v))
    return RowReduction(tuple(pivots), _matrix(m.rows, m.cols, [x for r in a for x in r]),
                        kernel, _matrix(m.rows, m.rows, [x for r in t for x in r]))


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
    particular = [_ZERO] * m.cols
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
