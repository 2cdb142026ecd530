"""Exact-arithmetic core: polynomials and matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordanable import (
    Matrix,
    Polynomial,
    invert,
    matrix_rank,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    row_reduce,
    solve_linear,
)
from jordanable.field import _products_equal, coordinates, span_contains
from .conftest import canonical_scalar, mat

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
poly_coeffs = st.lists(rationals, min_size=0, max_size=5)
nonzero_rationals = rationals.filter(bool)


def P(*coeffs):
    return Polynomial([Fraction(c) for c in coeffs])


class TestPolynomial:
    def test_degree_and_zero(self):
        assert Polynomial.zero().is_zero
        assert P(0, 0).is_zero
        assert P(1, 2, 3).degree == 2
        assert P(3).degree == 0

    def test_zero_degree_is_int_minus_one(self):
        d = Polynomial.zero().degree
        assert d == -1 and type(d) is int

    def test_arithmetic(self):
        a, b = P(1, 1), P(-1, 1)
        assert a * b == P(-1, 0, 1)
        assert a + b == P(0, 2)
        assert (a**3).coeff(2) == 3

    def test_horner_on_fraction(self):
        p = P(-2, 0, 0, 1)  # X^3 - 2
        assert p(Fraction(2)) == 6
        assert p(Fraction(0)) == -2

    def test_horner_on_matrix(self):
        n = mat([[0, 1], [0, 0]])
        p = P(1, 0, 1)  # X^2 + 1
        assert p(n) == Matrix.identity(2)

    @given(poly_coeffs, poly_coeffs)
    def test_divmod_identity(self, ac, bc):
        a, b = Polynomial(ac), Polynomial(bc)
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(a, b)
            return
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @given(poly_coeffs, poly_coeffs)
    def test_xgcd_bezout(self, ac, bc):
        a, b = Polynomial(ac), Polynomial(bc)
        if a.is_zero and b.is_zero:
            return
        g, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g
        assert poly_divmod(a, g)[1].is_zero
        assert poly_divmod(b, g)[1].is_zero
        assert g.is_monic

    def test_gcd_of_coprime(self):
        g = poly_gcd(P(-1, 1), P(1, 1))
        assert g == P(1)

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)


class TestMatrix:
    def test_basic_ops(self):
        a = mat([[1, 2], [3, 4]])
        assert a.transpose() == mat([[1, 3], [2, 4]])
        assert a + a == a.scale(2)
        assert (a * Matrix.identity(2)) == a

    def test_block_diag_and_column_stack(self):
        b = Matrix.block_diag([mat([[1]]), mat([[2, 0], [0, 3]])])
        assert b == mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        c = Matrix.column_stack([[1, 2], [3, 4]])
        assert c == mat([[1, 3], [2, 4]])

    def test_embed(self):
        small = mat([[1, 2], [3, 4]])
        assert small.embed(3, 4, [2, 0], [1, 3]) == mat(
            [[0, 3, 0, 4], [0, 0, 0, 0], [0, 1, 0, 2]]
        )

    def test_vec_unvec_roundtrip(self):
        a = mat([[1, 2, 3], [4, 5, 6]])
        assert Matrix.unvec(a.vec(), 2, 3) == a

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_vec_kron_identity(self, n, m, k):
        # vec(A X B) = (B^T kron A) vec(X), column-stacked
        import random

        rng = random.Random(n * 100 + m * 10 + k)
        rand = lambda r, c: Matrix(
            r, c, [Fraction(rng.randint(-3, 3)) for _ in range(r * c)]
        )
        a, x, b = rand(n, m), rand(m, k), rand(k, k)
        lhs = (a * x * b).vec()
        rhs = b.transpose().kron(a).apply(x.vec())
        assert tuple(lhs) == tuple(rhs)

    def test_row_reduce_kernel(self):
        m = mat([[1, 2, 3], [2, 4, 6]])
        red = row_reduce(m)
        assert red.rank == 1
        assert len(red.kernel) == 2
        for v in red.kernel:
            assert all(x == 0 for x in m.apply(v))

    def test_solve_linear(self):
        m = mat([[1, 1], [0, 1]])
        sol = solve_linear(m, [3, 2])
        assert sol is not None
        particular, null = sol
        assert list(m.apply(particular)) == [3, 2]
        assert null == []
        assert solve_linear(mat([[1, 1], [1, 1]]), [0, 1]) is None

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda c: st.tuples(
            st.lists(st.lists(rationals, min_size=c, max_size=c), max_size=4),
            st.lists(rationals, min_size=c, max_size=c),
        ))
    )
    def test_solve_linear_kernel_is_row_reduce_kernel(self, rows_x):
        # b = m x is always solvable; the one reduction of [m | b] must give
        # the same kernel as reducing m alone
        rows, x = rows_x
        m = Matrix(len(rows), len(x), [v for row in rows for v in row])
        b = list(m.apply(x))
        sol = solve_linear(m, b)
        assert sol is not None
        particular, kernel = sol
        assert list(m.apply(particular)) == b
        assert kernel == row_reduce(m)[2]

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda rc: st.tuples(
            st.lists(st.one_of(st.just(Fraction(0)), rationals),
                     min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]),
            st.lists(rationals, min_size=rc[0], max_size=rc[0]),
            st.lists(rationals, min_size=rc[1], max_size=rc[1]),
        ).map(lambda t: (rc, *t)))
    )
    def test_row_reduce_record(self, case):
        (r, c), entries, v, x = case
        m = Matrix(r, c, entries)
        red = row_reduce(m)
        assert list(red.pivots) == sorted(set(red.pivots))
        assert red.rank == len(red.pivots) == c - len(red.kernel)
        for i, pc in enumerate(red.pivots):
            assert red.rref.column(pc) == tuple(int(k == i) for k in range(r))
        assert red.transform * m == red.rref
        for k in red.kernel:
            assert not any(m.apply(k))
        # the span reader agrees with solve_linear on the empty basis
        # (c = 0), zero and in-span vectors
        columns = [m.column(j) for j in range(c)]
        for w in (v, [0] * r, m.apply(x)):
            assert span_contains(columns, w) == (solve_linear(m, w) is not None)
        assert span_contains(columns, [0] * r)
        assert span_contains(columns, m.apply(x))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_coordinates(self, data):
        # the closure reader against solve_linear and matrix_rank: a dependent
        # W raises, None exactly when some image is outside span(W), and
        # otherwise W R equals the images
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        sparse = st.one_of(st.just(Fraction(0)), rationals)
        w = Matrix(r, k, data.draw(st.lists(sparse, min_size=r * k, max_size=r * k)))
        in_span = st.lists(rationals, min_size=k, max_size=k).map(w.apply)
        images = [data.draw(st.one_of(st.lists(rationals, min_size=r, max_size=r), in_span))
                  for _ in range(c)]
        columns = [w.column(j) for j in range(k)]
        if matrix_rank(w) < k:
            with pytest.raises(ValueError, match="dependent spanning set"):
                coordinates(columns, images)
            return
        rr = coordinates(columns, images)
        if any(solve_linear(w, y) is None for y in images):
            assert rr is None
        else:
            assert [(w * rr).column(j) for j in range(c)] == [
                tuple(Fraction(y) for y in image) for image in images]

    def test_invert(self):
        m = mat([[1, 2], [3, 5]])
        assert m * invert(m) == Matrix.identity(2)
        with pytest.raises(ValueError):
            invert(mat([[1, 1], [1, 1]]))

    def test_rank(self):
        assert matrix_rank(Matrix.identity(4)) == 4
        assert matrix_rank(Matrix.zeros(3, 3)) == 0

    def test_span_contains_length_mismatch(self):
        # one column_stack of [basis | v] must reject a v of another length,
        # not truncate it
        for v in ((1, 0, 5), (1,)):
            with pytest.raises(ValueError):
                span_contains([(1, 0)], v)

# -- Matrix arithmetic against a plain Fraction-list reference -------------


@st.composite
def sparse_rows(draw, rows=None, cols=None):
    """A rows x cols list of lists, all-zero to dense; whole entries are ints,
    so that the public constructor's coercion is exercised too."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    density = draw(st.integers(0, 4))  # quarters of nonzero entries, on average
    def entry():
        if draw(st.integers(0, 3)) >= density:
            return 0
        x = draw(nonzero_rationals)
        return int(x) if x.denominator == 1 else x
    return [[entry() for _ in range(c)] for _ in range(r)]


def as_matrix(rows, cols) -> Matrix:
    return Matrix(len(rows), cols, [x for row in rows for x in row])


def ref_mul(a, b, inner, cols):
    return [[sum((Fraction(row[k]) * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for row in a]


def ref_kron(a, b, a_cols, b_cols):
    return [[Fraction(a[i][j]) * b[k][l] for j in range(a_cols) for l in range(b_cols)]
            for i in range(len(a)) for k in range(len(b))]


def exact(m: Matrix, rows):
    """m equals the reference rows and holds nothing but canonical scalars."""
    assert all(canonical_scalar(x) for x in m.entries)
    assert m.to_rows() == [[Fraction(x) for x in row] for row in rows]
    return True


class TestMatrixAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product(self, data):
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(k, c))
        assert exact(as_matrix(a, k) * as_matrix(b, c), ref_mul(a, b, k, c))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_cancelling_to_zero(self, data):
        # [A | A] [B; -B] = A B - A B: every cell's products cancel exactly
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(k, c))
        left = as_matrix([row + row for row in a], 2 * k)
        right = as_matrix(b + [[-x for x in row] for row in b], c)
        product = left * right
        assert exact(product, [[0] * c for _ in range(r)])
        assert product.is_zero and product == Matrix.zeros(r, c)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), rationals)
    def test_entrywise(self, data, c):
        r, k = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(r, k))
        ma, mb = as_matrix(a, k), as_matrix(b, k)
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
        assert exact(ma + mb, [[Fraction(x) + y for x, y in row] for row in pairs])
        assert exact(ma - mb, [[Fraction(x) - y for x, y in row] for row in pairs])
        assert exact(-ma, [[-Fraction(x) for x in row] for row in a])
        scaled = [[c * x for x in row] for row in a]
        assert exact(ma.scale(c), scaled)
        assert exact(ma * c, scaled) and exact(c * ma, scaled)
        assert exact(ma * int(c), [[int(c) * x for x in row] for row in a])
        assert exact(ma.transpose(), [[a[i][j] for i in range(r)] for j in range(k)])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kron_embed_apply(self, data):
        r, k = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        r2, k2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(r2, k2))
        ma = as_matrix(a, k)
        assert exact(ma.kron(as_matrix(b, k2)), ref_kron(a, b, k, k2))

        big_r, big_c = r + data.draw(st.integers(0, 2)), k + data.draw(st.integers(0, 2))
        row_coords = data.draw(st.permutations(range(big_r)))[:r]
        col_coords = data.draw(st.permutations(range(big_c)))[:k]
        want = [[0] * big_c for _ in range(big_r)]
        for i, gi in enumerate(row_coords):
            for j, gj in enumerate(col_coords):
                want[gi][gj] = a[i][j]
        assert exact(ma.embed(big_r, big_c, row_coords, col_coords), want)

        v = data.draw(sparse_rows(1, k))[0] if r else [0] * k
        got = ma.apply(v)
        assert all(canonical_scalar(x) for x in got)
        assert [[x] for x in got] == ref_mul(a, [[x] for x in v], k, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), poly_coeffs)
    def test_polynomial_at_matrix(self, data, coeffs):
        n = data.draw(st.integers(0, 5))
        a = data.draw(sparse_rows(n, n))
        want = [[0] * n for _ in range(n)]
        for c in reversed(Polynomial(coeffs).coeffs):  # Horner, by reference
            want = ref_mul(want, a, n, n)
            for i in range(n):
                want[i][i] += c
        assert exact(Polynomial(coeffs)(as_matrix(a, n)), want)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nonzero_view(self, data):
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(k, c))
        ma, mb = as_matrix(a, k), as_matrix(b, c)
        # built from dense data, so each keeps its dense tuple and has no
        # view until one is read
        fresh_a, fresh_b = as_matrix(a, k), as_matrix(b, c)
        # the view is each row's nonzero (column, entry) pairs, derived from
        # the dense tuple on first read and kept
        assert ma.nonzero_rows == tuple(
            tuple((j, Fraction(x)) for j, x in enumerate(row) if x) for row in a
        )
        assert ma.nonzero_rows is ma.nonzero_rows
        mb.nonzero_rows
        # a matrix with a view and one without compare and hash alike
        assert ma == fresh_a and fresh_a == ma and hash(ma) == hash(fresh_a)
        assert mb == fresh_b and hash(mb) == hash(fresh_b)
        # products, kron, apply and embed of operands whose view is read;
        # a product is built in the canonical form, its entries derived
        product = ma * mb
        assert exact(product, ref_mul(a, b, k, c))
        product.nonzero_rows
        assert exact(product * mb.transpose(), ref_mul(ref_mul(a, b, k, c),
                                                       [list(col) for col in zip(*b)], c, k))
        assert exact(ma.kron(mb), ref_kron(a, b, k, c))
        v = data.draw(sparse_rows(1, k))[0] if r else [0] * k
        assert [[x] for x in ma.apply(v)] == ref_mul(a, [[x] for x in v], k, 1)
        row_coords = data.draw(st.permutations(range(r + 1)))[:r]
        col_coords = data.draw(st.permutations(range(k + 2)))[:k]
        want = [[0] * (k + 2) for _ in range(r + 1)]
        for i, gi in enumerate(row_coords):
            for j, gj in enumerate(col_coords):
                want[gi][gj] = a[i][j]
        assert exact(ma.embed(r + 1, k + 2, row_coords, col_coords), want)

    def test_identity_and_zeros_are_exact(self):
        for n in range(4):
            assert exact(Matrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)])
            assert exact(Matrix.zeros(n, 2), [[0, 0]] * n)


def canonical(m: Matrix, rows) -> bool:
    """m is in the canonical form (per row, strictly increasing columns in
    range and no zero entry), compares equal to and hashes like the
    dense-built matrix of the reference rows, and derives their entries."""
    assert len(m.nonzero_rows) == m.rows == len(rows)
    for pairs in m.nonzero_rows:
        cols = [j for j, _x in pairs]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(canonical_scalar(x) and x != 0 for _j, x in pairs)
    dense = Matrix(m.rows, m.cols, [x for row in rows for x in row])
    assert m == dense and dense == m and hash(m) == hash(dense)
    assert m.entries == Matrix(m.rows, m.cols, dense.entries).entries
    return exact(m, rows)


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cancellation(self, data):
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(k, c))
        ma, mb = as_matrix(a, k), as_matrix(b, c)
        zero = [[0] * k for _ in range(r)]
        assert canonical(ma - ma, zero) and canonical(ma + -ma, zero)
        assert canonical(-ma + ma, zero) and canonical(ma.scale(0), zero)
        assert canonical(ma * 0, zero) and canonical(ma.scale(1), a)
        # [A | A] [B; -B] = A B - A B: every cell's products cancel exactly
        left = as_matrix([row + row for row in a], 2 * k)
        right = as_matrix(b + [[-x for x in row] for row in b], c)
        assert canonical(left * right, [[0] * c for _ in range(r)])
        # a sum whose cells cancel in some places and not in others
        half = [[x if (i + j) % 2 else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
        rest = [[Fraction(x) - y for x, y in zip(ra, rh)] for ra, rh in zip(a, half)]
        assert canonical(ma - as_matrix(half, k), rest)
        assert canonical((ma * mb) - (ma * mb), [[0] * c for _ in range(r)])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_operations(self, data):
        r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = data.draw(sparse_rows(r, k)), data.draw(sparse_rows(k, c))
        b2 = data.draw(sparse_rows(r, k))
        ma, mb, mb2 = as_matrix(a, k), as_matrix(b, c), as_matrix(b2, k)
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b2)]
        assert canonical(ma + mb2, [[Fraction(x) + y for x, y in row] for row in pairs])
        assert canonical(ma - mb2, [[Fraction(x) - y for x, y in row] for row in pairs])
        assert canonical(ma * mb, ref_mul(a, b, k, c))
        assert canonical(ma.transpose(), [[a[i][j] for i in range(r)] for j in range(k)])
        assert canonical(ma.transpose().transpose(), a)
        assert canonical(ma.kron(mb), ref_kron(a, b, k, c))
        # embed into unsorted column coordinates: each row is sorted again
        row_coords = data.draw(st.permutations(range(r + 1)))[:r]
        col_coords = data.draw(st.permutations(range(k + 2)))[:k]
        want = [[0] * (k + 2) for _ in range(r + 1)]
        for i, gi in enumerate(row_coords):
            for j, gj in enumerate(col_coords):
                want[gi][gj] = a[i][j]
        assert canonical(ma.embed(r + 1, k + 2, row_coords, col_coords), want)
        assert canonical(Matrix.block_diag([ma, mb]), [
            *(list(row) + [0] * c for row in a), *([0] * k + list(row) for row in b)])
        values = data.draw(st.lists(rationals, max_size=5))
        assert canonical(Matrix.diagonal(values), [
            [values[i] if i == j else 0 for j in range(len(values))]
            for i in range(len(values))])
        assert (ma * mb).is_zero == all(x == 0 for row in ref_mul(a, b, k, c) for x in row)
        # the dense readers of a matrix built in the canonical form
        product = ma * mb
        want = ref_mul(a, b, k, c)
        assert product.to_rows() == want and product.vec() == tuple(
            want[i][j] for j in range(c) for i in range(r))
        assert all(product.row(i) == tuple(want[i]) for i in range(r))
        assert all(product.column(j) == tuple(row[j] for row in want) for j in range(c))


class CountingFraction(Fraction):
    """A Fraction that counts the products it takes part in; as a subclass,
    its reflected __rmul__ runs before a plain Fraction's __mul__."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return super().__mul__(other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return super().__rmul__(other)


def test_product_with_jordan_matrix_skips_its_zeros():
    # J(X - 5/2, 30) with its superdiagonal halved has 59 nonzeros: a product
    # with it must not cost a dense n^3.  The entries are not integral, as
    # Matrix keeps an integral scalar as a plain int, which counts nothing
    n = 30
    j = Matrix(n, n, [CountingFraction(5, 2) if i == k else CountingFraction(1, 2)
                      if k == i + 1 else 0 for i in range(n) for k in range(n)])
    assert all(type(x) is CountingFraction for row in j.nonzero_rows for _k, x in row)
    d = Matrix(n, n, [Fraction(i * n + k + 1, k + 2) for i in range(n) for k in range(n)])
    for left, right in ((d, j), (j, d)):
        CountingFraction.products = 0
        product = left * right
        assert CountingFraction.products <= 2 * n * n
        assert product == Matrix.from_rows(ref_mul(left.to_rows(), right.to_rows(), n, n))


# -- A B == lam (C D) on nonzero rows, against the Matrix expression --------

PRODUCT_LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def products_equal_reference(a, b, c, d, lam):
    """The Matrix expression that _products_equal decides without a Matrix."""
    return a * b == (c * d).scale(lam)


def random_rows(rng, rows, cols, density):
    return [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
             if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def seeded_true_products(seed):
    """(A, B, C, D, lam) with A B == lam (C D): C = A T and D = T^-1 B / lam
    for a unit triangular T, so C D reaches A B only through cancelling
    sums.  A and B are sparse or dense; half the cases also make a row of
    A B cancel to zero (two equal rows of B weighted x and -x), and B is
    never zero."""
    rng = random.Random(f"products-{seed}")
    r, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    density = rng.choice((0.2, 0.5, 1.0))
    lam = rng.choice(PRODUCT_LAMBDAS)
    a, b = random_rows(rng, r, k, density), random_rows(rng, k, m, density)
    twins = rng.sample(range(k), 2) if k >= 2 and rng.random() < 0.5 else []
    if twins:
        i, j = twins
        b[j] = b[i]  # one list: the twin rows stay equal below
        x = Fraction(rng.choice((-2, -1, 1, 2)))
        row = rng.randrange(r)
        a[row] = [0] * k
        a[row][i], a[row][j] = x, -x
    b[rng.randrange(k)][rng.randrange(m)] = Fraction(rng.choice((-2, -1, 1, 3)))
    t = mat([[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(k)]
             for i in range(k)])
    am, bm = mat(a), mat(b)
    return am, bm, am * t, (invert(t) * bm).scale(1 / lam), lam


def rows_of(*ms):
    return [m.nonzero_rows for m in ms]


class TestProductsEqual:
    @pytest.mark.parametrize("seed", range(80))
    def test_true_identities_match_the_reference(self, seed):
        a, b, c, d, lam = seeded_true_products(seed)
        assert products_equal_reference(a, b, c, d, lam)
        assert _products_equal(*rows_of(a, b, c, d), b.cols, lam)
        # swapping the sides is lam^-1 times the same identity
        assert _products_equal(*rows_of(c, d, a, b), b.cols, 1 / lam)

    @pytest.mark.parametrize("seed", range(80))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_differing_row_is_found(self, seed, where):
        """C changed in one row i, by a unit at a column k where D's row is
        nonzero: C D, and so lam (C D), differs from A B in row i only."""
        a, b, c, d, lam = seeded_true_products(seed)
        i = {"first": 0, "middle": c.rows // 2, "last": c.rows - 1}[where]
        k = next(k for k in range(d.rows) if any(d.row(k)))
        entries = list(c.entries)
        entries[i * c.cols + k] += 1
        c2 = Matrix(c.rows, c.cols, entries)
        differs = [r for r in range(c.rows) if (a * b).row(r) != (c2 * d).scale(lam).row(r)]
        assert differs == [i]
        assert not products_equal_reference(a, b, c2, d, lam)
        assert not _products_equal(*rows_of(a, b, c2, d), b.cols, lam)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_quadruples_match_the_reference(self, seed):
        rng = random.Random(f"products-random-{seed}")
        r, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.2, 0.5, 1.0))
        a, b, c, d = (mat(random_rows(rng, *shape, density))
                      for shape in ((r, k), (k, m), (r, k), (k, m)))
        for lam in PRODUCT_LAMBDAS:
            assert (_products_equal(*rows_of(a, b, c, d), m, lam)
                    == products_equal_reference(a, b, c, d, lam))

    @pytest.mark.parametrize("seed", range(20))
    def test_none_is_the_identity(self, seed):
        a, b, c, d, lam = seeded_true_products(seed)
        cd = (c * d).scale(lam)
        assert _products_equal(a.nonzero_rows, b.nonzero_rows, cd.nonzero_rows, None,
                               b.cols)
        assert _products_equal(a.nonzero_rows, b.nonzero_rows, cd.nonzero_rows, None,
                               b.cols, 2) == cd.is_zero

    def test_zero_rows_on_both_sides_are_skipped(self):
        # rows 1 and 2 of A and C are zero: only row 0 is multiplied
        a = mat([[1, 2], [0, 0], [0, 0]])
        b = mat([[1, 0], [0, 1]])
        c = mat([[2, 4], [0, 0], [0, 0]])
        assert _products_equal(*rows_of(a, b, c, b), 2, Fraction(1, 2))
        assert not _products_equal(*rows_of(a, b, c, b), 2, Fraction(1))
