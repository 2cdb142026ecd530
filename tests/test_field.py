"""Exact-arithmetic core: polynomials and matrices."""

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
from jordanable.field import independent
from .conftest import mat

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
poly_coeffs = st.lists(rationals, min_size=0, max_size=5)


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
        rank, _rref, kernel, _t = row_reduce(m)
        assert rank == 1
        assert len(kernel) == 2
        for v in kernel:
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

    def test_invert(self):
        m = mat([[1, 2], [3, 5]])
        assert m * invert(m) == Matrix.identity(2)
        with pytest.raises(ValueError):
            invert(mat([[1, 1], [1, 1]]))

    def test_rank(self):
        assert matrix_rank(Matrix.identity(4)) == 4
        assert matrix_rank(Matrix.zeros(3, 3)) == 0

    def test_independent(self):
        assert independent([])
        assert independent([[1, 0, 1], [0, 1, 1]])
        assert not independent([[1, 2], [2, 4]])
