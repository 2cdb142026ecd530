"""Block-matrix identities for Der(L) and Aut(L) against the Leibniz rule.

The element-wise forms below bracket every pair of basis vectors: O(n^4)
per map, but they follow the definitions word for word, so they serve as
the oracle for the library's identity forms in ad_e0 = J.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordanable import (
    EPS0,
    AlmostAbelianAlgebra,
    Matrix,
    aleph,
    automorphism_space,
    bracket,
    is_automorphism,
    is_derivation,
    matrix_rank,
)
from jordanable.oracle import EquationSpec, brute_solve
from .conftest import irr, mat


def elementwise_is_derivation(l, d):
    """D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    n = l.dimension
    units = [l.unit(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d.apply(bracket(l, units[i], units[j]))
            rhs1 = bracket(l, d.apply(units[i]), units[j])
            rhs2 = bracket(l, units[i], d.apply(units[j]))
            if any(a != b + c for a, b, c in zip(lhs, rhs1, rhs2)):
                return False
    return True


def elementwise_is_automorphism(l, phi):
    """phi invertible with phi[x,y] = [phi x, phi y] on all basis pairs."""
    n = l.dimension
    if matrix_rank(phi) != n:
        return False
    units = [l.unit(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = phi.apply(bracket(l, units[i], units[j]))
            rhs = bracket(l, phi.apply(units[i]), phi.apply(units[j]))
            if lhs != rhs:
                return False
    return True


def _algebras():
    x, x1 = irr("X"), irr("X - 1")
    return {
        # nilpotent, including the Heisenberg algebra (b != 0 derivations)
        "heisenberg": AlmostAbelianAlgebra(aleph((x, 2, 1))),
        "nilpotent": AlmostAbelianAlgebra(aleph((x, 3, 1), (x, 2, 1))),
        # decomposable: an Abelian factor W = (X, 1) split off
        "decomposable": AlmostAbelianAlgebra(aleph((x, 2, 1), (x, 1, 1))),
        "split": AlmostAbelianAlgebra(aleph((x1, 2, 1), (x, 1, 2))),
        # J of rank one with a nonzero eigenvalue: J = w b with b w != 0
        "rank-one": AlmostAbelianAlgebra(aleph((x1, 1, 1), (x, 1, 1))),
        # eps = 0 rotation-scaling pair
        "rotation": AlmostAbelianAlgebra(
            aleph((irr("X^2 + 1"), 1, 1), (irr("X^2 + 4"), 1, 1)), EPS0
        ),
        # mixed support: semisimple, nilpotent and rotation parts together
        "mixed": AlmostAbelianAlgebra(
            aleph((irr("X + 2"), 1, 1), (x, 2, 1), (irr("X^2 - 2X + 2"), 1, 1)),
            EPS0,
        ),
        "bianchi": AlmostAbelianAlgebra(aleph((x1, 1, 1), (irr("X + 1"), 1, 1))),
    }


ALGEBRAS = _algebras()


@functools.cache
def _oracle_bases(name):
    """Oracle bases of Der(L) and of the commutant of J."""
    l = ALGEBRAS[name]
    der = brute_solve(EquationSpec.derivation(l)).basis
    comm = brute_solve(EquationSpec.lambda_comm(l.form.matrix, 1)).basis
    return der, comm


def _combo(rng, basis, shape):
    out = Matrix.zeros(*shape)
    for b in basis:
        out = out + b.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
    return out


def _perturb(rng, m):
    """m with one entry moved by a nonzero amount."""
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    entries = list(m.entries)
    entries[i * m.cols + j] += rng.choice((-2, -1, 1, 2))
    return Matrix(m.rows, m.cols, entries)


def _random_matrix(rng, n, density):
    return Matrix(n, n, [rng.randint(-2, 2) if rng.random() < density else 0
                         for _ in range(n * n)])


def _embed(l, nu, b, c, delta):
    """The full coordinate matrix (nu b; c Delta)."""
    rows = [[nu] + list(b)]
    rows.extend([c[i]] + list(delta.row(i)) for i in range(delta.rows))
    return mat(rows)


HEISENBERG_SWAP = mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def _random_derivation_candidate(rng, name):
    l = ALGEBRAS[name]
    n = l.dimension
    der, _ = _oracle_bases(name)
    kind = rng.randrange(4)
    if kind == 0:
        return _combo(rng, der, (n, n))
    if kind == 1:
        return _perturb(rng, _combo(rng, der, (n, n)))
    if kind == 2:  # a derivation plus a scaled identity: fails unless J = 0
        return _combo(rng, der, (n, n)) + Matrix.identity(n).scale(rng.randint(1, 3))
    return _random_matrix(rng, n, rng.choice((0.2, 0.6)))


def _random_automorphism_candidate(rng, name):
    l = ALGEBRAS[name]
    n = l.dimension - 1
    _, comm = _oracle_bases(name)
    # (1 0; c Delta) with Delta in the commutant is an automorphism when
    # Delta is invertible; compose with the special ones of each algebra.
    c = [rng.randint(-2, 2) for _ in range(n)]
    phi = _embed(l, 1, [0] * n, c, _combo(rng, comm, (n, n)))
    if name == "heisenberg" and rng.random() < 0.5:
        phi = phi * HEISENBERG_SWAP
    if name == "bianchi" and rng.random() < 0.5:
        space = automorphism_space(l)
        phi = phi * space.assemble(-1, mat([[0, 2], [-1, 0]]), [1, 0])
    kind = rng.randrange(4)
    if kind == 0:
        return phi
    if kind == 1:
        return _perturb(rng, phi)
    if kind == 2:
        return phi * Matrix.diagonal([rng.choice((2, -1))] + [1] * n)
    return _random_matrix(rng, n + 1, 0.5)


@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_derivation_identities_match_leibniz(name, seed):
    l = ALGEBRAS[name]
    d = _random_derivation_candidate(random.Random(seed), name)
    want = elementwise_is_derivation(l, d)
    assert is_derivation(l, d) == want


@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_automorphism_identities_match_definition(name, seed):
    l = ALGEBRAS[name]
    phi = _random_automorphism_candidate(random.Random(seed), name)
    want = elementwise_is_automorphism(l, phi)
    assert is_automorphism(l, phi) == want


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_both_verdicts_occur(name):
    """The random families above reach both answers on every algebra."""
    rng = random.Random(name)
    l = ALGEBRAS[name]
    der = {elementwise_is_derivation(l, _random_derivation_candidate(rng, name))
           for _ in range(40)}
    aut = {elementwise_is_automorphism(l, _random_automorphism_candidate(rng, name))
           for _ in range(40)}
    assert der == {True, False}
    assert aut == {True, False}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_oracle_derivation_basis_accepted(name):
    l = ALGEBRAS[name]
    der, _ = _oracle_bases(name)
    assert der
    assert all(is_derivation(l, d) for d in der)


class TestNegativeCases:
    def test_wedge_condition_alone_fails(self):
        # V = W + span(v1, v2) with J v2 = v1.  b = w* kills the image of
        # J, but J is not a multiple of b: [Dw, v2] = [e0, v2] = v1 != 0.
        l = ALGEBRAS["decomposable"]
        j = l.form.matrix
        w = next(k for k in range(3) if not any(j.row(k)) and not any(j.column(k)))
        b = [1 if k == w else 0 for k in range(3)]
        assert (Matrix(1, 3, b) * j).is_zero
        d = _embed(l, 0, b, [0, 0, 0], Matrix.zeros(3, 3))
        assert not elementwise_is_derivation(l, d)
        assert not is_derivation(l, d)
        phi = Matrix.identity(4) + d
        assert matrix_rank(phi) == 4
        assert not elementwise_is_automorphism(l, phi)
        assert not is_automorphism(l, phi)

    def test_row_condition_alone_fails(self):
        # J = v v* with J v = v: b = v* meets the wedge condition, but
        # b J = v* != 0, so [D e0, v] + [e0, D v] = 0 while D [e0, v] = e0.
        l = ALGEBRAS["rank-one"]
        j = l.form.matrix
        v = next(k for k in range(2) if j[k, k])
        b = [1 if k == v else 0 for k in range(2)]
        d = _embed(l, 0, b, [0, 0], Matrix.zeros(2, 2))
        assert not elementwise_is_derivation(l, d)
        assert not is_derivation(l, d)
        phi = Matrix.identity(3) + d
        assert matrix_rank(phi) == 3
        assert not elementwise_is_automorphism(l, phi)
        assert not is_automorphism(l, phi)

    def test_nonzero_b_can_pass(self):
        # Heisenberg: J = v1 v2*, and b = v2* satisfies b J = 0 and the wedge
        l = ALGEBRAS["heisenberg"]
        d = _embed(l, 0, [0, 1], [0, 0], Matrix.zeros(2, 2))
        assert elementwise_is_derivation(l, d)
        assert is_derivation(l, d)
        assert elementwise_is_automorphism(l, HEISENBERG_SWAP)
        assert is_automorphism(l, HEISENBERG_SWAP)

    def test_commutator_identity_fails(self):
        # D = e0* e0: a = 1 but Delta J - J Delta = 0 != J
        l = ALGEBRAS["bianchi"]
        d = _embed(l, 1, [0, 0], [0, 0], Matrix.zeros(2, 2))
        assert not elementwise_is_derivation(l, d)
        assert not is_derivation(l, d)
        # Delta J = J but nu J Delta = 2 J
        phi = Matrix.diagonal([2, 1, 1])
        assert not elementwise_is_automorphism(l, phi)
        assert not is_automorphism(l, phi)

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_singular_map_is_no_automorphism(self, name):
        # (1 0; 0 0) meets every identity; only invertibility fails
        l = ALGEBRAS[name]
        n = l.dimension
        phi = _embed(l, 1, [0] * (n - 1), [0] * (n - 1), Matrix.zeros(n - 1, n - 1))
        assert not elementwise_is_automorphism(l, phi)
        assert not is_automorphism(l, phi)
        assert is_automorphism(l, Matrix.identity(n))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 4)])
    def test_wrong_shape_rejected(self, shape):
        l = ALGEBRAS["bianchi"]
        m = Matrix.zeros(*shape)
        with pytest.raises(ValueError):
            is_derivation(l, m)
        with pytest.raises(ValueError):
            is_automorphism(l, m)
