"""Structural matrices, intertwiners, and the three operator equations."""

import random
import sys
from fractions import Fraction

import pytest

from jordanable import (
    EPS0,
    EPS1,
    Matrix,
    aleph,
    canonical_form,
    companion,
    jordan_intertwiners,
    nilpotent_intertwiners,
    nilpotent_shift,
    solve_inhom_comm,
    solve_lambda_comm,
    solve_transpose_pair,
)
from jordanable.equations import (
    SolutionSpace,
    _checked_intertwiners,
    _lambda_intertwiners,
    _transpose_pair_basis,
    p_matrix,
    u_aleph,
    u_matrix,
    v_aleph,
    v_matrix,
    w_aleph,
    w_matrix,
)
from jordanable.field import invert
from jordanable.jordan import block_layout, jordan_block
from jordanable.liealg import classify_iso
from jordanable.oracle import EquationSpec, brute_solve
from jordanable.spectrum import star_irreducible
from .conftest import irr, mat

LAMBDAS = [Fraction(-1), Fraction(2), Fraction(1, 3)]
POLYS = ["X", "X - 1", "X^2 + 1", "X^3 - 2", "X^2 + X + 1"]


def form_space(j, lam):
    """The X with X J = lam J X for J in its own form, by the checked loop."""
    return SolutionSpace((j.dim, j.dim), _checked_intertwiners(j.matrix, lam, j))


def same_space(got, want):
    """Equality of solution spaces via dimension plus mutual containment."""
    if got.dim != want.dim:
        return False
    if (got.offset is None) != (want.offset is None):
        return False
    if got.offset is not None and not want.contains(got.offset):
        return False
    return all(
        want.contains(b if got.offset is None else b + got.offset)
        for b in got.basis
    )


class TestStructuralMatrices:
    def test_u_matrix(self):
        assert u_matrix(2) == mat([[1, 0], [0, 0]])
        for n in range(1, 6):
            u, nn = u_matrix(n), nilpotent_shift(n)
            assert u * nn - nn * u == nn

    def test_p_matrix(self):
        assert p_matrix(3) == mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        for n in range(1, 6):
            p, nn = p_matrix(n), nilpotent_shift(n)
            assert p * p == Matrix.identity(n)
            assert p * nn == nn.transpose() * p

    def test_v_matrix_scaling_identity(self):
        # V_d(lam)^-1 (lam x_p) V_d(lam) is the companion of lam * p
        for text in POLYS:
            p = irr(text)
            for lam in LAMBDAS:
                v = v_matrix(p.degree, lam)
                x = companion(p)
                assert invert(v) * x.scale(lam) * v == companion(
                    star_irreducible(lam, p)
                )

    def test_w_matrix_examples(self):
        assert w_matrix(irr("X - 1")) == Matrix.identity(1)
        assert w_matrix(irr("X^3 - 2")) == mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_w_matrix_intertwines_transpose(self):
        for text in POLYS:
            p = irr(text)
            w, x = w_matrix(p), companion(p)
            assert w == w.transpose()
            assert w * x == x.transpose() * w
            invert(w)  # must be invertible

    def test_w_matrix_rotation_convention(self):
        p = irr("X^2 - 2*X + 2")
        w, x = w_matrix(p, EPS0), companion(p, EPS0)
        assert w == mat([[0, 1], [1, 0]])
        assert w * x == x.transpose() * w


class TestIntertwiners:
    def test_nilpotent_shapes(self):
        s = nilpotent_intertwiners(2, 3)
        assert s.dim == 2
        assert s.shape == (3, 2)
        s = nilpotent_intertwiners(3, 2)
        assert s.dim == 2
        assert s.contains(mat([[0, 0, 1], [0, 0, 0]]))
        assert not s.contains(mat([[1, 0, 0], [0, 0, 0]]))

    def test_nilpotent_vs_oracle(self):
        for m in range(1, 4):
            for n in range(1, 4):
                got = nilpotent_intertwiners(m, n)
                want = brute_solve(
                    EquationSpec.intertwine(nilpotent_shift(m), nilpotent_shift(n))
                )
                assert same_space(got, want)

    def test_jordan_mismatch_is_zero(self):
        assert jordan_intertwiners(irr("X"), 2, irr("X - 1"), 2).dim == 0

    def test_jordan_single_block(self):
        s = jordan_intertwiners(irr("X^2 + 1"), 1, irr("X^2 + 1"), 1)
        assert s.dim == 2
        assert s.contains(Matrix.identity(2))
        assert s.contains(companion(irr("X^2 + 1")))

    def test_jordan_vs_oracle(self):
        for ptext in ["X", "X - 1", "X^2 + 1", "X^3 - 2"]:
            p = irr(ptext)
            for m in range(1, 3):
                for n in range(1, 3):
                    got = jordan_intertwiners(p, m, p, n)
                    j1 = canonical_form(aleph((p, m, 1))).matrix
                    j2 = canonical_form(aleph((p, n, 1))).matrix
                    assert same_space(got, brute_solve(EquationSpec.intertwine(j1, j2)))

    def test_commutant_vs_oracle(self, cubic_aleph):
        j = canonical_form(cubic_aleph)
        got = form_space(j, 1)
        want = brute_solve(EquationSpec.lambda_comm(j.matrix, 1))
        assert same_space(got, want)


# -- the in-place lambda-intertwiner builder against its closed form ---------

BUILDER_LAMBDAS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)]
# eps = 0 takes degree-1 factors and rotation quadratics only
BUILDER_POOLS = {
    1: ["X", "X - 1", "X + 2", "X^2 + 1", "X^2 + X + 1", "X^3 - 2", "X^3 + X + 1"],
    0: ["X", "X - 1", "X + 2", "X^2 + 1", "X^2 + 2*X + 2", "X^2 - 2*X + 5"],
}


def reference_intertwiners(blocks, conv, lam, dim):
    """The builder as a composition of closed forms: for each block pair
    (i, j) with p_j = lam*p_i, V(lam)'s block on i times each
    jordan_intertwiners element, embedded at (i, j)."""
    out = []
    for bi in blocks:
        pi = star_irreducible(lam, bi.p)
        scale = lam if conv.epsilon == 1 else lam / abs(lam)
        v = v_matrix(bi.n, 1 / lam).kron(v_matrix(bi.p.degree, scale))
        rows = range(bi.offset, bi.offset + bi.size)
        for bj in blocks:
            if pi != bj.p:
                continue
            local = jordan_intertwiners(pi, bj.n, pi, bi.n, conv)
            cols = range(bj.offset, bj.offset + bj.size)
            out.extend((v * b).embed(dim, dim, rows, cols) for b in local.basis)
    return out


def seeded_builder_case(seed):
    """(blocks, conv, lam, dim): a seeded aleph of 2-4 factors, some of them
    repeated blocks, each factor p with, half the time, lam*p beside it so
    that blocks pair up; every few seeds a block is dropped from the list,
    as when Der(L) builds on L0's blocks only."""
    rng = random.Random(seed)
    conv = (EPS1, EPS0)[seed % 2]
    lam = BUILDER_LAMBDAS[seed % len(BUILDER_LAMBDAS)]
    entries = []
    for _ in range(rng.randint(2, 4)):
        p = irr(rng.choice(BUILDER_POOLS[conv.epsilon]))
        entries.append((p, rng.randint(1, 3), rng.randint(1, 2)))
        if rng.random() < 0.5:
            entries.append((star_irreducible(lam, p), rng.randint(1, 3), 1))
    j = canonical_form(aleph(*entries), conv)
    blocks = list(j.blocks)
    if seed % 3 == 0 and len(blocks) > 1:
        blocks.pop(rng.randrange(len(blocks)))
    return blocks, conv, lam, j.dim


class TestLambdaIntertwinersInPlace:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_elements_same_order_as_closed_form(self, seed):
        blocks, conv, lam, dim = seeded_builder_case(seed)
        got = _lambda_intertwiners(blocks, conv, lam, dim)
        assert got == reference_intertwiners(blocks, conv, lam, dim)

    def test_seeds_cover_the_cases(self):
        # eps = 0 rotation pairs, degree 1/2/3 factors, repeated blocks and
        # elements for every lambda all occur among the seeds above
        seen = set()
        for seed in range(40):
            blocks, conv, lam, dim = seeded_builder_case(seed)
            n_elems = len(_lambda_intertwiners(blocks, conv, lam, dim))
            seen.update(("deg", b.p.degree, conv.epsilon) for b in blocks)
            seen.update(("repeated",) for b in blocks if b.alpha > 0)
            if n_elems:
                seen.add(("lam", lam))
        assert {("deg", 1, 1), ("deg", 2, 1), ("deg", 3, 1), ("deg", 2, 0),
                ("repeated",)} <= seen
        assert {("lam", lam) for lam in BUILDER_LAMBDAS} <= seen

    def test_builder_takes_no_matrix_products(self, monkeypatch):
        import jordanable.equations as equations_mod

        blocks, conv, lam, dim = seeded_builder_case(1)
        for b in blocks:  # the factor forms, built before counting
            equations_mod._factor_forms(b.p, conv, lam)
        calls = []
        for name in ("__mul__", "kron"):
            original = getattr(Matrix, name)
            monkeypatch.setattr(
                Matrix, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
            )
        got = _lambda_intertwiners(blocks, conv, lam, dim)
        assert got and calls == []


# -- J(aleph), W(aleph) and Z = W X written in place, against their products --


def seeded_layout_case(seed):
    """(aleph, conv): 2-4 seeded factors, some of them repeated blocks, each
    with -1*p beside it half the time, so that some blocks pair up under
    lambda = -1 and the others have no partner."""
    rng = random.Random(f"layout-{seed}")
    conv = (EPS1, EPS0)[seed % 2]
    entries = []
    for _ in range(rng.randint(2, 4)):
        p = irr(rng.choice(BUILDER_POOLS[conv.epsilon]))
        entries.append((p, rng.randint(1, 3), rng.randint(1, 2)))
        if rng.random() < 0.5:
            entries.append((star_irreducible(-1, p), rng.randint(1, 3), 1))
    return aleph(*entries), conv


def counting_products(monkeypatch, equations_mod, forms):
    """Count Matrix products, kron and block_diag calls; the factor forms
    of the forms' factors and their -1 partners (whose extension bases
    are powers of x_p, so products) are built before counting."""
    for j in forms:
        for b in j.blocks:
            for lam in (1, -1):
                equations_mod._factor_forms(b.p, j.convention, lam)
    calls = []
    for name in ("__mul__", "kron"):
        original = getattr(Matrix, name)
        monkeypatch.setattr(
            Matrix, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    block_diag = Matrix.block_diag
    monkeypatch.setattr(Matrix, "block_diag", staticmethod(
        lambda blocks: calls.append("block_diag") or block_diag(blocks)
    ))
    return calls


class TestLayoutMatricesInPlace:
    @pytest.mark.parametrize("seed", range(30))
    def test_canonical_form_is_the_block_sum(self, seed):
        a, conv = seeded_layout_case(seed)
        j = canonical_form(a, conv)
        layout = block_layout(a)
        assert j.matrix == Matrix.block_diag([jordan_block(b.p, b.n, conv) for b in layout])
        assert j.blocks == tuple(layout)

    @pytest.mark.parametrize("seed", range(30))
    def test_w_aleph_is_the_block_sum(self, seed):
        a, conv = seeded_layout_case(seed)
        assert w_aleph(a, conv) == Matrix.block_diag(
            [p_matrix(b.n).kron(w_matrix(b.p, conv)) for b in block_layout(a)]
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_transpose_pair_basis_is_w_times_x(self, seed):
        a, conv = seeded_layout_case(seed)
        j = canonical_form(a, conv)
        w = w_aleph(a, conv)
        assert _transpose_pair_basis(j) == [
            w * x for x in _lambda_intertwiners(j.blocks, conv, -1, j.dim)
        ]

    def test_seeds_cover_the_cases(self):
        # eps = 0 rotation pairs, degree 1/2/3 factors, repeated blocks,
        # factors with and without a -1 partner, and Z J + J^T Z = 0
        # solutions beyond the X blocks all occur among the seeds above
        seen = set()
        for seed in range(30):
            a, conv = seeded_layout_case(seed)
            j = canonical_form(a, conv)
            seen.update(("deg", b.p.degree, conv.epsilon) for b in j.blocks)
            seen.update(("repeated",) for b in j.blocks if b.alpha > 0)
            seen.update(("partner", star_irreducible(-1, p) in a.supp) for p in a.supp)
            if any(b.p.poly.coeff(0) for b in j.blocks) and _transpose_pair_basis(j):
                seen.add(("z beyond X",))
        assert {("deg", 1, 1), ("deg", 2, 1), ("deg", 3, 1), ("deg", 2, 0),
                ("repeated",), ("partner", True), ("partner", False),
                ("z beyond X",)} <= seen

    def test_no_products_kron_or_block_diag(self, monkeypatch):
        import jordanable.equations as equations_mod

        cases = [seeded_layout_case(seed) for seed in range(6)]
        forms = [canonical_form(a, conv) for a, conv in cases]
        calls = counting_products(monkeypatch, equations_mod, forms)
        zs = [_transpose_pair_basis(j) for j in forms]
        again = [canonical_form(a, conv) for a, conv in cases]
        assert any(zs) and again == forms
        assert calls == []


class TestLambdaComm:
    def test_sign_flip(self):
        t = mat([[1, 0], [0, -1]])
        s = solve_lambda_comm(t, -1)
        assert s.dim == 2
        assert s.contains(mat([[0, 1], [0, 0]]))
        assert s.contains(mat([[0, 0], [1, 0]]))
        assert not s.contains(Matrix.identity(2))

    def test_lambda_one_is_commutant(self):
        t = mat([[1, 0], [0, -1]])
        s = solve_lambda_comm(t, 1)
        assert s.dim == 2
        assert s.contains(Matrix.identity(2))

    def test_no_solutions(self):
        t = mat([[1]])
        assert solve_lambda_comm(t, 2).dim == 0

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            solve_lambda_comm(mat([[1]]), 0)

    def test_vs_oracle(self):
        cases = [
            aleph((irr("X"), 2, 1)),
            aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 1)),
            aleph((irr("X - 1"), 1, 1), (irr("X - 2"), 1, 1)),
            aleph((irr("X^2 + 1"), 1, 1), (irr("X^2 + 4"), 1, 1)),
            aleph((irr("X^3 - 2"), 2, 1), (irr("X"), 1, 1)),
        ]
        for a in cases:
            j = canonical_form(a)
            for lam in LAMBDAS:
                got = form_space(j, lam)
                want = brute_solve(EquationSpec.lambda_comm(j.matrix, lam))
                assert same_space(got, want), (str(a), lam)

    def test_conjugated_input(self):
        # a non-canonical matrix goes through the similarity transform
        t = mat([[0, 1], [4, 0]])  # squares to 4: eigenvalues 2, -2
        s = solve_lambda_comm(t, -1)
        assert s.dim == 2
        for b in s.basis:
            assert b * t == (t * b).scale(-1)


class TestInhomComm:
    def test_single_shift(self):
        s = solve_inhom_comm(mat([[0, 1], [0, 0]]))
        assert s is not None
        assert s.offset == mat([[1, 0], [0, 0]])
        assert s.dim == 2

    def test_unsolvable(self):
        assert solve_inhom_comm(mat([[1, 0], [0, -1]])) is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_inhom_comm(Matrix.zeros(2, 2))

    def test_mixed_nilpotent_vs_oracle(self):
        a = aleph((irr("X"), 1, 1), (irr("X"), 2, 1))
        t = canonical_form(a).matrix
        got = solve_inhom_comm(t)
        want = brute_solve(EquationSpec.inhom_comm(t))
        assert got is not None and want is not None
        assert same_space(got, want)

    def test_conjugated_nilpotent(self):
        t = mat([[1, 1], [-1, -1]])  # nilpotent of rank one
        s = solve_inhom_comm(t)
        assert s is not None
        y = s.offset
        assert y * t - t * y == t


class TestTransposePair:
    def test_sign_pair(self, bianchi_aleph):
        s = solve_transpose_pair(bianchi_aleph)
        assert s.dim == 2
        assert s.contains(mat([[0, 1], [0, 0]]))
        assert s.contains(mat([[0, 0], [1, 0]]))

    def test_vs_oracle(self, cubic_aleph, bianchi_aleph):
        for a in [
            bianchi_aleph,
            cubic_aleph,
            aleph((irr("X"), 3, 1)),
            aleph((irr("X^2 + 1"), 2, 1)),
        ]:
            j = canonical_form(a).matrix
            got = solve_transpose_pair(a)
            want = brute_solve(EquationSpec.transpose_pair(j))
            assert same_space(got, want), str(a)

    def test_rotation_convention(self, mautner_aleph):
        s = solve_transpose_pair(mautner_aleph, EPS0)
        j = canonical_form(mautner_aleph, EPS0).matrix
        want = brute_solve(EquationSpec.transpose_pair(j))
        assert same_space(s, want)


class TestNoReinversion:
    """The similarity transform hands S^-1 to its callers: a conjugated query
    inverts once per transform, and classify_iso takes V(lam)^-1 = V(1/lam)."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m.rows)
            return invert(m)

        for name, mod in list(sys.modules.items()):
            if name.startswith("jordanable") and getattr(mod, "invert", None) is invert:
                monkeypatch.setattr(mod, "invert", counting)
        return calls

    @staticmethod
    def conjugated(j: Matrix) -> Matrix:
        r = mat([[1, 0, 0, 0], [1, 1, 0, 0], [-1, 2, 1, 0], [0, 1, -1, 1]])
        return invert(r) * j * r

    def test_lambda_comm(self, inversions):
        t = self.conjugated(mat([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]]))
        inversions.clear()
        assert solve_lambda_comm(t, -1).dim == 2
        assert inversions == [4]

    def test_inhom_comm(self, inversions):
        t = self.conjugated(mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        inversions.clear()
        assert solve_inhom_comm(t) is not None
        assert inversions == [4]

    def test_classify_iso(self, inversions):
        j = mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 3]])
        t1, t2 = j, self.conjugated(j.scale(-2))
        inversions.clear()
        lam, _m = classify_iso(t1, t2)
        assert lam == -2
        assert inversions == [4, 4]  # S1 and S2
