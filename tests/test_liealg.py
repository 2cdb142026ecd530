"""Almost Abelian Lie algebras: structure data, Aut/Der, Casimirs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordanable import (
    AlmostAbelianAlgebra,
    EPS0,
    HeisenbergDeferred,
    Matrix,
    ZeroMultiplicityFunction,
    aleph,
    automorphism_space,
    bracket,
    casimir_basis,
    centre,
    check_ideal,
    check_subalgebra,
    classify_iso,
    compose_decomposable,
    decompose,
    derivation_space,
    is_automorphism,
    is_derivation,
    is_nilpotent,
    lower_central_series,
    solve_lambda_comm,
    solve_transpose_pair,
)
from jordanable.field import invert
from jordanable.liealg import LabeledVector, _split
from jordanable.oracle import EquationSpec, brute_solve, random_unimodular
from jordanable.spectrum import Convention, star_irreducible, x_irreducible
from .conftest import irr, mat

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)

# L = L0 + W with W the (X,1) blocks, as (poly, n, mult) and epsilon; the
# first three are the decomposable structure shapes of the benchmark
DECOMPOSABLE = [
    ([("X", 3, 1), ("X", 1, 1)], 1),
    ([("X - 1", 1, 1), ("X + 2", 1, 1), ("X", 1, 1)], 1),
    ([("X", 2, 2), ("X", 1, 1)], 1),
    ([("X - 1", 1, 1), ("X", 2, 1), ("X", 1, 1)], 1),
    ([("X^3 - 2", 2, 1), ("X", 1, 1)], 1),
    ([("X", 3, 1), ("X", 1, 2)], 1),
    ([("X^2 + 2*X + 2", 2, 1), ("X", 2, 1), ("X", 1, 1)], 0),
    ([("X^2 + 2", 1, 1), ("X", 1, 1)], 1),
    ([("X - 1", 1, 1), ("X + 1", 1, 1), ("X", 1, 1)], 1),
]


@pytest.fixture
def bianchi(bianchi_aleph):
    return AlmostAbelianAlgebra(bianchi_aleph)


@pytest.fixture
def cubic(cubic_aleph):
    return AlmostAbelianAlgebra(cubic_aleph)


class TestBracket:
    def test_action_of_e0(self, bianchi):
        assert bracket(bianchi, bianchi.unit(0), bianchi.unit(1)) == (0, 1, 0)
        assert bracket(bianchi, bianchi.unit(0), bianchi.unit(2)) == (0, 0, -1)

    def test_abelian_ideal(self, bianchi):
        assert bracket(bianchi, bianchi.unit(1), bianchi.unit(2)) == (0, 0, 0)

    @given(st.lists(small_fracs, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_jacobi_and_antisymmetry(self, coords):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 2, 1)))
        x, y, z = (tuple(coords[3 * k : 3 * k + 3]) for k in range(3))

        def add(u, v):
            return tuple(a + b for a, b in zip(u, v))

        assert bracket(l, x, y) == tuple(-c for c in bracket(l, y, x))
        jac = add(
            add(bracket(l, x, bracket(l, y, z)), bracket(l, y, bracket(l, z, x))),
            bracket(l, z, bracket(l, x, y)),
        )
        assert all(c == 0 for c in jac)


class TestStructure:
    def test_centre_cubic(self, cubic):
        z = centre(cubic)
        assert len(z) == 1
        assert z[0].vector == cubic.unit(7)
        assert z[0].label.p == x_irreducible()

    def test_centre_bianchi_trivial(self, bianchi):
        assert centre(bianchi) == []

    def test_lcs_cubic(self, cubic):
        for k in (1, 2, 5):
            layer = lower_central_series(cubic, k)
            assert len(layer) == 6
            assert all(v.label.p == irr("X^3 - 2") for v in layer)

    def test_lcs_nilpotent_terminates(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 3, 1)))
        assert len(lower_central_series(l, 1)) == 2
        assert len(lower_central_series(l, 2)) == 1
        assert lower_central_series(l, 3) == []

    def test_is_nilpotent(self, cubic):
        assert not is_nilpotent(cubic)
        assert is_nilpotent(AlmostAbelianAlgebra(aleph((irr("X"), 2, 1))))

    def test_decompose(self, cubic, cubic_aleph):
        l0, w = decompose(cubic)
        assert w == 1
        assert l0 == aleph((irr("X^3 - 2"), 2, 1))
        assert decompose(AlmostAbelianAlgebra(cubic_aleph))[0].dim == 6


class TestClassifyIso:
    def test_dilated_pair(self):
        t1, t2 = mat([[1, 0], [0, -1]]), mat([[2, 0], [0, -2]])
        lam, m = classify_iso(t1, t2)
        assert lam == 2
        assert (m * t1).scale(lam) == t2 * m

    def test_identity_pair(self, bianchi_aleph):
        t = mat([[1, 0], [0, -1]])
        lam, m = classify_iso(t, t)
        assert lam == 1
        assert (m * t).scale(lam) == t * m

    def test_non_isomorphic(self):
        assert classify_iso(mat([[1, 0], [0, -1]]), mat([[1, 0], [0, 2]])) is None

    def test_conjugated_pair(self):
        import random

        t1 = mat([[1, 0, 0], [0, -1, 0], [0, 0, 3]])
        r = random_unimodular(random.Random(3), 3, 14)
        t2 = invert(r) * t1.scale(Fraction(-2)) * r
        lam, m = classify_iso(t1, t2)
        assert (m * t1).scale(lam) == t2 * m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_iso(Matrix.zeros(2, 2), mat([[1, 0], [0, 1]]))


class TestAutomorphisms:
    def test_bianchi_families(self, bianchi):
        space = automorphism_space(bianchi)
        assert space.dil.elements == (Fraction(-1), Fraction(1))
        fams = dict(space.families)
        assert fams[Fraction(1)].contains(Matrix.identity(2))
        assert fams[Fraction(-1)].contains(mat([[0, 1], [1, 0]]))

    def test_assemble_and_check(self, bianchi):
        space = automorphism_space(bianchi)
        phi = space.assemble(-1, mat([[0, 2], [3, 0]]), [1, -1])
        assert is_automorphism(bianchi, phi)
        assert phi.row(0) == (Fraction(-1), Fraction(0), Fraction(0))

    def test_assemble_rejects_bad_delta(self, bianchi):
        space = automorphism_space(bianchi)
        with pytest.raises(ValueError):
            space.assemble(1, mat([[0, 1], [0, 0]]), [0, 0])  # singular
        with pytest.raises(ValueError):
            space.assemble(1, mat([[0, 1], [1, 0]]), [0, 0])  # wrong family
        with pytest.raises(ValueError):
            space.delta_space(2)  # not a dilation symmetry
        with pytest.raises(ValueError):
            space.assemble(2, mat([[1, 0], [0, 1]]), [0, 0])
        swap = mat([[0, 1], [1, 0]])
        assert is_automorphism(bianchi, space.assemble(-1, swap, [1, -1]))
        for gamma in ([1, -1, 5], [1]):  # gamma must have dim V = 2 entries
            with pytest.raises(ValueError, match="gamma must have 2 entries"):
                space.assemble(-1, swap, gamma)

    def test_random_samples_are_automorphisms(self, bianchi):
        import random

        space = automorphism_space(bianchi)
        rng = random.Random(11)
        for _ in range(20):
            nu = rng.choice([Fraction(1), Fraction(-1)])
            a, b = (Fraction(rng.randint(1, 5)) for _ in range(2))
            delta = (
                mat([[a, 0], [0, b]]) if nu == 1 else mat([[0, a], [b, 0]])
            )
            gamma = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
            phi = space.assemble(nu, delta, gamma)
            assert is_automorphism(bianchi, phi)

    def test_nilpotent_all_scalars(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 3, 1)))
        space = automorphism_space(l)
        assert space.dil.all_scalars
        with pytest.raises(ValueError):
            space.families
        assert space.delta_space(Fraction(5)).dim == 3

    def test_heisenberg_deferred(self):
        with pytest.raises(HeisenbergDeferred):
            automorphism_space(AlmostAbelianAlgebra(aleph((irr("X"), 2, 1))))

    def test_decomposable_one_space(self, cubic):
        space = automorphism_space(cubic)
        assert space.dil.elements == (Fraction(1),)
        assert space.gamma_dim == 7
        # Delta(1): the commutant of the (X^3 - 2)^2 part plus W -> W
        assert space.delta_space(1).dim == 7

    def test_phi01_corner_assembles(self):
        """identity + (W -> Z(L0)) is an automorphism with phi01 != 0."""
        l = AlmostAbelianAlgebra(
            aleph((irr("X - 1"), 1, 1), (irr("X"), 2, 1), (irr("X"), 1, 1))
        )
        xp = x_irreducible()
        z = next(i for i, x in enumerate(l.form.index) if x.p == xp and x.n == 2
                 and x.m == 1)
        w = next(i for i, x in enumerate(l.form.index) if x.p == xp and x.n == 1)
        n = l.form.dim
        delta = Matrix.identity(n) + Matrix.identity(1).embed(n, n, [z], [w])
        phi = automorphism_space(l).assemble(1, delta, [0] * n)
        assert is_automorphism(l, phi)
        assert phi[1 + z, 1 + w] == 1

    @pytest.mark.parametrize("blocks, eps", DECOMPOSABLE, ids=[
        "+".join(f"{m}x({p})^{n}" for p, n, m in blocks) + f"/eps{eps}"
        for blocks, eps in DECOMPOSABLE
    ])
    def test_decomposable_deltas_match_oracle(self, blocks, eps):
        l = AlmostAbelianAlgebra(
            aleph(*((irr(p), n, m) for p, n, m in blocks)), Convention(eps)
        )
        space = automorphism_space(l)
        nus = ((Fraction(1), Fraction(-1), Fraction(2)) if space.dil.all_scalars
               else space.dil.elements)
        for nu in nus:
            got = space.delta_space(nu)
            want = brute_solve(EquationSpec.lambda_comm(l.form.matrix, nu))
            assert got.dim == want.dim
            assert all(want.contains(b) for b in got.basis)
            assert all(got.contains(b) for b in want.basis)

    def test_abelian_and_heisenberg_core_rejected(self):
        with pytest.raises(ZeroMultiplicityFunction):
            automorphism_space(AlmostAbelianAlgebra(aleph((irr("X"), 1, 2))))
        with pytest.raises(HeisenbergDeferred):
            automorphism_space(
                AlmostAbelianAlgebra(aleph((irr("X"), 2, 1), (irr("X"), 1, 1)))
            )

    def test_no_second_canonical_form(self, cubic, monkeypatch, tmp_path, capsys):
        """Aut(L) reads everything off L's own form: the library calls build
        no canonical form, and `lie aut` builds only L's."""
        import json

        import jordanable.liealg as liealg_mod
        from jordanable.cli import main

        forms = []
        form = liealg_mod.canonical_form
        monkeypatch.setattr(
            liealg_mod, "canonical_form", lambda *args: forms.append(args) or form(*args)
        )
        automorphism_space(cubic).families
        compose_decomposable(cubic, "aut")
        assert forms == []
        path = tmp_path / "a.json"
        path.write_text(json.dumps([
            {"p": [-2, 0, 0, 1], "n": 2, "mult": 1}, {"p": [0, 1], "n": 1, "mult": 1}
        ]))
        assert main(["lie", "aut", "--aleph", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["composite"]
        assert len(forms) == 1

    def test_each_query_splits_once(self, cubic, monkeypatch, tmp_path, capsys):
        """Der, Aut, the decomposable view and `lie aut` split L once each."""
        import json

        import jordanable.liealg as liealg_mod
        from jordanable.cli import main

        splits = []
        split = liealg_mod._split
        monkeypatch.setattr(liealg_mod, "_split", lambda l: splits.append(l) or split(l))
        path = tmp_path / "a.json"
        path.write_text(json.dumps([
            {"p": [-2, 0, 0, 1], "n": 2, "mult": 1}, {"p": [0, 1], "n": 1, "mult": 1}
        ]))
        queries = [
            lambda: derivation_space(cubic),
            lambda: automorphism_space(cubic),
            lambda: compose_decomposable(cubic, "aut"),
            lambda: main(["lie", "aut", "--aleph", str(path)]),
        ]
        counts = []
        for query in queries:
            splits.clear()
            query()
            counts.append(len(splits))
        assert counts == [1, 1, 1, 1]
        assert json.loads(capsys.readouterr().out)["composite"]


# -- the L0 + W split, the centre and the lower central series read from the
# layout's blocks, against the per-coordinate filters over form.index ------


def index_coords(l, keep):
    """Full coordinates (e0 is 0) of the V basis vectors whose label passes keep."""
    return [1 + i for i, x in enumerate(l.form.index) if keep(x)]


def reference_split(l):
    """_split as (core, blocks, w, corners), read one coordinate label at a
    time from form.index, with the rejections decided on decompose's L0."""
    xp = x_irreducible()

    def in_w(x):
        return x.p == xp and x.n == 1

    l0 = decompose(l)[0]
    if l0.is_zero:
        raise ZeroMultiplicityFunction("Abelian algebra")
    if l0.entries == {(xp, 2): 1}:
        raise HeisenbergDeferred()
    n = l.dimension
    w = index_coords(l, in_w)
    centre0 = index_coords(l, lambda x: x.p == xp and x.n > 1 and x.m == 1)
    coker0 = [0] + index_coords(l, lambda x: x.p == xp and x.n > 1 and x.m == x.n)

    def unit(i, j):
        return Matrix.identity(1).embed(n, n, [i], [j])

    corners = (
        tuple(unit(z, c) for c in w for z in centre0),
        tuple(unit(c, k) for c in w for k in coker0),
        tuple(unit(ci, cj) for ci in w for cj in w),
    )
    core = index_coords(l, lambda x: not in_w(x))
    blocks = [b for b in l.form.blocks if not (b.p == xp and b.n == 1)]
    return core, blocks, w, corners


def reference_labeled(l, keep):
    return [LabeledVector(l.form.index[c - 1], l.unit(c)) for c in index_coords(l, keep)]


SPLIT_POOL = ["X", "X", "X - 1", "X + 2", "X^2 + 1", "X^3 - 2"]


def seeded_split_algebra(seed):
    """1-4 seeded entries, X-heavy so that W blocks, X chains and, now and
    then, a Heisenberg or Abelian core L0 occur."""
    rng = random.Random(f"split-{seed}")
    entries = {}
    for _ in range(rng.randint(1, 4)):
        p = rng.choice(SPLIT_POOL)
        entries[(p, rng.randint(1, 3))] = rng.randint(1, 2)
    return AlmostAbelianAlgebra(aleph(*((irr(p), n, m) for (p, n), m in entries.items())))


def split_or_error(split, l):
    try:
        return tuple(split(l))
    except (ZeroMultiplicityFunction, HeisenbergDeferred) as exc:
        return type(exc)


class TestSplitFromBlocks:
    @pytest.mark.parametrize("seed", range(60))
    def test_split_matches_index_reference(self, seed):
        l = seeded_split_algebra(seed)
        assert split_or_error(_split, l) == split_or_error(reference_split, l)

    def test_seeds_cover_the_cases(self):
        outcomes = [split_or_error(_split, seeded_split_algebra(seed)) for seed in range(60)]
        kinds = {o if isinstance(o, type) else ("w" if o[2] else "no w") for o in outcomes}
        assert kinds == {ZeroMultiplicityFunction, HeisenbergDeferred, "w", "no w"}

    @pytest.mark.parametrize("entries, error", [
        ([("X", 1, 1)], ZeroMultiplicityFunction),
        ([("X", 1, 3)], ZeroMultiplicityFunction),
        ([("X", 2, 1)], HeisenbergDeferred),
        ([("X", 2, 1), ("X", 1, 2)], HeisenbergDeferred),
    ])
    def test_abelian_and_heisenberg_rejected(self, entries, error):
        l = AlmostAbelianAlgebra(aleph(*((irr(p), n, m) for p, n, m in entries)))
        for query in (_split, derivation_space, automorphism_space):
            with pytest.raises(error):
                query(l)

    @pytest.mark.parametrize("seed", range(60))
    def test_centre_and_lcs_match_index_reference(self, seed):
        l = seeded_split_algebra(seed)
        xp = x_irreducible()
        assert centre(l) == reference_labeled(l, lambda x: x.p == xp and x.m == 1)
        for k in (1, 2, 3):
            assert lower_central_series(l, k) == reference_labeled(
                l, lambda x, k=k: x.p != xp or x.m <= x.n - k
            )


class TestDerivations:
    def test_bianchi(self, bianchi):
        d = derivation_space(bianchi)
        assert d.dim == 4
        assert same_dim_as_oracle(bianchi, d)

    def test_nilpotent_extra_direction(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 3, 1)))
        d = derivation_space(l)
        assert d.dim == 7
        assert same_dim_as_oracle(l, d)

    def test_cubic_decomposable(self, cubic):
        d = derivation_space(cubic)
        assert d.dim == 14
        assert same_dim_as_oracle(cubic, d)

    def test_small_decomposable(self):
        l = AlmostAbelianAlgebra(aleph((irr("X - 1"), 1, 1), (irr("X"), 1, 1)))
        d = derivation_space(l)
        assert d.dim == 4
        assert same_dim_as_oracle(l, d)

    def test_heisenberg_deferred_but_oracle_works(self):
        h = AlmostAbelianAlgebra(aleph((irr("X"), 2, 1)))
        with pytest.raises(HeisenbergDeferred):
            derivation_space(h)
        assert brute_solve(EquationSpec.derivation(h)).dim == 6

    def test_all_basis_elements_are_derivations(self, cubic):
        for d in derivation_space(cubic).basis:
            assert is_derivation(cubic, d)

    def test_decomposable_built_in_own_coordinates(self, cubic, monkeypatch):
        """One check per basis element and no second canonical form for L0."""
        import jordanable.liealg as liealg_mod

        checked, forms = [], []
        check, form = liealg_mod.is_derivation, liealg_mod.canonical_form
        monkeypatch.setattr(
            liealg_mod, "is_derivation", lambda l, d: checked.append(d) or check(l, d)
        )
        monkeypatch.setattr(
            liealg_mod, "canonical_form", lambda *args: forms.append(args) or form(*args)
        )
        d = derivation_space(cubic)
        assert (d.dim, len(checked), len(forms)) == (14, 14, 0)


def same_dim_as_oracle(l, space):
    want = brute_solve(EquationSpec.derivation(l))
    if space.dim != want.dim:
        return False
    return all(want.contains(b) for b in space.basis)


class TestComposeDecomposable:
    def test_corner_shapes(self, cubic):
        comp = compose_decomposable(cubic, "aut")
        assert len(comp.phi01_basis) == 0  # Z(L0) = 0 for the cubic part
        assert len(comp.phi10_basis) == 1  # only e0 survives modulo brackets
        assert len(comp.phi11_basis) == 1

    def test_assemble_automorphism(self, cubic):
        phi = automorphism_space(cubic).assemble(
            1, Matrix.block_diag([Matrix.identity(6), mat([[3]])]), [0] * 6 + [Fraction(2)]
        )
        assert is_automorphism(cubic, phi)
        assert phi[7, 7] == 3
        assert phi[7, 0] == 2

    def test_abelian_rejected(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 1, 2)))
        with pytest.raises(ZeroMultiplicityFunction):
            derivation_space(l)
        with pytest.raises(ZeroMultiplicityFunction):
            compose_decomposable(l, "aut")

    def test_heisenberg_core_rejected(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 2, 1), (irr("X"), 1, 1)))
        # h3 + F, not h3 itself: the core L0 is the Heisenberg algebra
        assert l.aleph.entries != {(x_irreducible(), 2): 1}
        with pytest.raises(HeisenbergDeferred):
            derivation_space(l)
        with pytest.raises(HeisenbergDeferred):
            compose_decomposable(l, "aut")

    def test_der_kind_rejected(self, cubic):
        with pytest.raises(ValueError):
            compose_decomposable(cubic, "der")

    def test_indecomposable_rejected(self, bianchi):
        with pytest.raises(ValueError):
            compose_decomposable(bianchi, "aut")

    def test_heisenberg_rejected(self):
        """h3 has no W either, but its Heisenberg core is rejected first."""
        with pytest.raises(HeisenbergDeferred):
            compose_decomposable(AlmostAbelianAlgebra(aleph((irr("X"), 2, 1))), "aut")


class TestCasimir:
    def test_bianchi(self, bianchi):
        basis = casimir_basis(bianchi)
        assert len(basis) == 1
        assert basis[0].matrix == mat([[0, 1], [1, 0]])
        assert basis[0].display == "2*x1*x2"

    def test_cubic(self, cubic):
        basis = casimir_basis(cubic)
        assert len(basis) == 1
        assert basis[0].display == "x7^2"

    def test_mautner_rotation(self, mautner_aleph):
        l = AlmostAbelianAlgebra(mautner_aleph, EPS0)
        basis = casimir_basis(l)
        assert len(basis) == 2
        spec = EquationSpec.symmetric_transpose_pair(l.form.matrix)
        want = brute_solve(spec)
        assert all(want.contains(c.matrix) for c in basis)

    def test_none_for_shift(self):
        l = AlmostAbelianAlgebra(aleph((irr("X"), 2, 1)))
        assert [c.matrix for c in casimir_basis(l)] == [
            mat([[0, 0], [0, 1]])
        ]


# seeded alephs for the Casimir cross-check: half the time a factor p comes
# with -1*p beside it, so that Z J + J^T Z = 0 has solutions beyond the X
# blocks
CASIMIR_POOLS = {
    1: ["X", "X - 1", "X + 2", "X^2 + 1", "X^2 + X + 1", "X^3 - 2"],
    0: ["X", "X - 1", "X + 2", "X^2 + 1", "X^2 + 2*X + 2"],
}


def seeded_algebra(seed: int) -> AlmostAbelianAlgebra:
    rng = random.Random(seed)
    eps = seed % 2
    entries, dim = [], 0
    for _ in range(rng.randint(1, 2)):
        p = irr(rng.choice(CASIMIR_POOLS[eps]))
        for q in (p, star_irreducible(-1, p)) if rng.random() < 0.5 else (p,):
            n = rng.randint(1, 2)
            if dim + n * q.degree <= 8:  # keeps the oracle's system small
                entries.append((q, n, 1))
                dim += n * q.degree
    return AlmostAbelianAlgebra(aleph(*entries), Convention(eps))


class TestCasimirSystem:
    """casimir_basis reduces only the live rows k < l of the skew parts."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        import jordanable.liealg as liealg_mod

        seen = []
        reduce = liealg_mod.row_reduce
        monkeypatch.setattr(
            liealg_mod, "row_reduce", lambda m: seen.append((m.rows, m.cols)) or reduce(m)
        )
        return seen

    @pytest.mark.parametrize("seed", range(24))
    def test_at_most_half_the_off_diagonal_rows(self, seed, shapes):
        l = seeded_algebra(seed)
        casimir_basis(l)
        n = l.form.dim
        assert shapes and all(rows <= n * (n - 1) // 2 for rows, _cols in shapes)

    @pytest.mark.parametrize("seed", range(24))
    def test_dimension_matches_oracle(self, seed):
        l = seeded_algebra(seed)
        want = brute_solve(EquationSpec.symmetric_transpose_pair(l.form.matrix))
        assert len(casimir_basis(l)) == want.dim

    def test_no_skew_part_reduces_zero_rows(self, shapes):
        # every Z with Z J + J^T Z = 0 for J = diag(1, 0) is a multiple of
        # the unit at (1, 1): symmetric, so the reduced system has no rows
        l = AlmostAbelianAlgebra(aleph((irr("X"), 1, 1), (irr("X - 1"), 1, 1)))
        basis = casimir_basis(l)
        assert shapes == [(0, 1)]
        assert [c.matrix for c in basis] == [mat([[0, 0], [0, 1]])]
        want = brute_solve(EquationSpec.symmetric_transpose_pair(l.form.matrix))
        assert want.dim == 1


class TestOneCheckPerAnswer:
    """Each structured answer is built once, in L's own form, and each of
    its elements is checked once, by an explicit verify."""

    @pytest.fixture
    def chains(self):
        return AlmostAbelianAlgebra(aleph((irr("X"), 3, 1), (irr("X"), 2, 1)))

    @pytest.fixture
    def counted(self, chains, monkeypatch):
        import jordanable.equations as equations_mod
        import jordanable.liealg as liealg_mod

        checks, forms = [], []
        for mod in (equations_mod, liealg_mod):
            verify, form = mod.verify, mod.canonical_form
            monkeypatch.setattr(
                mod, "verify", lambda *a, _v=verify, **k: checks.append(a) or _v(*a, **k)
            )
            monkeypatch.setattr(
                mod, "canonical_form", lambda *a, _f=form: forms.append(a) or _f(*a)
            )
        return checks, forms

    def test_casimirs(self, chains, counted):
        checks, forms = counted
        assert (len(casimir_basis(chains)), len(checks), len(forms)) == (5, 5, 0)

    def test_transpose_pair(self, chains, counted):
        checks, _forms = counted
        space = solve_transpose_pair(chains.aleph)
        assert (space.dim, len(checks)) == (9, 9)

    def test_lambda_commutation(self, chains, counted):
        checks, forms = counted
        space = solve_lambda_comm(chains.form, 2)
        assert (space.dim, len(checks), len(forms)) == (9, 9, 0)

    def test_commutant(self, chains, counted):
        checks, forms = counted
        space = solve_lambda_comm(chains.form, 1)
        assert (space.dim, len(checks), len(forms)) == (9, 9, 0)

    def test_derivations(self, counted):
        checks, forms = counted
        l = AlmostAbelianAlgebra(aleph((irr("X"), 3, 1), (irr("X"), 2, 1), (irr("X"), 1, 1)))
        forms.clear()  # the algebra's own form
        space = derivation_space(l)
        assert (space.dim, len(checks), len(forms)) == (21, 21, 0)


class TestSubalgebraIdeal:
    def test_bianchi_axis_ideal(self, bianchi):
        w = [(0, 1, 0)]
        assert check_subalgebra(bianchi, w)
        assert check_ideal(bianchi, w)

    def test_e0_line(self, bianchi):
        w = [(1, 0, 0)]
        assert check_subalgebra(bianchi, w)
        assert not check_ideal(bianchi, w)

    def test_full_space(self, bianchi):
        w = [bianchi.unit(i) for i in range(3)]
        assert check_subalgebra(bianchi, w)
        assert check_ideal(bianchi, w)

    def test_non_subalgebra(self, bianchi):
        # e0 + v1 alone: bracket with itself is fine, so take a 2-dim case
        w = [(1, 0, 0), (0, 1, 1)]
        assert not check_subalgebra(bianchi, w)
        assert not check_ideal(bianchi, w)

    def test_dependent_rejected(self, bianchi):
        with pytest.raises(ValueError):
            check_subalgebra(bianchi, [(1, 0, 0), (2, 0, 0)])

    def test_lone_vector_of_wrong_length_rejected(self, bianchi):
        # one vector has no brackets, so only a length check can catch it
        for v in ((1,), (1, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="vectors must be in e0 \\+ V coordinates"):
                check_subalgebra(bianchi, [v])
            with pytest.raises(ValueError, match="vectors must be in e0 \\+ V coordinates"):
                check_ideal(bianchi, [v])
