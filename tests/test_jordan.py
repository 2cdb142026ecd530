"""Jordan blocks, canonical forms, extraction, similarity, invariance."""

import random
from fractions import Fraction

import pytest

from jordanable import (
    EPS0,
    AlmostAbelianAlgebra,
    Convention,
    InvariantSubspaceSpec,
    Matrix,
    Polynomial,
    ZeroMultiplicityFunction,
    aleph,
    canonical_form,
    check_ideal,
    check_invariant_and_restrict,
    check_subalgebra,
    invariant_subspace_from,
    invert,
    jordan_block,
    multiplicity_of,
    nilpotent_shift,
    similarity_transform,
)
from jordanable import serialize as ser
from jordanable.multiplicity import MultiplicityFunction, star_aleph
from jordanable.oracle import Profile, random_instance, random_unimodular
from .conftest import irr, mat

CUBIC_7x7 = mat(
    [
        [0, 0, 2, 1, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ]
)


class TestJordanBlock:
    def test_cubic_square_block(self):
        j = jordan_block(irr("X^3 - 2"), 2)
        # upper-left 6x6 of the reference 7x7
        assert j == mat([[CUBIC_7x7[i, k] for k in range(6)] for i in range(6)])
        p = irr("X^3 - 2").poly
        assert not p(j).is_zero
        assert (p(j) ** 2).is_zero

    def test_x_block_is_shift(self):
        for n in (1, 2, 4):
            assert jordan_block(irr("X"), n) == nilpotent_shift(n)

    def test_rotation_block(self):
        j = jordan_block(irr("X^2 - 2*X + 2"), 1, EPS0)
        assert j == mat([[1, -1], [1, 1]])
        assert irr("X^2 - 2*X + 2").poly(j).is_zero


class TestCanonicalForm:
    def test_cubic_fixture_entrywise(self, cubic_aleph):
        assert canonical_form(cubic_aleph).matrix == CUBIC_7x7

    def test_bianchi(self, bianchi_aleph):
        assert canonical_form(bianchi_aleph).matrix == mat([[1, 0], [0, -1]])

    def test_single_x(self):
        assert canonical_form(aleph((irr("X"), 1, 1))).matrix == Matrix.zeros(1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMultiplicityFunction):
            canonical_form(MultiplicityFunction(()))

    def test_index_labels(self, cubic_aleph):
        j = canonical_form(cubic_aleph)
        assert len(j.index) == 7
        assert (j.index[0].p, j.index[0].n, j.index[0].m, j.index[0].k) == (
            irr("X^3 - 2"), 2, 1, 0,
        )
        assert j.index[6].p == irr("X")


class TestMultiplicityOf:
    def test_shift(self):
        assert multiplicity_of(mat([[0, 1], [0, 0]])) == aleph((irr("X"), 2, 1))

    def test_diag(self, bianchi_aleph):
        assert multiplicity_of(mat([[1, 0], [0, -1]])) == bianchi_aleph

    def test_roundtrip_fixture(self, cubic_aleph):
        assert multiplicity_of(CUBIC_7x7) == cubic_aleph

    def test_mixed_block_lengths(self):
        a = aleph((irr("X"), 1, 1), (irr("X"), 3, 2), (irr("X - 1"), 2, 1))
        assert multiplicity_of(canonical_form(a).matrix) == a

    def test_roundtrip_random(self):
        for seed in range(15):
            a, j, _s, t = random_instance(seed)
            assert multiplicity_of(t) == a

    def test_scaling_pushforward(self):
        for seed in range(6):
            a, j, _s, _t = random_instance(seed, Profile(max_dim=8))
            for lam in (Fraction(-1), Fraction(2)):
                assert multiplicity_of(j.matrix.scale(lam)) == star_aleph(lam, a)


class TestSimilarityTransform:
    def test_already_canonical(self, cubic_aleph):
        s, j = similarity_transform(CUBIC_7x7)
        assert s * CUBIC_7x7 == j.matrix * s
        assert j.aleph == cubic_aleph

    def test_two_by_two(self):
        t = mat([[1, 1], [0, -1]])
        s, j = similarity_transform(t)
        assert j.matrix == mat([[1, 0], [0, -1]])
        assert s * t == j.matrix * s

    def test_conjugated_shift(self):
        import random

        rng = random.Random(5)
        r = random_unimodular(rng, 2, 12)
        from jordanable.field import invert

        t = invert(r) * mat([[0, 1], [0, 0]]) * r
        s, j = similarity_transform(t)
        assert j.matrix == mat([[0, 1], [0, 0]])
        assert s * t == j.matrix * s

    def test_random_instances(self):
        from jordanable.field import invert

        for seed in range(12):
            a, jref, _s, t = random_instance(seed, Profile(max_dim=9))
            s, j = similarity_transform(t)
            assert j.aleph == a
            assert s * t * invert(s) == jref.matrix

    def test_rotation_convention(self):
        a = aleph((irr("X^2 + 1"), 2, 1))
        j = canonical_form(a, EPS0)
        import random

        r = random_unimodular(random.Random(9), 4, 15)
        from jordanable.field import invert

        t = invert(r) * j.matrix * r
        s, j2 = similarity_transform(t, conv=EPS0)
        assert j2.matrix == j.matrix
        assert s * t == j2.matrix * s


# (X^2 + 1, 2) x 2 + (X - 1, 1) x 2 conjugated by a unimodular matrix:
# both factors have two chains of one height, so choosing the tops in
# another order would give another S; X^2 + 1 has the same companion at
# eps = 1 and eps = 0, so both conventions pin the same J and S
ROTATION_CHAINS_T = [
    [0, 1, 1, 0, 0, 2, 0, 0, 2, 0],
    [-3, 0, 1, 1, -1, 0, 2, 0, 2, 0],
    [-2, 0, 1, 1, 1, 0, 0, 0, 4, 0],
    [2, 2, 0, -1, -1, 5, 0, 1, -6, 0],
    [0, 0, 0, 0, 0, -1, 0, -1, 2, 0],
    [0, 0, 0, 0, 1, 0, -1, 0, 2, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 2, 2, 0, 1],
]
ROTATION_CHAINS_ALEPH = [{"p": [1, 0, 1], "n": 2, "mult": 2}, {"p": [-1, 1], "n": 1, "mult": 2}]
ROTATION_CHAINS_J = [
    [0, -1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]
ROTATION_CHAINS_S = [
    [0, "-1/2", "1/4", 0, 0, -1, 0, 0, 0, 0],
    [0, 0, "-1/4", "-1/4", "-1/4", 0, 0, 0, 0, 0],
    [1, 0, "-1/2", "-1/2", "-1/2", 0, 0, 0, -2, 0],
    [0, 0, "-1/2", 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 2, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 2, 0, 1],
]

# (T, convention, aleph, J, S) in the JSON wire format; S pins the choice
# of chain tops, not only the similarity identity
SIMILARITY_GOLDEN = {
    "derogatory": (
        [[1, -1, -1], [1, 3, 1], [0, 0, 2]],
        1,
        [{"p": [-2, 1], "n": 1, "mult": 1}, {"p": [-2, 1], "n": 2, "mult": 1}],
        [[2, 0, 0], [0, 2, 1], [0, 0, 2]],
        [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
    ),
    "cubic": (
        [[-2, -3, 1, -1], [2, 3, 1, 3], [1, 2, 1, 3], [-1, -1, -2, -3]],
        1,
        [{"p": [-2, 0, 0, 1], "n": 1, "mult": 1}, {"p": [1, 1], "n": 1, "mult": 1}],
        [[0, 0, 2, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
        [[0, 1, -1, 0], [0, 0, 1, 1], ["1/2", "1/2", 0, 0], [1, 1, 0, 1]],
    ),
    "rotation-pair-eps0": (
        [[1, 1, 2, 4], [-1, -2, -1, -4], [-2, -3, -1, -4], [0, 1, 1, 2]],
        0,
        [{"p": [1, 0, 1], "n": 1, "mult": 1}, {"p": [4, 0, 1], "n": 1, "mult": 1}],
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]],
        [[0, 1, -1, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 1]],
    ),
    "rotation-chains": (
        ROTATION_CHAINS_T, 1, ROTATION_CHAINS_ALEPH, ROTATION_CHAINS_J, ROTATION_CHAINS_S,
    ),
    "rotation-chains-eps0": (
        ROTATION_CHAINS_T, 0, ROTATION_CHAINS_ALEPH, ROTATION_CHAINS_J, ROTATION_CHAINS_S,
    ),
}


class TestSimilarityGolden:
    @pytest.mark.parametrize("name", sorted(SIMILARITY_GOLDEN))
    def test_pinned_outputs(self, name):
        t, eps, a, jm, sm = SIMILARITY_GOLDEN[name]
        s, j = similarity_transform(ser.matrix_from_json(t), conv=Convention(eps))
        assert ser.aleph_to_json(j.aleph) == a
        assert ser.matrix_to_json(j.matrix) == jm
        assert ser.matrix_to_json(s) == sm

    def test_one_filtration_pass(self, monkeypatch):
        import jordanable.field as field_mod
        import jordanable.jordan as jordan_mod

        reduced = []
        original_row_reduce = field_mod.row_reduce

        def recording_row_reduce(m):
            reduced.append(m)
            return original_row_reduce(m)

        calls = {"minimal_polynomial": 0, "multiplicity_of": 0}

        def counting(name):
            original = getattr(jordan_mod, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(jordan_mod, name, counting(name))
        for mod in (field_mod, jordan_mod):
            monkeypatch.setattr(mod, "row_reduce", recording_row_reduce)
        # aleph = (X)^2 + (X - 2)^1: the powers p(T)^k, k = 1..e+1, are
        # nonzero and pairwise distinct for both factors
        t = mat([[3, 3, -1], [-1, -1, 1], [-2, -2, 0]])
        similarity_transform(t)
        assert calls == {"minimal_polynomial": 1, "multiplicity_of": 0}
        powers = [t**k for k in (1, 2, 3)]
        powers += [(t - Matrix.identity(3).scale(2)) ** k for k in (1, 2)]
        assert [sum(m == p for m in reduced) for p in powers] == [1] * 5

    def test_one_reduction_per_question(self, monkeypatch):
        import jordanable.field as field_mod
        import jordanable.jordan as jordan_mod
        import jordanable.liealg as liealg_mod

        reduced = []
        original_row_reduce = field_mod.row_reduce

        def recording_row_reduce(m):
            reduced.append(m)
            return original_row_reduce(m)

        for mod in (field_mod, jordan_mod, liealg_mod):
            monkeypatch.setattr(mod, "row_reduce", recording_row_reduce)

        per_tops: list[int] = []
        original_chain_tops = jordan_mod._chain_tops

        def counting_chain_tops(*args):
            start = len(reduced)
            tops = original_chain_tops(*args)
            per_tops.append(len(reduced) - start)
            return tops

        monkeypatch.setattr(jordan_mod, "_chain_tops", counting_chain_tops)
        t = ser.matrix_from_json(ROTATION_CHAINS_T)
        s, j = similarity_transform(t)
        # each factor wants tops at one height: one reduction each
        assert per_tops == [1, 1]

        # reductions made before the restriction's own filtration starts
        entry: list[int] = []
        original_multiplicity_of = jordan_mod.multiplicity_of

        def multiplicity_entry(*args):
            entry.append(len(reduced))
            return original_multiplicity_of(*args)

        monkeypatch.setattr(jordan_mod, "multiplicity_of", multiplicity_entry)
        s_inv = invert(s)
        reduced.clear()
        # the two X - 1 eigenvectors, the last two chain-basis columns
        w = [s_inv.column(8), s_inv.column(9)]
        assert check_invariant_and_restrict(t, w) == aleph((irr("X - 1"), 1, 2))
        assert entry == [1]

        l = AlmostAbelianAlgebra(j.aleph)
        v = [l.unit(i) for i in range(1, l.dimension)]
        for check in (check_subalgebra, check_ideal):
            reduced.clear()
            assert check(l, v)
            assert len(reduced) == 1


class TestInvariantSubspaces:
    """The four invariant-subspace types of the 7-dim cubic fixture."""

    @pytest.fixture
    def j73(self, cubic_aleph):
        return canonical_form(cubic_aleph)

    def p(self):
        return irr("X^3 - 2")

    def q(self):
        return irr("X")

    def test_full_p_part(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.p(), 2, 1)), {(self.p(), 2, 0, 2, 0, 0): Fraction(1)}
        )
        w = invariant_subspace_from(j73, spec)
        assert len(w) == 6
        assert check_invariant_and_restrict(j73.matrix, w) == aleph((self.p(), 2, 1))

    def test_bottom_p_chain(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.p(), 1, 1)), {(self.p(), 1, 0, 2, 0, 0): Fraction(1)}
        )
        w = invariant_subspace_from(j73, spec)
        assert len(w) == 3
        # spans Fp e^1_1(p,2): the first three coordinates
        assert all(all(v[i] == 0 for i in range(3, 7)) for v in w)
        assert check_invariant_and_restrict(j73.matrix, w) == aleph((self.p(), 1, 1))

    def test_q_line(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.q(), 1, 1)), {(self.q(), 1, 0, 1, 0, 0): Fraction(1)}
        )
        w = invariant_subspace_from(j73, spec)
        assert len(w) == 1
        assert list(w[0]) == [0, 0, 0, 0, 0, 0, 1]

    def test_mixed_p_and_q(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.p(), 1, 1), (self.q(), 1, 1)),
            {
                (self.p(), 1, 0, 2, 0, 0): Fraction(1),
                (self.q(), 1, 0, 1, 0, 0): Fraction(1),
            },
        )
        w = invariant_subspace_from(j73, spec)
        assert len(w) == 4
        assert check_invariant_and_restrict(j73.matrix, w) == aleph(
            (self.p(), 1, 1), (self.q(), 1, 1)
        )

    def test_whole_space_identity_relabeling(self, j73, cubic_aleph):
        mu = {
            (self.p(), 2, 0, 2, 0, 0): Fraction(1),
            (self.q(), 1, 0, 1, 0, 0): Fraction(1),
        }
        w = invariant_subspace_from(j73, InvariantSubspaceSpec(cubic_aleph, mu))
        assert len(w) == 7
        assert check_invariant_and_restrict(j73.matrix, w) == cubic_aleph

    def test_missing_top_coefficient_rejected(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.p(), 1, 1)), {(self.p(), 1, 0, 2, 0, 1): Fraction(1)}
        )
        with pytest.raises(ValueError):
            invariant_subspace_from(j73, spec)

    def test_dependent_generators_rejected(self, j73):
        spec = InvariantSubspaceSpec(
            aleph((self.p(), 1, 2)),
            {
                (self.p(), 1, 0, 2, 0, 0): Fraction(1),
                (self.p(), 1, 1, 2, 0, 0): Fraction(2),
            },
        )
        with pytest.raises(ValueError):
            invariant_subspace_from(j73, spec)

    def test_bianchi_line(self, bianchi_aleph):
        j = canonical_form(bianchi_aleph)
        spec = InvariantSubspaceSpec(
            aleph((irr("X - 1"), 1, 1)), {(irr("X - 1"), 1, 0, 1, 0, 0): Fraction(1)}
        )
        w = invariant_subspace_from(j, spec)
        assert [list(v) for v in w] == [[1, 0]]

    def test_factor_evaluated_at_j_once(self, monkeypatch):
        calls = []
        evaluate = Polynomial.__call__

        def counting(poly, x):
            if isinstance(x, Matrix):
                calls.append(poly)
            return evaluate(poly, x)

        monkeypatch.setattr(Polynomial, "__call__", counting)
        p = irr("X^2 + 1")
        j = canonical_form(aleph((p, 1, 1), (p, 2, 1)))
        spec = InvariantSubspaceSpec(aleph((p, 1, 1)), {(p, 1, 0, 2, 0, 0): Fraction(1)})
        assert len(invariant_subspace_from(j, spec)) == 2
        assert calls == [p.poly]

    @staticmethod
    def seeded_spec(rng):
        """An aleph of X, X - 1 and X^2 + 1 blocks of length <= 3, and one
        target chain per p: a nonzero top term plus up to two terms from any
        source chain at shifts 0..2, some of which break invariance."""
        blocks = {}
        for p in rng.sample([irr("X"), irr("X - 1"), irr("X^2 + 1")], rng.randint(1, 2)):
            for n in rng.sample([1, 2, 3], rng.randint(1, 2)):
                blocks[(p, n)] = rng.randint(1, 2)
        beth, mu = [], {}
        for p in dict.fromkeys(p for p, _n in blocks):
            sources = [(k, al) for (q, k), m in blocks.items() if q == p for al in range(m)]
            n = rng.randint(1, max(k for k, _al in sources))
            beth.append((p, n, 1))
            k, al = rng.choice([s for s in sources if s[0] >= n])
            mu[(p, n, 0, k, al, 0)] = Fraction(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(0, 2)):
                k, al = rng.choice(sources)
                mu[(p, n, 0, k, al, rng.randint(0, 2))] = Fraction(rng.choice([1, -2, 3]))
        a = aleph(*((p, n, m) for (p, n), m in blocks.items()))
        return canonical_form(a), InvariantSubspaceSpec(aleph(*beth), mu)

    def test_every_answer_is_invariant_of_type_beth(self):
        rng = random.Random(16)
        answers = 0
        for _ in range(80):
            j, spec = self.seeded_spec(rng)
            try:
                w = invariant_subspace_from(j, spec)
            except ValueError:
                continue
            answers += 1
            assert check_invariant_and_restrict(j.matrix, w) == spec.beth
        assert answers >= 60


class TestCheckInvariant:
    def test_not_invariant(self):
        n2 = mat([[0, 1], [0, 0]])
        assert check_invariant_and_restrict(n2, [(0, 1)]) is None

    def test_full_basis(self, bianchi_aleph):
        t = mat([[1, 0], [0, -1]])
        assert check_invariant_and_restrict(t, [(1, 0), (0, 1)]) == bianchi_aleph

    def test_eigenline(self):
        t = mat([[1, 0], [0, -1]])
        assert check_invariant_and_restrict(t, [(1, 0)]) == aleph((irr("X - 1"), 1, 1))

    def test_dependent_rejected(self):
        t = mat([[1, 0], [0, -1]])
        with pytest.raises(ValueError):
            check_invariant_and_restrict(t, [(1, 0), (2, 0)])
