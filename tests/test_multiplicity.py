"""Multiplicity functions, dilation pushforward, symmetry groups."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordanable import (
    MultiplicityFunction,
    ZeroMultiplicityFunction,
    aleph,
    dilation_symmetries,
    projectively_equal,
    star_aleph,
)
from jordanable.multiplicity import rational_nth_roots
from .conftest import irr

nonzero_rationals = st.fractions(max_denominator=4).filter(lambda x: x != 0)


class TestMultiplicityFunction:
    def test_dim_and_supp(self):
        a = aleph((irr("X^3 - 2"), 2, 1), (irr("X"), 1, 1))
        assert a.dim == 7
        assert a.supp == [irr("X^3 - 2"), irr("X")]

    def test_merging_and_zero_entries(self):
        p = irr("X - 1")
        a = MultiplicityFunction([(p, 1, 1), (p, 1, 2), (p, 2, 0)])
        assert a(p, 1) == 3
        assert a(p, 2) == 0
        assert a.dim == 3

    def test_rejects_bad_entries(self):
        p = irr("X")
        with pytest.raises(ValueError):
            MultiplicityFunction([(p, 0, 1)])
        with pytest.raises(ValueError):
            MultiplicityFunction([(p, 1, -1)])

    def test_display(self):
        a = aleph((irr("X^3 - 2"), 2, 1), (irr("X"), 1, 1))
        assert str(a) == "(1×(X^3 - 2)^2, 1×(X)^1)"


class TestStarAleph:
    def test_pushforward(self):
        a = aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 1))
        b = star_aleph(2, a)
        assert b == aleph((irr("X - 2"), 1, 1), (irr("X + 2"), 1, 1))

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=25)
    def test_group_action(self, s, t):
        a = aleph((irr("X^2 + 1"), 2, 1), (irr("X - 1"), 1, 2))
        assert star_aleph(s, star_aleph(t, a)) == star_aleph(s * t, a)
        assert star_aleph(1, a) == a

    def test_preserves_dim(self):
        a = aleph((irr("X^3 - 2"), 2, 1), (irr("X"), 3, 2))
        assert star_aleph(Fraction(-3, 2), a).dim == a.dim


class TestRationalNthRoots:
    def test_square(self):
        assert rational_nth_roots(Fraction(9, 4), 2) == [
            Fraction(3, 2),
            Fraction(-3, 2),
        ]
        assert rational_nth_roots(Fraction(2), 2) == []
        assert rational_nth_roots(Fraction(-1), 2) == []

    def test_cube(self):
        assert rational_nth_roots(Fraction(-27), 3) == [-3]
        assert rational_nth_roots(Fraction(1, 8), 3) == [Fraction(1, 2)]


class TestDilationSymmetries:
    def test_bianchi(self, bianchi_aleph):
        dil = dilation_symmetries(bianchi_aleph)
        assert not dil.all_scalars
        assert dil.elements == (Fraction(-1), Fraction(1))

    def test_cubic(self, cubic_aleph):
        dil = dilation_symmetries(cubic_aleph)
        assert dil.elements == (Fraction(1),)

    def test_nilpotent_all_scalars(self):
        dil = dilation_symmetries(aleph((irr("X"), 3, 1)))
        assert dil.all_scalars
        assert Fraction(7, 3) in dil
        assert 0 not in dil

    def test_zero_rejected(self):
        with pytest.raises(ZeroMultiplicityFunction):
            dilation_symmetries(MultiplicityFunction(()))


# factors that dilations by +-1, +-2, +-1/2 map onto one another
DILATION_POOL = ["X", "X - 1", "X + 1", "X - 2", "X + 2", "X - 4", "X^2 + 1", "X^2 + 4",
                 "X^2 + 2*X + 2", "X^2 - 2*X + 2", "X^2 + 4*X + 8", "X^3 - 2", "X^3 + 16"]
DILATIONS = sorted({Fraction(s * n, d) for s in (1, -1) for n in (1, 2, 4) for d in (1, 2)},
                   key=lambda x: (abs(x), x < 0))


def seeded_dilation_case(seed: int) -> MultiplicityFunction:
    rng = random.Random(seed)
    return aleph(*((irr(rng.choice(DILATION_POOL)), rng.randint(1, 2), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 4))))


class TestDilationsAgainstPushforward:
    """Dil(aleph) and projectively_equal compare dilated coefficient keys;
    star_aleph, the pushforward itself, is the reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_symmetries(self, seed):
        a = seeded_dilation_case(seed)
        dil = dilation_symmetries(a)
        if a.supported_on_x:
            assert dil.all_scalars
            return
        assert all(star_aleph(lam, a) == a for lam in dil.elements)
        assert {lam for lam in DILATIONS if star_aleph(lam, a) == a} <= set(dil.elements)

    def test_multiplicities_count(self):
        # -1 swaps the two factors but not their multiplicities
        a = aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 2), (irr("X^2 + 1"), 1, 1))
        assert dilation_symmetries(a).elements == (1,)
        assert projectively_equal(a, star_aleph(-1, a)) == -1
        assert projectively_equal(a, aleph((irr("X - 1"), 1, 2), (irr("X + 1"), 1, 2),
                                           (irr("X^2 + 1"), 1, 1))) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_is_the_first_dilation(self, seed):
        a = seeded_dilation_case(seed)
        if a.supported_on_x:
            return
        for lam in DILATIONS:
            b = star_aleph(lam, a)
            # the smallest-magnitude witness, positive first, as the docstring says
            want = next(mu for mu in DILATIONS if star_aleph(mu, a) == b)
            assert projectively_equal(a, b) == want
        c = seeded_dilation_case(seed + 40)
        w = projectively_equal(a, c)
        if w is None:
            assert all(star_aleph(lam, a) != c for lam in DILATIONS)
        else:
            assert star_aleph(w, a) == c


class TestProjectivelyEqual:
    def test_dilated_pair(self):
        a1 = aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 1))
        a2 = aleph((irr("X - 2"), 1, 1), (irr("X + 2"), 1, 1))
        assert projectively_equal(a1, a2) == 2

    def test_none(self):
        a1 = aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 1))
        a2 = aleph((irr("X - 1"), 1, 1), (irr("X - 2"), 1, 1))
        assert projectively_equal(a1, a2) is None

    def test_nilpotent_shortcut(self):
        a = aleph((irr("X"), 2, 1))
        assert projectively_equal(a, a) == 1
        assert projectively_equal(a, aleph((irr("X"), 1, 2))) is None

    def test_dimension_mismatch(self):
        a1 = aleph((irr("X - 1"), 1, 1))
        a2 = aleph((irr("X - 1"), 2, 1))
        assert projectively_equal(a1, a2) is None

    @given(nonzero_rationals)
    @settings(max_examples=25)
    def test_witness_property(self, lam):
        a = aleph((irr("X^2 + 1"), 1, 1), (irr("X - 1"), 2, 1))
        found = projectively_equal(a, star_aleph(lam, a))
        assert found is not None
        assert star_aleph(found, a) == star_aleph(lam, a)
