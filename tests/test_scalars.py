"""The canonical exact scalar: an int when integral, else a Fraction with
denominator > 1, with `field._div` the one true division of the library."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jordanable
from jordanable import (
    AlmostAbelianAlgebra,
    Convention,
    HeisenbergDeferred,
    Matrix,
    Polynomial,
    ZeroMultiplicityFunction,
    aleph,
    automorphism_space,
    canonical_form,
    casimir_basis,
    derivation_space,
    similarity_transform,
    solve_lambda_comm,
    solve_transpose_pair,
)
from jordanable.field import _div, _frac, invert
from jordanable.oracle import random_unimodular
from jordanable.spectrum import star_irreducible
from .conftest import canonical_scalar, irr

scalars = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=60),
).map(_frac)


class TestCanonicalScalar:
    @settings(max_examples=300, deadline=None)
    @given(scalars, scalars.filter(bool))
    def test_div_is_fraction_division(self, a, b):
        q = _div(a, b)
        assert q == Fraction(a) / Fraction(b)
        assert canonical_scalar(q)

    def test_div_of_ints(self):
        assert _div(6, 3) == 2 and type(_div(6, 3)) is int
        assert _div(-6, -3) == 2 and type(_div(-6, -3)) is int
        assert _div(0, -5) == 0 and type(_div(0, -5)) is int
        assert _div(-7, 2) == Fraction(-7, 2) and type(_div(-7, 2)) is Fraction
        q = _div(Fraction(3, 2), Fraction(1, 2))
        assert q == 3 and type(q) is int
        with pytest.raises(ZeroDivisionError):
            _div(1, 0)
        with pytest.raises(ZeroDivisionError):
            _div(Fraction(1, 2), 0)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(max_denominator=60))
    def test_frac_is_canonical(self, x):
        for given_as in (x, str(x)):
            assert _frac(given_as) == x and canonical_scalar(_frac(given_as))
        assert canonical_scalar(_frac(True)) and _frac(True) == 1

    @pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, 1j, float("nan")])
    def test_float_and_complex_are_type_errors(self, bad):
        # 0.1 is 3602879701896397/36028797018963968 as a binary float: no
        # float may silently become a rational
        with pytest.raises(TypeError):
            Matrix.from_rows([[bad]])
        with pytest.raises(TypeError):
            Matrix(1, 2, [1, bad])
        with pytest.raises(TypeError):
            Matrix.diagonal([bad])
        with pytest.raises(TypeError):
            Matrix.identity(2).scale(bad)
        with pytest.raises(TypeError):
            Matrix.identity(2) * bad
        with pytest.raises(TypeError):
            Matrix.identity(2).apply([1, bad])
        with pytest.raises(TypeError):
            Polynomial([1, bad])
        with pytest.raises(TypeError):
            Polynomial([1, 1]).scale(bad)

    def test_exact_inputs_stay_accepted(self):
        m = Matrix.from_rows([["1/10", Fraction(4, 2)], [True, -3]])
        assert m.to_rows() == [[Fraction(1, 10), 2], [1, -3]]
        assert all(canonical_scalar(x) for x in m.entries)
        assert Polynomial(["1/2", Fraction(2, 2)]).coeffs == (Fraction(1, 2), 1)


# -- every structured answer holds canonical scalars -------------------------

STRUCTURE_POOLS = {
    1: ["X", "X", "X - 1", "X + 1/2", "X - 2", "X^2 + 1", "X^2 + 1/2*X + 3", "X^3 - 2"],
    0: ["X", "X", "X - 1", "X + 1/2", "X^2 + 1", "X^2 + X + 1/2", "X^2 - 2*X + 5"],
}


def seeded_structure_algebra(seed: int) -> AlmostAbelianAlgebra:
    """Seeded factors of total dimension <= 8 in convention seed % 2, each
    with its -1 dilate half the time, so that the -1 intertwiners of
    Z J + J^T Z = 0 and the Casimirs are often nonzero."""
    rng = random.Random(f"scalars-{seed}")
    conv = Convention(seed % 2)
    entries, dim = {}, 0
    while not entries:
        p = irr(rng.choice(STRUCTURE_POOLS[conv.epsilon]))
        for q in (p, star_irreducible(-1, p)) if rng.random() < 0.5 else (p,):
            n = rng.randint(1, 3)
            if dim + n * q.degree <= 8:
                entries[(q, n)] = entries.get((q, n), 0) + 1
                dim += n * q.degree
        if rng.random() < 0.5:
            break
    return AlmostAbelianAlgebra(aleph(*((q, n, m) for (q, n), m in entries.items())), conv)


def structure_matrices(l: AlmostAbelianAlgebra) -> list[Matrix]:
    out = list(solve_transpose_pair(l.aleph, l.convention).basis)
    out += [c.matrix for c in casimir_basis(l)]
    try:
        out += derivation_space(l).basis
        aut = automorphism_space(l)
    except (HeisenbergDeferred, ZeroMultiplicityFunction):
        return out
    if aut.dil.all_scalars:
        spaces = [aut.delta_space(nu) for nu in (1, -1, 2, Fraction(1, 2))]
    else:
        spaces = [space for _nu, space in aut.families]
    return out + [m for space in spaces for m in space.basis]


CONJUGATED_POOL = ["X", "X - 1", "X + 1", "X - 2", "X - 1/2", "X^2 + 1", "X^2 + 4"]
LAMBDAS = (1, -1, 2, Fraction(1, 2))


def seeded_conjugated(seed: int) -> Matrix:
    """T = S^-1 J S for a seeded J of dimension <= 5 over a pool closed
    enough under the dilations by -1, 2 and 1/2 that their lambda
    intertwiners are often nonzero, and a unimodular S."""
    rng = random.Random(f"scalars-conjugated-{seed}")
    entries, dim = {}, 0
    for _ in range(rng.randint(1, 3)):
        p = irr(rng.choice(CONJUGATED_POOL))
        n = rng.randint(1, 2)
        if dim + n * p.degree <= 5:
            entries[(p, n)] = entries.get((p, n), 0) + 1
            dim += n * p.degree
    j = canonical_form(aleph(*((p, n, m) for (p, n), m in entries.items())))
    s = random_unimodular(rng, j.dim, 12)
    return invert(s) * j.matrix * s


def conjugated_matrices(t: Matrix) -> list[Matrix]:
    s, j = similarity_transform(t)
    out = [s, j.matrix]
    for lam in LAMBDAS:
        out += solve_lambda_comm(t, lam).basis
    return out


def non_canonical(ms: list[Matrix]) -> list:
    return [x for m in ms for x in m.entries if not canonical_scalar(x)]


class TestStructureAnswersAreCanonical:
    @pytest.mark.parametrize("seed", range(24))
    def test_structure_queries(self, seed):
        assert non_canonical(structure_matrices(seeded_structure_algebra(seed))) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_conjugated_queries(self, seed):
        assert non_canonical(conjugated_matrices(seeded_conjugated(seed))) == []

    def test_seeds_reach_fractions_and_dilated_intertwiners(self):
        # the seeds above must meet non-integral entries, or the check
        # would only ever see ints, and nonzero lambda = 2 and 1/2 spaces
        structure = [x for seed in range(24)
                     for m in structure_matrices(seeded_structure_algebra(seed))
                     for x in m.entries]
        assert any(type(x) is Fraction for x in structure)
        conjugated = [conjugated_matrices(seeded_conjugated(seed)) for seed in range(12)]
        assert any(type(x) is Fraction for ms in conjugated for m in ms for x in m.entries)
        for lam in (2, Fraction(1, 2)):
            assert any(solve_lambda_comm(seeded_conjugated(seed), lam).dim
                       for seed in range(12))


# -- one division ------------------------------------------------------------

def test_only_field_div_divides():
    """`field._div` is the one true division of the library: an int / int
    anywhere else would silently give a float."""
    found = []
    for path in sorted(Path(jordanable.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed: set = set()
        if path.name == "field.py":
            div = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "_div")
            allowed = {id(node) for node in ast.walk(div)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div) and id(node) not in allowed]
    assert found == []
