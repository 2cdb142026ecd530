"""The 8-dimensional algebra built from aleph = (1x(X^3-2)^2, 1xX^1).

Shows the 7x7 canonical form with its block partition, the invariant
subspaces of each type, the split into an indecomposable core plus a
one-dimensional Abelian factor, Aut(L) read as the core's automorphisms
plus corner maps, Der and the Casimirs.  Aut(L) is one space in L's own
coordinates; the corner maps L0 -> W kill the brackets L_(1), so there
are w_dim * dim(L0 / L_(1)) of them.
"""

from fractions import Fraction

from jordanable import (
    AlmostAbelianAlgebra,
    InvariantSubspaceSpec,
    Matrix,
    aleph,
    automorphism_space,
    canonical_form,
    casimir_basis,
    centre,
    check_invariant_and_restrict,
    decompose,
    derivation_space,
    invariant_subspace_from,
    lower_central_series,
    parse_poly,
    IrreduciblePoly,
)
from jordanable.serialize import pretty_matrix


def irr(text):
    return IrreduciblePoly.check(parse_poly(text))


def main():
    p, q = irr("X^3 - 2"), irr("X")
    a = aleph((p, 2, 1), (q, 1, 1))
    j = canonical_form(a)
    print(f"aleph = {a}, dim V = {j.dim}")
    print("J(aleph) with block rules:")
    print(pretty_matrix(j.matrix, [3, 6]))
    print()

    l = AlmostAbelianAlgebra(a)
    z = centre(l)
    print(f"centre: dim {len(z)}, spanned by {z[0]}")
    print(f"L_(1): dim {len(lower_central_series(l, 1))} "
          "(the whole (X^3-2)-part; stable for all k)")
    l0, w_dim = decompose(l)
    print(f"decomposition: L = A({l0}) + R^{w_dim}")
    print()

    print("invariant subspaces of the four types:")
    cases = [
        ("whole p-part", aleph((p, 2, 1)), {(p, 2, 0, 2, 0, 0): Fraction(1)}),
        ("bottom p-chain", aleph((p, 1, 1)), {(p, 1, 0, 2, 0, 0): Fraction(1)}),
        ("q-line", aleph((q, 1, 1)), {(q, 1, 0, 1, 0, 0): Fraction(1)}),
        (
            "mixed",
            aleph((p, 1, 1), (q, 1, 1)),
            {(p, 1, 0, 2, 0, 0): Fraction(1), (q, 1, 0, 1, 0, 0): Fraction(1)},
        ),
    ]
    for name, beth, mu in cases:
        w = invariant_subspace_from(j, InvariantSubspaceSpec(beth, mu))
        restricted = check_invariant_and_restrict(j.matrix, w)
        print(f"  {name}: dim {len(w)}, restriction has aleph {restricted}")
    print()

    aut = automorphism_space(l)
    l0_quotient = l.dimension - w_dim - len(lower_central_series(l, 1))
    print("composed automorphisms: phi00 from Aut(L0) "
          f"(Dil = {aut.dil.elements}), "
          f"{w_dim * l0_quotient} corner map(s) L0 -> W, "
          f"invertible scalar on W")
    delta = Matrix.block_diag([Matrix.identity(6), _m([[2]])])
    phi = aut.assemble(1, delta, [0] * 6 + [Fraction(3)])
    print("one assembled 8x8 automorphism:")
    print(pretty_matrix(phi, [1, 7]))
    print()

    der = derivation_space(l)
    print(f"Der(L): dimension {der.dim}")
    cas = casimir_basis(l)
    print(f"quadratic Casimirs: dimension {len(cas)}: {cas[0]}")


def _m(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


if __name__ == "__main__":
    main()
