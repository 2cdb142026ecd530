"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Every check is exact rational equality; there are no tolerances anywhere.
"""

import random
import sys
import time
from fractions import Fraction

from jordanable import (
    AlmostAbelianAlgebra,
    EPS0,
    InvariantSubspaceSpec,
    Matrix,
    aleph,
    automorphism_space,
    canonical_form,
    casimir_basis,
    centre,
    check_invariant_and_restrict,
    classify_iso,
    companion,
    decompose,
    derivation_space,
    dilation_symmetries,
    invariant_subspace_from,
    is_automorphism,
    is_derivation,
    jordan_intertwiners,
    lower_central_series,
    multiplicity_of,
    nilpotent_shift,
    similarity_transform,
    solve_inhom_comm,
    solve_lambda_comm,
    solve_transpose_pair,
)
from jordanable.equations import p_matrix, u_matrix, v_matrix, w_matrix
from jordanable.field import invert, matrix_rank
from jordanable.multiplicity import star_aleph
from jordanable.oracle import (
    EquationSpec,
    Profile,
    brute_solve,
    random_instance,
    random_unimodular,
)
from jordanable.spectrum import star_irreducible
from .conftest import irr, mat

_T0 = time.perf_counter()

# one line per criterion; printed by the terminal-summary hook in conftest
RESULTS: list[str] = []


def report(number: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} - {text}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {number} failed: {text}"


def spaces_match(got, want):
    if got is None or want is None:
        return got is None and want is None
    if got.dim != want.dim:
        return False
    if (got.offset is None) != (want.offset is None):
        return False
    if got.offset is not None and not want.contains(got.offset):
        return False
    off = got.offset
    return all(
        want.contains(b if off is None else b + off) for b in got.basis
    ) and all(
        got.contains(b if want.offset is None else b + want.offset)
        for b in want.basis
    )


def test_criterion_1_sign_pair_fixture(bianchi_aleph):
    l = AlmostAbelianAlgebra(bianchi_aleph)
    ok = centre(l) == []
    for k in range(1, 6):
        layer = lower_central_series(l, k)
        ok = ok and len(layer) == 2  # all of V, every k
    ok = ok and dilation_symmetries(bianchi_aleph).elements == (
        Fraction(-1),
        Fraction(1),
    )
    space = automorphism_space(l)
    fams = dict(space.families)
    diag = fams[Fraction(1)]
    anti = fams[Fraction(-1)]
    ok = ok and diag.dim == 2 and anti.dim == 2
    ok = ok and diag.contains(mat([[1, 0], [0, 1]]))
    ok = ok and not diag.contains(mat([[0, 1], [1, 0]]))
    ok = ok and anti.contains(mat([[0, 1], [1, 0]]))
    ok = ok and not anti.contains(mat([[1, 0], [0, 1]]))
    rng = random.Random(1)
    for _ in range(20):
        nu = rng.choice([Fraction(1), Fraction(-1)])
        a, b = Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6))
        delta = mat([[a, 0], [0, b]]) if nu == 1 else mat([[0, a], [b, 0]])
        gamma = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        phi = space.assemble(nu, delta, gamma)
        ok = ok and is_automorphism(l, phi)
    ok = ok and derivation_space(l).dim == 4
    cas = casimir_basis(l)
    ok = ok and len(cas) == 1 and cas[0].matrix == mat([[0, 1], [1, 0]])
    report(1, ok, "sign-pair algebra: centre, series, Dil, Aut, Der, Casimir")


def test_criterion_2_seven_dim_fixture(cubic_aleph):
    p, q = irr("X^3 - 2"), irr("X")
    j = canonical_form(cubic_aleph)
    displayed = mat(
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
    ok = j.matrix == displayed
    l = AlmostAbelianAlgebra(cubic_aleph)
    z = centre(l)
    ok = ok and len(z) == 1 and z[0].vector == l.unit(7)
    for k in (1, 3, 5):
        layer = lower_central_series(l, k)
        ok = ok and len(layer) == 6 and all(v.label.p == p for v in layer)
    l0, w_dim = decompose(l)
    ok = ok and (l0, w_dim) == (aleph((p, 2, 1)), 1)
    # the four invariant-subspace types
    cases = [
        (aleph((p, 2, 1)), {(p, 2, 0, 2, 0, 0): Fraction(1)}, 6),
        (aleph((p, 1, 1)), {(p, 1, 0, 2, 0, 0): Fraction(1)}, 3),
        (aleph((q, 1, 1)), {(q, 1, 0, 1, 0, 0): Fraction(1)}, 1),
        (
            aleph((p, 1, 1), (q, 1, 1)),
            {(p, 1, 0, 2, 0, 0): Fraction(1), (q, 1, 0, 1, 0, 0): Fraction(1)},
            4,
        ),
    ]
    for beth, mu, dim in cases:
        w = invariant_subspace_from(j, InvariantSubspaceSpec(beth, mu))
        ok = ok and len(w) == dim
        ok = ok and check_invariant_and_restrict(j.matrix, w) == beth
    cas = casimir_basis(l)
    ok = ok and len(cas) == 1 and cas[0].display == "x7^2"
    # Aut(L) in L's coordinates: Delta is the 6-dim part's commutant plus an
    # invertible scalar on W (no phi01, since Z(L0) = 0), and the one
    # corner map e0 -> W is gamma's W entry
    aut = automorphism_space(l)
    ok = ok and aut.dil.elements == (Fraction(1),) and aut.delta_space(1).dim == 7
    phi = aut.assemble(
        1, Matrix.block_diag([Matrix.identity(6), mat([[2]])]), [0] * 6 + [Fraction(3)]
    )
    ok = ok and is_automorphism(l, phi) and phi[7, 7] == 2 and phi[7, 0] == 3
    try:
        aut.assemble(1, Matrix.block_diag([Matrix.identity(6), mat([[0]])]), [0] * 7)
        ok = False  # delta = 0 on W must be rejected
    except ValueError:
        pass
    der = derivation_space(l)
    ok = ok and der.dim == 14
    ok = ok and all(is_derivation(l, d) for d in der.basis)
    ok = ok and spaces_match(der, brute_solve(EquationSpec.derivation(l)))
    report(2, ok, "7-dim fixture: J entries, structure data, Aut/Der, Casimir")


def test_criterion_3_structural_lemmas():
    ok = True
    for n in range(1, 6):
        nn, u, pm = nilpotent_shift(n), u_matrix(n), p_matrix(n)
        ok = ok and u * nn - nn * u == nn
        ok = ok and pm * nn == nn.transpose() * pm
    polys = [
        (irr("X"), None),
        (irr("X - 1"), None),
        (irr("X^2 + 1"), None),
        (irr("X^3 - 2"), None),
        (irr("X^2 - 2*X + 2"), EPS0),  # (X-1)^2 + 1
    ]
    lambdas = [Fraction(-1), Fraction(2), Fraction(1, 3)]
    for p, forced in polys:
        conv = forced or companion(p).convention
        x = companion(p, conv).matrix
        w = w_matrix(p, conv)
        ok = ok and w == w.transpose() and w * x == x.transpose() * w
        for lam in lambdas:
            # V-lemma 1: conjugation by V_n(1/lam) dilates the shift
            for n in range(1, 6):
                v = v_matrix(n, 1 / lam)
                ok = ok and v * nilpotent_shift(n) * invert(v) == nilpotent_shift(
                    n
                ).scale(lam)
            # V-lemma 2: conjugation by V_d carries lam x_p to x_{lam * p}
            scale = lam if conv.epsilon == 1 else lam / abs(lam)
            vd = v_matrix(p.degree, scale)
            ok = ok and invert(vd) * x.scale(lam) * vd == companion(
                star_irreducible(lam, p), conv
            ).matrix
    report(3, ok, "structural lemmas U, P, W and both V identities, exact")


def test_criterion_4_oracle_equivalence():
    polys = [irr("X"), irr("X - 1"), irr("X^2 + 1"), irr("X^3 - 2")]
    combos = [
        (p, q, m, n)
        for p in polys
        for q in polys
        for m in range(1, 4)
        for n in range(1, 4)
    ]
    rng = random.Random(0)
    ok = True
    for p, q, m, n in rng.sample(combos, 40):
        got = jordan_intertwiners(p, m, q, n)
        want_dim = p.degree * min(m, n) if p == q else 0
        ok = ok and got.dim == want_dim
        j1 = canonical_form(aleph((p, m, 1))).matrix
        j2 = canonical_form(aleph((q, n, 1))).matrix
        ok = ok and spaces_match(got, brute_solve(EquationSpec.intertwine(j1, j2)))
    report(4, ok, "40 sampled intertwiner spaces equal oracle nullspaces")


def test_criterion_5_roundtrip_and_conjugation():
    ok = True
    for seed in range(50):
        a, jref, _s, t = random_instance(seed)
        ok = ok and multiplicity_of(t) == a
        s, j = similarity_transform(t)
        ok = ok and j.aleph == a
        ok = ok and s * t * invert(s) == jref.matrix
        for lam in (Fraction(-1), Fraction(2)):
            ok = ok and multiplicity_of(jref.matrix.scale(lam)) == star_aleph(lam, a)
    report(5, ok, "50 seeded instances: extraction round trip and similarity")


def test_criterion_6_inhomogeneous_equation():
    from jordanable.spectrum import x_irreducible

    ok = True
    instances = [random_instance(seed, Profile(max_dim=8)) for seed in range(20)]
    instances += [
        random_instance(seed, Profile(max_dim=6, pool=("X",))) for seed in range(10)
    ]
    for a, _j, _s, t in instances:
        got = solve_inhom_comm(t)
        solvable = all(p == x_irreducible() for p in a.supp)
        ok = ok and (got is not None) == solvable
        want = brute_solve(EquationSpec.inhom_comm(t))
        ok = ok and (want is not None) == solvable
        if got is not None:
            y = got.offset
            ok = ok and y * t - t * y == t
            ok = ok and spaces_match(got, want)
    report(6, ok, "30 seeded instances: solvable iff nilpotent, Y exact")


def test_criterion_7_classification():
    ok = True
    for seed in range(20):
        _a, _j, _s, t1 = random_instance(seed, Profile(max_dim=6))
        rng = random.Random(1000 + seed)
        lam0 = rng.choice([Fraction(-1), Fraction(2)])
        r = random_unimodular(rng, t1.rows, 16)
        t2 = invert(r) * t1.scale(lam0) * r
        result = classify_iso(t1, t2)
        ok = ok and result is not None
        if result is not None:
            lam, m = result
            ok = ok and matrix_rank(m) == m.rows
            ok = ok and (m * t1).scale(lam) == t2 * m
    non_iso = [
        (mat([[1, 0], [0, -1]]), mat([[1, 0], [0, 2]])),
        (canonical_form(aleph((irr("X"), 3, 1))).matrix,
         canonical_form(aleph((irr("X"), 2, 1), (irr("X"), 1, 1))).matrix),
        (mat([[1, 0], [0, 2]]), mat([[1, 0], [0, 3]])),
        (mat([[1, 0], [0, -1]]), mat([[1, 0, 0], [0, -1, 0], [0, 0, 2]])),
        (companion(irr("X^2 + 1")).matrix, mat([[1, 0], [0, -1]])),
        (canonical_form(aleph((irr("X - 1"), 2, 1))).matrix, Matrix.identity(2)),
        (mat([[1, 0, 0], [0, 2, 0], [0, 0, 4]]), mat([[1, 0, 0], [0, 2, 0], [0, 0, 5]])),
        (mat([[2, 0], [0, -2]]), mat([[3, 0], [0, 3]])),
        (canonical_form(aleph((irr("X"), 2, 2))).matrix,
         canonical_form(aleph((irr("X"), 3, 1), (irr("X"), 1, 1))).matrix),
        (companion(irr("X^2 + 1")).matrix, companion(irr("X^2 + X + 1")).matrix),
    ]
    for t1, t2 in non_iso:
        ok = ok and classify_iso(t1, t2) is None
    report(7, ok, "20 dilated pairs classified, 10 non-isomorphic rejected")


def test_criterion_8_rotation_scaling_analogue(mautner_aleph):
    l = AlmostAbelianAlgebra(mautner_aleph, EPS0)
    cas = casimir_basis(l)
    ok = len(cas) == 2
    for c in cas:
        a_blk = c.matrix[0, 0]
        c_blk = c.matrix[2, 2]
        expected = Matrix.block_diag(
            [Matrix.identity(2).scale(a_blk), Matrix.identity(2).scale(c_blk)]
        )
        ok = ok and c.matrix == expected
    # the two scalars vary independently across the basis
    ok = ok and matrix_rank(
        Matrix.from_rows([[c.matrix[0, 0], c.matrix[2, 2]] for c in cas])
    ) == 2
    report(8, ok, "rotation-scaling pair: Casimir dim 2, a*I2 (+) c*I2 form")


def test_criterion_9_runtime_and_exactness():
    elapsed = time.perf_counter() - _T0
    ok = elapsed < 300
    report(9, ok, f"acceptance criteria ran in {elapsed:.1f}s, all checks exact")
