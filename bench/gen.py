"""Seeded workload generator.

A workload is a pass over a fixed list of instance shapes: the dimension,
the block structure of the multiplicity function and, for ``wide-coeff``,
the coefficient bit-size are fixed per slot, and a random generator seeded
from the workload seed picks the polynomials, coefficients and conjugating
matrices.  Every pass of ``jordanize``, ``crosscheck`` and ``wide-coeff``
draws fresh instances, so a run averages over many inputs.  ``structure``
repeats one pool: an algebra is fixed by its multiplicity function alone,
and most of its shapes admit only one.  The load of a pass is therefore
nearly the same for every seed.

Inputs are built here with plain integer and Fraction lists (conjugation
by unimodular matrices with entries of at most 8 bits, as in
``oracle.random_instance``), so a change to the library cannot change the
inputs.  The library only sees the generated matrices, multiplicity
functions and JSON files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check as ck

X = (0, 1)
POOL = {
    1: [(0, 1), (-1, 1), (1, 1), (-2, 1), (2, 1), (-3, 1)],
    2: [(1, 0, 1), (2, 0, 1), (1, 1, 1), (-2, 0, 1), (1, -1, 1), (-3, 0, 1)],
    3: [(-2, 0, 0, 1), (1, 1, 0, 1), (-3, 0, 0, 1), (-1, -1, 0, 1), (2, 0, 0, 1)],
}
# quadratics (X-a)^2 + b^2 with rational a, b: usable in the eps = 0 convention
ROTATION_POOL = [(1, 0, 1), (4, 0, 1), (2, -2, 1), (2, 2, 1), (9, 0, 1), (5, -2, 1)]


@dataclass
class Op:
    """One operation: a timed library call plus its untimed post-processing."""

    kind: str
    record: dict  # dim, minpoly_deg, entry_bits, coeff_bits
    run: Callable[[], object]
    answer: Callable[[object], object]  # raw result -> plain, comparable answer
    check: Callable[[object], None]  # raises check.CheckFailed


# -- shared building blocks ---------------------------------------------


def frac_poly(p) -> tuple:
    return tuple(Fraction(c) for c in p)


def fill_shape(rng: random.Random, shape, pools=POOL) -> list:
    """Entries (poly, n, mult) for blocks (deg, n, label); a label is one poly.

    The label ``"X"`` pins the polynomial X; other labels draw distinct
    polynomials of their degree, never X.
    """
    chosen: dict = {"X": X}
    used = {X}
    entries: dict = {}
    for deg, n, label in shape:
        if label not in chosen:
            choices = [p for p in pools[deg] if p not in used]
            chosen[label] = rng.choice(choices)
            used.add(chosen[label])
        key = (chosen[label], n)
        entries[key] = entries.get(key, 0) + 1
    return [(frac_poly(p), n, m) for (p, n), m in entries.items()]


def minpoly_degree(entries) -> int:
    top: dict = {}
    for p, n, _m in entries:
        top[p] = max(top.get(p, 0), n)
    return sum(ck.poly_degree(p) * n for p, n in top.items())


def coeff_bits(entries) -> int:
    return ck.max_bits(c for p, _n, _m in entries for c in p)


def unit_triangular_inverse(lower) -> list[list[int]]:
    """Inverse of a unit lower-triangular integer matrix, by substitution."""
    n = len(lower)
    inv = ck.identity(n)
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def unimodular_pair(rng: random.Random, n: int, bound: int = 255):
    """S = L U and S^-1 as integer lists, L and U unit triangular with entries
    in {-1, 0, 1}; redrawn until every entry of S and S^-1 has at most 8 bits.

    A dense S spreads the entry growth evenly over T, which keeps the cost of
    one instance close to that of another of the same shape.
    """
    while True:
        lower = [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0
                  for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0
                  for j in range(n)] for i in range(n)]
        s = ck.matmul(lower, upper)
        sinv = ck.matmul(ck.transpose(unit_triangular_inverse(ck.transpose(upper))),
                         unit_triangular_inverse(lower))
        if max(map(abs, ck.flatten(s) + ck.flatten(sinv))) <= bound:
            return s, sinv


def conjugate(rng: random.Random, j, lam=1):
    """T = lam * S^-1 J S for a fresh unimodular S."""
    s, sinv = unimodular_pair(rng, len(j))
    return ck.as_matrix(ck.scale(lam, ck.matmul(ck.matmul(sinv, j), s)))


def to_json_rows(m) -> list:
    return [[int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
             for x in map(Fraction, row)] for row in m]


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def cli_op(lib, argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        return code, buf.getvalue()
    return run


def cli_answer(raw):
    """(exit code, parsed JSON output) of an in-process CLI call."""
    code, text = raw
    return code, json.loads(text)


def cli_checked(check_json):
    def check(answer):
        code, out = answer
        ck.require(code == 0, f"exit code {code}: {out}")
        check_json(out)
    return check


def lib_matrix(lib, rows):
    return lib.field.Matrix.from_rows([[Fraction(x) for x in row] for row in rows])


def lib_aleph(lib, entries):
    irr = lib.spectrum.IrreduciblePoly.check
    poly = lib.field.Polynomial
    return lib.multiplicity.MultiplicityFunction(
        (irr(poly(p)), n, m) for p, n, m in entries)


def plain_matrix(m) -> tuple:
    return tuple(tuple(map(ck.num, row)) for row in m.to_rows())


def plain_space(space):
    if space is None:
        return None
    offset = None if space.offset is None else plain_matrix(space.offset)
    return offset, tuple(plain_matrix(b) for b in space.basis)


# -- jordanize: CLI jordanize plus classify pairs --------------------------
#
# Blocks are (degree, block length, label); blocks sharing a label share a
# polynomial, which makes the minimal polynomial derogatory.

JORDANIZE_SHAPES = [
    [(2, 1, "a"), (1, 2, "b")],                              # 4, cyclic
    [(1, 2, "a"), (1, 1, "a"), (1, 1, "b")],                 # 4, derogatory
    [(3, 1, "a"), (1, 2, "b")],                              # 5, cyclic
    [(2, 1, "a"), (1, 2, "b"), (1, 1, "b")],                 # 5, derogatory
    [(2, 2, "a"), (1, 2, "b")],                              # 6, cyclic
    [(2, 1, "a"), (2, 1, "a"), (1, 2, "b")],                 # 6, derogatory
    [(3, 1, "a"), (1, 3, "b")],                              # 6, cyclic
    [(3, 1, "a"), (2, 1, "b"), (1, 2, "c")],                 # 7, cyclic
    [(1, 3, "X"), (1, 2, "X"), (2, 1, "b")],                 # 7, derogatory
    [(2, 2, "a"), (2, 1, "a"), (1, 1, "X"), (1, 1, "b")],    # 8, derogatory
]
# classify pairs: (shape, dilation, isomorphic)
CLASSIFY_SHAPES = [
    ([(2, 1, "a"), (1, 2, "b")], -1, True),
    ([(1, 2, "a"), (1, 1, "b"), (1, 1, "c")], 2, True),
    ([(2, 2, "a"), (1, 1, "b")], 2, False),
]


def split_block(entries):
    """Same dimension, one block of length n >= 2 split into n - 1 and 1."""
    out = list(entries)
    for k, (p, n, m) in enumerate(out):
        if n >= 2:
            out[k:k + 1] = ([(p, n, m - 1)] if m > 1 else []) + [(p, n - 1, 1), (p, 1, 1)]
            return out
    raise ValueError("no block to split")


def check_jordanize(t, entries):
    def check_json(out):
        ck.require(ck.aleph_from_json(out["aleph"]) == ck.aleph_key(entries),
                   "aleph differs from the generated one")
        j, s = ck.as_matrix(out["J"]), ck.as_matrix(out["S"])
        ck.require(j == ck.jordan_matrix(entries), "J differs from J(aleph)")
        ck.require(ck.matmul(s, t) == ck.matmul(j, s), "S T != J S")
        ck.require(ck.invertible(s), "S is singular")
    return cli_checked(check_json)


def check_classify(t1, t2, isomorphic: bool):
    def check_json(out):
        ck.require(out.get("isomorphic") is isomorphic,
                   f"verdict {out.get('isomorphic')}, expected {isomorphic}")
        if isomorphic:
            lam, m = Fraction(out["lambda"]), ck.as_matrix(out["witness"])
            ck.require(ck.scale(lam, ck.matmul(m, t1)) == ck.matmul(t2, m),
                       "lambda M T1 != T2 M")
            ck.require(ck.invertible(m), "witness is singular")
    return cli_checked(check_json)


def jordanize_ops(lib, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for k, shape in enumerate(JORDANIZE_SHAPES):
        entries = fill_shape(rng, shape)
        t = conjugate(rng, ck.jordan_matrix(entries))
        path = write_json(workdir / f"t{k}.json", to_json_rows(t))
        record = {"dim": len(t), "minpoly_deg": minpoly_degree(entries),
                  "entry_bits": ck.max_bits(ck.flatten(t)),
                  "coeff_bits": coeff_bits(entries)}
        ops.append(Op("jordanize", record, cli_op(lib, ["jordanize", path]),
                      cli_answer, check_jordanize(t, entries)))
        if k % 3 == 2:  # about one operation in four is a classify pair
            shape, lam, iso = CLASSIFY_SHAPES[k // 3]
            a1 = fill_shape(rng, shape)
            a2 = a1 if iso else split_block(a1)
            t1 = conjugate(rng, ck.jordan_matrix(a1))
            t2 = conjugate(rng, ck.jordan_matrix(a2), lam)
            p1 = write_json(workdir / f"c{k}a.json", to_json_rows(t1))
            p2 = write_json(workdir / f"c{k}b.json", to_json_rows(t2))
            record = {"dim": len(t1), "minpoly_deg": minpoly_degree(a1),
                      "entry_bits": ck.max_bits(ck.flatten(t1) + ck.flatten(t2)),
                      "coeff_bits": coeff_bits(a1)}
            ops.append(Op("classify", record, cli_op(lib, ["classify", p1, p2]),
                          cli_answer, check_classify(t1, t2, iso)))
    return ops


# -- structure: Der, Casimirs, Aut and Z J + J^T Z = 0 of A(aleph) -----------

STRUCTURE_SHAPES = [  # (blocks, eps); with eps = 0 quadratics come from ROTATION_POOL
    ([(1, 3, "X")], 1),                                       # nilpotent
    ([(1, 3, "X"), (1, 2, "X")], 1),                          # nilpotent
    ([(1, 2, "X"), (1, 2, "X"), (1, 2, "X")], 1),             # nilpotent
    ([(1, 3, "X"), (1, 1, "X")], 1),                          # decomposable
    ([(1, 1, "a"), (1, 1, "b"), (1, 1, "X")], 1),             # decomposable
    ([(1, 2, "X"), (1, 2, "X"), (1, 1, "X")], 1),             # decomposable
    ([(2, 1, "r"), (2, 1, "s")], 0),                          # rotation pair
    ([(2, 2, "r"), (1, 1, "a")], 0),                          # rotation pair
    ([(2, 1, "r"), (2, 1, "s"), (2, 1, "t")], 0),             # rotation pair
    ([(2, 1, "a"), (1, 1, "b"), (1, 2, "X")], 1),             # mixed
    ([(3, 1, "a"), (1, 2, "X")], 1),                          # mixed
    ([(1, 2, "a"), (1, 2, "b")], 1),                          # mixed
    ([(2, 1, "a"), (2, 1, "b")], 1),                          # mixed
]


def transpose_pair_map(j):
    jt = ck.transpose(j)
    return lambda z: ck.add(ck.matmul(z, j), ck.matmul(jt, z))


def casimir_map(j):
    """Z J + J^T Z = 0 stacked on Z - Z^T = 0."""
    tp = transpose_pair_map(j)
    return lambda a: tp(a) + ck.sub(a, ck.transpose(a))


def lambda_map(j, lam):
    return lambda x: ck.sub(ck.matmul(x, j), ck.scale(lam, ck.matmul(j, x)))


def is_x(p) -> bool:
    return p == frac_poly(X)


def x_blocks(entries) -> list[int]:
    """Block lengths of the X blocks, with repetition."""
    return [n for p, n, m in entries if is_x(p) for _ in range(m)]


def structure_ops(lib, rng: random.Random, workdir: Path) -> list[Op]:
    liealg, equations = lib.liealg, lib.equations
    ops = []
    for blocks, eps in STRUCTURE_SHAPES:
        pools = dict(POOL)
        if eps == 0:
            pools[2] = ROTATION_POOL
        entries = fill_shape(rng, blocks, pools)
        j = ck.jordan_matrix(entries, eps)
        m = len(j)
        conv = lib.spectrum.Convention(eps)
        alg = liealg.AlmostAbelianAlgebra(lib_aleph(lib, entries), conv)
        record = {"dim": m + 1, "minpoly_deg": minpoly_degree(entries),
                  "entry_bits": ck.max_bits(ck.flatten(j)),
                  "coeff_bits": coeff_bits(entries)}
        der = ck.Equation((m + 1, m + 1), lambda d, j=j: ck.leibniz_defect(j, d))
        cas = ck.Equation((m, m), casimir_map(j))
        ztp = ck.Equation((m, m), transpose_pair_map(j))
        ops.append(bundle("structure", record, [
            Op("der", record, lambda a=alg: liealg.derivation_space(a),
               plain_basis, lambda basis, e=der: e.check_space(basis, "Der")),
            Op("casimir", record, lambda a=alg: liealg.casimir_basis(a),
               lambda elems: tuple(plain_matrix(c.matrix) for c in elems),
               lambda basis, e=cas: e.check_space(basis, "Casimir")),
            Op("ztp", record,
               lambda a=alg.aleph, cv=conv: equations.solve_transpose_pair(a, cv),
               plain_basis, lambda basis, e=ztp: e.check_space(basis, "ZJ+J^TZ")),
            aut_op(liealg, alg, entries, j, der, record),
        ]))
    return ops


def bundle(kind: str, record, parts: list[Op]) -> Op:
    """One operation that runs the parts back to back and checks each answer.

    The four structure queries on one algebra form one operation: most of
    them take a millisecond or two, too little to time steadily on their
    own, while the per-layer trace still tells them apart.
    """
    return Op(kind, record,
              lambda: tuple(p.run() for p in parts),
              lambda raws: tuple(p.answer(r) for p, r in zip(parts, raws)),
              lambda answers: [p.check(a) for p, a in zip(parts, answers)])


def plain_basis(space) -> tuple:
    return tuple(plain_matrix(b) for b in space.basis)


def aut_op(liealg, alg, entries, j, der: ck.Equation, record) -> Op:
    """Aut(L): the corner maps when L = L0 + W, else the Delta families."""
    m = len(j)
    w_dim = x_blocks(entries).count(1)
    if w_dim:
        l0 = [(p, n, k) for p, n, k in entries if not (is_x(p) and n == 1)]
        l0_x = len(x_blocks(l0))
        want_dil = ((True, ()) if all(is_x(p) for p, _n, _k in l0)
                    else (False, ck.dilation_set(l0)))
        want_counts = (w_dim * l0_x, w_dim * (1 + l0_x), w_dim ** 2)

        def answer(comp):
            dil = comp.l0_space.dil
            corners = tuple(tuple(plain_matrix(b) for b in basis) for basis in
                            (comp.phi01_basis, comp.phi10_basis, comp.phi11_basis))
            return dil.all_scalars, tuple(map(Fraction, dil.elements)), corners

        def check(ans):
            all_scalars, elements, corners = ans
            ck.require((all_scalars, elements) == want_dil,
                       f"Dil(aleph_0) {elements}, expected {want_dil}")
            counts = tuple(map(len, corners))
            ck.require(counts == want_counts,
                       f"corner counts {counts}, expected {want_counts}")
            basis = [b for corner in corners for b in corner]
            ck.require(all(der.holds(b) for b in basis),
                       "a corner map is not a derivation")
            ck.require(ck.independent([ck.flatten(b) for b in basis]),
                       "dependent corner maps")
        return Op("aut", record, lambda: liealg.compose_decomposable(alg, "aut"),
                  answer, check)
    if all(is_x(p) for p, _n, _k in entries):
        # Dil(aleph) is all of Q*, so query one family directly
        delta = ck.Equation((m, m), lambda_map(j, Fraction(-1)))
        return Op("aut", record,
                  lambda: liealg.automorphism_space(alg).delta_space(-1),
                  plain_basis, lambda basis: delta.check_space(basis, "Delta(-1)"))
    nus = ck.dilation_set(entries)
    deltas = {nu: ck.Equation((m, m), lambda_map(j, nu)) for nu in nus}

    def check(families):
        got = tuple(nu for nu, _b in families)
        ck.require(got == nus, f"Dil(aleph) {got}, expected {nus}")
        for nu, basis in families:
            deltas[nu].check_space(basis, f"Delta({nu})")
    return Op("aut", record, lambda: liealg.automorphism_space(alg).families,
              lambda fams: tuple((Fraction(nu), plain_basis(s)) for nu, s in fams),
              check)


# -- crosscheck: structured solver against the brute-force oracle ----------

CROSSCHECK_SHAPES = [  # (blocks, equation, lambda)
    ([(1, 2, "X"), (1, 1, "X")], "inhom", None),
    ([(1, 3, "X")], "inhom", None),
    ([(1, 3, "X"), (1, 1, "X")], "inhom", None),
    ([(1, 2, "X"), (1, 2, "X")], "inhom", None),
    ([(1, 2, "X"), (1, 1, "X"), (1, 1, "X")], "inhom", None),
    ([(1, 3, "X"), (1, 2, "X")], "inhom", None),
    ([(1, 4, "X"), (1, 1, "X")], "inhom", None),
    ([(2, 1, "a"), (1, 2, "X")], "inhom", None),              # unsolvable
    ([(1, 1, "a"), (1, 1, "b"), (1, 2, "X")], "lambda", -1),
    ([(2, 1, "a"), (1, 2, "X"), (1, 1, "X")], "lambda", 2),
    ([(1, 2, "a"), (1, 2, "X"), (1, 1, "X")], "lambda", -1),
]


def crosscheck_ops(lib, rng: random.Random, workdir: Path) -> list[Op]:
    equations, oracle = lib.equations, lib.oracle
    ops = []
    for blocks, equation, lam in CROSSCHECK_SHAPES:
        entries = fill_shape(rng, blocks)
        t = conjugate(rng, ck.jordan_matrix(entries))
        n = len(t)
        tm = lib_matrix(lib, t)
        record = {"dim": n, "minpoly_deg": minpoly_degree(entries),
                  "entry_bits": ck.max_bits(ck.flatten(t)),
                  "coeff_bits": coeff_bits(entries)}
        if equation == "inhom":
            hom = ck.Equation((n, n), lambda y, t=t: ck.sub(ck.matmul(y, t), ck.matmul(t, y)))
            solvable = ck.rank_exact(hom.system) == ck.rank_exact(
                [row + [b] for row, b in zip(hom.system, ck.flatten(t))])

            def run(tm=tm):
                return (equations.solve_inhom_comm(tm),
                        oracle.brute_solve(oracle.EquationSpec.inhom_comm(tm)))
        else:
            lam = Fraction(lam)
            hom = ck.Equation((n, n), lambda_map(t, lam))
            solvable = True

            def run(tm=tm, lam=lam):
                return (equations.solve_lambda_comm(tm, lam),
                        oracle.brute_solve(oracle.EquationSpec.lambda_comm(tm, lam)))
        ops.append(Op(f"crosscheck-{equation}", record, with_queries(run),
                      lambda raw: (plain_space(raw[0]), plain_space(raw[1]), raw[2]),
                      crosscheck_check(t, hom, solvable)))
    return ops


def with_queries(solve):
    """Solve both ways, then ask each space about every element of the other."""
    def run():
        a, b = solve()
        verdicts = []
        if a is not None and b is not None:
            for x, y in ((a, b), (b, a)):
                if x.offset is not None:
                    verdicts.append(y.contains(x.offset))
                for m in x.basis:
                    verdicts.append(y.contains(m if x.offset is None else m + x.offset))
        return a, b, tuple(verdicts)
    return run


def crosscheck_check(t, hom: ck.Equation, solvable: bool):
    def check(answer):
        structured, brute, verdicts = answer
        if not solvable:
            ck.require(structured is None and brute is None,
                       "solution reported for an unsolvable equation")
            return
        ck.require(structured is not None and brute is not None,
                   "solvable equation reported unsolvable")
        for name, (offset, basis) in (("structured", structured), ("brute", brute)):
            if offset is not None:
                ck.require(hom.f(offset) == t, f"{name}: offset fails Y T - T Y = T")
            hom.check_space(basis, name)
        queries = sum(len(s[1]) + (s[0] is not None) for s in (structured, brute))
        ck.require(len(verdicts) == queries, "missing membership queries")
        ck.require(all(verdicts), "the two solution spaces differ")
    return check


# -- wide-coeff: CLI extract-mult on one wide irreducible factor ---------------

WIDE_SHAPES = [  # (wide factor, other blocks); dimensions 3 to 5
    ("X-c", [(1, 2, "X")]),
    ("X^2+c", [(1, 2, "a")]),
    ("X^3-c", [(1, 2, "a")]),
    ("X^2+c", [(1, 2, "a"), (1, 1, "X")]),
    ("X-c", [(1, 2, "a"), (1, 1, "X")]),
    ("X^3-c", [(1, 2, "X")]),
]
# (bit-size of c, shapes that get it): trial division costs about sqrt(c),
# so each pass has every shape at the low sizes and few at the high ones
WIDE_SCHEDULE = [
    (32, range(6)), (35, range(6)), (38, range(6)), (41, range(3)),
    (44, (3,)), (46, (1,)),
]


def wide_factor(rng: random.Random, kind: str, bits: int) -> tuple:
    """The wide factor with c in [2^(bits-1), 2^(bits-1) * 9/8)."""
    while True:
        c = (1 << (bits - 1)) + rng.randrange(1 << (bits - 4))
        if kind == "X-c":
            return (-c, 1)
        if kind == "X^2+c":
            return (c, 0, 1)
        root = round(c ** (1 / 3))
        if all((root + d) ** 3 != c for d in (-1, 0, 1)):
            return (-c, 0, 0, 1)


def wide_ops(lib, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for bits, shapes in WIDE_SCHEDULE:
        for s_idx in shapes:
            kind, blocks = WIDE_SHAPES[s_idx]
            wide = frac_poly(wide_factor(rng, kind, bits))
            entries = [(wide, 1, 1)] + fill_shape(rng, blocks)
            t = conjugate(rng, ck.jordan_matrix(entries))
            path = write_json(workdir / f"w{bits}_{s_idx}.json", to_json_rows(t))
            record = {"dim": len(t), "minpoly_deg": minpoly_degree(entries),
                      "entry_bits": ck.max_bits(ck.flatten(t)),
                      "coeff_bits": coeff_bits(entries)}
            want = ck.aleph_key(entries)

            def check_json(out, want=want):
                ck.require(ck.aleph_from_json(out["aleph"]) == want,
                           "aleph differs from the generated one")
            ops.append(Op("extract-mult", record, cli_op(lib, ["extract-mult", path]),
                          cli_answer, cli_checked(check_json)))
    return ops


# name -> (one pass of operations, whether each pass draws fresh instances)
WORKLOADS = {
    "jordanize": (jordanize_ops, True),
    "structure": (structure_ops, False),
    "crosscheck": (crosscheck_ops, True),
    "wide-coeff": (wide_ops, True),
}
