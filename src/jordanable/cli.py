"""Command-line front end: parse JSON inputs, dispatch, emit JSON.

Exit codes: 0 success, 1 I/O or parse failure, 2 domain errors, 3 a
failed internal verification (a substitution check that did not hold:
a bug, never a property of the input).  Failures are reported on stdout
as a structured {code, message, context} object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import serialize as ser
from .errors import DomainError, VerificationFailed
from .jordan import (
    canonical_form,
    check_invariant_and_restrict,
    invariant_subspace_from,
    multiplicity_of,
    similarity_transform,
)
from .field import Matrix
from .liealg import (
    AlmostAbelianAlgebra,
    AutomorphismSpace,
    automorphism_space,
    casimir_basis,
    centre,
    classify_iso,
    decompose,
    derivation_space,
    is_nilpotent,
    lower_central_series,
)
from .equations import (
    SolutionSpace,
    solve_inhom_comm,
    solve_lambda_comm,
    solve_transpose_pair,
)
from .oracle import DEFAULT_PROFILE, EquationSpec, brute_solve, random_instance
from .spectrum import Convention


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj) -> int:
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def _conv(args) -> Convention:
    return Convention(args.epsilon)


def _hints(args):
    if getattr(args, "hints", None):
        return ser.hints_from_json(_load(args.hints))
    return None


def _cmd_jordanize(args) -> int:
    t = ser.matrix_from_json(_load(args.matrix))
    s, j = similarity_transform(t, _hints(args), _conv(args))
    if args.pretty:
        print(f"aleph = {j.aleph}")
        print("J =")
        print(ser.pretty_matrix(j.matrix, [b.offset for b in j.blocks[1:]]))
        print("S =")
        print(ser.pretty_matrix(s))
        return 0
    return _emit(
        {
            "aleph": ser.aleph_to_json(j.aleph),
            "display": str(j.aleph),
            "J": ser.matrix_to_json(j.matrix),
            "S": ser.matrix_to_json(s),
        }
    )


def _cmd_extract_mult(args) -> int:
    t = ser.matrix_from_json(_load(args.matrix))
    a = multiplicity_of(t, _hints(args))
    return _emit({"aleph": ser.aleph_to_json(a), "display": str(a)})


def _cmd_classify(args) -> int:
    t1 = ser.matrix_from_json(_load(args.m1))
    t2 = ser.matrix_from_json(_load(args.m2))
    result = classify_iso(t1, t2, _hints(args), _conv(args))
    if result is None:
        return _emit({"isomorphic": False})
    lam, witness = result
    return _emit(
        {
            "isomorphic": True,
            "lambda": str(Fraction(lam)),
            "witness": ser.matrix_to_json(witness),
        }
    )


def _cmd_solve(args) -> int:
    if args.equation == "xt-ltx":
        t = ser.matrix_from_json(_load(args.matrix))
        lam = ser.frac_from_json(getattr(args, "lambda"))
        space = solve_lambda_comm(t, lam, _hints(args), _conv(args))
        return _emit(ser.solution_space_to_json(space))
    if args.equation == "yt-ty-t":
        t = ser.matrix_from_json(_load(args.matrix))
        space = solve_inhom_comm(t, _hints(args))
        if space is None:
            return _emit({"solvable": False})
        out = ser.solution_space_to_json(space)
        out["solvable"] = True
        return _emit(out)
    a = ser.aleph_from_json(_load(args.aleph))  # zjt
    space = solve_transpose_pair(a, _conv(args))
    return _emit(ser.solution_space_to_json(space))


def _aut_description(aut: AutomorphismSpace, core: list[int]) -> dict:
    """Dil, gamma_dim and the Delta families of aut on the V coordinates core.

    core is all of V unless L = L0 + W; then it is L0's part, and each
    family keeps the delta_space(nu) basis elements supported on L0 x L0,
    restricted there.
    """
    v = [c - 1 for c in core]
    out = {
        "dil": {
            "all_scalars": aut.dil.all_scalars,
            "elements": [str(x) for x in aut.dil.elements],
        },
        "gamma_dim": len(v),
    }
    if not aut.dil.all_scalars:
        out["families"] = [
            {"nu": str(nu), "delta": ser.solution_space_to_json(_restricted(space, v))}
            for nu, space in aut.families
        ]
    return out


def _restricted(space: SolutionSpace, v: list[int]) -> SolutionSpace:
    basis = []
    for m in space.basis:
        r = Matrix.from_rows([[m[i, j] for j in v] for i in v])
        if r.embed(m.rows, m.cols, v, v) == m:
            basis.append(r)
    return SolutionSpace((len(v), len(v)), tuple(basis))


def _cmd_lie(args) -> int:
    a = ser.aleph_from_json(_load(args.aleph))
    l = AlmostAbelianAlgebra(a, _conv(args))
    if args.op == "centre":
        vecs = centre(l)
        return _emit({"dim": len(vecs), "basis": ser.labeled_vectors_to_json(vecs)})
    if args.op == "lcs":
        vecs = lower_central_series(l, args.k)
        return _emit(
            {"k": args.k, "dim": len(vecs), "basis": ser.labeled_vectors_to_json(vecs)}
        )
    if args.op == "nilpotent":
        return _emit({"nilpotent": is_nilpotent(l)})
    if args.op == "decompose":
        l0, w_dim = decompose(l)
        return _emit(
            {"l0": ser.aleph_to_json(l0), "display": str(l0), "w_dim": w_dim}
        )
    if args.op == "aut":
        aut = automorphism_space(l)
        s = aut.split
        out = _aut_description(aut, s.core)
        if not s.w:
            return _emit(out)
        w_dim = len(s.w)
        return _emit(
            {
                "composite": True,
                "w_dim": w_dim,
                "l0": out,
                "phi01_dim": len(s.corners[0]),
                "phi10_dim": len(s.corners[1]),
                "phi11": {"shape": [w_dim, w_dim], "constraint": "invertible"},
            }
        )
    if args.op == "der":
        space = derivation_space(l)
        return _emit(ser.solution_space_to_json(space))
    if args.op == "casimir":
        elems = casimir_basis(l)
        if args.pretty:
            for e in elems:
                print(str(e))
            return 0
        return _emit(
            {"dim": len(elems), "basis": [ser.matrix_to_json(e.matrix) for e in elems]}
        )
    raise ValueError(f"unknown lie operation {args.op!r}")


def _equation_from_json(data) -> EquationSpec:
    data = ser.object_from_json(data, "an equation spec")
    kind = data.get("kind")
    if kind == "intertwine":
        return EquationSpec.intertwine(
            ser.matrix_from_json(data["t1"]), ser.matrix_from_json(data["t2"])
        )
    if kind == "lambda-comm":
        return EquationSpec.lambda_comm(
            ser.matrix_from_json(data["t"]), ser.frac_from_json(data["lambda"])
        )
    if kind == "inhom-comm":
        return EquationSpec.inhom_comm(ser.matrix_from_json(data["t"]))
    if kind in ("transpose-pair", "symmetric-transpose-pair"):
        j = ser.matrix_from_json(data["j"])
        if kind == "transpose-pair":
            return EquationSpec.transpose_pair(j)
        return EquationSpec.symmetric_transpose_pair(j)
    if kind == "derivation":
        a = ser.aleph_from_json(data["aleph"])
        conv = Convention(ser.int_from_json(data.get("epsilon", 1)))
        return EquationSpec.derivation(AlmostAbelianAlgebra(a, conv))
    raise ValueError(f"unknown equation kind {kind!r}")


def _cmd_oracle(args) -> int:
    if args.action == "random":
        a, j, s, t = random_instance(args.seed, DEFAULT_PROFILE)
        return _emit(
            {
                "aleph": ser.aleph_to_json(a),
                "display": str(a),
                "J": ser.matrix_to_json(j.matrix),
                "S": ser.matrix_to_json(s),
                "T": ser.matrix_to_json(t),
            }
        )
    spec = _equation_from_json(_load(args.spec))
    space = brute_solve(spec)
    if space is None:
        return _emit({"solvable": False})
    return _emit(ser.solution_space_to_json(space))


def _cmd_invsub(args) -> int:
    if args.action == "make":
        a = ser.aleph_from_json(_load(args.aleph))
        spec = ser.invariant_spec_from_json(_load(args.spec))
        j = canonical_form(a, _conv(args))
        basis = invariant_subspace_from(j, spec)
        return _emit({"basis": [ser.vector_to_json(v) for v in basis]})
    t = ser.matrix_from_json(_load(args.matrix))
    w = ser.subspace_from_json(_load(args.subspace))
    result = check_invariant_and_restrict(t, w, _hints(args))
    if result is None:
        return _emit({"invariant": False})
    return _emit(
        {
            "invariant": True,
            "aleph": ser.aleph_to_json(result),
            "display": str(result),
        }
    )


def _add_common(p, hints=True, epsilon=True, pretty=False):
    if hints:
        p.add_argument("--hints", help="JSON file with irreducibility hints")
    if epsilon:
        p.add_argument("--epsilon", type=int, choices=(0, 1), default=1)
    if pretty:
        p.add_argument("--pretty", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: each build leaves reference
    cycles behind, and parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="jordanable",
        description="Exact Jordan forms, operator equations and almost "
        "Abelian Lie algebra structure data.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("jordanize", help="canonical form and similarity")
    p.add_argument("matrix")
    _add_common(p, pretty=True)
    p.set_defaults(func=_cmd_jordanize)

    p = sub.add_parser("extract-mult", help="multiplicity function of a matrix")
    p.add_argument("matrix")
    _add_common(p, epsilon=False)
    p.set_defaults(func=_cmd_extract_mult)

    p = sub.add_parser("classify", help="projective similarity classification")
    p.add_argument("m1")
    p.add_argument("m2")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="the three operator equations")
    solve_sub = p.add_subparsers(dest="equation", required=True)
    q = solve_sub.add_parser("xt-ltx", help="X T = lambda T X")
    q.add_argument("matrix")
    q.add_argument("--lambda", required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_solve)
    q = solve_sub.add_parser("yt-ty-t", help="Y T - T Y = T")
    q.add_argument("matrix")
    _add_common(q, epsilon=False)
    q.set_defaults(func=_cmd_solve)
    q = solve_sub.add_parser("zjt", help="Z J + J^T Z = 0")
    q.add_argument("--aleph", required=True)
    _add_common(q, hints=False)
    q.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lie", help="almost Abelian Lie algebra structure")
    lie_sub = p.add_subparsers(dest="op", required=True)
    for name in ("centre", "nilpotent", "decompose", "aut", "der", "casimir"):
        q = lie_sub.add_parser(name)
        q.add_argument("--aleph", required=True)
        _add_common(q, hints=False, pretty=name == "casimir")
        q.set_defaults(func=_cmd_lie)
    q = lie_sub.add_parser("lcs")
    q.add_argument("--aleph", required=True)
    q.add_argument("--k", type=int, required=True)
    _add_common(q, hints=False)
    q.set_defaults(func=_cmd_lie)
    q = lie_sub.add_parser("classify")
    q.add_argument("m1")
    q.add_argument("m2")
    _add_common(q)
    q.set_defaults(func=_cmd_classify)

    p = sub.add_parser("oracle", help="brute-force verification solver")
    oracle_sub = p.add_subparsers(dest="action", required=True)
    q = oracle_sub.add_parser("solve")
    q.add_argument("spec")
    q.set_defaults(func=_cmd_oracle)
    q = oracle_sub.add_parser("random")
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("invsub", help="invariant subspaces")
    inv_sub = p.add_subparsers(dest="action", required=True)
    q = inv_sub.add_parser("make")
    q.add_argument("spec")
    q.add_argument("--aleph", required=True)
    _add_common(q, hints=False)
    q.set_defaults(func=_cmd_invsub)
    q = inv_sub.add_parser("check")
    q.add_argument("matrix")
    q.add_argument("subspace")
    _add_common(q, epsilon=False)
    q.set_defaults(func=_cmd_invsub)

    return ap


def _fail(code: str, message: str, context: dict, status: int) -> int:
    _emit({"code": code, "message": message, "context": context})
    return status


def _dispatch(args) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # stdout is gone, so no error object can reach the reader
    except DomainError as exc:
        return _fail(exc.code, str(exc), exc.context(), 2)
    except VerificationFailed as exc:
        return _fail(exc.code, str(exc), exc.context(), 3)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _fail("input-error", str(exc), {}, 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the
        # interpreter's final flush stays quiet, as Python's SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
