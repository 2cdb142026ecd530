"""Brute-force oracle: Kronecker-vectorized solving of every equation kind.

The structured solvers never call into this module; tests compare both
sides.  Column-stacking convention: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import OracleCapExceeded
from .field import Matrix, _frac, invert, row_reduce, solve_linear
from .jordan import canonical_form
from .equations import SolutionSpace
from .multiplicity import MultiplicityFunction
from .spectrum import EPS1, IrreduciblePoly, parse_poly

DEFAULT_CAP = 400


def _cap() -> int:
    return int(os.environ.get("JORDANABLE_CAP", DEFAULT_CAP))


@dataclass(frozen=True)
class EquationSpec:
    """One matrix equation, by kind and coefficient data.

    kinds: intertwine (X T1 = T2 X), lambda-comm (X T = lam T X),
    inhom-comm (Y T - T Y = T), transpose-pair (Z J + J^T Z = 0),
    symmetric-transpose-pair (transpose-pair plus Z = Z^T) and
    derivation (the Leibniz identity over an almost Abelian algebra).
    """

    kind: str
    t1: Optional[Matrix] = None
    t2: Optional[Matrix] = None
    lam: Optional[Fraction] = None
    algebra: object = None

    @staticmethod
    def intertwine(t1: Matrix, t2: Matrix) -> "EquationSpec":
        return EquationSpec("intertwine", t1=t1, t2=t2)

    @staticmethod
    def lambda_comm(t: Matrix, lam) -> "EquationSpec":
        return EquationSpec("lambda-comm", t1=t, lam=_frac(lam))

    @staticmethod
    def inhom_comm(t: Matrix) -> "EquationSpec":
        return EquationSpec("inhom-comm", t1=t)

    @staticmethod
    def transpose_pair(j: Matrix) -> "EquationSpec":
        return EquationSpec("transpose-pair", t1=j)

    @staticmethod
    def symmetric_transpose_pair(j: Matrix) -> "EquationSpec":
        return EquationSpec("symmetric-transpose-pair", t1=j)

    @staticmethod
    def derivation(algebra) -> "EquationSpec":
        return EquationSpec("derivation", algebra=algebra)


def _check_cap(rows: int, cols: int):
    if rows * cols > _cap():
        raise OracleCapExceeded(
            f"{rows * cols} unknowns exceed the oracle cap {_cap()}"
        )


def _nullspace_solution(m: Matrix, shape: tuple[int, int], rhs=None) -> Optional[SolutionSpace]:
    rows, cols = shape
    if rhs is None:
        kernel = row_reduce(m).kernel
        basis = tuple(Matrix.unvec(v, rows, cols) for v in kernel)
        return SolutionSpace(shape, basis)
    sol = solve_linear(m, rhs)
    if sol is None:
        return None
    particular, kernel = sol
    basis = tuple(Matrix.unvec(v, rows, cols) for v in kernel)
    return SolutionSpace(shape, basis, Matrix.unvec(particular, rows, cols))


def brute_solve(spec: EquationSpec) -> Optional[SolutionSpace]:
    """Exact nullspace (plus particular solution for affine kinds)."""
    for t in (spec.t1, spec.t2):
        if t is not None and t.rows != t.cols:
            raise ValueError(f"{spec.kind} needs square matrices, got {t.rows}x{t.cols}")
    if spec.kind == "intertwine":
        t1, t2 = spec.t1, spec.t2
        n, m = t2.rows, t1.rows
        _check_cap(n, m)
        sys = t1.transpose().kron(Matrix.identity(n)) - Matrix.identity(m).kron(t2)
        return _nullspace_solution(sys, (n, m))
    if spec.kind == "lambda-comm":
        t = spec.t1
        return brute_solve(EquationSpec.intertwine(t, t.scale(spec.lam)))
    if spec.kind == "inhom-comm":
        t = spec.t1
        n = t.rows
        _check_cap(n, n)
        sys = t.transpose().kron(Matrix.identity(n)) - Matrix.identity(n).kron(t)
        return _nullspace_solution(sys, (n, n), list(t.vec()))
    if spec.kind in ("transpose-pair", "symmetric-transpose-pair"):
        j = spec.t1
        n = j.rows
        _check_cap(n, n)
        jt = j.transpose()
        sys = j.transpose().kron(Matrix.identity(n)) + Matrix.identity(n).kron(jt)
        rows = sys.to_rows()
        if spec.kind == "symmetric-transpose-pair":
            for i in range(n):
                for k in range(i + 1, n):
                    row = [Fraction(0)] * (n * n)
                    row[k * n + i] = Fraction(1)  # entry (i,k), column-stacked
                    row[i * n + k] = Fraction(-1)
                    rows.append(row)
        return _nullspace_solution(Matrix.from_rows(rows), (n, n))
    if spec.kind == "derivation":
        from .liealg import bracket

        l = spec.algebra
        n = l.dimension
        _check_cap(n, n)
        units = [l.unit(i) for i in range(n)]
        # right/left bracket matrices: R_k u = [u, e_k], L_k u = [e_k, u]
        right = [
            Matrix.column_stack([list(bracket(l, u, units[k])) for u in units])
            for k in range(n)
        ]
        rows = []
        for i in range(n):
            for j_ in range(i + 1, n):
                c = bracket(l, units[i], units[j_])
                part = Matrix.from_rows([list(c)]).kron(Matrix.identity(n))
                ei = Matrix.from_rows([list(units[i])])
                ej = Matrix.from_rows([list(units[j_])])
                part = part - ei.kron(right[j_]) + ej.kron(right[i])
                rows.extend(part.to_rows())
        return _nullspace_solution(Matrix.from_rows(rows), (n, n))
    raise ValueError(f"unknown equation kind {spec.kind!r}")


@dataclass(frozen=True)
class Profile:
    """Bounds for random instance generation."""

    max_dim: int = 12
    max_block_len: int = 3
    ops: int = 30
    pool: tuple[str, ...] = (
        "X", "X - 1", "X + 1", "X - 2", "X^2 + 1", "X^2 + 2", "X^2 + X + 1",
        "X^3 - 2", "X^3 + X + 1",
    )


DEFAULT_PROFILE = Profile()


def random_unimodular(rng: random.Random, n: int, ops: int) -> Matrix:
    """Product of random elementary operations; determinant is +-1."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-a for a in rows[i]]
    return Matrix.from_rows(rows)


def random_instance(seed: int, profile: Profile = DEFAULT_PROFILE):
    """Deterministic (aleph, J, S, T = S^-1 J S) fixture for a seed, J in
    the eps = 1 convention."""
    rng = random.Random(seed)
    pool = [IrreduciblePoly.check(parse_poly(s)) for s in profile.pool]
    entries = []
    dim = 0
    while True:
        p = rng.choice(pool)
        n = rng.randint(1, profile.max_block_len)
        if dim + n * p.degree > profile.max_dim:
            if dim > 0 and rng.random() < 0.7:
                break
            continue
        entries.append((p, n, 1))
        dim += n * p.degree
        if dim == profile.max_dim:
            break
    a = MultiplicityFunction(entries)
    j = canonical_form(a, EPS1)
    s = random_unimodular(rng, j.dim, profile.ops)
    t = invert(s) * j.matrix * s
    return a, j, s, t
