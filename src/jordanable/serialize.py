"""JSON wire format shared by the CLI and the test fixtures.

Rationals are integers when integral and "num/den" strings otherwise
(input also takes any "[sign]digits[/digits]" string);
polynomials are coefficient arrays [a0, a1, ..., 1] (a human string such
as "X^3 - 2" is also accepted on input); matrices are arrays of row
arrays; multiplicity functions are lists of {"p", "n", "mult"} objects.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .field import Matrix, Polynomial, _frac
from .jordan import InvariantSubspaceSpec
from .multiplicity import MultiplicityFunction
from .spectrum import IrreduciblePoly, parse_poly


def frac_to_json(x: Fraction):
    x = _frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def int_from_json(v) -> int:
    """A JSON integer; booleans, floats and anything else are a ValueError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"not an integer: {v!r}")
    return v


# [sign]digits[/digits] in ASCII digits, with surrounding spaces: without
# decimals and exponents ("1e100000") no number outgrows the text giving it
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


def frac_from_json(v) -> Fraction:
    """A JSON integer or a "[sign]digits[/digits]" string; anything else is
    a ValueError."""
    if isinstance(v, bool):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        try:
            return Fraction(v.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    raise ValueError(f"not a rational: {v!r}")


def object_from_json(data, what: str) -> dict:
    """A JSON object; any other JSON value is a ValueError naming `what`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    return data


def list_from_json(data, what: str) -> list:
    """A JSON array; any other JSON value is a ValueError naming `what`."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, got {data!r}")
    return data


def vector_to_json(v) -> list:
    return [frac_to_json(x) for x in v]


def vector_from_json(data) -> tuple:
    return tuple(frac_from_json(x) for x in list_from_json(data, "a vector"))


def matrix_to_json(m: Matrix) -> list:
    """The rows of m, each written from its nonzero entries: a zero is
    the literal 0, with no Fraction read."""
    out = []
    for pairs in m.nonzero_rows:
        row = [0] * m.cols
        for j, x in pairs:
            row[j] = frac_to_json(x)
        out.append(row)
    return out


def matrix_from_json(data) -> Matrix:
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a nonempty JSON array of rows")
    rows = [vector_from_json(r) for r in data]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows must all have the same length")
    if not rows[0]:
        raise ValueError("matrix rows must be nonempty")
    return Matrix.from_rows(rows)


def poly_to_json(p: Polynomial) -> list:
    return [frac_to_json(c) for c in p.coeffs]


def poly_from_json(data) -> Polynomial:
    if isinstance(data, str):
        return parse_poly(data)
    if isinstance(data, list):
        return Polynomial(frac_from_json(c) for c in data)
    raise ValueError(f"not a polynomial: {data!r}")


def irreducible_from_json(data) -> IrreduciblePoly:
    return IrreduciblePoly.hinted(poly_from_json(data))


def hints_from_json(data) -> list[IrreduciblePoly]:
    return [irreducible_from_json(p) for p in list_from_json(data, "hints")]


def aleph_to_json(a: MultiplicityFunction) -> list:
    return [
        {"p": poly_to_json(p.poly), "n": n, "mult": m} for (p, n), m in a.items()
    ]


def aleph_from_json(data) -> MultiplicityFunction:
    entries = []
    for item in list_from_json(data, "a multiplicity function"):
        if not isinstance(item, dict) or not {"p", "n", "mult"} <= set(item):
            raise ValueError(f"bad multiplicity entry: {item!r}")
        entries.append(
            (irreducible_from_json(item["p"]), int_from_json(item["n"]),
             int_from_json(item["mult"]))
        )
    return MultiplicityFunction(entries)


def invariant_spec_from_json(data) -> InvariantSubspaceSpec:
    """An `invsub make` spec: {"beth": aleph, "mu": [{"p", "n", "beta", "k",
    "alpha", "shift", "value"}, ...]}, where "mu" may be left out."""
    data = object_from_json(data, "an invariant-subspace spec")
    beth = aleph_from_json(data["beth"])
    mu = {}
    for item in list_from_json(data.get("mu", []), "mu"):
        item = object_from_json(item, "a mu entry")
        key = (
            irreducible_from_json(item["p"]),
            *(int_from_json(item[f]) for f in ("n", "beta", "k", "alpha", "shift")),
        )
        mu[key] = frac_from_json(item["value"])
    return InvariantSubspaceSpec(beth, mu)


def subspace_from_json(data) -> list[tuple]:
    """Spanning vectors of one length, given as a JSON array or as
    {"basis": array}."""
    vectors = data["basis"] if isinstance(data, dict) else data
    out = [vector_from_json(v) for v in list_from_json(vectors, "a subspace basis")]
    if len({len(v) for v in out}) > 1:
        raise ValueError("subspace vectors must all have the same length")
    return out


def solution_space_to_json(space) -> dict:
    out = {"dim": space.dim, "basis": [matrix_to_json(b) for b in space.basis]}
    if space.offset is not None:
        out["offset"] = matrix_to_json(space.offset)
    return out


def labeled_vectors_to_json(vectors) -> list:
    return [
        {"label": "e0" if lv.label is None else str(lv.label),
         "vector": vector_to_json(lv.vector)}
        for lv in vectors
    ]


def pretty_matrix(m: Matrix, cuts: list[int] | None = None) -> str:
    """Fixed-width rendering with block rules after the listed coordinates."""
    cuts = set(cuts or [])
    cells = [[str(frac_to_json(m[i, j])) for j in range(m.cols)] for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = []
    for i in range(m.rows):
        parts = []
        for j in range(m.cols):
            parts.append(cells[i][j].rjust(widths[j]))
            if j + 1 in cuts and j + 1 < m.cols:
                parts.append("|")
        lines.append("[ " + " ".join(parts) + " ]")
        if i + 1 in cuts and i + 1 < m.rows:
            rule_len = len(lines[-1])
            lines.append("-" * rule_len)
    return "\n".join(lines)
