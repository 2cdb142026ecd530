"""Independent answer checker for the benchmark, on plain int and Fraction lists.

Nothing here calls into ``jordanable``: the checker rebuilds canonical
forms and brackets from the generator's records and tests every answer
by exact substitution.  Solution-space dimensions are pinned from both
sides.  The returned basis must consist of exact solutions that are
linearly independent, which bounds the true nullity from below.  Its size
must equal the nullity of the defining system modulo a large prime, which
bounds the true nullity from above, since reducing modulo a prime can
only lower a rank.  When the two disagree the nullity is recomputed over
Q before a failure is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction

PRIME = (1 << 61) - 1


class CheckFailed(Exception):
    """An answer the checker rejects."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# -- exact helpers ------------------------------------------------------


def num(x):
    """x as an int when it is integral (much faster to compute with), else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def frac_bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def max_bits(values) -> int:
    return max((frac_bits(Fraction(v)) for v in values), default=0)


def answer_bits(obj) -> int:
    """Largest numerator or denominator bit-length of any number in an answer."""
    if obj is None or isinstance(obj, bool):
        return 0
    if isinstance(obj, (int, Fraction)):
        return frac_bits(Fraction(obj))
    if isinstance(obj, str):
        try:
            return frac_bits(Fraction(obj))
        except ValueError:
            return 0
    if isinstance(obj, dict):
        return max((answer_bits(v) for k, v in obj.items() if k != "display"), default=0)
    if isinstance(obj, (list, tuple)):
        return max((answer_bits(v) for v in obj), default=0)
    return 0


def flatten(m) -> list:
    return [x for row in m for x in row]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matvec(a, v) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def scale(c, a) -> list[list[Fraction]]:
    return [[c * x for x in row] for row in a]


def sub(a, b) -> list[list[Fraction]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def add(a, b) -> list[list[Fraction]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def as_matrix(rows) -> list[list]:
    """Rows of ints, Fractions or "num/den" strings as exact numbers."""
    return [[num(x) for x in row] for row in rows]


def _mod_p(x) -> int:
    if isinstance(x, int):
        return x % PRIME
    x = Fraction(x)
    return x.numerator % PRIME * pow(x.denominator % PRIME, -1, PRIME) % PRIME


def rank_mod_p(rows) -> int:
    a = [[_mod_p(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, PRIME)
        prow = [x * inv % PRIME for x in a[rank]]
        a[rank] = prow
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % PRIME for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def rank_exact(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / prow[col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def independent(vectors) -> bool:
    if not vectors:
        return True
    if rank_mod_p(vectors) == len(vectors):
        return True
    return rank_exact(vectors) == len(vectors)


def invertible(a) -> bool:
    return len(a) == len(a[0]) and independent(a)


# -- linear systems whose nullities pin the dimensions ------------------


def linear_system(n_rows: int, n_cols: int, apply) -> list[list[Fraction]]:
    """Matrix of the linear map X -> apply(X) on n_rows x n_cols matrices."""
    columns = []
    for i in range(n_rows):
        for j in range(n_cols):
            unit = [[0] * n_cols for _ in range(n_rows)]
            unit[i][j] = 1
            columns.append(flatten(apply(unit)))
    return transpose(columns)


def nullity_mod_p(system) -> int:
    return len(system[0]) - rank_mod_p(system)


def check_space(basis, system, expected_dim: int, satisfies, what: str):
    """Exact solutions, independent, and exactly expected_dim of them."""
    for k, b in enumerate(basis):
        require(satisfies(b), f"{what}: basis element {k} fails the identity")
    require(independent([flatten(b) for b in basis]), f"{what}: dependent basis")
    if len(basis) != expected_dim:
        true_dim = len(system[0]) - rank_exact(system)
        require(len(basis) == true_dim,
                f"{what}: dimension {len(basis)}, expected {true_dim}")


# -- polynomials, canonical forms and the almost Abelian bracket ---------
#
# A polynomial is a tuple of Fractions, coefficient k of X**k, monic.  An
# aleph is a list of (poly, n, mult) entries.


def poly_degree(p) -> int:
    return len(p) - 1


def canonical_entries(entries):
    """Entries in the canonical block order: degree down, coefficients, n."""
    return sorted(entries, key=lambda e: (-poly_degree(e[0]), tuple(e[0]), e[1]))


def rational_sqrt(x: Fraction):
    if x < 0:
        return None
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def companion(p, eps: int) -> list[list]:
    d = poly_degree(p)
    if d == 1:
        return [[num(-p[0])]]
    if eps == 0 and d == 2:
        a = -Fraction(p[1]) / 2
        b = rational_sqrt(p[0] - a * a)
        require(b is not None, f"no rotation form for {p}")
        return as_matrix([[a, -b], [b, a]])
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = num(-p[i])
    return rows


def jordan_matrix(entries, eps: int = 1) -> list[list[Fraction]]:
    """J(aleph): companion blocks on the diagonal, identities above."""
    blocks = [(p, n) for p, n, mult in canonical_entries(entries) for _ in range(mult)]
    dim = sum(n * poly_degree(p) for p, n in blocks)
    j = [[0] * dim for _ in range(dim)]
    off = 0
    for p, n in blocks:
        d = poly_degree(p)
        c = companion(p, eps)
        for m in range(n):
            base = off + m * d
            for r in range(d):
                for s in range(d):
                    j[base + r][base + s] = c[r][s]
                if m + 1 < n:
                    j[base + r][base + d + r] = 1
        off += n * d
    return j


def aleph_key(entries) -> dict:
    out: dict = {}
    for p, n, mult in entries:
        key = (tuple(Fraction(c) for c in p), int(n))
        out[key] = out.get(key, 0) + int(mult)
    return out


def aleph_from_json(items) -> dict:
    return aleph_key((tuple(Fraction(c) for c in it["p"]), it["n"], it["mult"])
                     for it in items)


def star(lam: Fraction, p) -> tuple:
    """Dilation: coefficient k of a degree-d polynomial times lam**(d-k)."""
    d = poly_degree(p)
    return tuple(lam ** (d - k) * c for k, c in enumerate(p))


def _nth_root(n: int, d: int):
    r = round(abs(n) ** (1 / d)) if n else 0
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** d == abs(n):
            return cand
    return None


def dilation_set(entries) -> tuple:
    """Sorted lam != 0 with lam * aleph = aleph, for support other than {X}."""
    target = aleph_key(entries)
    supp = [p for p, _n, _m in entries if p != (Fraction(0), Fraction(1))]
    p = supp[0]
    d = poly_degree(p)
    found = set()
    for q in supp:
        if poly_degree(q) != d:
            continue
        ratio = q[0] / p[0]
        top, bottom = _nth_root(ratio.numerator, d), _nth_root(ratio.denominator, d)
        if top is None or bottom is None or (ratio < 0 and d % 2 == 0):
            continue
        r = Fraction(top, bottom)
        for lam in {r, -r} if d % 2 == 0 else {r if ratio > 0 else -r}:
            moved = aleph_key((star(lam, q_), n, m) for q_, n, m in entries)
            if lam and moved == target:
                found.add(lam)
    return tuple(sorted(found))


def bracket(j, x, y) -> list[Fraction]:
    """[a e0 + u, b e0 + w] = a J w - b J u, in (e0, V) coordinates."""
    a, u = x[0], x[1:]
    b, w = y[0], y[1:]
    jw, ju = matvec(j, w), matvec(j, u)
    return [0] + [a * cw - b * cu for cw, cu in zip(jw, ju)]


def leibniz_defect(j, d) -> list[list[Fraction]]:
    """D[x,y] - [Dx,y] - [x,Dy] for every pair of basis vectors, one row each."""
    n = len(d)
    units = identity(n)
    images = transpose(d)  # images[i] = D e_i
    rows = []
    for i in range(n):
        for k in range(i + 1, n):
            lhs = matvec(d, bracket(j, units[i], units[k]))
            rhs1 = bracket(j, images[i], units[k])
            rhs2 = bracket(j, units[i], images[k])
            rows.append([a - b - c for a, b, c in zip(lhs, rhs1, rhs2)])
    return rows


class Equation:
    """A homogeneous linear equation f(X) = 0 on matrices of one shape.

    The nullity of its system modulo PRIME is taken when the equation is
    built, i.e. when the generator records the instance.
    """

    def __init__(self, shape: tuple[int, int], f):
        self.f = f
        self.system = linear_system(shape[0], shape[1], f)
        self.dim = nullity_mod_p(self.system)

    def holds(self, x) -> bool:
        return is_zero(self.f(x))

    def check_space(self, basis, what: str):
        check_space(basis, self.system, self.dim, self.holds, what)
