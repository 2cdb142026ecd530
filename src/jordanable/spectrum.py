"""Monic irreducible polynomials, the dilation action, companion matrices.

Irreducibility over Q is certified autonomously only up to degree 3
(absence of rational roots); higher degrees must be asserted through
hints.  Rational roots are found by p-adic (Hensel) lifting of the roots
modulo a small prime, at a cost polynomial in the coefficients'
bit-size, once per squarefree part; the pieces of degree <= 3 left after
the roots are removed have no linear factor, so they are irreducible by
construction.  Only Kronecker's search for quadratic and cubic factors of
a residual of degree >= 4 (`_find_small_factor`) still enumerates
divisors, of its values at deg points.  Two companion conventions are
supported: the general form (epsilon=1) and the rotation-scaling 2x2
form (epsilon=0) for quadratics that split as (X-a)^2 + b^2 with
rational a, b.  The structure queries read each factor's x_p, extension
basis, W_p and dilate lam*p from `_factor_forms`, one bounded cache keyed
by (p, convention, lam); the public `companion`, `ext_basis_matrices`,
`star_irreducible` and `equations.w_matrix` build them afresh.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import ConventionError, UnfactoredRemainder, VerificationFailed, verify
from .field import Matrix, Polynomial, poly_divmod, poly_gcd, solve_linear, _div, _frac


class Certification(Enum):
    PROVEN = "proven"
    HINTED = "hinted"


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _denominator_lcm(p: Polynomial) -> int:
    """The least positive integer d such that d * p has integer coefficients."""
    return math.lcm(*(c.denominator for c in p.coeffs))


def _primes():
    """2, 3, 5, 7, ... by trial division against the primes found so far."""
    found: list[int] = []
    n = 2
    while True:
        if all(n % q for q in found if q * q <= n):
            found.append(n)
            yield n
        n += 1


def _eval(coeffs: list[int], x: int, m: int | None = None) -> int:
    """Horner evaluation of an integer polynomial, reduced mod m when given."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of p, sorted, by p-adic (Hensel) lifting.

    The squarefree part of p, cleared of denominators and content, is
    a_d X^d + ... + a_0; its rational roots are y / a_d for the integer
    roots y of the monic F(Y) = a_d^(d-1) f(Y / a_d).  Each root of F
    modulo the smallest prime q at which all of F's roots are simple is
    Newton-lifted to a modulus past twice the Cauchy bound 1 + max|F_k|,
    and a lifted symmetric residue is kept if it is an exact root.  Every
    integer root reduces to a simple root mod q, so none is missed.  The
    cost is polynomial in the bit-size of the coefficients.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    g = poly_gcd(p, p.derivative())
    return _squarefree_roots(p if g.degree == 0 else poly_divmod(p, g)[0])


def _squarefree_roots(f: Polynomial) -> list[Fraction]:
    """`rational_roots` of a squarefree f."""
    lcm = _denominator_lcm(f)
    ints = [int(c * lcm) for c in f.coeffs]
    content = math.gcd(*ints)
    a = [c // content for c in ints]
    d, lead = len(a) - 1, a[-1]
    big_f = [a[k] * lead ** (d - 1 - k) for k in range(d)] + [1]
    df = [k * c for k, c in enumerate(big_f) if k > 0]
    # F is squarefree, so only the finitely many primes dividing its
    # discriminant can give a multiple root mod q
    for q in _primes():
        residues = [r for r in range(q) if _eval(big_f, r, q) == 0]
        if all(_eval(df, r, q) for r in residues):
            break
    bound = 1 + max(abs(c) for c in big_f)
    roots = []
    for y in residues:
        m = q
        while m <= 2 * bound:
            # Newton step; F'(y) is a unit mod q, so y becomes a root mod m^2
            m *= m
            y = (y - _eval(big_f, y, m) * pow(_eval(df, y, m), -1, m)) % m
        if y > m // 2:
            y -= m
        if _eval(big_f, y) == 0:
            roots.append(_div(y, lead))
    return sorted(roots)


@dataclass(frozen=True)
class IrreduciblePoly:
    """A monic irreducible polynomial, with how irreducibility was certified."""

    poly: Polynomial
    certification: Certification

    @staticmethod
    def check(poly: Polynomial) -> "IrreduciblePoly":
        """Certify irreducibility autonomously; only possible for degree <= 3."""
        if not poly.is_monic or poly.degree < 1:
            raise ValueError(f"not a monic polynomial of positive degree: {poly}")
        if poly.degree == 1:
            return IrreduciblePoly(poly, Certification.PROVEN)
        if poly.degree > 3:
            raise ValueError(
                f"degree {poly.degree} irreducibility cannot be proven here; "
                "pass it as a hint"
            )
        if rational_roots(poly):
            raise ValueError(f"{poly} has a rational root, hence is reducible")
        return IrreduciblePoly(poly, Certification.PROVEN)

    @staticmethod
    def hinted(poly: Polynomial) -> "IrreduciblePoly":
        """Accept a user-asserted irreducible of any degree."""
        if not poly.is_monic or poly.degree < 1:
            raise ValueError(f"not a monic polynomial of positive degree: {poly}")
        if poly.degree <= 3:
            return IrreduciblePoly.check(poly)
        if rational_roots(poly):
            raise ValueError(f"hint {poly} has a rational root, hence is reducible")
        return IrreduciblePoly(poly, Certification.HINTED)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def sort_key(self):
        # higher-degree factors come first, matching the reference layouts
        return (-self.degree, self.poly.coeffs)

    def __lt__(self, other: "IrreduciblePoly") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return str(self.poly)


X_POLY = Polynomial((0, 1))
# IrreduciblePoly is frozen, so every caller can share the one instance
_X_IRREDUCIBLE = IrreduciblePoly(X_POLY, Certification.PROVEN)


def x_irreducible() -> IrreduciblePoly:
    return _X_IRREDUCIBLE


@dataclass(frozen=True)
class Convention:
    """Companion-form convention selector (epsilon in {0, 1})."""

    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")


EPS1 = Convention(1)
EPS0 = Convention(0)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    np = math.isqrt(x.numerator)
    dp = math.isqrt(x.denominator)
    if np * np == x.numerator and dp * dp == x.denominator:
        return _div(np, dp)
    return None


def rotation_parameters(p: Polynomial) -> tuple[Fraction, Fraction]:
    """Write a monic quadratic as (X-a)^2 + b^2 with rational a, b >= 0."""
    if p.degree != 2 or not p.is_monic:
        raise ConventionError(f"epsilon=0 needs a monic quadratic, got {p}")
    a = _div(-p.coeff(1), 2)
    b2 = p.coeff(0) - a * a
    b = _rational_sqrt(b2)
    if b is None:
        raise ConventionError(
            f"{p} does not split as (X-a)^2+b^2 with rational b; epsilon=0 unavailable"
        )
    return a, b


def companion(p: IrreduciblePoly, conv: Convention = EPS1) -> Matrix:
    """x_p: the matrix realization of a root of p acting on Q[X]/(p)."""
    d = p.degree
    if d == 1:
        return Matrix(1, 1, [-p.poly.coeff(0)])
    if conv.epsilon == 0:
        if d != 2:
            raise ConventionError("epsilon=0 companion form exists only for degree 2")
        a, b = rotation_parameters(p.poly)
        return Matrix.from_rows([[a, -b], [b, a]])
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.poly.coeff(i)
    return Matrix.from_rows(rows)


def ext_basis_matrices(
    p: IrreduciblePoly, conv: Convention = EPS1, root: Matrix | None = None
) -> list[Matrix]:
    """F-matrices of the standard F-basis of the extension field Q[X]/(p).

    The basis acts through `root`, a matrix annihilated by p, by default
    the companion matrix x_p.  For epsilon=1 these are the powers
    root^k, k < deg p; for epsilon=0 they are {id, (root - a)/b},
    matching the rotation-scaling coordinates.
    """
    xp = companion(p, conv) if root is None else root
    one = Matrix.identity(xp.rows)
    if conv.epsilon == 0 and p.degree == 2:
        a, b = rotation_parameters(p.poly)
        return [one, (xp - one.scale(a)).scale(_div(1, b))]
    powers = [one]
    for _ in range(1, p.degree):
        powers.append(powers[-1] * xp)
    return powers


def _w_hankel(p: IrreduciblePoly, conv: Convention) -> Matrix:
    """The Hankel matrix of `equations.w_matrix`, for a convention that is
    available for p; here so that the factor forms below can hold it."""
    d = p.degree
    mu = [1]
    for n in range(1, d):
        mu.append(-sum(p.poly.coeff(d - n + k) * mu[k] for k in range(n)))
    if d > 1:
        mu[1] *= conv.epsilon
    h = [0] * (d - 1) + mu
    return Matrix(d, d, [h[i + j] for i in range(d) for j in range(d)])


def star_poly(lam, p: Polynomial) -> Polynomial:
    """Dilation action: coefficient k is scaled by lam**(deg p - k)."""
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("dilation by zero")
    d = p.degree
    return Polynomial(lam ** (d - k) * p.coeff(k) for k in range(d + 1))


def star_irreducible(lam, p: IrreduciblePoly) -> IrreduciblePoly:
    return IrreduciblePoly(star_poly(lam, p.poly), p.certification)


class _FactorForms(NamedTuple):
    """The closed forms of one factor p in one convention, as nonzero rows."""

    p: IrreduciblePoly
    root: tuple  # x_p
    ext: tuple  # the extension basis, one matrix each
    w: tuple  # W_p


# the structure queries of one algebra meet a handful of factors and
# dilations, so a fixed few hundred entries keep every pool in reach
_FORMS_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FORMS_CACHE_SIZE)
def _factor_forms(p: IrreduciblePoly, conv: Convention, lam) -> _FactorForms:
    """x_p, the extension basis and W_p of the factor lam*p in convention
    conv, built once per (p, conv, lam) from the public closed forms
    (with them, at eps = 0, the rotation parameters).  A form that is
    unavailable raises on every call, as nothing is cached for it."""
    if lam != 1:
        return _factor_forms(star_irreducible(lam, p), conv, 1)
    x = companion(p, conv)
    return _FactorForms(
        p,
        x.nonzero_rows,
        tuple(e.nonzero_rows for e in ext_basis_matrices(p, conv, x)),
        _w_hankel(p, conv).nonzero_rows,
    )


def minimal_polynomial(t: Matrix) -> Polynomial:
    """Lowest-degree monic P with P(t) = 0, by first Krylov dependence."""
    if t.rows != t.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = t.rows
    if n == 0:
        return Polynomial.one()
    power = Matrix.identity(n)
    vecs: list[tuple] = []
    while True:
        v = power.vec()
        if vecs:  # the first power, the identity, is never zero
            sol = solve_linear(Matrix.column_stack([list(u) for u in vecs]), list(v))
            if sol is not None:
                break
        vecs.append(v)
        power = power * t
        if len(vecs) > n:
            raise VerificationFailed(
                "no Krylov dependence below dimension bound",
                check="krylov-dependence", dim=n,
            )
    coeffs = [-c for c in sol[0]] + [1]
    return Polynomial(coeffs)


def _squarefree_parts(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: returns [(s_i, i)] with p = prod s_i^i, s_i squarefree."""
    out = []
    g = poly_gcd(p, p.derivative())
    w = poly_divmod(p, g)[0]
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, g)
        s = poly_divmod(w, y)[0]
        if s.degree >= 1:
            out.append((s, i))
        w = y
        g = poly_divmod(g, y)[0]
        i += 1
    return out


def _find_small_factor(f: Polynomial) -> Polynomial | None:
    """A monic factor of degree 2 or 3 of a monic integer polynomial.

    Kronecker's method: a monic integer factor g of degree deg satisfies
    g(t) | f(t) at the integer points t, and its values at the deg points
    0, 1 (and -1 for cubics) fix its lower coefficients, so running over
    the divisors at those points enumerates every candidate; g(2) | f(2)
    screens a candidate before the trial division.  f is assumed to have
    no rational roots, hence nonzero values at the sample points, and no
    quadratic factor when cubics are searched, so a cubic factor needs
    deg f >= 6.
    """
    from itertools import product as iproduct

    values = {t: f(t) for t in (0, 1, -1, 2)}
    verify(all(v != 0 and v.denominator == 1 for v in values.values()),
           "sample value is zero or not an integer", check="kronecker-sample")
    values = {t: int(v) for t, v in values.items()}
    for deg in (2, 3):
        if f.degree < 2 * deg:
            return None
        divisor_lists = [[s * d for d in _divisors(values[t]) for s in (1, -1)]
                         for t in (0, 1, -1)[:deg]]
        for vals in iproduct(*divisor_lists):
            if deg == 2:
                g0, g1 = vals
                g = [g0, g1 - 1 - g0, 1]
            else:
                g0, g1, gm = vals
                if (g1 + gm) % 2:
                    continue
                g = [g0, (g1 - gm) // 2 - 1, (g1 + gm) // 2 - g0, 1]
            g2 = _eval(g, 2)
            if g2 == 0 or values[2] % g2:
                continue
            if poly_divmod(f, Polynomial(g))[1].is_zero:
                return Polynomial(g)
    return None


def _split_residual(part: Polynomial) -> list[Polynomial]:
    """Split a rational monic residual (no rational roots) into monic
    factors of degree <= 3 where possible, via an integer rescaling."""
    out = []
    while part.degree >= 4:
        denom_lcm = _denominator_lcm(part)
        scaled = star_poly(denom_lcm, part)
        g_scaled = _find_small_factor(scaled)
        if g_scaled is None:
            return out + [part]
        g = star_poly(Fraction(1, denom_lcm), g_scaled)
        out.append(g)
        part = poly_divmod(part, g)[0]
    if part.degree >= 1:
        out.append(part)
    return out


def factor_with_hints(
    p: Polynomial, hints: list[IrreduciblePoly] | None = None
) -> dict[IrreduciblePoly, int]:
    """Factor a monic polynomial into certified irreducibles.

    Degree <= 3 factors are found autonomously: one rational-root search
    per squarefree part, whose rootless pieces of degree <= 3 are then
    irreducible by construction, and Kronecker's search over divisors at
    deg points inside the rest.  Higher-degree irreducible factors must
    appear among the hints, otherwise the unfactored residual is
    reported as an error.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError(f"can only factor monic nonzero polynomials, got {p}")
    hints = hints or []
    factors: dict[IrreduciblePoly, int] = {}

    def add(f: IrreduciblePoly, e: int):
        factors[f] = factors.get(f, 0) + e

    for part, mult in _squarefree_parts(p):
        for h in hints:
            q, r = poly_divmod(part, h.poly)
            if r.is_zero:
                add(h, mult)
                part = q
        for root in _squarefree_roots(part):
            lin = Polynomial((-root, 1))
            add(IrreduciblePoly(lin, Certification.PROVEN), mult)
            part = poly_divmod(part, lin)[0]
        # part is squarefree and has no rational root left, so every
        # piece of degree <= 3 is irreducible
        for piece in _split_residual(part):
            if piece.degree >= 4:
                raise UnfactoredRemainder(piece)
            add(IrreduciblePoly(piece, Certification.PROVEN), mult)

    product = Polynomial.one()
    for f, e in factors.items():
        product = product * f.poly**e
    verify(product == p, "internal factorization mismatch", check="factor-product")
    return dict(sorted(factors.items(), key=lambda kv: kv[0].sort_key()))


_TERM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\s*\d+(?:/\d+)?|[+-])?\s*\*?\s*"
    r"(?P<var>X)?\s*(?:(?:\^|\*\*)\s*(?P<exp>\d+))?\s*$"
)


def parse_poly(text: str) -> Polynomial:
    """Parse the human syntax 'X^3 - 2' (also accepts '**' and '*')."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    terms = []
    buf = ""
    for ch in s.replace("−", "-"):
        if ch in "+-" and buf.strip() and not buf.rstrip().endswith(("^", "*", "/", "+", "-")):
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
        coef_text = (m.group("coef") or "+1").replace(" ", "")
        if coef_text in ("+", "-"):
            if m.group("var") is None:
                raise ValueError(f"dangling sign {term!r} in {text!r}")
            coef_text += "1"
        try:
            coef = Fraction(coef_text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r} of {text!r}") from None
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            if m.group("exp") is not None:
                raise ValueError(f"exponent without variable in {term!r}")
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    n = max(coeffs) + 1
    return Polynomial(coeffs.get(k, Fraction(0)) for k in range(n))
