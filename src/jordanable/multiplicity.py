"""Multiplicity functions, their dilation pushforward and symmetry groups.

A multiplicity function assigns a natural multiplicity to each pair
(monic irreducible p, block length n); it is the complete similarity
invariant of the operators built in :mod:`jordanable.jordan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ZeroMultiplicityFunction
from .field import _div, _frac
from .spectrum import IrreduciblePoly, star_irreducible, star_poly, x_irreducible


class MultiplicityFunction:
    """Finite map (irreducible p, block length n) -> multiplicity >= 1."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[IrreduciblePoly, int, int]]):
        acc: dict[tuple[IrreduciblePoly, int], int] = {}
        for p, n, mult in entries:
            if n < 1:
                raise ValueError("block length must be >= 1")
            if mult < 0:
                raise ValueError("multiplicity must be >= 0")
            if mult:
                key = (p, n)
                acc[key] = acc.get(key, 0) + mult
        self.entries = dict(
            sorted(acc.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))
        )

    def items(self):
        return self.entries.items()

    def __call__(self, p: IrreduciblePoly, n: int) -> int:
        return self.entries.get((p, n), 0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def dim(self) -> int:
        return sum(n * m * p.degree for (p, n), m in self.entries.items())

    @property
    def supp(self) -> list[IrreduciblePoly]:
        seen = []
        for (p, _n), _m in self.entries.items():
            if p not in seen:
                seen.append(p)
        return seen

    @property
    def supported_on_x(self) -> bool:
        """supp within {X}: the function of a nilpotent operator."""
        return all(p == x_irreducible() for p in self.supp)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiplicityFunction) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.entries.items()))

    def __repr__(self) -> str:
        return f"MultiplicityFunction{self}"

    def __str__(self) -> str:
        if self.is_zero:
            return "()"
        parts = [f"{m}×({p})^{n}" for (p, n), m in self.entries.items()]
        return "(" + ", ".join(parts) + ")"


def aleph(*entries: tuple) -> MultiplicityFunction:
    """Convenience constructor from (IrreduciblePoly, n, mult) triples."""
    return MultiplicityFunction(entries)


def star_aleph(lam, a: MultiplicityFunction) -> MultiplicityFunction:
    """Pushforward along the dilation action: entries re-keyed by lam*p."""
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("dilation by zero")
    return MultiplicityFunction(
        (star_irreducible(lam, p), n, m) for (p, n), m in a.items()
    )


@dataclass(frozen=True)
class DilationGroup:
    """Isotropy subgroup of Q* at a multiplicity function.

    Either all scalars (support contained in {X}) or an explicit finite
    subgroup of Q*.
    """

    all_scalars: bool
    elements: tuple[Fraction, ...] = ()

    def __contains__(self, lam) -> bool:
        lam = _frac(lam)
        if lam == 0:
            return False
        return self.all_scalars or lam in self.elements

    def __str__(self) -> str:
        if self.all_scalars:
            return "Q*"
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


def _integer_nth_root(n: int, d: int) -> Optional[int]:
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + d - 1) // d + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**d == n else None


def rational_nth_roots(c: Fraction, d: int) -> list[Fraction]:
    """All rational solutions of lam**d = c."""
    if c == 0:
        return [Fraction(0)]
    if d % 2 == 0 and c < 0:
        return []
    num = _integer_nth_root(abs(c.numerator), d)
    den = _integer_nth_root(c.denominator, d)
    if num is None or den is None:
        return []
    r = Fraction(num, den)
    if d % 2 == 1:
        return [r if c > 0 else -r]
    return [r, -r]


def _candidate_dilations(
    a1: MultiplicityFunction, a2: MultiplicityFunction
) -> list[Fraction]:
    """Scalars possibly mapping supp(a1) onto supp(a2) by dilation.

    Every irreducible other than X has a nonzero constant term, and a
    dilation by lam scales the constant term of a degree-d polynomial by
    lam**d; matching constant terms across the two supports enumerates
    all possible witnesses.
    """
    s1 = [p for p in a1.supp if p != x_irreducible()]
    s2 = [p for p in a2.supp if p != x_irreducible()]
    if not s1 or not s2:
        return []
    p = min(s1, key=lambda q: q.sort_key())
    cands: list[Fraction] = []
    for q in s2:
        if q.degree != p.degree:
            continue
        ratio = _div(q.poly.coeff(0), p.poly.coeff(0))
        for lam in rational_nth_roots(ratio, p.degree):
            if lam != 0 and lam not in cands:
                cands.append(lam)
    return sorted(cands)


def _keys(a: MultiplicityFunction, lam=1) -> frozenset:
    """The (coefficients, certification, n, mult) entries of lam*a: equal
    sets are equal functions, compared without building the dilated
    IrreduciblePoly keys or MultiplicityFunction."""
    return frozenset(
        (p.poly.coeffs if lam == 1 else star_poly(lam, p.poly).coeffs,
         p.certification, n, m)
        for (p, n), m in a.items()
    )


def dilation_symmetries(a: MultiplicityFunction) -> DilationGroup:
    """All scalars lam with lam*a = a."""
    if a.is_zero:
        raise ZeroMultiplicityFunction("dilation symmetries of the zero function")
    if a.supported_on_x:
        return DilationGroup(all_scalars=True)
    keys = _keys(a)
    found = [lam for lam in _candidate_dilations(a, a) if _keys(a, lam) == keys]
    if Fraction(1) not in found:
        found.append(Fraction(1))
    return DilationGroup(all_scalars=False, elements=tuple(sorted(found)))


def projectively_equal(
    a1: MultiplicityFunction, a2: MultiplicityFunction
) -> Optional[Fraction]:
    """A witness lam with lam*a1 = a2, or None when the orbits differ."""
    if a1.dim != a2.dim:
        return None
    if a1.supported_on_x or a2.supported_on_x:
        return Fraction(1) if a1 == a2 else None
    # prefer the smallest-magnitude positive witness for determinism
    keys = _keys(a2)
    for lam in sorted(_candidate_dilations(a1, a2), key=lambda x: (abs(x), x < 0)):
        if _keys(a1, lam) == keys:
            return lam
    return None
