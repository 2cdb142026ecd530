"""Jordan blocks, canonical forms, multiplicity extraction and similarity.

The canonical form attached to a multiplicity function is the direct sum
of blocks J(p,n) = x_p (block diagonal) + nilpotent shift (identity blocks
on the block superdiagonal), laid out in a fixed deterministic order:
(deg p, coefficients of p, n ascending, copy index ascending).  Within a
block, coordinate (m, k) is the k-th extension coordinate of the m-th
chain vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from .errors import VerificationFailed, ZeroMultiplicityFunction, verify
from .field import (
    _ONE,
    _ZERO,
    Matrix,
    Polynomial,
    _matrix,
    coordinates,
    invert,
    poly_divmod,
    poly_xgcd,
    row_reduce,
)
from .multiplicity import MultiplicityFunction
from .spectrum import (
    Convention,
    EPS1,
    IrreduciblePoly,
    companion,
    ext_basis_matrices,
    factor_with_hints,
    minimal_polynomial,
)


def nilpotent_shift(n: int) -> Matrix:
    """N_n: ones on the superdiagonal."""
    return Matrix(n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)])


def jordan_block(p: IrreduciblePoly, n: int, conv: Convention = EPS1) -> Matrix:
    """J(p,n): companion blocks on the diagonal, identity superdiagonal.

    The paper's closed form as a public function; canonical_form writes
    its blocks in place, and the tests use this as the reference."""
    d = p.degree
    xp = companion(p, conv)
    return Matrix.identity(n).kron(xp) + nilpotent_shift(n).kron(Matrix.identity(d))


@dataclass(frozen=True)
class BlockIndex:
    """Label of one coordinate of a canonical form."""

    p: IrreduciblePoly
    n: int
    alpha: int  # which copy of J(p,n), 0-based
    m: int  # chain position, 1..n
    k: int  # extension coordinate, 0..deg p - 1

    def __str__(self) -> str:
        return f"e[{self.alpha + 1}]^({self.m},{self.k})({self.p};{self.n})"


@dataclass(frozen=True)
class Block:
    """One J(p,n) copy inside a canonical form, with its coordinate range."""

    p: IrreduciblePoly
    n: int
    alpha: int
    offset: int

    @property
    def size(self) -> int:
        return self.n * self.p.degree

    def coord(self, m: int, k: int) -> int:
        return self.offset + (m - 1) * self.p.degree + k


def block_layout(a: MultiplicityFunction) -> list[Block]:
    blocks = []
    offset = 0
    for (p, n), mult in a.items():
        for alpha in range(mult):
            blocks.append(Block(p, n, alpha, offset))
            offset += n * p.degree
    return blocks


@dataclass(frozen=True)
class JordanForm:
    """J(aleph) with its layout.

    ``blocks`` (one `Block` per J(p,n) copy, with its coordinate range)
    and ``index`` (one `BlockIndex` per coordinate) are the one source of
    the block layout, built once with the form: callers read coordinates
    and labels from them rather than re-deriving the order from ``aleph``.
    """

    matrix: Matrix
    aleph: MultiplicityFunction
    convention: Convention
    blocks: tuple[Block, ...]
    index: tuple[BlockIndex, ...]

    @property
    def dim(self) -> int:
        return self.matrix.rows


def canonical_form(a: MultiplicityFunction, conv: Convention = EPS1) -> JordanForm:
    """J(aleph): the direct sum of all blocks in canonical order.

    J is written cell by cell, each block J(p, n) from its factor's x_p,
    found once per factor: x_p at chain position (m, m) and the identity
    at (m, m + 1), as in jordan_block.
    """
    if a.is_zero:
        raise ZeroMultiplicityFunction("canonical form of the zero function")
    blocks = tuple(block_layout(a))
    dim = a.dim
    cells = [_ZERO] * (dim * dim)
    # a layout lists the blocks of one factor together
    for p, group in groupby(blocks, key=lambda b: b.p):
        d = p.degree
        xp = companion(p, conv).nonzero_rows
        for b in group:
            for m in range(b.n):
                row0 = b.offset + m * d
                for k, pairs in enumerate(xp):
                    at = (row0 + k) * dim + row0
                    for c, x in pairs:
                        cells[at + c] = x
                    if m + 1 < b.n:
                        cells[at + d + k] = _ONE
    index = tuple(
        BlockIndex(b.p, b.n, b.alpha, m, k)
        for b in blocks
        for m in range(1, b.n + 1)
        for k in range(b.p.degree)
    )
    return JordanForm(_matrix(dim, dim, cells), a, conv, blocks, index)


# factor p -> (p(t), kernel bases of p(t)^k for k = 0..e+1), where p^e
# divides the minimal polynomial exactly
_Filtrations = dict[IrreduciblePoly, tuple[Matrix, list[list[tuple]]]]


def _filtrations(t: Matrix, hints: list[IrreduciblePoly] | None) -> _Filtrations:
    """The kernel filtration of every factor, one row reduction per power."""
    if t.rows != t.cols:
        raise ValueError("multiplicity function of non-square matrix")
    out = {}
    for p, e in factor_with_hints(minimal_polynomial(t), hints).items():
        a = p.poly(t)
        kers: list[list[tuple]] = [[]]
        power = Matrix.identity(t.rows)
        for _ in range(e + 1):
            power = power * a
            kers.append(row_reduce(power)[2])
        out[p] = (a, kers)
    return out


def _aleph_from(t: Matrix, filtrations: _Filtrations) -> MultiplicityFunction:
    """deg(p) * aleph(p,n) = 2 dim ker p(t)^n - dim ker p(t)^(n+1)
    - dim ker p(t)^(n-1)."""
    entries = []
    for p, (_a, kers) in filtrations.items():
        dims = [len(k) for k in kers]
        for n in range(1, len(kers) - 1):
            num = 2 * dims[n] - dims[n + 1] - dims[n - 1]
            if num % p.degree:
                raise VerificationFailed(
                    "kernel filtration not a multiple of deg p",
                    check="kernel-filtration", p=str(p), n=n,
                )
            if num:
                entries.append((p, n, num // p.degree))
    a = MultiplicityFunction(entries)
    verify(a.dim == t.rows, "block dimensions do not fill the space",
           check="block-dimensions", dim=t.rows, blocks_dim=a.dim)
    return a


def multiplicity_of(
    t: Matrix, hints: list[IrreduciblePoly] | None = None
) -> MultiplicityFunction:
    """Extract the multiplicity function of a square matrix.

    For each irreducible factor p of the minimal polynomial with exponent
    e, the count of length-n blocks is read off the kernel filtration of
    p(t) for n = 1..e.
    """
    return _aleph_from(t, _filtrations(t, hints))


def _poly_compose_mod(f: Polynomial, g: Polynomial, mod: Polynomial) -> Polynomial:
    """f(g) reduced modulo mod, by Horner."""
    acc = Polynomial.zero()
    for c in reversed(f.coeffs):
        acc = poly_divmod(acc * g + Polynomial.constant(c), mod)[1]
    return acc


def lift_root(p: IrreduciblePoly, e: int) -> Polynomial:
    """A polynomial u with u = X mod p and p(u) = 0 mod p^e (Newton lift)."""
    mod = p.poly**e
    u = Polynomial.x()
    for _ in range(max(e - 1, 0).bit_length() + 1):
        pu = _poly_compose_mod(p.poly, u, mod)
        if pu.is_zero:
            break
        dpu = _poly_compose_mod(p.poly.derivative(), u, mod)
        g, s, _ = poly_xgcd(dpu, mod)
        verify(g.degree == 0, "p' not invertible modulo p^e", check="newton-lift")
        u = poly_divmod(u - pu * s, mod)[1]
    verify(_poly_compose_mod(p.poly, u, mod).is_zero,
           "lifted root is not a root modulo p^e", check="newton-lift")
    return u


def _chain_tops(
    a: Matrix,
    kers: list[list[tuple]],
    counts: dict[int, int],
    basis_ops: list[Matrix],
) -> dict[int, list[tuple]]:
    """Choose the chain tops of each height n for one factor p, given
    a = p(t) and kers[k] = ker a^k for k = 0..e+1.

    A top must avoid the guard, span(ker a^(n-1) + a ker a^(n+1)), and the
    extension-field spans of the tops kept before it; that keeps the tops
    independent over the extension.  One reduction of
    [guard | op(c) for c in kers[n] for op in basis_ops] decides every
    candidate c at once: span(guard) is t-invariant, so it is closed under
    the extension action, and basis_ops[0] is the identity, so c's own
    column comes before its extension images and is a pivot exactly when c
    avoids the guard and the extension spans of the earlier kept
    candidates.  The first `want` such c are the tops that choosing one
    candidate at a time, in order, would keep.
    """
    tops: dict[int, list[tuple]] = {}
    for n, want in counts.items():
        guard = [*kers[n - 1], *(a.apply(v) for v in kers[n + 1])]
        images = [op.apply(c) for c in kers[n] for op in basis_ops]
        pivots = set(row_reduce(Matrix.column_stack(guard + images)).pivots)
        own = range(len(guard), len(guard) + len(images), len(basis_ops))
        tops[n] = [c for c, col in zip(kers[n], own) if col in pivots][:want]
        if len(tops[n]) != want:
            raise VerificationFailed(
                "could not find enough chain tops", check="chain-tops", height=n
            )
    return tops


def similarity_transform(
    t: Matrix,
    hints: list[IrreduciblePoly] | None = None,
    conv: Convention = EPS1,
) -> tuple[Matrix, JordanForm]:
    """An invertible S with S t S^-1 = J(aleph_t), plus the canonical form."""
    s, _s_inv, j = _similarity(t, hints, conv)
    return s, j


def _similarity(
    t: Matrix,
    hints: list[IrreduciblePoly] | None = None,
    conv: Convention = EPS1,
) -> tuple[Matrix, Matrix, JordanForm]:
    """(S, S^-1, canonical form) with S t S^-1 = J(aleph_t); S^-1 is the
    column-stacked chain basis, so callers that need it invert nothing.

    The chains are stacked as they are found: the filtrations list the
    factors by sort key and each factor's heights ascend, the order of
    aleph's entries and so of J's blocks."""
    filtrations = _filtrations(t, hints)
    a = _aleph_from(t, filtrations)
    if a.is_zero:
        # the zero-dimensional matrix; S is empty
        j = JordanForm(t, a, conv, (), ())
        return Matrix.identity(0), Matrix.identity(0), j
    columns: list[tuple] = []
    for p, (pt, kers) in filtrations.items():
        counts = {n: m for (q, n), m in a.items() if q == p}
        xhat = lift_root(p, len(kers) - 2)(t)
        nil = t - xhat
        basis_ops = ext_basis_matrices(p, conv, xhat)
        for n, tops in _chain_tops(pt, kers, counts, basis_ops).items():
            for v in tops:
                chain = [v]  # nil^(n-m) v for m = n down to 1
                for _ in range(n - 1):
                    chain.append(nil.apply(chain[-1]))
                columns.extend(op.apply(em) for em in reversed(chain) for op in basis_ops)
    s_inv = Matrix.column_stack(columns)
    s = invert(s_inv)
    j = canonical_form(a, conv)
    verify(s * t == j.matrix * s, "similarity postcondition failed", check="similarity")
    return s, s_inv, j


@dataclass(frozen=True)
class InvariantSubspaceSpec:
    """A target multiplicity function together with mixing coefficients.

    ``mu`` maps (p, n, beta, k, alpha, shift) to a rational coefficient;
    the generated chain eta^m uses, for each source block (p, k, alpha),
    the chain vector at position m - shift scaled by that coefficient.
    The span is J-invariant when every term of a target chain of length n
    taken from a source chain of length k < n has shift >= n - k.  A
    nonzero term must name a chain of beth (beta < beth(p, n)) and a
    block of J (alpha < aleph(p, k)); `invariant_subspace_from` rejects
    any other, even one whose shift never reaches a chain vector.
    """

    beth: MultiplicityFunction
    mu: dict[tuple[IrreduciblePoly, int, int, int, int, int], Fraction]


def _xi_chains(j: JordanForm) -> dict[tuple[IrreduciblePoly, int, int], list[tuple]]:
    """Per block, the chain basis with p(J) xi^m = xi^(m-1), topped by the
    unit vector of the block's last chain position."""
    pj = {p: p.poly(j.matrix) for p in j.aleph.supp}
    ident = Matrix.identity(j.dim)
    out = {}
    for b in j.blocks:
        chain = [ident.row(b.coord(b.n, 0))]
        for _ in range(b.n - 1):
            chain.append(pj[b.p].apply(chain[-1]))
        chain.reverse()  # chain[m-1] = xi^m
        out[(b.p, b.n, b.alpha)] = chain
    return out


def invariant_subspace_from(
    j: JordanForm, spec: InvariantSubspaceSpec
) -> list[tuple]:
    """Basis of the invariant subspace generated by the mu-combinations;
    the extension basis acts through J's companion part, the direct sum
    of I_n tensor x_p over J's blocks."""
    xi = _xi_chains(j)
    terms: dict[tuple, list[tuple]] = {}  # (p, n, beta) -> its nonzero mu terms
    for (p, n, beta, k, alpha, shift), val in spec.mu.items():
        if val == 0:
            continue
        term = f"mu term ({p}, {n}, {beta}, {k}, {alpha}, {shift})"
        if not 0 <= beta < spec.beth(p, n):
            raise ValueError(f"{term} targets chain ({p}, {n}, {beta}), "
                             "which beth does not have")
        if not 0 <= alpha < j.aleph(p, k):
            raise ValueError(f"{term} reads block ({p}, {k}, {alpha}), "
                             "which J does not have")
        terms.setdefault((p, n, beta), []).append((k, alpha, shift, val))
    root = Matrix.block_diag([
        Matrix.identity(b.n).kron(companion(b.p, j.convention))
        for b in j.blocks
    ])
    vectors: list[tuple] = []
    for (p, n), mult in spec.beth.items():
        actions = ext_basis_matrices(p, j.convention, root)
        for beta in range(mult):
            chain_terms = terms.get((p, n, beta), [])
            if not any(shift == 0 and k >= n for k, _a, shift, _v in chain_terms):
                raise ValueError(
                    f"no nonzero top coefficient for chain ({p}, {n}, {beta}); "
                    "the generated subspace cannot have that block"
                )
            for m in range(1, n + 1):
                eta = [Fraction(0)] * j.dim
                for k, alpha, shift, val in chain_terms:
                    l = m - shift
                    if 1 <= l <= min(k, m):
                        eta = [x + val * y for x, y in zip(eta, xi[(p, k, alpha)][l - 1])]
                vectors.extend(op.apply(eta) for op in actions)
    try:
        closed = coordinates(vectors, [j.matrix.apply(v) for v in vectors])
    except ValueError:
        raise ValueError("generated vectors are linearly dependent") from None
    if closed is None:
        raise ValueError("generated vectors do not span a J-invariant subspace")
    return vectors


def check_invariant_and_restrict(
    t: Matrix, w: Sequence[Sequence], hints: list[IrreduciblePoly] | None = None
) -> Optional[MultiplicityFunction]:
    """Multiplicity function of t restricted to span(w), or None if not
    invariant: the restriction is the R with t W = W R (field.coordinates).
    """
    if t.rows != t.cols:
        raise ValueError("invariance check of non-square matrix")
    restriction = coordinates(w, [t.apply(v) for v in w])
    return None if restriction is None else multiplicity_of(restriction, hints)
