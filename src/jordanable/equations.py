"""Structured solution spaces of the three operator equations.

The solvers never run a generic linear solve: each basis element is
written row by row from its nonzeros, from the closed forms of one block
pair (the V(lam) diagonal, a shifted nilpotent intertwiner, an
extension-basis matrix and, for Z J + J^T Z = 0, W(aleph) times X), then
checked once by substitution, as X T = lam (T X) or Z J = -(J^T Z) decided
on nonzero rows (field._products_equal).  Each factor's extension basis,
lam*p and W_p are read from spectrum._factor_forms, built once per
(p, convention, lam).  V_n, U_n, P_n, W_p^eps and their direct sums stay
public as the paper's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

from .errors import ZeroMultiplicityFunction, verify
from .field import (
    Matrix,
    _div,
    _frac,
    _products_equal,
    _row_product,
    _sparse,
    span_contains,
)
from .jordan import Block, JordanForm, _similarity, block_layout, canonical_form
from .multiplicity import MultiplicityFunction
from .spectrum import (
    Convention,
    EPS1,
    IrreduciblePoly,
    _factor_forms,
    _w_hankel,
    companion,
    ext_basis_matrices,
)


@dataclass(frozen=True)
class SolutionSpace:
    """An affine space offset + span(basis) of matrices of one shape."""

    shape: tuple[int, int]
    basis: tuple[Matrix, ...]
    offset: Optional[Matrix] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        if (m.rows, m.cols) != self.shape:
            return False
        if self.offset is not None:
            m = m - self.offset
        if m.is_zero:
            return True
        return span_contains([b.vec() for b in self.basis], m.vec())

    def __str__(self) -> str:
        kind = "affine" if self.offset is not None else "linear"
        return f"SolutionSpace({kind}, shape={self.shape}, dim={self.dim})"


def v_matrix(n: int, lam) -> Matrix:
    """V_n(lam) = diag(lam, lam^2, ..., lam^n)."""
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("V_n is only defined for nonzero scalars")
    return Matrix.diagonal([lam ** (k + 1) for k in range(n)])


def u_matrix(n: int) -> Matrix:
    """U_n = diag(n-1, n-2, ..., 0); satisfies U_n N_n - N_n U_n = N_n."""
    return Matrix.diagonal([n - 1 - k for k in range(n)])


def p_matrix(n: int) -> Matrix:
    """P_n: antidiagonal ones; P_n N_n = N_n^T P_n and P_n^2 = id."""
    return Matrix(n, n, [1 if i + j == n - 1 else 0 for i in range(n) for j in range(n)])


def w_matrix(p: IrreduciblePoly, conv: Convention = EPS1) -> Matrix:
    """W_p^eps: the symmetric matrix with W x_p = x_p^T W.

    W is the Hankel matrix h[i + j] of the sequence 0 (d - 1 times),
    1, eps * mu_1, mu_2, ..., mu_{d-1}: zero where i + j < d - 1, ones on
    the antidiagonal and mu_n on the line i + j = d - 1 + n, with mu_0 = 1
    and mu_n = -sum_{k<n} a_{d-n+k} mu_k.  For eps=0 the mu_1 entries are
    dropped to match the rotation-scaling companion form.
    """
    if conv.epsilon == 0:
        companion(p, conv)  # raises ConventionError when eps=0 is unavailable
    return _w_hankel(p, conv)


def nilpotent_intertwiners(m: int, n: int) -> SolutionSpace:
    """All B with B N_m = N_n B: shifted-diagonal matrices, dim min(m,n).

    The entries of a solution are constant along diagonals j - i = d and
    vanish unless max(0, m-n) <= d <= m-1.  This is the paper's closed
    form as a public function; the library builds its intertwiners in
    place (_lambda_intertwiners), and the tests use this as the reference.
    """
    if m < 1 or n < 1:
        raise ValueError("block sizes must be >= 1")
    basis = [
        _sparse(n, m, tuple([((i + d, 1),) if i + d < m else () for i in range(n)]))
        for d in range(max(0, m - n), m)
    ]
    return SolutionSpace((n, m), tuple(basis))


def jordan_intertwiners(
    p: IrreduciblePoly,
    m: int,
    q: IrreduciblePoly,
    n: int,
    conv: Convention = EPS1,
) -> SolutionSpace:
    """All B with B J(q,m) = J(p,n) B; zero space unless p = q.

    For p = q each basis element is a nilpotent intertwiner tensored with
    an extension-basis matrix, giving dimension deg p * min(m, n).  This
    is the paper's closed form as a public function; the library builds
    its intertwiners in place (_lambda_intertwiners), and the tests use
    this as the reference.
    """
    shape = (n * p.degree, m * q.degree)
    if p != q:
        return SolutionSpace(shape, ())
    ext = ext_basis_matrices(p, conv)
    basis = [
        b.kron(e)
        for b in nilpotent_intertwiners(m, n).basis
        for e in ext
    ]
    return SolutionSpace(shape, tuple(basis))


def _v_diagonal(lam, b: Block, conv: Convention) -> list:
    """The diagonal of V(lam; aleph) on one copy of J(p, n), for a canonical
    lam != 0: (1/lam)^(r+1) s^(a+1) at chain row r and extension coordinate
    a, with s = lam for eps = 1 and s = lam/|lam| for eps = 0.  Each power
    is one multiplication from the one before it."""
    d = b.p.degree
    if lam == 1:
        return [1] * b.size
    if lam == -1:  # s = -1 in both conventions
        return [(1, -1)[(r + a) % 2] for r in range(b.n) for a in range(d)]
    # a power of a canonical scalar is canonical; only the products of
    # the two powers can be integral Fractions
    s = lam if conv.epsilon == 1 else (1 if lam > 0 else -1)
    ext = [s]  # s^(a+1)
    for _ in range(1, d):
        ext.append(ext[-1] * s)
    inv = _div(1, lam)
    out: list = []
    step = 1  # (1/lam)^(r+1)
    for _ in range(b.n):
        step *= inv
        out += [_frac(step * x) for x in ext]
    return out


def _lambda_intertwiners(
    blocks: list[Block], conv: Convention, lam, dim: int
) -> list[Matrix]:
    """Unchecked basis V(lam) R of the dim x dim X with X J = lam J X on blocks.

    For each block i = J(p_i, n_i), each block j with p_j = lam*p_i (of
    degree d), each shift t with max(0, n_j - n_i) <= t < n_j and each
    extension-basis matrix E of lam*p_i, in that order, the element X is

        X[(i, r, a), (j, r + t, b)] = (1/lam)^(r+1) s^(a+1) E[a, b]

    for chain rows 0 <= r < n_j - t and extension coordinates a, b < d,
    where (i, r, a) is coordinate offset_i + r d + a, s = lam (eps = 1) or
    lam/|lam| (eps = 0), and X is zero elsewhere: V(lam)'s diagonal times
    shift t of the nilpotent intertwiner N_{n_j} -> N_{n_i} tensored with
    E, the jordan_intertwiners element, written in place.  lam = 1 gives
    the commutant.  The blocks may cover only part of the dim coordinates.
    """
    lam = _frac(lam)
    # a layout lists the blocks of one factor together, so lam*p, its
    # partner blocks and its extension nonzeros are found once per factor;
    # lam = 1 pairs each factor with itself and V(1) = I
    groups = [(p, list(group)) for p, group in groupby(blocks, key=lambda b: b.p)]
    out = []
    for p, group in groups:
        forms = _factor_forms(p, conv, lam)
        pi = forms.p
        partners = group if lam == 1 else next((g for q, g in groups if q == pi), None)
        if partners is None:
            continue
        ext = forms.ext
        d = pi.degree
        for bi in group:
            diag = _v_diagonal(lam, bi, conv)
            for bj in partners:
                for t in range(max(0, bj.n - bi.n), bj.n):
                    for e in ext:
                        rows: list = [()] * dim
                        for r in range(bj.n - t):
                            row0, col0 = bi.offset + r * d, bj.offset + (r + t) * d
                            for a, pairs in enumerate(e):
                                v = diag[r * d + a]
                                rows[row0 + a] = tuple([
                                    (col0 + b, x if v == 1 else _frac(v * x)) for b, x in pairs
                                ])
                        out.append(_sparse(dim, dim, tuple(rows)))
    return out


def v_aleph(lam, a: MultiplicityFunction, conv: Convention = EPS1) -> Matrix:
    """V(lam; aleph) = direct sum of V_n(1/lam) tensor V_deg(lam|lam|^(eps-1))."""
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("V(lam; aleph) is only defined for nonzero lam")
    return Matrix.diagonal([x for b in block_layout(a) for x in _v_diagonal(lam, b, conv)])


def u_aleph(a: MultiplicityFunction) -> Matrix:
    """U(aleph) = direct sum of U_n blocks; defined for supp aleph = {X}."""
    if not a.supported_on_x:
        raise ValueError("U(aleph) requires support {X}")
    return Matrix.block_diag([u_matrix(b.n) for b in block_layout(a)])


def _w_matrix(blocks: Sequence[Block], conv: Convention, dim: int) -> Matrix:
    """W(aleph) over the given layout, written row by row from each
    factor's W_p, found once per factor: row (i, r, a) holds W_p[a, a']
    at column (i, n_i - 1 - r, a')."""
    rows: list = [()] * dim
    for p, group in groupby(blocks, key=lambda b: b.p):
        d = p.degree
        wp = _factor_forms(p, conv, 1).w
        for b in group:
            for r in range(b.n):
                row0, col0 = b.offset + r * d, b.offset + (b.n - 1 - r) * d
                for a, pairs in enumerate(wp):
                    rows[row0 + a] = tuple([(col0 + c, x) for c, x in pairs])
    return _sparse(dim, dim, tuple(rows))


def w_aleph(a: MultiplicityFunction, conv: Convention = EPS1) -> Matrix:
    """W(aleph) = direct sum of P_n tensor W_p^eps; symmetric and invertible."""
    return _w_matrix(block_layout(a), conv, a.dim)


def _checked_intertwiners(
    t: Matrix,
    lam,
    j: JordanForm,
    s: Optional[Matrix] = None,
    s_inv: Optional[Matrix] = None,
) -> tuple[Matrix, ...]:
    """The basis of all X with X t = lam t X, for t = S^-1 J S, or for
    t = J itself when S is None: each lambda-intertwiner of J, conjugated
    by S when S is given, checked once in t's coordinates."""
    tr = t.nonzero_rows
    basis = []
    for x in _lambda_intertwiners(j.blocks, j.convention, lam, j.dim):
        if s is not None:
            x = s_inv * x * s
        xr = x.nonzero_rows
        verify(_products_equal(xr, tr, tr, xr, t.cols, lam), "lambda-commutation check failed",
               check="lambda-commutation")
        basis.append(x)
    return tuple(basis)


def solve_lambda_comm(
    t: Matrix,
    lam,
    hints: list[IrreduciblePoly] | None = None,
    conv: Convention = EPS1,
) -> SolutionSpace:
    """All X with X T = lam T X, for a square matrix T and nonzero lam.

    In Jordan coordinates the space is V(lam; aleph) times the intertwiner
    space pairing each block (p, n) with blocks (lam*p, m); each element
    is checked once, in T's coordinates.
    """
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    s, s_inv, j = _similarity(t, hints, conv)
    return SolutionSpace((t.rows, t.cols), _checked_intertwiners(t, lam, j, s, s_inv))


def solve_inhom_comm(
    t: Matrix, hints: list[IrreduciblePoly] | None = None
) -> Optional[SolutionSpace]:
    """All Y with Y T - T Y = T, or None when T is not nilpotent.

    Solvable exactly when supp aleph_T = {X}; then one solution is the
    conjugated U(aleph) and the rest differ by commutant elements, the
    lambda = 1 intertwiners.
    """
    if t.is_zero:
        raise ValueError("T must be nonzero")
    s, s_inv, j = _similarity(t, hints)
    if not j.aleph.supported_on_x:
        return None
    offset = s_inv * u_aleph(j.aleph) * s
    verify(offset * t - t * offset == t, "inhomogeneous check failed",
           check="inhomogeneous-commutation")
    basis = _checked_intertwiners(t, 1, j, s, s_inv)
    return SolutionSpace((t.rows, t.cols), basis, offset)


def _transpose_pair_basis(j: JordanForm) -> list[Matrix]:
    """Unchecked basis Z = W(aleph) X of the Z with Z J + J^T Z = 0, for X
    over the lambda = -1 intertwiners of J = J(aleph).

    Z is written row by row from X's nonzero rows: row (i, r, a) of Z is
    the sum over a' of W_p[a, a'] times row (i, n_i - 1 - r, a') of X, so
    it costs at most deg p multiplications per nonzero of X."""
    dim = j.dim
    w = _w_matrix(j.blocks, j.convention, dim).nonzero_rows
    acc = [None] * dim
    out = []
    for x in _lambda_intertwiners(j.blocks, j.convention, -1, dim):
        xrows = x.nonzero_rows
        out.append(_sparse(dim, dim, tuple([_row_product(row, xrows, acc) for row in w])))
    return out


def solve_transpose_pair(
    a: MultiplicityFunction, conv: Convention = EPS1
) -> SolutionSpace:
    """All Z with Z J(aleph) + J(aleph)^T Z = 0, in the Jordan basis.

    Every solution is W(aleph) times a (-1)-intertwiner X J = -J X.  W is
    invertible with J^T W = W J, so Z J + J^T Z = W (X J + J X): the one
    check per element, on Z, holds exactly when X's would.
    """
    if a.is_zero:
        raise ZeroMultiplicityFunction("transpose pair needs a nonzero function")
    j = canonical_form(a, conv)
    jr = j.matrix.nonzero_rows
    jt = j.matrix.transpose().nonzero_rows
    basis = _transpose_pair_basis(j)
    for z in basis:
        zr = z.nonzero_rows
        verify(_products_equal(zr, jr, jt, zr, j.dim, -1), "transpose-pair check failed",
               check="transpose-pair")
    return SolutionSpace((j.dim, j.dim), tuple(basis))
