"""Structured solution spaces of the three operator equations.

The solvers never run a generic linear solve: each solution space is
assembled from intertwiner bases and the structural matrices V_n, U_n,
P_n, W_p^eps, then every basis element is checked by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ZeroMultiplicityFunction, verify
from .field import _ONE, _ZERO, Matrix, _frac, _matrix, span_contains
from .jordan import Block, JordanForm, _similarity, block_layout, canonical_form
from .multiplicity import MultiplicityFunction
from .spectrum import (
    Convention,
    EPS1,
    IrreduciblePoly,
    companion,
    ext_basis_matrices,
    star_irreducible,
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
    return Matrix.diagonal([Fraction(n - 1 - k) for k in range(n)])


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
    d = p.degree
    if conv.epsilon == 0:
        companion(p, conv)  # raises ConventionError when eps=0 is unavailable
    mu = [Fraction(1)]
    for n in range(1, d):
        mu.append(-sum(p.poly.coeff(d - n + k) * mu[k] for k in range(n)))
    if d > 1:
        mu[1] *= conv.epsilon
    h = [Fraction(0)] * (d - 1) + mu
    return Matrix(d, d, [h[i + j] for i in range(d) for j in range(d)])


def nilpotent_intertwiners(m: int, n: int) -> SolutionSpace:
    """All B with B N_m = N_n B: shifted-diagonal matrices, dim min(m,n).

    The entries of a solution are constant along diagonals j - i = d and
    vanish unless max(0, m-n) <= d <= m-1.
    """
    if m < 1 or n < 1:
        raise ValueError("block sizes must be >= 1")
    basis = []
    for d in range(max(0, m - n), m):
        entries = [
            _ONE if j - i == d else _ZERO for i in range(n) for j in range(m)
        ]
        basis.append(_matrix(n, m, entries))
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
    an extension-basis matrix, giving dimension deg p * min(m, n).
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


def _v_block(lam: Fraction, b: Block, conv: Convention) -> Matrix:
    """The block of V(lam; aleph) on one copy of J(p, n), for lam != 0."""
    scale = lam if conv.epsilon == 1 else lam / abs(lam)
    return v_matrix(b.n, 1 / lam).kron(v_matrix(b.p.degree, scale))


def _lambda_intertwiners(
    blocks: list[Block], conv: Convention, lam, dim: int
) -> list[Matrix]:
    """Unchecked basis V(lam) R of the dim x dim X with X J = lam J X on blocks.

    The (i, j) sub-block of R is a jordan intertwiner into J(lam*p_i, n_i),
    zero unless lam*p_i = p_j, and V(lam) scales row block i by its block
    of V(lam; aleph); lam = 1 gives the commutant.  X vanishes outside the
    blocks, which may cover only part of the dim coordinates.
    """
    lam = _frac(lam)
    out = []
    for bi in blocks:
        pi = star_irreducible(lam, bi.p)
        v = _v_block(lam, bi, conv)
        rows = range(bi.offset, bi.offset + bi.size)
        for bj in blocks:
            if pi != bj.p:
                continue
            local = jordan_intertwiners(pi, bj.n, pi, bi.n, conv)
            cols = range(bj.offset, bj.offset + bj.size)
            out.extend((v * b).embed(dim, dim, rows, cols) for b in local.basis)
    return out


def v_aleph(lam, a: MultiplicityFunction, conv: Convention = EPS1) -> Matrix:
    """V(lam; aleph) = direct sum of V_n(1/lam) tensor V_deg(lam|lam|^(eps-1))."""
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("V(lam; aleph) is only defined for nonzero lam")
    return Matrix.block_diag([_v_block(lam, b, conv) for b in block_layout(a)])


def u_aleph(a: MultiplicityFunction) -> Matrix:
    """U(aleph) = direct sum of U_n blocks; defined for supp aleph = {X}."""
    if not a.supported_on_x:
        raise ValueError("U(aleph) requires support {X}")
    return Matrix.block_diag([u_matrix(b.n) for b in block_layout(a)])


def w_aleph(a: MultiplicityFunction, conv: Convention = EPS1) -> Matrix:
    """W(aleph) = direct sum of P_n tensor W_p^eps; symmetric and invertible."""
    return Matrix.block_diag(
        [p_matrix(b.n).kron(w_matrix(b.p, conv)) for b in block_layout(a)]
    )


def solve_lambda_comm(
    t,
    lam,
    hints: list[IrreduciblePoly] | None = None,
    conv: Convention = EPS1,
) -> SolutionSpace:
    """All X with X T = lam T X, for nonzero lam.

    In Jordan coordinates the space is V(lam; aleph) times the intertwiner
    space pairing each block (p, n) with blocks (lam*p, m); each element
    is checked once, in T's coordinates.
    """
    lam = _frac(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if isinstance(t, JordanForm):
        j, tm, s = t, t.matrix, None
    else:
        s, s_inv, j = _similarity(t, hints, conv)
        tm = t
    basis = []
    for x in _lambda_intertwiners(j.blocks, j.convention, lam, j.dim):
        if s is not None:
            x = s_inv * x * s
        verify(x * tm == (tm * x).scale(lam), "lambda-commutation check failed",
               check="lambda-commutation")
        basis.append(x)
    return SolutionSpace((tm.rows, tm.cols), tuple(basis))


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
    basis = []
    for c in _lambda_intertwiners(j.blocks, j.convention, 1, j.dim):
        y = s_inv * c * s
        verify(y * t == t * y, "commutant check failed", check="commutation")
        basis.append(y)
    return SolutionSpace((t.rows, t.cols), tuple(basis), offset)


def _transpose_pair_basis(j: JordanForm) -> list[Matrix]:
    """Unchecked basis W(aleph) X of the Z with Z J + J^T Z = 0, for X over
    the lambda = -1 intertwiners of J = J(aleph)."""
    w = w_aleph(j.aleph, j.convention)
    return [w * x for x in _lambda_intertwiners(j.blocks, j.convention, -1, j.dim)]


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
    jt = j.matrix.transpose()
    basis = _transpose_pair_basis(j)
    for z in basis:
        verify((z * j.matrix + jt * z).is_zero, "transpose-pair check failed",
               check="transpose-pair")
    return SolutionSpace((j.dim, j.dim), tuple(basis))
