"""Almost Abelian Lie algebras A(aleph) = F e0 |x V with ad_e0 = J(aleph).

Coordinates are always (e0, V) with V in the canonical Jordan block
order, so a vector has length 1 + dim aleph and a structure map has that
square shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    HeisenbergDeferred,
    ZeroMultiplicityFunction,
    verify,
)
from .field import (
    Matrix,
    _add_rows,
    _div,
    _frac,
    _matrix,
    _products_equal,
    _row_product,
    _sparse,
    coordinates,
    format_terms,
    matrix_rank,
    row_reduce,
)
from .jordan import (
    BlockIndex,
    _similarity,
    block_layout,
    canonical_form,
)
from .multiplicity import (
    DilationGroup,
    MultiplicityFunction,
    dilation_symmetries,
    projectively_equal,
)
from .equations import (
    SolutionSpace,
    _checked_intertwiners,
    _lambda_intertwiners,
    _transpose_pair_basis,
    u_aleph,
    v_aleph,
)
from .spectrum import Convention, EPS1, IrreduciblePoly, star_irreducible, x_irreducible


@dataclass(frozen=True)
class LabeledVector:
    """A coordinate vector together with its basis label (None = e0)."""

    label: Optional[BlockIndex]
    vector: tuple

    def __str__(self) -> str:
        name = "e0" if self.label is None else str(self.label)
        return f"{name}: {self.vector}"


def _in_w(p: IrreduciblePoly, n: int) -> bool:
    """W, the Abelian factor that L splits off, is the (X,1) blocks."""
    return p == x_irreducible() and n == 1


class AlmostAbelianAlgebra:
    """A(aleph): one outer generator e0 acting on the Abelian ideal V."""

    def __init__(self, aleph: MultiplicityFunction, conv: Convention = EPS1):
        self.aleph = aleph
        self.form = canonical_form(aleph, conv)
        # ad_e0 = 0 + J in L's coordinates, as nonzero rows: the structure
        # checks multiply by it
        self._ad_e0 = Matrix.block_diag([Matrix.zeros(1, 1), self.form.matrix]).nonzero_rows

    @property
    def convention(self) -> Convention:
        return self.form.convention

    @property
    def dimension(self) -> int:
        return 1 + self.form.dim

    def unit(self, coord: int) -> tuple:
        v = [Fraction(0)] * self.dimension
        v[coord] = Fraction(1)
        return tuple(v)

    def __repr__(self) -> str:
        return f"AlmostAbelianAlgebra({self.aleph})"


def bracket(l: AlmostAbelianAlgebra, x: Sequence, y: Sequence) -> tuple:
    """[a e0 + u, b e0 + w] = a J w - b J u, living in V."""
    if len(x) != l.dimension or len(y) != l.dimension:
        raise ValueError("vectors must be in e0 + V coordinates")
    a, u = _frac(x[0]), [_frac(c) for c in x[1:]]
    b, w = _frac(y[0]), [_frac(c) for c in y[1:]]
    ju = l.form.matrix.apply(u)
    jw = l.form.matrix.apply(w)
    return (Fraction(0),) + tuple(a * cw - b * cu for cw, cu in zip(jw, ju))


def _labeled(l: AlmostAbelianAlgebra, coords: Sequence[int]) -> list[LabeledVector]:
    """The unit vectors of the given V coordinates (0-based), labeled."""
    return [LabeledVector(l.form.index[c], l.unit(1 + c)) for c in coords]


def centre(l: AlmostAbelianAlgebra) -> list[LabeledVector]:
    """Z(L): ker J, the bottom chain vectors of the X blocks, and e0 as
    well when J = 0 (every block is (X,1)), since then L is Abelian."""
    xp = x_irreducible()
    z = _labeled(l, [b.offset for b in l.form.blocks if b.p == xp])
    if l.form.matrix.is_zero:
        z.insert(0, LabeledVector(None, l.unit(0)))
    return z


def lower_central_series(l: AlmostAbelianAlgebra, k: int) -> list[LabeledVector]:
    """L_(k) = image of ad_e0^k: non-X blocks entirely, X chains cut by k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    xp = x_irreducible()
    coords = []
    for b in l.form.blocks:
        kept = b.size if b.p != xp else max(b.n - k, 0)  # X chains: m <= n - k
        coords.extend(range(b.offset, b.offset + kept))
    return _labeled(l, coords)


def is_nilpotent(l: AlmostAbelianAlgebra) -> bool:
    """Nilpotent exactly when the support is {X}."""
    return l.aleph.supported_on_x


def decompose(l: AlmostAbelianAlgebra) -> tuple[MultiplicityFunction, int]:
    """Split off W = the (X,1) copies; the rest stays in L0."""
    l0 = MultiplicityFunction(
        (p, n, m) for (p, n), m in l.aleph.items() if not _in_w(p, n)
    )
    return l0, l.aleph(x_irreducible(), 1)


class _Split(NamedTuple):
    core: list
    blocks: list
    w: list
    corners: tuple


def _split(l: AlmostAbelianAlgebra) -> _Split:
    """L = L0 + W in L's own coordinates, for the L that Der and Aut support.

    Returns the V coordinates and the Jordan blocks of L0, the V
    coordinates of W, and the unit bases of the three corner maps
    (phi01, phi10, phi11): phi01 sends W into Z(L0), phi10 sends L0 to W
    and kills (L0)_(1) = J V0 (the brackets of L0), phi11 acts on W.
    Without W the corners are empty.  This is the one place that rejects
    an unsupported L: a Heisenberg L0 (the Heisenberg algebra itself, or
    it plus W) and an Abelian L0 (L is all W).
    """
    xp = x_irreducible()
    core, blocks, w, centre0, coker0 = [], [], [], [], [0]
    for b in l.form.blocks:
        first = 1 + b.offset  # e0 is coordinate 0
        if b.p == xp:
            if b.n == 1:
                w.append(first)
                continue
            centre0.append(first)
            coker0.append(first + b.n - 1)
        core.extend(range(first, first + b.size))
        blocks.append(b)
    if not blocks:
        raise ZeroMultiplicityFunction(
            "Abelian algebra: not almost Abelian, no structure to compose"
        )
    if len(blocks) == 1 and centre0 and blocks[0].n == 2:  # L0 = one (X,2) block
        raise HeisenbergDeferred()
    n = l.dimension
    corners = (
        tuple(_unit_matrix(n, z, c) for c in w for z in centre0),
        tuple(_unit_matrix(n, c, k) for c in w for k in coker0),
        tuple(_unit_matrix(n, ci, cj) for ci in w for cj in w),
    )
    return _Split(core, blocks, w, corners)


def classify_iso(
    t1: Matrix,
    t2: Matrix,
    hints: list[IrreduciblePoly] | None = None,
    conv: Convention = EPS1,
) -> Optional[tuple[Fraction, Matrix]]:
    """Isomorphism test for A(aleph_T1) vs A(aleph_T2).

    Returns (lam, M) with lam * aleph_T1 = aleph_T2 and M invertible
    satisfying M T1 M^-1 = T2 / lam, or None when no dilation matches.
    """
    if t1.is_zero or t2.is_zero:
        raise ValueError("classification needs nonzero operators")
    s1, _s1_inv, j1 = _similarity(t1, hints, conv)
    _s2, s2_inv, j2 = _similarity(t2, hints, conv)
    lam = projectively_equal(j1.aleph, j2.aleph)
    if lam is None:
        return None
    perm = _block_permutation(lam, j1.aleph)
    m = s2_inv * perm * v_aleph(_div(1, lam), j1.aleph, conv) * s1
    verify(_products_equal(t2.nonzero_rows, m.nonzero_rows, m.nonzero_rows,
                           t1.nonzero_rows, m.cols, lam),
           "classification witness check failed", check="classify-witness")
    verify(matrix_rank(m) == m.rows, "classification witness is singular",
           check="classify-witness")
    return lam, m


def _block_permutation(lam: Fraction, a1: MultiplicityFunction) -> Matrix:
    """Permutation taking the dilated blocks of a1 (in a1 order) to the
    order of a2 = lam * a1.

    a2's layout lists its blocks by (p.sort_key(), n), copies in order, as
    MultiplicityFunction sorts its entries; the dilated blocks of a1 carry
    exactly a2's keys, so a stable sort by the dilated key lists them in
    a2's order, and copy alpha of a block goes to copy alpha.
    """
    src = sorted(block_layout(a1),
                 key=lambda b: (star_irreducible(lam, b.p).sort_key(), b.n))
    cols = [c for b in src for c in range(b.offset, b.offset + b.size)]
    return Matrix.identity(a1.dim).embed(a1.dim, a1.dim, range(a1.dim), cols)


@dataclass(frozen=True)
class AutomorphismSpace:
    """Aut(L) in L's own coordinates, for an L that _split supports.

    V is then the unique codimension-1 Abelian ideal, so an automorphism
    is (nu 0; gamma Delta) with nu in Dil(aleph), gamma free in V and
    Delta an invertible nu-intertwiner, Delta J = nu J Delta, on all of V;
    for each nu the Delta candidates form the linear space
    delta_space(nu), with invertibility left as a rank predicate.  With
    L = L0 + W (W the (X,1) blocks) the corner maps phi01: W -> Z(L0),
    phi10: L0 -> W and phi11: W -> W are blocks of Delta, except that
    phi10 on e0 is the W part of gamma.  split is that L0 + W split, with
    the corner unit bases, so that no reader of the space splits L again.
    """

    algebra: AlmostAbelianAlgebra
    dil: DilationGroup
    split: _Split

    @property
    def gamma_dim(self) -> int:
        return self.algebra.form.dim

    def delta_space(self, nu) -> SolutionSpace:
        j = self.algebra.form
        return SolutionSpace((j.dim, j.dim),
                             _checked_intertwiners(j.matrix, self._dilation(nu), j))

    def _dilation(self, nu) -> Fraction:
        nu = _frac(nu)
        if nu not in self.dil:
            raise ValueError(f"{nu} is not in Dil(aleph)")
        return nu

    @property
    def families(self) -> list[tuple[Fraction, SolutionSpace]]:
        if self.dil.all_scalars:
            raise ValueError("Dil(aleph) is all of the scalar group; pick a nu")
        return [(nu, self.delta_space(nu)) for nu in self.dil.elements]

    @staticmethod
    def is_invertible(delta: Matrix) -> bool:
        return delta.rows == delta.cols and matrix_rank(delta) == delta.rows

    def assemble(self, nu, delta: Matrix, gamma: Sequence) -> Matrix:
        """The full automorphism matrix (nu 0; gamma Delta), validated."""
        nu = self._dilation(nu)
        if not self.is_invertible(delta):
            raise ValueError("Delta must be invertible")
        j = self.algebra.form.matrix
        if delta.rows != j.rows or not _products_equal(
                delta.nonzero_rows, j.nonzero_rows, j.nonzero_rows, delta.nonzero_rows,
                j.cols, nu):
            raise ValueError("Delta is not a nu-intertwiner")
        if len(gamma) != self.gamma_dim:
            raise ValueError(f"gamma must have {self.gamma_dim} entries")
        n = self.algebra.dimension
        column = Matrix(n - 1, 1, gamma).embed(n, n, range(1, n), [0])
        phi = Matrix.block_diag([Matrix(1, 1, [nu]), delta]) + column
        verify(is_automorphism(self.algebra, phi),
               "assembled map is not an automorphism", check="automorphism")
        return phi


def automorphism_space(l: AlmostAbelianAlgebra) -> AutomorphismSpace:
    """Aut(L) as one structured description in L's coordinates.

    Every L is accepted, decomposable or not, except where _split
    rejects it: a Heisenberg or Abelian core L0.  L is split once, and
    the space keeps that split.
    """
    return AutomorphismSpace(l, dilation_symmetries(l.aleph), _split(l))


def _unit_matrix(n: int, i: int, j: int) -> Matrix:
    return Matrix.identity(1).embed(n, n, [i], [j])


def _column_split(l: AlmostAbelianAlgebra, m: Matrix) -> tuple[list, tuple]:
    """(heads, tails) of a full coordinate matrix (a b; c Delta) of L, read
    from its nonzero rows: column 0, so heads[0] = a and heads[1:] = c,
    and the rows with column 0 cleared, so tails[0] = b."""
    size = l.dimension
    if (m.rows, m.cols) != (size, size):
        raise ValueError(f"expected a {size}x{size} coordinate matrix")
    heads, tails = [], []
    for row in m.nonzero_rows:
        if row and row[0][0] == 0:
            heads.append(row[0][1])
            tails.append(row[1:])
        else:
            heads.append(0)
            tails.append(row)
    return heads, tuple(tails)


def _scaled(row: tuple, s) -> tuple:
    return tuple([(j, s * x) for j, x in row]) if s else ()


def _wedge_free(b: tuple, jh: tuple, d: Optional[tuple], n: int) -> bool:
    """b_l M e_k == b_k M e_l for all k, l, for M = ad_e0 D (D None: the
    identity) and b a row with no e0 entry.

    For b = 0 it holds trivially; otherwise, with b_p the first nonzero
    entry of b, it is the one identity (M e_p) b = b_p M, that is
    ad_e0 ((D e_p) b) = b_p ad_e0 D.
    """
    if not b:
        return True
    p, bp = b[0]
    if d is None:
        rank_one = tuple([b if i == p else () for i in range(n)])
    else:
        rank_one = tuple([_scaled(b, dict(row).get(p)) for row in d])
    return _products_equal(jh, rank_one, jh, d, n, bp)


def is_derivation(l: AlmostAbelianAlgebra, d: Matrix) -> bool:
    """D = (a b; c Delta) is a derivation iff D ad_e0 = ad_e0 (D0 + a I),
    D0 being D with column 0 cleared, and b_l J e_k = b_k J e_l for all
    k, l.

    The first is D[e0, y] = [D e0, y] + [e0, D y] for every y (its e0 row
    reads b J = 0, its V block Delta J - J Delta = a J); the last is
    D[u, w] = 0 = [Du, w] + [u, Dw] on V.
    """
    heads, tails = _column_split(l, d)
    a, b, jh, n = heads[0], tails[0], l._ad_e0, l.dimension
    if a:
        tails = tuple([_add_rows(row, ((i, a),)) for i, row in enumerate(tails)])
    return _products_equal(d.nonzero_rows, jh, jh, tails, n) and _wedge_free(b, jh, None, n)


def is_automorphism(l: AlmostAbelianAlgebra, phi: Matrix) -> bool:
    """phi = (nu b; c Delta) is an automorphism iff it is invertible,
    phi ad_e0 = ad_e0 (nu phi0 - c b), phi0 being phi with column 0
    cleared, and b_l J Delta e_k = b_k J Delta e_l for all k, l.

    The identities are phi[e0, y] = [phi e0, phi y] for every y (its e0
    row reads b J = 0, its V block Delta J = nu J Delta - (J c) b), and
    phi[u, w] = 0 = [phi u, phi w] on V.
    """
    heads, tails = _column_split(l, phi)
    nu, b, jh, n = heads[0], tails[0], l._ad_e0, l.dimension
    rhs = tuple([_add_rows(_scaled(row, nu), _scaled(b, -c)) for c, row in zip(heads, tails)])
    return (
        _products_equal(phi.nonzero_rows, jh, jh, rhs, n)
        and _wedge_free(b, jh, tails, n)
        and matrix_rank(phi) == n
    )


def derivation_space(l: AlmostAbelianAlgebra) -> SolutionSpace:
    """Der(L) as an explicit basis of full coordinate matrices.

    With L = L0 + W (W the (X,1) blocks, possibly none) the basis is, in
    order: (0 0; gamma 0) for the units gamma of V0; (0 0; 0 Delta) for
    Delta a J-intertwiner between two blocks of L0; (alpha 0; 0 alpha U)
    with U = U(aleph) when L is nilpotent; and the corner unit maps
    W -> Z(L0), L0/(L0)_(1) -> W and W -> W.  Each element is checked
    once, by is_derivation.  L is split once; _split rejects a
    Heisenberg or Abelian core L0.  The Delta elements are written in L's
    coordinates directly, from L0's blocks shifted past e0.
    """
    s = _split(l)
    n = l.dimension
    basis = [_unit_matrix(n, i, 0) for i in s.core]
    shifted = [replace(b, offset=1 + b.offset) for b in s.blocks]
    basis.extend(_lambda_intertwiners(shifted, l.convention, 1, n))
    if is_nilpotent(l):
        basis.append(Matrix.block_diag([Matrix.identity(1), u_aleph(l.aleph)]))
    basis.extend(m for corner in s.corners for m in corner)
    for k, d in enumerate(basis):
        verify(is_derivation(l, d), "derivation identity failed",
               check="derivation", index=k)
    return SolutionSpace((n, n), tuple(basis))


class _AutView(NamedTuple):
    l0_space: AutomorphismSpace
    phi01_basis: tuple
    phi10_basis: tuple
    phi11_basis: tuple


def compose_decomposable(l: AlmostAbelianAlgebra, kind: str) -> _AutView:
    """Read-only view of Aut(L) for a decomposable L = L0 + W; kind is "aut".

    l0_space is the one space automorphism_space(L), whose Dil equals
    Dil(aleph(L0)) because every dilation fixes the (X,1) blocks, and the
    phi*_basis tuples are the corner unit maps of the split that space
    keeps, so L is split once; a Heisenberg or Abelian core L0 is
    rejected there.  The view stays only until a benchmark-only change
    moves bench/gen.py to automorphism_space.
    """
    if kind != "aut":
        raise ValueError("kind must be 'aut'; Der(L) is derivation_space(L)")
    space = automorphism_space(l)
    if not space.split.w:
        raise ValueError("algebra is indecomposable; use aut/der directly")
    return _AutView(space, *space.split.corners)


@dataclass(frozen=True)
class CasimirElement:
    """A symmetric matrix A with A J + J^T A = 0, displayed as a form."""

    matrix: Matrix

    @property
    def display(self) -> str:
        a, d = self.matrix, self.matrix.rows
        return format_terms(
            (a[i, i], f"x{i + 1}^2") if i == j else (2 * a[i, j], f"x{i + 1}*x{j + 1}")
            for i in range(d) for j in range(i, d)
        )

    def __str__(self) -> str:
        return f"Q = {self.display}"


def _skew_part(z: Matrix) -> dict:
    """The nonzero entries (k, l), k < l, of Z - Z^T, read from Z's nonzeros."""
    out: dict = {}
    for k, row in enumerate(z.nonzero_rows):
        for l, x in row:
            if k < l:
                out[k, l] = out.get((k, l), 0) + x
            elif l < k:
                out[l, k] = out.get((l, k), 0) - x
    return {kl: x for kl, x in out.items() if x}


def casimir_basis(l: AlmostAbelianAlgebra) -> list[CasimirElement]:
    """Basis of the quadratic Casimirs: symmetric A with A J + J^T A = 0.

    In L's own form, A = sum c_i Z_i over the Z J + J^T Z = 0 basis Z_i,
    with c in the one kernel of c -> sum c_i (Z_i - Z_i^T); A is summed
    row by row, and each A is checked once, A J = -(J^T A) decided on
    nonzero rows.  The system keeps only the rows (k, l), k < l, of the
    skew parts Z_i - Z_i^T that are nonzero for some i: the diagonal rows
    are zero and row (l, k) is minus row (k, l), so the row space, and
    with it the kernel, is that of all n^2 rows.
    """
    zs = _transpose_pair_basis(l.form)
    skews = [_skew_part(z) for z in zs]
    live = sorted({kl for skew in skews for kl in skew})
    kernel = row_reduce(_matrix(len(live), len(zs), [
        skew.get(kl, 0) for kl in live for skew in skews
    ])).kernel
    n = l.form.dim
    j = l.form.matrix.nonzero_rows
    jt = l.form.matrix.transpose().nonzero_rows
    by_row = list(zip(*(z.nonzero_rows for z in zs)))  # row r of every Z_i
    acc = [None] * n
    out = []
    for coeffs in kernel:
        terms = tuple([(i, c) for i, c in enumerate(coeffs) if c])
        a = _sparse(n, n, tuple([_row_product(terms, zr, acc) for zr in by_row]))
        verify(a == a.transpose() and _products_equal(a.nonzero_rows, j, jt, a.nonzero_rows,
                                                      n, -1),
               "Casimir identity A = A^T, A J + J^T A = 0 failed", check="casimir")
        out.append(CasimirElement(a))
    return out


def check_subalgebra(l: AlmostAbelianAlgebra, vectors: Sequence[Sequence]) -> bool:
    """True when span(vectors) is closed under the bracket (field.coordinates)."""
    if any(len(v) != l.dimension for v in vectors):
        raise ValueError("vectors must be in e0 + V coordinates")
    return coordinates(vectors, [
        bracket(l, x, y) for i, x in enumerate(vectors) for y in vectors[i + 1:]
    ]) is not None


def check_ideal(l: AlmostAbelianAlgebra, vectors: Sequence[Sequence]) -> bool:
    """True when [L, span(vectors)] lies inside span(vectors)."""
    return coordinates(vectors, [
        bracket(l, l.unit(i), v) for i in range(l.dimension) for v in vectors
    ]) is not None
