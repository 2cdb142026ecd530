"""Structure data read off the block layout, checked against the bracket.

The algebras mix degrees, repeat blocks and use both conventions.  The
closure checks are compared with a bracket-by-bracket reference, and the
structural matrices W, U and V with the identities they exist for.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jordanable import (
    EPS0,
    EPS1,
    AlmostAbelianAlgebra,
    Matrix,
    MultiplicityFunction,
    bracket,
    centre,
    check_ideal,
    check_subalgebra,
    lower_central_series,
)
from jordanable.equations import u_aleph, v_aleph, w_aleph
from jordanable.field import span_contains
from jordanable.jordan import block_layout, jordan_block
from jordanable.spectrum import star_irreducible, x_irreducible
from .conftest import irr

# epsilon = 0 needs quadratics of the form (X - a)^2 + b^2 with rational b
POOLS = {
    EPS1: [irr(t) for t in ("X", "X - 1", "X + 2", "X^2 + 1", "X^2 - 2", "X^3 - 2")],
    EPS0: [irr(t) for t in ("X", "X - 1", "X + 2", "X^2 + 1", "X^2 - 2X + 2")],
}
LAMBDAS = [Fraction(x) for x in (-2, -1, "1/2", 3, "-2/3")]


@st.composite
def algebras(draw):
    conv = draw(st.sampled_from([EPS1, EPS0]))
    pool = POOLS[conv]
    keys = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 3)),
        min_size=1, max_size=3, unique=True,
    ))
    entries = [(pool[i], n, draw(st.integers(1, 2))) for i, n in keys]
    a = MultiplicityFunction(entries)
    if a.dim > 9:  # keep the reference checks cheap
        a = MultiplicityFunction(entries[:1])
    return AlmostAbelianAlgebra(a, conv)


def reference_closed(l, vectors, pairs):
    """Every bracket of the listed pairs lies in span(vectors), one at a time."""
    span = [tuple(Fraction(c) for c in v) for v in vectors]
    return all(span_contains(span, bracket(l, x, y)) for x, y in pairs)


def random_span(rng, l):
    """Unit vectors on a random coordinate set, one of them sometimes mixed."""
    n = l.dimension
    coords = rng.sample(range(n), rng.randint(1, n))
    vectors = [list(l.unit(c)) for c in coords]
    if rng.random() < 0.5:
        extra = rng.randrange(n)
        if extra not in coords:
            vectors[0][extra] = Fraction(rng.choice((-2, -1, 1, 3)))
    return vectors


@given(algebras(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_layout_readers_and_block_identities(l, seed):
    a, conv, j = l.aleph, l.convention, l.form.matrix

    # the centre and every term of the lower central series are ideals
    longest = max(n for _p, n in a.entries)
    for vecs in [centre(l)] + [lower_central_series(l, k) for k in range(1, longest + 1)]:
        assert check_ideal(l, [lv.vector for lv in vecs])

    # closure checks agree with the bracket-by-bracket reference
    rng = random.Random(seed)
    units = [l.unit(i) for i in range(l.dimension)]
    for _ in range(3):
        w = random_span(rng, l)
        pairs = [(x, y) for i, x in enumerate(w) for y in w[i + 1:]]
        assert check_subalgebra(l, w) == reference_closed(l, w, pairs)
        assert check_ideal(l, w) == reference_closed(l, w, [(e, v) for e in units for v in w])

    # W J = J^T W; U J - J U = J on support {X}; V J' = lam J V
    w_mat = w_aleph(a, conv)
    assert w_mat * j == j.transpose() * w_mat
    if all(p == x_irreducible() for p in a.supp):
        u = u_aleph(a)
        assert u * j - j * u == j
    lam = rng.choice(LAMBDAS)
    dilated = Matrix.block_diag([
        jordan_block(star_irreducible(lam, b.p), b.n, conv) for b in block_layout(a)
    ])
    v = v_aleph(lam, a, conv)
    assert v * dilated == (j * v).scale(lam)
