"""Irreducibles, factorization, companions, the dilation action."""

import ast
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jordanable import (
    Certification,
    Convention,
    EPS0,
    EPS1,
    ConventionError,
    IrreduciblePoly,
    Matrix,
    Polynomial,
    UnfactoredRemainder,
    companion,
    factor_with_hints,
    minimal_polynomial,
    parse_poly,
    rational_roots,
    star_poly,
    w_matrix,
)
from jordanable import spectrum
from jordanable.spectrum import ext_basis_matrices, rotation_parameters, star_irreducible
from .conftest import irr, mat

nonzero_rationals = st.fractions(max_denominator=4).filter(lambda x: x != 0)


def enumerated_roots(p: Polynomial) -> list[Fraction]:
    """Reference: the rational-root theorem, by trial division of the
    constant and leading coefficients (exponential in their bit-size)."""

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return small + [abs(n) // d for d in small]

    roots = {Fraction(0)} if p.coeff(0) == 0 else set()
    while p.coeff(0) == 0:
        p = Polynomial(p.coeffs[1:])
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * lcm) for c in p.coeffs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            roots |= {r for r in (Fraction(num, den), Fraction(-num, den)) if p(r) == 0}
    return sorted(roots)


linear_factors = st.builds(
    lambda a, b: Polynomial((b, a)),
    st.integers(-6, 6).filter(bool),
    st.integers(-12, 12),
)
rootless_factors = st.lists(st.integers(-9, 9), min_size=2, max_size=3).map(
    lambda cs: Polynomial(cs + [1])
).filter(lambda q: not enumerated_roots(q))


class TestRationalRoots:
    def test_simple(self):
        assert rational_roots(parse_poly("X^2 - 1")) == [-1, 1]
        assert rational_roots(parse_poly("2*X - 1")) == [Fraction(1, 2)]
        assert rational_roots(parse_poly("X^2 + 1")) == []

    def test_zero_root(self):
        assert rational_roots(parse_poly("X^3 - X^2")) == [0, 1]

    def test_needs_a_prime_past_seven(self):
        # 0, 105 and -210 collide mod 2, 3, 5 and 7
        p = parse_poly("X") * parse_poly("X - 105") * parse_poly("X + 210")
        assert rational_roots(p) == [-210, 0, 105]

    def test_constant_and_zero(self):
        assert rational_roots(Polynomial([Fraction(-3, 4)])) == []
        with pytest.raises(ValueError):
            rational_roots(Polynomial.zero())

    def test_wide_coefficients(self):
        m = 2**61 - 1
        p = Polynomial((-m, 1)) * Polynomial((3, 7))
        t0 = time.perf_counter()
        assert rational_roots(p) == [Fraction(-3, 7), m]
        assert time.perf_counter() - t0 < 1.0

    @given(
        st.lists(linear_factors, max_size=3),
        st.lists(rootless_factors, max_size=2),
        st.integers(1, 3),
        st.fractions(-9, 9, max_denominator=4).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, linears, rootless, repeat, scale):
        p = Polynomial.constant(scale)
        for f in linears[:1] * repeat + linears + rootless:
            p = p * f
        assert rational_roots(p) == enumerated_roots(p)


class TestIrreduciblePoly:
    def test_check_degree_bounds(self):
        assert irr("X^3 - 2").certification is Certification.PROVEN
        with pytest.raises(ValueError):
            IrreduciblePoly.check(parse_poly("X^4 + 1"))
        assert (
            IrreduciblePoly.hinted(parse_poly("X^4 + 1")).certification
            is Certification.HINTED
        )

    def test_check_wide_cubic(self):
        p = Polynomial((-(2**89 - 1), 0, 0, 1))
        t0 = time.perf_counter()
        assert IrreduciblePoly.check(p).certification is Certification.PROVEN
        assert time.perf_counter() - t0 < 1.0

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            IrreduciblePoly.check(parse_poly("X^2 - 1"))
        with pytest.raises(ValueError):
            IrreduciblePoly.hinted(parse_poly("X^4 - 1"))

    def test_sort_order_degree_descending(self):
        ps = sorted([irr("X"), irr("X^3 - 2"), irr("X - 1"), irr("X^2 + 1")])
        assert [p.degree for p in ps] == [3, 2, 1, 1]
        assert ps[2] == irr("X - 1")  # coeffs ascending within a degree


class TestCompanion:
    def test_standard_cubic(self):
        # x_{X^3-2} in the eps=1 convention
        assert companion(irr("X^3 - 2")) == mat(
            [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
        )

    def test_degree_one(self):
        assert companion(irr("X - 1")) == mat([[1]])
        assert companion(irr("X + 1")) == mat([[-1]])

    def test_rotation_scaling(self):
        p = irr("X^2 - 2*X + 2")  # (X-1)^2 + 1
        assert rotation_parameters(p.poly) == (1, 1)
        assert companion(p, EPS0) == mat([[1, -1], [1, 1]])

    def test_rotation_unavailable(self):
        with pytest.raises(ConventionError):
            companion(irr("X^2 - 2"), EPS0)
        with pytest.raises(ConventionError):
            companion(irr("X^3 - 2"), EPS0)

    def test_companion_satisfies_poly(self):
        for text, conv in [("X^3 - 2", EPS1), ("X^2 + 1", EPS0), ("X^2 + 1", EPS1)]:
            p = irr(text)
            assert p.poly(companion(p, conv)).is_zero

    def test_ext_basis_matrices(self):
        p = irr("X^2 + 4")
        b = ext_basis_matrices(p, EPS0)
        assert b[0] == Matrix.identity(2)
        assert b[1] * b[1] == Matrix.identity(2).scale(-1)


class TestStarAction:
    def test_example(self):
        # 2 * (X - 1) = X - 2
        assert star_poly(2, parse_poly("X - 1")) == parse_poly("X - 2")
        assert star_poly(3, parse_poly("X^3 - 2")) == parse_poly("X^3 - 54")

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=30)
    def test_group_action(self, a, b):
        p = parse_poly("X^3 + 2*X - 5")
        assert star_poly(a, star_poly(b, p)) == star_poly(a * b, p)
        assert star_poly(1, p) == p

    def test_preserves_monic(self):
        q = star_poly(Fraction(-2, 3), parse_poly("X^2 + X + 1"))
        assert q.is_monic


class TestMinimalPolynomial:
    def test_nilpotent(self):
        n = mat([[0, 1], [0, 0]])
        assert minimal_polynomial(n) == parse_poly("X^2")

    def test_diagonal_with_repeats(self):
        d = mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert minimal_polynomial(d) == parse_poly("X^2 - 1")

    def test_identity(self):
        assert minimal_polynomial(Matrix.identity(3)) == parse_poly("X - 1")

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugated_jordan_form(self, seed):
        # product of p^(longest block of p), read off the generating aleph
        from jordanable.oracle import Profile, random_instance

        a, _j, _s, t = random_instance(seed, Profile(max_dim=7))
        want = Polynomial.one()
        for p in a.supp:
            want = want * p.poly ** max(n for (q, n), _m in a.items() if q == p)
        assert minimal_polynomial(t) == want


class TestFactorWithHints:
    def test_autonomous(self):
        f = factor_with_hints(parse_poly("X^4 - X^2"))
        assert {(p.poly, e) for p, e in f.items()} == {
            (parse_poly("X"), 2),
            (parse_poly("X - 1"), 1),
            (parse_poly("X + 1"), 1),
        }

    def test_cubic_power(self):
        p = parse_poly("X^3 - 2")
        f = factor_with_hints(p * p)
        assert f == {irr("X^3 - 2"): 2}

    def test_needs_hint(self):
        p = parse_poly("X^4 + 1")
        with pytest.raises(UnfactoredRemainder) as exc:
            factor_with_hints(p)
        assert exc.value.residual == p
        f = factor_with_hints(p, [IrreduciblePoly.hinted(p)])
        assert list(f.values()) == [1]

    def test_product_of_nonlinear_irreducibles(self):
        prod = parse_poly("X^2 + 1") * parse_poly("X^3 - 2")
        assert factor_with_hints(prod) == {irr("X^2 + 1"): 1, irr("X^3 - 2"): 1}

    def test_rational_coefficient_factors(self):
        prod = parse_poly("X^2 + 1/4") * parse_poly("X^2 + X + 1")
        assert factor_with_hints(prod) == {
            irr("X^2 + 1/4"): 1,
            irr("X^2 + X + 1"): 1,
        }

    def test_mixed_degrees(self):
        prod = parse_poly("X^3 - 2") * parse_poly("X - 1") ** 2
        f = factor_with_hints(prod)
        assert f[irr("X^3 - 2")] == 1
        assert f[irr("X - 1")] == 2


# known irreducibles: rational linears (some with non-integer roots),
# rootless quadratics and cubics (one with a rational coefficient), and
# X^4 + 1, which only a hint can certify
QUARTIC = parse_poly("X^4 + 1")
FACTOR_POOL = [
    parse_poly(text)
    for text in ("X", "X + 3", "X - 1/2", "X + 2/3", "X^2 + 1", "X^2 - 2",
                 "X^2 + X + 1", "X^3 - 2", "X^3 + X + 1", "X^3 - 1/2")
] + [QUARTIC]


class TestFactorProducts:
    @given(
        st.lists(st.tuples(st.sampled_from(FACTOR_POOL), st.integers(1, 3)),
                 min_size=1, max_size=4, unique_by=lambda fe: fe[0])
    )
    @settings(max_examples=100, deadline=None)
    def test_products_of_known_irreducibles(self, picks):
        prod = Polynomial.one()
        expected = {}
        for f, e in picks:
            prod = prod * f**e
            cert = Certification.HINTED if f == QUARTIC else Certification.PROVEN
            expected[IrreduciblePoly(f, cert)] = e
        if any(p.poly == QUARTIC for p in expected):
            with pytest.raises(UnfactoredRemainder) as exc:
                factor_with_hints(prod)
            assert exc.value.residual == QUARTIC
        assert factor_with_hints(prod, [IrreduciblePoly.hinted(QUARTIC)]) == expected

    def test_each_part_searched_for_roots_once(self, monkeypatch):
        """Factoring runs no second root search: neither the squarefree
        step of `rational_roots` nor a re-check of the leftover pieces."""
        pieces = ["X - 1/2", "X^2 + 1", "X^2 + 2", "X^3 - 2"]
        expected = {IrreduciblePoly(parse_poly(t), Certification.PROVEN): e
                    for t, e in zip(pieces, (1, 1, 1, 2))}
        prod = Polynomial.one()
        for f, e in expected.items():
            prod = prod * f.poly**e

        def forbidden(*_args):
            raise AssertionError("second root search")

        monkeypatch.setattr(spectrum, "rational_roots", forbidden)
        monkeypatch.setattr(IrreduciblePoly, "check", staticmethod(forbidden))
        assert factor_with_hints(prod) == expected

    def test_two_cubics_under_half_a_second(self):
        prod = parse_poly("X^3 - 5") * parse_poly("X^3 - 7")
        t0 = time.perf_counter()
        assert factor_with_hints(prod) == {irr("X^3 - 7"): 1, irr("X^3 - 5"): 1}
        assert time.perf_counter() - t0 < 0.5


class TestParsePoly:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("X^3 - 2", [-2, 0, 0, 1]),
            ("X^2 + X + 1", [1, 1, 1]),
            ("-X + 1/2", [Fraction(1, 2), -1]),
            ("7", [7]),
            ("X", [0, 1]),
            ("2*X**2 - 3*X", [0, -3, 2]),
        ],
    )
    def test_examples(self, text, coeffs):
        assert parse_poly(text) == Polynomial([Fraction(c) for c in coeffs])

    def test_rejects_garbage(self):
        for bad in ["", "Y + 1", "X^", "1 +"]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_roundtrip_through_str(self):
        for text in ["X^3 - 2", "X^2 + X + 1", "X - 1"]:
            p = parse_poly(text)
            assert parse_poly(str(p)) == p


# -- each factor's closed forms, built once per (p, conv, lam) ---------------


def bench_factors() -> list[IrreduciblePoly]:
    """Every factor of the benchmark's POOL and ROTATION_POOL (bench/gen.py,
    coefficients from the constant term up), read without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "gen.py").read_text())
    pools = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("POOL", "ROTATION_POOL")}
    coeffs = [c for pool in pools["POOL"].values() for c in pool] + pools["ROTATION_POOL"]
    return [IrreduciblePoly.check(Polynomial(c)) for c in dict.fromkeys(coeffs)]


class TestFactorForms:
    @pytest.mark.parametrize("conv", [EPS0, EPS1], ids=["eps0", "eps1"])
    def test_cached_forms_are_the_fresh_ones(self, conv):
        factors = bench_factors()
        assert len(factors) == 22
        spectrum._factor_forms.cache_clear()
        available = 0
        for p in factors:
            for lam in (1, -1, 2, Fraction(1, 2)):
                q = star_irreducible(lam, p)
                try:
                    fresh = (q, companion(q, conv).nonzero_rows,
                             tuple(e.nonzero_rows for e in ext_basis_matrices(q, conv)),
                             w_matrix(q, conv).nonzero_rows)
                except ConventionError:
                    with pytest.raises(ConventionError):
                        spectrum._factor_forms(p, conv, lam)
                    continue
                available += 1
                for _ in range(2):  # built, then read back
                    assert tuple(spectrum._factor_forms(p, conv, lam)) == fresh
        # all 22 factors at eps = 1; at eps = 0 the 6 linear and 6 rotation ones
        assert available == 4 * (22 if conv.epsilon else 12)
        assert spectrum._factor_forms.cache_info().hits >= available

    def test_unavailable_form_raises_on_every_call(self):
        p = irr("X^2 - 2")  # no rational rotation-scaling form
        for lam in (1, 1, -1, -1):
            with pytest.raises(ConventionError, match="does not split"):
                spectrum._factor_forms(p, EPS0, lam)

    def test_cache_size_is_a_constant(self):
        size = spectrum._FORMS_CACHE_SIZE
        assert isinstance(size, int) and spectrum._factor_forms.cache_info().maxsize == size
        for c in range(size + 10):
            spectrum._factor_forms(IrreduciblePoly.check(Polynomial((c, 1))), EPS1, 1)
        assert spectrum._factor_forms.cache_info().currsize == size
