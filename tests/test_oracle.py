"""Brute-force solver and random instance generation."""

import pytest

from jordanable import Matrix, OracleCapExceeded, nilpotent_shift
from jordanable.field import invert
from jordanable.oracle import (
    EquationSpec,
    Profile,
    brute_solve,
    random_instance,
)
from .conftest import mat


class TestBruteSolve:
    def test_intertwine_shifts(self):
        space = brute_solve(
            EquationSpec.intertwine(nilpotent_shift(2), nilpotent_shift(3))
        )
        assert space.shape == (3, 2)
        assert space.dim == 2

    def test_lambda_comm_trivial(self):
        space = brute_solve(EquationSpec.lambda_comm(Matrix.identity(2), 2))
        assert space.dim == 0

    def test_inhom_comm_unsolvable(self):
        assert brute_solve(EquationSpec.inhom_comm(mat([[1, 0], [0, -1]]))) is None

    def test_inhom_comm_solvable(self):
        space = brute_solve(EquationSpec.inhom_comm(nilpotent_shift(2)))
        assert space is not None
        y = space.offset
        n = nilpotent_shift(2)
        assert y * n - n * y == n

    def test_symmetric_subset(self):
        j = mat([[1, 0], [0, -1]])
        full = brute_solve(EquationSpec.transpose_pair(j))
        sym = brute_solve(EquationSpec.symmetric_transpose_pair(j))
        assert sym.dim <= full.dim
        for b in sym.basis:
            assert b == b.transpose()
            assert full.contains(b)

    def test_non_square_rejected_before_solving(self, monkeypatch):
        """A non-square coefficient matrix is named, with its kind and shape,
        before any system is built (a cap of 0 would refuse every system)."""
        monkeypatch.setenv("JORDANABLE_CAP", "0")
        row = mat([[1, 2]])
        cases = [
            (EquationSpec.transpose_pair(mat([[1], [2]])), "transpose-pair", "2x1"),
            (EquationSpec.symmetric_transpose_pair(row),
             "symmetric-transpose-pair", "1x2"),
            (EquationSpec.intertwine(Matrix.identity(2), row), "intertwine", "1x2"),
            (EquationSpec.lambda_comm(row, 2), "lambda-comm", "1x2"),
            (EquationSpec.inhom_comm(row), "inhom-comm", "1x2"),
        ]
        for spec, kind, shape in cases:
            with pytest.raises(ValueError) as info:
                brute_solve(spec)
            assert str(info.value) == f"{kind} needs square matrices, got {shape}"

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("JORDANABLE_CAP", "3")
        with pytest.raises(OracleCapExceeded):
            brute_solve(EquationSpec.lambda_comm(Matrix.identity(2), 1))

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("JORDANABLE_CAP", "4")
        assert brute_solve(EquationSpec.lambda_comm(Matrix.identity(2), 1)).dim == 4


class TestRandomInstance:
    def test_deterministic(self):
        a1, j1, s1, t1 = random_instance(7)
        a2, j2, s2, t2 = random_instance(7)
        assert a1 == a2 and j1.matrix == j2.matrix and s1 == s2 and t1 == t2

    def test_seeds_vary(self):
        results = {str(random_instance(seed)[0]) for seed in range(8)}
        assert len(results) > 1

    def test_unimodular_conjugator(self):
        for seed in range(6):
            _a, j, s, t = random_instance(seed, Profile(max_dim=6))
            # an integer matrix has det = +-1 exactly when its inverse is integral
            assert all(x.denominator == 1 for x in s.entries)
            assert all(x.denominator == 1 for x in invert(s).entries)
            assert s * t == j.matrix * s

    def test_respects_dimension_bound(self):
        for seed in range(10):
            a, _j, _s, _t = random_instance(seed, Profile(max_dim=5))
            assert 1 <= a.dim <= 5
