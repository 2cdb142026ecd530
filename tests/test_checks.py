"""Postconditions are explicit checks that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import jordanable
from jordanable.errors import VerificationFailed, verify
from .conftest import irr, mat

PACKAGE = Path(jordanable.__file__).parent


def test_no_assert_statements_in_package():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert offenders == []


def test_no_unused_imports_in_package():
    """Every name a module imports is used in it; __init__ only re-exports."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders.extend(
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        )
    assert offenders == []


def test_every_domain_error_is_raised():
    """Each DomainError subclass in errors.py is raised elsewhere in the package."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    domain = {"DomainError"}
    for node in tree.body:  # file order, so subclasses of subclasses count too
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in domain for b in node.bases
        ):
            domain.add(node.name)
    domain.discard("DomainError")
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert domain
    assert sorted(domain - raised) == []


def test_cli_uses_only_public_names():
    """cli.py imports no _-prefixed name from a jordanable module."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    offenders = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.split(".")[0] == "jordanable")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def test_verify_passes_and_raises():
    verify(True, "unused")
    with pytest.raises(VerificationFailed) as info:
        verify(False, "identity failed", check="demo", index=2)
    exc = info.value
    assert exc.code == "verification-failed"
    assert str(exc) == "identity failed"
    assert exc.context() == {"check": "demo", "index": 2}


# -- each structure check catches one perturbed entry of one element --------


def perturbed(m, i, j):
    """m with entry (i, j) moved by one."""
    entries = list(m.entries)
    entries[i * m.cols + j] += 1
    return jordanable.Matrix(m.rows, m.cols, entries)


def first_perturbed(builder, i, j):
    """builder with the first element of each list it returns perturbed."""
    def build(*args):
        out = list(builder(*args))
        if out:
            out[0] = perturbed(out[0], i, j)
        return out
    return build


def check_of(call):
    with pytest.raises(VerificationFailed) as info:
        call()
    return info.value.context()


BIANCHI = [("X - 1", 1, 1), ("X + 1", 1, 1)]  # J = diag(1, -1)
UNIPOTENT = mat([[2, 1], [-1, 0]])  # similar to J(X - 1, 2), not diagonal


def algebra(entries):
    return jordanable.AlmostAbelianAlgebra(
        jordanable.aleph(*((irr(p), n, m) for p, n, m in entries)))


class TestPerturbedElementFails:
    def test_derivation(self, monkeypatch):
        # Der of J(X - 1, 2): the units gamma of V, then the Delta elements
        # (index 2 on), whose (1, 1) entry J does not commute with
        import jordanable.liealg as liealg_mod

        l = algebra([("X - 1", 2, 1)])
        assert jordanable.derivation_space(l).dim == 4
        monkeypatch.setattr(liealg_mod, "_lambda_intertwiners",
                            first_perturbed(liealg_mod._lambda_intertwiners, 1, 1))
        assert check_of(lambda: jordanable.derivation_space(l)) == {
            "check": "derivation", "index": 2}

    def test_casimir(self, monkeypatch):
        # Z_0 = E_01 and Z_1 = E_10; a diagonal entry leaves Z - Z^T, and so
        # the coefficients of A = Z_0 + Z_1, as they are, but breaks A J + J^T A
        import jordanable.liealg as liealg_mod

        l = algebra(BIANCHI)
        assert len(jordanable.casimir_basis(l)) == 1
        monkeypatch.setattr(liealg_mod, "_transpose_pair_basis",
                            first_perturbed(liealg_mod._transpose_pair_basis, 0, 0))
        assert check_of(lambda: jordanable.casimir_basis(l)) == {"check": "casimir"}

    def test_transpose_pair(self, monkeypatch):
        import jordanable.equations as equations_mod

        a = algebra(BIANCHI).aleph
        assert jordanable.solve_transpose_pair(a).dim == 2
        monkeypatch.setattr(equations_mod, "_transpose_pair_basis",
                            first_perturbed(equations_mod._transpose_pair_basis, 0, 0))
        assert check_of(lambda: jordanable.solve_transpose_pair(a)) == {
            "check": "transpose-pair"}

    def test_delta_nu(self, monkeypatch):
        import jordanable.equations as equations_mod

        aut = jordanable.automorphism_space(algebra(BIANCHI))
        assert aut.delta_space(-1).dim == 2
        monkeypatch.setattr(equations_mod, "_lambda_intertwiners",
                            first_perturbed(equations_mod._lambda_intertwiners, 0, 0))
        assert check_of(lambda: aut.delta_space(-1)) == {"check": "lambda-commutation"}

    def test_commutant(self, monkeypatch):
        import jordanable.equations as equations_mod

        assert jordanable.solve_lambda_comm(UNIPOTENT, 1).dim == 2
        monkeypatch.setattr(equations_mod, "_lambda_intertwiners",
                            first_perturbed(equations_mod._lambda_intertwiners, 0, 0))
        assert check_of(lambda: jordanable.solve_lambda_comm(UNIPOTENT, 1)) == {
            "check": "lambda-commutation"}

    def test_similarity(self, monkeypatch):
        import jordanable.jordan as jordan_mod

        jordanable.similarity_transform(UNIPOTENT)
        invert = jordan_mod.invert
        monkeypatch.setattr(jordan_mod, "invert", lambda m: perturbed(invert(m), 0, 0))
        assert check_of(lambda: jordanable.similarity_transform(UNIPOTENT)) == {
            "check": "similarity"}

    def test_classification_witness(self, monkeypatch):
        import jordanable.liealg as liealg_mod

        t1, t2 = mat([[1, 0], [0, -1]]), mat([[0, 2], [2, 0]])
        assert jordanable.classify_iso(t1, t2) is not None
        v_aleph = liealg_mod.v_aleph
        monkeypatch.setattr(liealg_mod, "v_aleph",
                            lambda *a: perturbed(v_aleph(*a), 0, 1))
        assert check_of(lambda: jordanable.classify_iso(t1, t2)) == {
            "check": "classify-witness"}
