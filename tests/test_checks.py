"""Postconditions are explicit checks that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import jordanable
from jordanable.errors import VerificationFailed, verify

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
