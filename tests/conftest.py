from fractions import Fraction

import pytest

from jordanable import IrreduciblePoly, Matrix, aleph, parse_poly


def irr(text: str) -> IrreduciblePoly:
    p = parse_poly(text)
    if p.degree <= 3:
        return IrreduciblePoly.check(p)
    return IrreduciblePoly.hinted(p)


@pytest.fixture
def X():
    return irr("X")


@pytest.fixture
def bianchi_aleph():
    return aleph((irr("X - 1"), 1, 1), (irr("X + 1"), 1, 1))


@pytest.fixture
def cubic_aleph():
    # (1 x (X^3 - 2)^2, 1 x X^1), dimension 7
    return aleph((irr("X^3 - 2"), 2, 1), (irr("X"), 1, 1))


@pytest.fixture
def mautner_aleph():
    return aleph((irr("X^2 + 1"), 1, 1), (irr("X^2 + 4"), 1, 1))


def mat(rows) -> Matrix:
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def canonical_scalar(x) -> bool:
    """The library's one form of an exact scalar: an int when integral,
    else a Fraction with denominator > 1; never a float."""
    return type(x) is int or (isinstance(x, Fraction) and x.denominator != 1)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance criterion pass/fail lines in the summary."""
    try:
        from .test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
