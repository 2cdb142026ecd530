"""Exception hierarchy shared by all modules.

``DomainError`` subclasses signal mathematically meaningful failures
(exit code 2 in the CLI); plain ``ValueError``/``OSError`` style failures
keep their usual meaning (exit code 1).  ``VerificationFailed`` reports a
postcondition that did not hold, which is a bug in this package and never
a property of the input (exit code 3).
"""


class DomainError(Exception):
    """A well-formed request that has no answer in the supported domain."""

    code = "domain-error"

    def context(self) -> dict:
        return {}


class UnfactoredRemainder(DomainError):
    """Factorization got stuck on a factor of degree >= 4 with no hint."""

    code = "unfactored-remainder"

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"cannot certify factorization of residual {residual}")

    def context(self) -> dict:
        return {"residual": [str(c) for c in self.residual.coeffs]}


class ConventionError(DomainError):
    """The epsilon=0 companion convention was requested where it is undefined."""

    code = "convention-error"


class HeisenbergDeferred(DomainError):
    """Aut/Der are not computed for an algebra whose core L0 is the
    Heisenberg algebra: the Heisenberg algebra itself, or it plus W."""

    code = "heisenberg-deferred"

    def __init__(self):
        super().__init__(
            "automorphisms/derivations of the Heisenberg algebra are out of scope"
        )


class ZeroMultiplicityFunction(DomainError):
    """An operation that assumes a non-Abelian algebra got the zero function."""

    code = "zero-multiplicity-function"


class OracleCapExceeded(DomainError):
    """The brute-force solver refused a system above its unknown-count cap."""

    code = "oracle-cap-exceeded"


class VerificationFailed(Exception):
    """An internal postcondition (a substitution check) did not hold.

    Raised by explicit checks rather than ``assert`` so that it survives
    ``python -O``; ``context`` names the check and any JSON-ready data.
    """

    code = "verification-failed"

    def __init__(self, message: str, **context):
        self._context = context
        super().__init__(message)

    def context(self) -> dict:
        return dict(self._context)


def verify(ok: bool, message: str, **context) -> None:
    """Raise ``VerificationFailed(message, **context)`` unless ``ok``."""
    if not ok:
        raise VerificationFailed(message, **context)
