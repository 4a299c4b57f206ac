"""Exception hierarchy for weylift.

Every error raised by the library derives from WeyliftError so callers can
catch one type at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class WeyliftError(Exception):
    """Base class for all weylift errors."""


class ParamsMismatch(WeyliftError):
    """Operands belong to different field / algebra parameter objects."""


class DivisionByZero(WeyliftError):
    """Multiplicative inverse of zero requested."""


class NotCentral(WeyliftError):
    """Element expected to be central (all exponents divisible by p) is not."""


class NotDivisibleByP(WeyliftError):
    """Witt element expected to lie in p*W_2(k) has a nonzero first component."""


class RelationViolation(WeyliftError):
    """Candidate endomorphism images violate a defining commutator relation.

    Attributes i, j give the offending pair (0-based), residual the nonzero
    difference [u_i, u_j] - omega_{ij}.
    """

    def __init__(self, i: int, j: int, residual) -> None:
        super().__init__(f"[u_{i + 1}, u_{j + 1}] != omega: residual {residual}")
        self.i = i
        self.j = j
        self.residual = residual


class ResourceLimit(WeyliftError):
    """Estimated work exceeds the configured term budget."""


class NotClosed(WeyliftError):
    """2-form expected to be closed has a nonzero exterior derivative.

    The witness attribute holds the nonzero 3-form.
    """

    def __init__(self, witness) -> None:
        super().__init__("form is not closed")
        self.witness = witness


class NoSolution(WeyliftError):
    """The characteristic-p differential equation has no polynomial solution."""


class ParseError(WeyliftError):
    """Syntax error in an expression or spec file.

    line and col are 1-based positions; expected describes what was wanted.
    """

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UnknownVariable(ParseError):
    """Generator index out of range for the algebra being parsed."""


class InternalInconsistency(WeyliftError):
    """Two routes that must agree by theorem disagreed; indicates a bug."""
