"""weylift: exact obstruction theory for Weyl algebra endomorphisms in char p.

The package decides whether an endomorphism phi of the Weyl algebra A_n(k)
over a field k of characteristic p lifts to the length-2 Witt vectors W_2(k),
computes the obstruction matrix C, the Poisson and etale criteria on the
center, the characteristic-p differential equation solutions gamma_i / f_i,
and, when the obstruction vanishes, an explicit lift.
"""

from .scalars import FieldParams, FieldElem, Witt2, teichmuller
from .weyl import AlgebraParams, WeylElem
from .errors import (
    WeyliftError,
    ParamsMismatch,
    DivisionByZero,
    NotCentral,
    NotDivisibleByP,
    RelationViolation,
    ResourceLimit,
    NotClosed,
    NoSolution,
    ParseError,
    UnknownVariable,
    InternalInconsistency,
)

__version__ = "0.1.0"

__all__ = [
    "FieldParams",
    "FieldElem",
    "Witt2",
    "teichmuller",
    "AlgebraParams",
    "WeylElem",
    "WeyliftError",
    "ParamsMismatch",
    "DivisionByZero",
    "NotCentral",
    "NotDivisibleByP",
    "RelationViolation",
    "ResourceLimit",
    "NotClosed",
    "NoSolution",
    "ParseError",
    "UnknownVariable",
    "InternalInconsistency",
    "__version__",
]
