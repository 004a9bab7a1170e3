"""Exception types shared by every module of the library."""

__all__ = [
    "TropalgError",
    "IllegalElement",
    "AlgebraMismatch",
    "NoInverse",
    "ClosureUndefined",
    "DimensionMismatch",
    "NoSolution",
    "InvalidGraph",
    "NoPath",
    "IndexOutOfRange",
]


class TropalgError(Exception):
    """Base class for all library errors."""


class IllegalElement(TropalgError):
    """A value is not an element of the algebra it is used with."""


class AlgebraMismatch(TropalgError):
    """Operands live in different algebras, or the algebra lacks the operation."""


class NoInverse(TropalgError):
    """The infinite element has no multiplicative inverse."""


class ClosureUndefined(TropalgError):
    """The closure of the given element or matrix does not exist."""


class DimensionMismatch(TropalgError):
    """Matrix shapes are not conformable for the requested operation."""


class NoSolution(TropalgError):
    """The system has no solution."""


class InvalidGraph(TropalgError):
    """An adjacency matrix violates the weighted-graph invariants."""


class NoPath(TropalgError):
    """No finite-weight path exists between the requested vertices."""


class IndexOutOfRange(TropalgError, IndexError):
    """A vertex index lies outside the graph."""
