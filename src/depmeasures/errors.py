"""Semantic exception hierarchy.

Public functions never raise bare ValueError/TypeError for contract
violations; they raise one of the classes below so callers (and the CLI)
can map failures to exit codes without string matching.
"""

from __future__ import annotations


class DependenceError(Exception):
    """Base class for all errors raised by this package."""


class NonRectangular(DependenceError):
    """Input is not a matrix document of equal-length rows."""


class NegativeEntry(DependenceError):
    """A matrix entry is negative (below -1e-12), not finite, or not a number."""


class NotNormalized(DependenceError):
    """Entries do not sum to 1 within tolerance and normalization is off."""


class ZeroTotal(DependenceError):
    """Normalization requested but the entries sum to 0."""


class IndexOutOfRange(DependenceError):
    """An atom index is outside the matrix shape."""


class SizeOverflow(DependenceError):
    """A product construction would exceed the entry cap (``STATE_CAP``)."""


class OutOfRange(DependenceError):
    """A scalar parameter is outside its documented domain."""


class TooLargeForExact(DependenceError):
    """Exact event enumeration was requested beyond the row/column caps."""


class ShapeError(DependenceError):
    """The matrix shape does not meet a checker's structural precondition."""


class ConvergenceFailure(DependenceError):
    """A numerical routine failed to meet its residual tolerance."""


class PreconditionFailed(DependenceError):
    """A documented operation precondition does not hold for the inputs."""


class ZeroVariance(DependenceError):
    """A score function is constant under its marginal; cannot normalize."""


class StateSpaceTooLarge(DependenceError):
    """Exact convolution/enumeration would exceed the state cap."""


class TooFewSamples(DependenceError):
    """Monte Carlo was requested with fewer samples than the minimum."""


class InvariantViolation(DependenceError):
    """An internal mathematical invariant failed; indicates a bug."""
