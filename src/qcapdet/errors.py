"""Exception types shared across the package."""

from __future__ import annotations


class CertificationError(Exception):
    """Base class for numeric failures: an invariant violated at runtime.
    A check that runs on a stack raises for its first failing row, at that
    row's first failing check, and sets ``row`` to the row's index."""

    row: int | None = None


class InvalidStateError(CertificationError):
    """A density matrix, channel or POVM violates its defining invariants."""


class DimensionMismatchError(CertificationError):
    """Operands live on incompatible Hilbert-space dimensions."""


class DegenerateMeasurementError(CertificationError):
    """The measurement statistics carry no usable weight (t . p <= 0)."""


class InternalConsistencyError(CertificationError):
    """Two independent evaluation routes of the same quantity disagree."""


class ConfigError(ValueError):
    """A user-supplied configuration document is malformed or inconsistent."""
