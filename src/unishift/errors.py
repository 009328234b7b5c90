"""Exception types shared across the package, and its one whole-number, int64-mode and real-number checks."""

import math
from numbers import Real

import numpy as np


def _is_whole(value, minimum: int | None = None) -> bool:
    """Whether ``value`` is an int or numpy integer, never a bool, and at least ``minimum``."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return whole and (minimum is None or value >= minimum)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, never a bool, that is finite as a float (NaN is not)."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_mode(value) -> bool:
    """Whether ``value`` is a whole number (``_is_whole``) within int64, the type of every array of modes."""
    return _is_whole(value, -(2**63)) and value < 2**63


class UnishiftError(ValueError):
    """Base class for all input-contract violations."""


class NotHermitian(UnishiftError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotUnitary(UnishiftError):
    """A matrix required to be unitary is not, within tolerance."""


class NoConvergence(UnishiftError):
    """A computation could not decide: the dense eigensolver exceeded its budget, or samples left a bound open."""


class EmptyMatrix(UnishiftError):
    """A 0x0 matrix was given where a spectrum is needed."""


class DimensionMismatch(UnishiftError):
    """Operands of an operation do not share a common dimension."""


class BadWindow(UnishiftError):
    """The spectral window (-a, a] is empty, has no whole number of cells, or does not capture a seed vector."""


class PartitionTooFine(UnishiftError):
    """The ambient space is under 4x the finest partition, so cells hold too few eigenvalues."""


class ZeroDirection(UnishiftError):
    """The direction operator is zero, so it gives no seed vectors."""


class MissingConstruction(UnishiftError):
    """A projection is not a window basis, or a window basis lacks its record, H0, eigenpairs of H0 or cell layout."""


class SampleOutOfRange(UnishiftError):
    """A propagator sample time lies outside [-T, T]."""


class PathMismatch(UnishiftError):
    """Operands do not fit together within tolerance: U is not e^{iA} U0, U0 is not diagonal in the
    eigenbasis of H0, or H0 is not the operator that built the projection."""


class OnUnitCircle(UnishiftError):
    """A resolvent point z was taken too close to the unit circle."""
