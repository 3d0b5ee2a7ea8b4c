"""Input rules, each defined once for the constructors and functions
that take such an input.  Predicates leave the error's wording to the
caller; the other rules raise ``ValueError`` naming the input."""

from __future__ import annotations

import math
import numbers
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray


def _is_real(value: Any) -> bool:
    """A real but not a ``bool``, which would pass as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_count(value: Any, minimum: int = 1) -> bool:
    """A real of at least ``minimum`` without a fractional part: 2.0
    passes, 2.5 fails rather than being truncated, and ``True`` fails."""
    return _is_real(value) and value >= minimum and float(value).is_integer()


def is_positive_finite(value: Any) -> bool:
    """A real in ``(0, inf)``; ``True`` fails."""
    return _is_real(value) and 0 < value < math.inf


def odd_counts(counts: Sequence[int], what: str) -> None:
    """Require an odd count on every axis; ``what`` names who needs it."""
    if any(n % 2 == 0 for n in counts):
        raise ValueError(
            f"{what} requires odd counts on every axis, got {tuple(counts)}"
        )


def square_matrix(value: Any, name: str) -> NDArray[np.float64]:
    """``value`` as a square float matrix with finite entries."""
    a = np.asarray(value, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def nonsingular(matrix: NDArray, name: str) -> float:
    """``|det matrix|``, which must not be zero (or underflow to zero)."""
    volume = float(abs(np.linalg.det(matrix)))
    if volume == 0.0:
        raise ValueError(f"{name} must be nonsingular")
    return volume


def same_dimension(model: Any, grid: Any, what: str) -> None:
    """Require ``grid.dim == model.dim``; ``what`` names the grid's owner."""
    if grid.dim != model.dim:
        raise ValueError(f"model and {what} must share the state dimension")
