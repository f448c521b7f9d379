"""The parameter contract: every public parameter that is an index set, an
integer, a real number or a zero tolerance is checked by one of these
helpers, and a rejected value raises a ValueError that names the
parameter."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def as_index_tuple(indices: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    """Validate a nonempty set of indices into range(n); preserves order,
    rejects duplicates."""
    out = []
    seen = set()
    for i in indices:
        if not isinstance(i, (int, np.integer)):
            raise ValueError(f"{name}: index {i!r} is not an integer")
        i = int(i)
        if not 0 <= i < n:
            raise ValueError(f"{name}: index {i} out of range [0, {n})")
        if i in seen:
            raise ValueError(f"{name}: duplicate index {i}")
        seen.add(i)
        out.append(i)
    if not out:
        raise ValueError(f"{name} must be nonempty")
    return tuple(out)


def check_integer(value, name: str, minimum: int,
                  maximum: int | None = None) -> None:
    """Reject a non-integer (or bool) ``value``, or one outside
    [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")


def is_real(value) -> bool:
    """Whether ``value`` is an int or float, numpy's included, not a bool."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating))


def check_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a float; rejects a bool, a non-number (a string
    included), nan, inf and a negative value, and with ``positive`` zero."""
    if not is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value >= 0) or (positive and not value):
        raise ValueError(f"{name} must be finite and "
                         f"{'positive' if positive else 'nonnegative'}, "
                         f"got {value}")
    return float(value)


def check_tolerance(tol: float | None) -> None:
    """Reject a ``tol`` override that is not a finite positive number;
    None, the scale-aware default, passes."""
    if tol is not None:
        check_real(tol, "tol", positive=True)
