"""The parameter contract: every public parameter that is an index set, an
integer, a real number or a zero tolerance is checked by one of these
helpers, and a rejected value raises a ValueError that names the
parameter."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def as_index_array(indices: Sequence[int] | np.ndarray, n: int,
                   name: str) -> np.ndarray:
    """Validate a nonempty set of indices into range(n) and return it as a
    new intp array; preserves order, rejects duplicates. This is
    :func:`index_array` and then :func:`check_indices`."""
    arr = index_array(indices, n, name)
    check_indices(arr, n, name)
    return arr


def index_array(indices: Sequence[int] | np.ndarray, n: int,
                name: str) -> np.ndarray:
    """``indices`` as a new 1-D intp array, when they are an integer array
    or a sequence of ints and numpy integers; range and repeats are left to
    :func:`check_indices`. Any other set is walked one index at a time for
    the ValueError that names its first bad index, as n sets the range."""
    if isinstance(indices, np.ndarray):
        integers = indices.ndim == 1 and indices.dtype.kind in "iu"
    else:
        indices = list(indices)
        integers = all(issubclass(t, (int, np.integer))
                       for t in set(map(type, indices)))
    if integers:
        try:
            return np.array(indices, dtype=np.intp)
        except OverflowError:  # an index beyond intp is out of range
            pass
    _reject_first_bad(indices, n, name)
    raise AssertionError(f"internal error: {name} passed its checks")


def check_indices(arr: np.ndarray, n: int, name: str) -> None:
    """Reject an :func:`index_array` result that is empty, or holds an
    index outside range(n) or one twice, by the ValueError that names the
    first bad index; the checks run at once, the walk only on failure."""
    if arr.size:
        ranked = np.sort(arr)
        if (ranked[0] >= 0 and ranked[-1] < n
                and not (ranked[1:] == ranked[:-1]).any()):
            return
    _reject_first_bad(arr.tolist(), n, name)
    raise AssertionError(f"internal error: {name} passed its checks")


def _reject_first_bad(indices, n: int, name: str) -> None:
    """Raise the ValueError for the first index of ``indices`` that is no
    integer, lies outside range(n) or repeats one before it, or for an
    empty set."""
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
    if not seen:
        raise ValueError(f"{name} must be nonempty")


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
