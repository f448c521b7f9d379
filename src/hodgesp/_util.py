"""The parameter contract: every public parameter that is an index set, an
integer, a real number or a zero tolerance is checked by one of these
helpers, and a rejected value raises a ValueError that names the
parameter. Index sets, and the simplices that ``build_complex`` and
``load_complex`` read, go through one checker, :func:`first_bad`."""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np


def integer_array(items, width: int | None = None) -> np.ndarray | None:
    """``items`` as a new intp array, 1-D or with rows of ``width``, if it
    is an integer array of that shape or a sequence (of sequences) of ints
    and numpy integers, bools excluded, that fits one; else None."""
    try:
        shape = (len(items),) if width is None else (len(items), width)
        if isinstance(items, np.ndarray):
            ok = items.dtype.kind in "iu" and items.shape == shape
            return items.astype(np.intp) if ok else None
        kinds = set(map(type, chain.from_iterable(items) if width else items))
        if all(issubclass(t, (int, np.integer)) and t is not bool
               for t in kinds):
            arr = np.array(items, dtype=np.intp)
            return arr if arr.shape == shape else None
    except (TypeError, ValueError, OverflowError):  # no length (left
        pass  # unread), an item that is no sequence, ragged rows, big ints
    return None


def first_bad(items, check, test=None, width: int | None = None):
    """``(checked, error)``: the checked values of ``items`` before the
    first one that ``check`` (which returns one item's checked value or
    raises) rejects, and its ValueError, None if none. Given ``test``,
    items that form an :func:`integer_array` are checked at once:
    ``test(arr)`` says whether all pass, turning ``arr`` into the checked
    values in place. Only where one fails, or the items form no such
    array, does ``check`` walk them in order to name the first."""
    if not isinstance(items, np.ndarray):
        items = list(items)
    arr = None if test is None else integer_array(items, width)
    if arr is not None:
        if test(arr):
            return arr, None
        if isinstance(items, np.ndarray):  # the walk shows Python ints
            items = items.tolist()
    checked = []
    for item in items:
        try:
            checked.append(check(item))
        except ValueError as exc:
            return checked, exc
    return checked, None


def index_array(indices: Sequence[int] | np.ndarray, n: int,
                name: str) -> np.ndarray:
    """Validate a nonempty set of indices into range(n) and return it as a
    new intp array; preserves order. The first index that is no integer (a
    bool included), lies outside range(n) or repeats one before it raises
    the ValueError that names it."""
    seen = set()

    def check(i):
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"{name}: index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ValueError(f"{name}: index {i} out of range [0, {n})")
        if int(i) in seen:
            raise ValueError(f"{name}: duplicate index {i}")
        seen.add(int(i))
        return int(i)

    def test(arr):
        ranked = np.sort(arr)
        return (ranked.size > 0 and ranked[0] >= 0 and ranked[-1] < n
                and not np.count_nonzero(ranked[1:] == ranked[:-1]))

    arr, exc = first_bad(indices, check, test)
    if exc is not None:
        raise exc
    if not len(arr):
        raise ValueError(f"{name} must be nonempty")
    return np.asarray(arr, dtype=np.intp)


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
