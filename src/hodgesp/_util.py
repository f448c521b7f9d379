"""Small shared validation helpers."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_index_tuple(indices: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    """Validate a set of indices into range(n); preserves order, rejects
    duplicates."""
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
    return tuple(out)


def check_integer(value, name: str, minimum: int) -> None:
    """Reject a non-integer (or bool) ``value``, or one below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
