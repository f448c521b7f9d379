"""Operation bookkeeping and output checks shared by the workloads.

An operation fails when it raises, when it emits one of hodgesp's warnings
(non-convergence, rank deficiency, ill conditioning, degenerate scores),
when a CLI call exits non-zero, or when a check on its output fails. Each
operation counts once however many of its checks fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import warnings
from pathlib import Path

import numpy as np

import hodgesp.cli

MAX_MESSAGES = 20


class Ledger:
    """Operations attempted and failed over a whole run, with the first
    failure messages kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def job(self) -> "JobLog":
        return JobLog(self)


class JobLog:
    """The operations of one job; close() adds them to the ledger."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.failures: dict[str, list[str]] = {}
        self.seconds: dict[str, float] = {}

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    def check(self, op: str, ok, message: str) -> bool:
        """Record a failure of op unless ok; returns ok."""
        ok = bool(ok)
        if not ok:
            self.fail(op, message)
        return ok

    def run(self, op: str, fn, *args, **kwargs):
        """Call fn, timing it into seconds[op]; an exception or a hodgesp
        warning fails op. Returns the result, or None when it raised."""
        self.failures.setdefault(op, [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # counted as a failed operation
                result = None
                self.fail(op, f"raised {type(exc).__name__}: {exc}")
            self.seconds[op] = time.perf_counter() - start
        for w in caught:
            if w.category.__module__.startswith("hodgesp"):
                self.fail(op, f"{w.category.__name__}: {w.message}")
        return result

    def cli(self, op: str, argv: list[str]) -> str:
        """Run hodgesp.cli.run_cli(argv) as op; a non-zero exit fails op.
        Returns stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.run(op, hodgesp.cli.run_cli, argv)
        self.check(op, code == 0,
                   f"exit code {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue()

    def close(self) -> None:
        self.ledger.attempted += len(self.failures)
        for op, messages in self.failures.items():
            if messages:
                self.ledger.failed += 1
                if len(self.ledger.messages) < MAX_MESSAGES:
                    self.ledger.messages.append(f"{op}: {messages[0]}")


def close_to(actual, expected, rtol: float, scale: float | None = None
             ) -> bool:
    """Finite and within rtol * scale of expected in the 2-norm; scale
    defaults to max(1, ||expected||)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    if scale is None:
        scale = max(1.0, float(np.linalg.norm(expected)))
    return float(np.linalg.norm(actual - expected)) <= rtol * scale


def orthonormal(q: np.ndarray, rng: np.random.Generator,
                probes: int = 4) -> bool:
    """Q^T Q = I tested on random probe vectors (O(n^2) instead of n^3)."""
    if q.shape[1] == 0:
        return True
    v = rng.standard_normal((q.shape[1], probes))
    return close_to(q.T @ (q @ v), v, 1e-9 * np.sqrt(q.shape[1]))


def digest(paths, text: str = "") -> str:
    h = hashlib.sha256(text.encode())
    for p in paths:
        h.update(Path(p).read_bytes() if Path(p).exists() else b"<missing>")
    return h.hexdigest()


def read_table(path: Path, skip_header: bool = True) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    return [line.split(",") for line in lines[1 if skip_header else 0:]
            if line]


def read_matrix(path: Path) -> np.ndarray:
    rows = read_table(path, skip_header=False)
    return np.array(rows, dtype=float)
