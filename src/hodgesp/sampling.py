"""Bandlimited sampling and reconstruction of k-simplicial signals.

A signal is F-bandlimited when its transform is supported on the frequency
set F (indices into the typed frequency table, so F can target e.g. only
gradient frequencies). Perfect recovery from samples on a simplex set S
holds exactly when the |S| x |F| matrix of sampled basis columns has full
column rank.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import check_tolerance, zero_tolerance
from ._util import as_index_tuple
from .complexes import Cochain, SimplicialComplex
from .spectral import HodgeBasis, frequency_table, hodge_basis

__all__ = [
    "Recoverability",
    "RankDeficientWarning",
    "is_perfectly_recoverable",
    "reconstruct_bandlimited",
    "select_samples",
    "parse_frequency_selector",
]


class RankDeficientWarning(UserWarning):
    """Sample set does not determine the bandlimited signal."""


class Recoverability(NamedTuple):
    ok: bool
    margin: float  # smallest singular value of the sampled sub-basis


def _sampled_basis(basis: HodgeBasis, freq_set, sample_set):
    u_f = basis.matrix()[:, list(freq_set)]
    return u_f, u_f[list(sample_set), :]


def _margin(sampled: np.ndarray, n_freq: int) -> float:
    """|F|-th singular value of the sampled sub-basis (0 when |S| < |F|)."""
    if sampled.shape[0] < n_freq:
        return 0.0
    s = np.linalg.svd(sampled, compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def is_perfectly_recoverable(c: SimplicialComplex, k: int,
                             freq_set: Sequence[int],
                             sample_set: Sequence[int],
                             basis: HodgeBasis | None = None,
                             tol: float | None = None) -> Recoverability:
    """Full-rank test for the sampled basis, with the smallest singular
    value as margin."""
    check_tolerance(tol)
    if basis is None:
        basis = hodge_basis(c, k, tol)
    nk = c.num_simplices(k)
    f_idx = as_index_tuple(freq_set, nk, "frequency set")
    s_idx = as_index_tuple(sample_set, nk, "sample set")
    if not f_idx or not s_idx:
        raise ValueError("frequency and sample sets must be nonempty")
    _, sampled = _sampled_basis(basis, f_idx, s_idx)
    margin = _margin(sampled, len(f_idx))
    thr = zero_tolerance(1.0, tol) ** 0.5
    return Recoverability(ok=margin > thr, margin=margin)


def reconstruct_bandlimited(c: SimplicialComplex, k: int,
                            freq_set: Sequence[int],
                            sample_set: Sequence[int],
                            observed: Sequence[float],
                            basis: HodgeBasis | None = None,
                            tol: float | None = None) -> Cochain:
    """Least-squares fit of the sampled basis rows, expanded over the
    bandlimited span.

    Exact when the full-rank condition holds and the observations are
    noise-free samples of an F-bandlimited signal; with more samples than
    frequencies the result is the orthogonal projection fit. A rank-deficient
    system is reported through :class:`RankDeficientWarning` with its margin
    and the minimum-norm best effort is returned.
    """
    check_tolerance(tol)
    if basis is None:
        basis = hodge_basis(c, k, tol)
    nk = c.num_simplices(k)
    f_idx = as_index_tuple(freq_set, nk, "frequency set")
    s_idx = as_index_tuple(sample_set, nk, "sample set")
    observed = np.asarray(observed, dtype=float)
    if observed.shape != (len(s_idx),):
        raise ValueError(
            f"expected {len(s_idx)} observed values, got shape {observed.shape}"
        )
    u_f, sampled = _sampled_basis(basis, f_idx, s_idx)
    margin = _margin(sampled, len(f_idx))
    thr = zero_tolerance(1.0, tol) ** 0.5
    if margin <= thr:
        warnings.warn(
            f"sample set does not determine the bandlimited signal "
            f"(margin {margin:.3e}); returning least-squares best effort",
            RankDeficientWarning,
        )
    z = np.linalg.lstsq(sampled, observed, rcond=None)[0]
    return Cochain(c, k, u_f @ z)


def select_samples(c: SimplicialComplex, k: int, freq_set: Sequence[int],
                   m: int, basis: HodgeBasis | None = None,
                   tol: float | None = None) -> tuple[int, ...]:
    """Greedy sample-set selection maximizing the sampled-basis margin.

    At each step the simplex whose addition maximizes the smallest singular
    value of the sampled sub-basis is added (ties to the lowest index).
    Raises when m >= |F| but no recoverable set exists along the greedy path.
    """
    check_tolerance(tol)
    if basis is None:
        basis = hodge_basis(c, k, tol)
    nk = c.num_simplices(k)
    f_idx = as_index_tuple(freq_set, nk, "frequency set")
    if not f_idx:
        raise ValueError("frequency set must be nonempty")
    if not 1 <= m <= nk:
        raise ValueError(f"m must be in [1, {nk}], got {m}")

    u_f = basis.matrix()[:, list(f_idx)]
    selected: list[int] = []
    for _ in range(m):
        best_idx, best_margin = -1, -1.0
        for r in range(nk):
            if r in selected:
                continue
            trial = u_f[selected + [r], :]
            s = np.linalg.svd(trial, compute_uv=False)
            margin = float(s[min(trial.shape) - 1])
            if margin > best_margin + 1e-15:
                best_idx, best_margin = r, margin
        selected.append(best_idx)

    if m >= len(f_idx):
        final = _margin(u_f[selected, :], len(f_idx))
        thr = zero_tolerance(1.0, tol) ** 0.5
        if final <= thr:
            raise ValueError(
                f"no recoverable sample set of size {m} along the greedy "
                f"path (final margin {final:.3e}); the basis rows cannot "
                f"span the frequency set"
            )
    return tuple(selected)


def parse_frequency_selector(basis: HodgeBasis, text: str) -> tuple[int, ...]:
    """Parse a frequency-set selector.

    Forms: ``harm`` (all harmonic rows), ``grad:i..j`` / ``curl:i..j``
    (inclusive within-type ranges, 0-based; ``grad:i`` for a single one),
    and ``idx:3,5,7`` (raw frequency-table indices). Several selectors may
    be joined with ``+``.
    """
    table = frequency_table(basis)
    by_kind: dict[str, list[int]] = {"harmonic": [], "gradient": [], "curl": []}
    for row in table:
        by_kind[row.kind].append(row.index)

    out: list[int] = []
    for part in text.split("+"):
        part = part.strip()
        if part == "harm":
            if not by_kind["harmonic"]:
                raise ValueError("selector 'harm': no harmonic frequencies")
            out.extend(by_kind["harmonic"])
            continue
        if part.startswith("idx:"):
            body = part[4:].strip().strip("()")
            out.extend(int(s) for s in body.split(",") if s.strip())
            continue
        for prefix, kind in (("grad:", "gradient"), ("curl:", "curl")):
            if part.startswith(prefix):
                body = part[len(prefix):]
                lo, _, hi = body.partition("..")
                i, j = int(lo), int(hi) if hi else int(lo)
                block = by_kind[kind]
                if not 0 <= i <= j < len(block):
                    raise ValueError(
                        f"selector {part!r}: range outside the "
                        f"{len(block)} {kind} frequencies"
                    )
                out.extend(block[i : j + 1])
                break
        else:
            raise ValueError(f"unrecognized frequency selector {part!r}")
    return as_index_tuple(out, len(table), "frequency selector")
