"""Bandlimited sampling and reconstruction of k-simplicial signals.

A signal is F-bandlimited when its transform is supported on the frequency
set F (indices into the typed frequency table, so F can target e.g. only
gradient frequencies). Perfect recovery from samples on a simplex set S
holds exactly when the sampled band U_F[S], the |S| x |F| matrix of sampled
basis columns, has full column rank. One SVD of U_F[S] serves every
consumer: its smallest singular value is the recovery margin, its
pseudo-inverse the reconstruction, and its right singular vectors and
squared singular values the Slepian set of :func:`hodgesp.slepians`. The
band columns and that SVD are cached with the complex for one (basis, k,
tol, F, S) at a time, so many signals sampled on one set pay for them
once, the full checks of the sets included.
"""

from __future__ import annotations

import warnings
import weakref
from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import zero_tolerance
from ._util import check_integer, check_tolerance, index_array, integer_array
from .complexes import Cochain, SimplicialComplex, _cached_slot, _check_bound
from .spectral import HodgeBasis, hodge_basis

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


class _Fit(NamedTuple):
    """The sampled fit of one basis, frequency set F and sample set S."""

    band: np.ndarray  # the n_k x |F| band columns U_F
    svd: tuple  # (u, s, vt) of U_F[S], see _recoverability
    rank: int  # singular values above lstsq's default cutoff
    recoverability: Recoverability
    freqs: tuple[int, ...]
    samples: tuple[int, ...]


def _check_band(c: SimplicialComplex, k: int, basis, tol) -> None:
    """The checks every band consumer makes first: k, tol, and that a
    given basis belongs to ``c`` and is of order k."""
    check_integer(k, "k", 0, 2)
    check_tolerance(tol)
    if basis is not None:
        _check_bound(c, basis, "basis", k)


def _sampled_fit(c: SimplicialComplex, k: int, freq_set, basis, tol,
                 sample_set, samples: str = "sample set") -> _Fit:
    """The :class:`_Fit` of the band of ``basis`` (``hodge_basis(c, k,
    tol)`` when None); ``samples`` names the sample set in errors.

    The fit is cached in one slot of ``c``, keyed on k, tol, the basis
    object and the values of both index sets as integer arrays, so a
    caller that changes a set in place gets a fresh fit, and a new key
    replaces the slot. The key refers to the basis weakly, so the slot
    keeps no basis, or its complex, alive. The sets are checked in full
    on a miss: a key that hits passed those checks. A set that forms no
    integer array (a generator) is checked and fitted with no slot."""
    _check_band(c, k, basis, tol)
    sets = ((freq_set, "frequency set"), (sample_set, samples))
    keys = [integer_array(s) for s, _ in sets]
    if any(key is None for key in keys):  # checked in full, and not held
        return _fit(c, k, basis, tol, sets)
    key = (k, tol, None if basis is None else weakref.ref(basis),
           *(key.tobytes() for key in keys))
    return _cached_slot(c, ("sampled fit",), key, _fit, c, k, basis, tol, sets)


def _fit(c: SimplicialComplex, k: int, basis, tol, sets) -> _Fit:
    f_idx, s_idx = (index_array(a, c.num_simplices(k), n) for a, n in sets)
    if basis is None:
        basis = hodge_basis(c, k, tol)
    band = basis.columns(f_idx)
    sampled = band[s_idx]
    svd, rec = _recoverability(sampled, tol)
    s = svd[1]
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(sampled.shape)
                                * s[0]))
    return _Fit(band, svd, rank, rec, tuple(f_idx.tolist()),
                tuple(s_idx.tolist()))


def _recoverability(sampled: np.ndarray, tol: float | None):
    """The SVD of the sampled band U_F[S], thin but with the complete
    |F| x |F| V^T also when |S| < |F|, and its :class:`Recoverability`:
    the |F|-th singular value as margin (0 when |S| < |F|), and whether it
    is above the zero threshold of ``tol``."""
    rows, nf = sampled.shape
    svd = np.linalg.svd(sampled, full_matrices=rows < nf)
    margin = float(svd.S[-1]) if rows >= nf else 0.0
    return svd, Recoverability(
        ok=margin > zero_tolerance(1.0, tol) ** 0.5, margin=margin)


def is_perfectly_recoverable(c: SimplicialComplex, k: int,
                             freq_set: Sequence[int],
                             sample_set: Sequence[int],
                             basis: HodgeBasis | None = None,
                             tol: float | None = None) -> Recoverability:
    """Full-rank test for the sampled basis, with the smallest singular
    value as margin."""
    return _sampled_fit(c, k, freq_set, basis, tol,
                        sample_set).recoverability


def reconstruct_bandlimited(c: SimplicialComplex, k: int,
                            freq_set: Sequence[int],
                            sample_set: Sequence[int],
                            observed: Sequence[float],
                            basis: HodgeBasis | None = None,
                            tol: float | None = None) -> Cochain:
    """Minimum-norm least-squares fit of the sampled basis rows, expanded
    over the bandlimited span.

    Exact when the full-rank condition holds and the observations are
    noise-free samples of an F-bandlimited signal; with more samples than
    frequencies the result is the orthogonal projection fit. A rank-deficient
    system is reported through :class:`RankDeficientWarning` with its margin
    and the minimum-norm best effort is returned. The fit is the
    pseudo-inverse of the SVD that gives the margin, at ``lstsq``'s default
    cutoff: singular values at most eps * max(|S|, |F|) * s_max are zero.
    The band columns and that SVD are cached with the complex for one
    (basis, k, tol, F, S) at a time, so repeated calls with the same sets
    cost two small products and one n_k x |F| product.
    """
    fit = _sampled_fit(c, k, freq_set, basis, tol, sample_set)
    observed = np.asarray(observed, dtype=float)
    if observed.shape != (len(fit.samples),):
        raise ValueError(f"expected {len(fit.samples)} observed values, got "
                         f"shape {observed.shape}")
    if np.count_nonzero(np.isfinite(observed)) != observed.size:
        raise ValueError("observed values must be finite")
    ok, margin = fit.recoverability
    if not ok:
        warnings.warn(
            f"sample set does not determine the bandlimited signal "
            f"(margin {margin:.3e}); returning least-squares best effort",
            RankDeficientWarning,
        )
    (u, s, vt), r = fit.svd, fit.rank
    z = vt[:r].T @ ((u[:, :r].T @ observed) / s[:r])
    return Cochain(c, k, fit.band @ z)


def select_samples(c: SimplicialComplex, k: int, freq_set: Sequence[int],
                   m: int, basis: HodgeBasis | None = None,
                   tol: float | None = None) -> tuple[int, ...]:
    """Greedy sample-set selection maximizing the sampled-basis margin.

    At each step the simplex whose addition maximizes the smallest singular
    value of the sampled sub-basis is added (ties to the lowest index).
    A candidate's squared margin is an eigenvalue of M + u u^T, M the
    |F| x |F| column Gram matrix of the rows picked so far and u the
    candidate's row: the (t+1)-th largest while the trial set has t+1 <= |F|
    rows, the smallest after that. One ``eigh`` of M per step turns it,
    for every candidate at once, into the root of a secular equation (see
    :func:`_near_best`). Candidates within 1e-10 of the best squared
    margin are rescored by one stacked SVD of their trial sets, so the
    picks are those of a scan that computes one SVD per candidate.
    Raises when m >= |F| but no recoverable set exists along the greedy path.
    """
    _check_band(c, k, basis, tol)
    if basis is None:
        basis = hodge_basis(c, k, tol)
    u_f = basis.columns(index_array(freq_set, c.num_simplices(k),
                                    "frequency set"))
    nk, nf = u_f.shape
    check_integer(m, "m", 1, nk)
    gram = np.zeros((nf, nf))  # column Gram matrix of the picked rows
    free = np.ones(nk, dtype=bool)
    selected: list[int] = []
    for t in range(m):
        cand = np.flatnonzero(free)
        near = cand[_near_best(gram, u_f[cand], max(nf - t - 1, 0))]
        best_idx = int(near[0])
        if near.size > 1:
            # Settle near-ties as a one-at-a-time scan would: by the SVD
            # margins of the trial sets, in index order, with 1e-15 slack.
            trials = np.empty((near.size, t + 1), dtype=np.int64)
            trials[:, :t] = selected
            trials[:, t] = near
            margins = np.linalg.svd(u_f[trials],
                                    compute_uv=False)[:, min(t, nf - 1)]
            best_margin = -1.0
            for r, margin in zip(near.tolist(), margins.tolist()):
                if margin > best_margin + 1e-15:
                    best_idx, best_margin = r, margin
        selected.append(best_idx)
        free[best_idx] = False
        gram += np.outer(u_f[best_idx], u_f[best_idx])

    if m >= nf:
        ok, final = _recoverability(u_f[selected, :], tol)[1]
        if not ok:
            raise ValueError(
                f"no recoverable sample set of size {m} along the greedy "
                f"path (final margin {final:.3e}); the basis rows cannot "
                f"span the frequency set"
            )
    return tuple(selected)


def _near_best(gram: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """Indices of the rows u whose eigenvalue p (ascending) of
    gram + u u^T is within 1e-10 * max(1, best) of the best of them, in
    index order.

    With gram = V diag(e) V^T and z = V^T u, the eigenvalue is the root in
    [e_p, e_{p+1}] of the secular equation 1 + sum_i z_i^2 / (e_i - x) = 0,
    whose left side rises from -inf to +inf there (Golub 1973). Bisection
    shrinks a bracket per row, drops a row once its upper end falls below
    the best lower end by more than the slack, and stops when one row is
    left or every bracket is at rounding level. A zero weight needs no
    special case: when z_p = 0 the bracket closes on e_p, when
    z_{p+1} = 0 on e_{p+1}, and either is then an eigenvalue of the update.
    """
    e, v = np.linalg.eigh(gram)
    z2 = (rows @ v) ** 2
    lo = np.full(rows.shape[0], e[p])
    hi = lo + z2.sum(axis=1)  # Weyl: the update adds at most ||u||^2
    if p + 1 < e.size:
        np.minimum(hi, e[p + 1], out=hi)
    # Brackets this narrow are at the rounding level of the eigenvalues.
    tiny = np.finfo(float).eps * max(1.0, e[-1] + hi.max(initial=0.0))
    live = np.arange(rows.shape[0])  # rows not yet ruled out
    while True:
        best = lo.max()
        live = live[hi[live] >= best - 1e-10 * max(1.0, best)]
        wide = live[hi[live] - lo[live] > tiny]
        if live.size == 1 or not wide.size:
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        secular = 1.0 + (z2[wide] / (e - mid[:, None])).sum(axis=1)
        above = secular > 0.0  # the root lies below mid
        hi[wide[above]] = mid[above]
        lo[wide[~above]] = mid[~above]
    lam = 0.5 * (lo[live] + hi[live])
    return live[lam >= lam.max() - 1e-10 * max(1.0, lam.max())]


def parse_frequency_selector(basis: HodgeBasis, text: str) -> tuple[int, ...]:
    """Parse a frequency-set selector.

    Forms: ``harm`` (all harmonic rows), ``grad:i..j`` / ``curl:i..j``
    (inclusive within-type ranges, 0-based; ``grad:i`` for a single one),
    and ``idx:3,5,7`` (raw frequency-table indices). Several selectors may
    be joined with ``+``. Only the block widths of ``basis`` are read; the
    frequency table lists the harmonic rows, then the gradient and the curl
    rows. A malformed part raises a ValueError that names it.
    """
    nh, ng, nc = basis.n_harmonic, basis.n_gradient, basis.n_curl
    blocks = {"grad:": ("gradient", nh, ng), "curl:": ("curl", nh + ng, nc)}
    out: list[int] = []
    for part in text.split("+"):
        part = part.strip()
        if part == "harm":
            if not nh:
                raise ValueError("selector 'harm': no harmonic frequencies")
            out.extend(range(nh))
            continue
        if part.startswith("idx:"):
            body = part[4:].strip().strip("()")
            if not body.strip():
                raise ValueError(f"selector {part!r}: no indices")
            out.extend(_selector_int(s, part) for s in body.split(",")
                       if s.strip())
            continue
        if part[:5] not in blocks:
            raise ValueError(f"unrecognized frequency selector {part!r}")
        kind, start, width = blocks[part[:5]]
        lo, dots, hi = part[5:].partition("..")
        i = _selector_int(lo, part)
        j = _selector_int(hi, part) if dots else i
        if j < i:
            raise ValueError(f"selector {part!r}: empty range, {i} > {j}")
        if not 0 <= i <= j < width:
            raise ValueError(f"selector {part!r}: range outside the "
                             f"{width} {kind} frequencies")
        out.extend(range(start + i, start + j + 1))
    return tuple(index_array(out, basis.complex.num_simplices(basis.order),
                             "frequency selector").tolist())


def _selector_int(text: str, part: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"selector {part!r}: {text.strip()!r} is not an "
                         f"integer") from None
