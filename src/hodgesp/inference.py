"""Infer which triangles of a known graph skeleton to fill, from observed
edge flows.

Flows are first projected onto the orthogonal complement of the gradient
space (the divergence-free part), F - b1^T L0^+ b1 F, by one block solve
with the cached sparse LU of the exact topology core; an explicit
tolerance then adds back the singular directions of b1 it counts as zero.
Whatever energy is left is the only part a triangle filling can explain.
Candidates are the 3-cliques of the graph; both greedy criteria read their
boundary matrix, assembled over the skeleton's canonical edges without
validating them again. min_smoothness picks triangles whose circulation
against the flows is smallest (the increment each candidate contributes to
the upper-Laplacian total variation); max_curl_fit picks triangles whose
boundary columns capture the most flow energy, deflating the flows and
every candidate's squared norm by each pick's orthonormalized boundary.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import gram_schmidt
from ._util import check_integer, check_tolerance
from .complexes import SimplicialComplex, _boundary_matrix, _triangle_faces
from .spectral import _part

__all__ = [
    "DegenerateScoresWarning",
    "project_out_gradient",
    "residual_energy",
    "triangle_candidates",
    "infer_triangles",
]


class DegenerateScoresWarning(UserWarning):
    """All candidate scores vanish; the returned order is the tie-break."""


def project_out_gradient(c: SimplicialComplex, flows: np.ndarray,
                         tol: float | None = None) -> np.ndarray:
    """Remove the gradient component of each flow column.

    The gradient part is b1^T L0^+ b1 F, by the cached sparse LU of L0;
    with an explicit ``tol`` it is the projection onto the right singular
    vectors of b1 whose singular values exceed sqrt(tol): the exact part
    less its projection onto the vectors at or below, read from the cached
    SVD only when there are any. Without ``tol`` the output columns are
    divergence-free.
    """
    check_tolerance(tol)
    flows = np.atleast_2d(np.asarray(flows, dtype=float))
    if flows.ndim != 2 or not np.all(np.isfinite(flows)):
        raise ValueError("flows must be a finite 1-D or 2-D array")
    if flows.shape[0] != c.n1:
        flows = flows.T
    if flows.shape[0] != c.n1:
        raise ValueError(f"flows must have {c.n1} rows (one per edge)")
    return flows - _part(c, 1, 1, flows, tol)[0]


def residual_energy(projected_flows: np.ndarray) -> float:
    """Squared Frobenius norm of the gradient-free flows; how much energy a
    triangle filling could possibly explain. Thresholding is the caller's
    call."""
    return float(np.sum(np.asarray(projected_flows, dtype=float) ** 2))


def triangle_candidates(c: SimplicialComplex) -> list[tuple[int, int, int]]:
    """All 3-cliques of the edge skeleton, lexicographically sorted."""
    adj: dict[int, set[int]] = {v: set() for v in range(c.n0)}
    for u, v in c.edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for u, v in c.edges:
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                out.append((u, v, w))
    return sorted(out)


def infer_triangles(c: SimplicialComplex, flows: np.ndarray, count: int,
                    criterion: str = "max_curl_fit",
                    tol: float | None = None
                    ) -> tuple[list[tuple[int, int, int]], list[float]]:
    """Greedy selection of ``count`` triangles to fill.

    min_smoothness scores each candidate by its squared circulation summed
    over flows and picks the smallest; max_curl_fit picks the candidate
    whose boundary column, orthogonalized against the picks so far,
    captures the most residual flow energy, then deflates the flows and
    every candidate's squared norm by that one direction. Flows are
    gradient-projected internally. Ties break lexicographically; an
    all-zero score step emits :class:`DegenerateScoresWarning`. Returns the
    picked triangles and the per-step scores.
    """
    check_tolerance(tol)
    if criterion not in ("min_smoothness", "max_curl_fit"):
        raise ValueError(
            f"criterion must be min_smoothness or max_curl_fit, "
            f"got {criterion!r}"
        )
    check_integer(count, "count", 0)
    candidates = triangle_candidates(c)
    if count > len(candidates):
        raise ValueError(
            f"asked for {count} triangles but the skeleton has only "
            f"{len(candidates)} 3-cliques"
        )
    proj = project_out_gradient(c, flows, tol)
    # Row i is the boundary +[v,w] - [u,w] + [u,v] of candidate i.
    edges = np.array(c.edges, dtype=np.int64).reshape(-1, 2)
    triples = np.array(candidates, dtype=np.int64).reshape(-1, 3)
    faces = _triangle_faces(edges[:, 0] * c.n0 + edges[:, 1], c.n0, triples)
    rows = _boundary_matrix(c.n1, faces).T.tocsr().astype(float)

    # Score threshold is relative to the input flow energy, keeping the
    # selected sequence invariant under positive rescaling of the flows.
    tiny = 1e-12 * float(np.sum(np.asarray(flows, dtype=float) ** 2))

    if criterion == "min_smoothness":
        # The upper-Laplacian total variation is additive over chosen
        # columns, so each candidate's increment is fixed up front.
        increments = np.sum((rows @ proj) ** 2, axis=1)
        increments[increments <= tiny] = 0.0  # lexicographic ties on noise
        if count and increments.max(initial=0.0) <= tiny:
            warnings.warn(
                "all candidate circulations are zero; selection is the "
                "lexicographic tie-break", DegenerateScoresWarning)
        order = np.argsort(increments, kind="stable")[:count]
        return ([candidates[i] for i in order],
                [float(increments[i]) for i in order])

    # The running squared norms lose one square per pick, so they carry
    # cancellation of order picks * eps * 3; below this they count as zero
    # and the candidate scores 0 / inf = 0.
    norm_tiny = 1e-12 * 3.0
    residual = proj  # the flows, deflated in place by the basis
    norms2 = np.full(len(candidates), 3.0)  # squared norms off the basis
    basis = np.empty((c.n1, 0))
    picks: list[int] = []
    scores: list[float] = []
    for _ in range(count):
        gains = np.sum((rows @ residual) ** 2, axis=1) / norms2
        gains[gains <= tiny] = 0.0  # lexicographic ties on noise
        gains[picks] = -1.0
        # Settle near-ties as a one-at-a-time scan would: in index order,
        # with 1e-15 slack.
        best_i, best_gain = -1, -1.0
        for i in np.flatnonzero(gains >= gains.max() - 1e-15).tolist():
            if gains[i] > best_gain + 1e-15:
                best_i, best_gain = i, float(gains[i])
        if best_gain <= tiny:
            warnings.warn(
                "remaining candidates capture no flow energy; selection "
                "continues by the lexicographic tie-break",
                DegenerateScoresWarning)
        picks.append(best_i)
        scores.append(best_gain)
        q, _ = gram_schmidt(basis, rows[[best_i]].toarray()[0])
        norm = np.linalg.norm(q)
        if norm**2 > 1e-20:  # otherwise the +/-1 column is dependent
            q /= norm
            basis = np.column_stack([basis, q])
            residual -= np.outer(q, q @ residual)
            norms2 -= (rows @ q) ** 2
            norms2[norms2 <= norm_tiny] = np.inf
    return [candidates[i] for i in picks], scores
