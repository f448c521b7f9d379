"""Infer which triangles of a known graph skeleton to fill, from observed
edge flows.

Flows are first projected onto the orthogonal complement of the gradient
space (the divergence-free part), F - b1^T L0^+ b1 F, by one block solve
with the cached sparse LU of the exact topology core; an explicit
tolerance uses the truncated SVD of b1 instead. Whatever energy is left is
the only part a triangle filling can explain. Candidates are the 3-cliques
of the graph. Two greedy criteria: pick triangles whose circulation
against the flows is smallest (min_smoothness — the increment each
candidate contributes to the upper-Laplacian total variation), or pick
triangles whose boundary columns capture the most flow energy
(max_curl_fit, re-orthogonalizing the chosen columns after each pick).
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import check_tolerance
from .complexes import (
    SimplicialComplex,
    _incidence_svd,
    _potential,
    _zero_tolerance,
)

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
    vectors of b1 whose singular values exceed sqrt(tol). The output
    columns are divergence-free.
    """
    check_tolerance(tol)
    flows = np.atleast_2d(np.asarray(flows, dtype=float))
    if flows.shape[0] != c.n1:
        flows = flows.T
    if flows.shape[0] != c.n1:
        raise ValueError(f"flows must have {c.n1} rows (one per edge)")
    if tol is None:
        return flows - _potential(c, 0).flow_part(flows)[0]
    _, s, vt = _incidence_svd(c, 1)
    v_grad = vt[s > _zero_tolerance(c, tol) ** 0.5].T
    return flows - v_grad @ (v_grad.T @ flows)


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


def _boundary_edges(c: SimplicialComplex,
                    candidates: list[tuple[int, int, int]]) -> np.ndarray:
    """Edge indices of each candidate's boundary [v,w] - [u,w] + [u,v], in
    the order (u,v), (u,w), (v,w) of the signs _BOUNDARY_SIGNS."""
    return np.array([[c.edge_index(u, v), c.edge_index(u, w),
                      c.edge_index(v, w)] for u, v, w in candidates],
                    dtype=np.int64).reshape(-1, 3)


_BOUNDARY_SIGNS = np.array([1.0, -1.0, 1.0])


def infer_triangles(c: SimplicialComplex, flows: np.ndarray, count: int,
                    criterion: str = "max_curl_fit",
                    tol: float | None = None
                    ) -> tuple[list[tuple[int, int, int]], list[float]]:
    """Greedy selection of ``count`` triangles to fill.

    min_smoothness scores each candidate by its squared circulation summed
    over flows and picks the smallest; max_curl_fit picks the candidate
    whose (re-orthogonalized) boundary column captures the most residual
    flow energy. Flows are gradient-projected internally. Ties break
    lexicographically; an all-zero score step emits
    :class:`DegenerateScoresWarning`. Returns the picked triangles and the
    per-step scores.
    """
    check_tolerance(tol)
    if criterion not in ("min_smoothness", "max_curl_fit"):
        raise ValueError(
            f"criterion must be min_smoothness or max_curl_fit, "
            f"got {criterion!r}"
        )
    candidates = triangle_candidates(c)
    if count > len(candidates):
        raise ValueError(
            f"asked for {count} triangles but the skeleton has only "
            f"{len(candidates)} 3-cliques"
        )
    proj = project_out_gradient(c, flows, tol)
    edges = _boundary_edges(c, candidates)

    def column(i: int) -> np.ndarray:
        col = np.zeros(c.n1)
        col[edges[i]] = _BOUNDARY_SIGNS
        return col

    # Score threshold is relative to the input flow energy, keeping the
    # selected sequence invariant under positive rescaling of the flows.
    tiny = 1e-12 * float(np.sum(np.asarray(flows, dtype=float) ** 2))
    dep_tiny = 1e-20  # squared norm below which a +/-1 column is dependent

    chosen: list[tuple[int, int, int]] = []
    scores: list[float] = []

    if criterion == "min_smoothness":
        # The upper-Laplacian total variation is additive over chosen
        # columns, so each candidate's increment is fixed up front.
        circ = proj[edges[:, 0]] - proj[edges[:, 1]] + proj[edges[:, 2]]
        increments = np.sum(circ**2, axis=1)
        increments[increments <= tiny] = 0.0  # lexicographic ties on noise
        order = sorted(range(len(candidates)),
                       key=lambda i: (increments[i], candidates[i]))
        if count and increments.max(initial=0.0) <= tiny:
            warnings.warn(
                "all candidate circulations are zero; selection is the "
                "lexicographic tie-break", DegenerateScoresWarning)
        for i in order[:count]:
            chosen.append(candidates[i])
            scores.append(float(increments[i]))
        return chosen, scores

    basis: list[np.ndarray] = []
    remaining = list(range(len(candidates)))
    for _ in range(count):
        best_i, best_gain = None, -1.0
        for i in remaining:
            q = column(i)
            for b in basis:
                q -= (b @ q) * b
            norm = np.linalg.norm(q)
            gain = 0.0 if norm**2 <= dep_tiny else \
                float(np.sum((q / norm @ proj) ** 2))
            if gain <= tiny:
                gain = 0.0  # lexicographic ties on noise
            if gain > best_gain + 1e-15:
                best_i, best_gain = i, gain
        if best_gain <= tiny:
            warnings.warn(
                "remaining candidates capture no flow energy; selection "
                "continues by the lexicographic tie-break",
                DegenerateScoresWarning)
        chosen.append(candidates[best_i])
        scores.append(best_gain)
        remaining.remove(best_i)
        q = column(best_i)
        for b in basis:
            q -= (b @ q) * b
        norm = np.linalg.norm(q)
        if norm**2 > dep_tiny:
            basis.append(q / norm)
    return chosen, scores
