"""Simplicial and cell complexes of order <= 2, their incidence matrices,
Hodge Laplacians, and the Dirac operator.

Vertices are integers 0..n-1. Edges are vertex pairs (i, j) with i < j,
triangles are triples (i, j, k) with i < j < k, and 2-cells are vertex cycles
of length >= 3 whose boundary edges must exist (interior diagonals need not —
the usual cell-complex relaxation of simplicial inclusivity). The reference
orientation of a simplex is the ascending order of its vertices; a cell is
traversed starting at its smallest vertex toward its smaller neighbor.

Canonical ordering: edges sorted lexicographically, then order-2 simplices
with the triangles (lexicographic) followed by the cells (lexicographic).
All signal vectors index against this ordering.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ._linalg import check_tolerance, zero_tolerance

__all__ = [
    "TopologyError",
    "SimplicialComplex",
    "Cochain",
    "ComplexSignal",
    "DiracOperator",
    "build_complex",
    "incidence",
    "hodge_laplacian",
    "dirac",
    "betti",
    "divergence",
    "curl",
    "dirac_shift",
]


class TopologyError(ValueError):
    """Invalid complex: bad indices, duplicate simplices, or missing faces."""


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Immutable order-2 complex with precomputed incidence matrices.

    ``b1`` is the num_vertices x n1 node-to-edge incidence matrix (-1 at the
    tail, +1 at the head of each oriented edge); ``b2`` is the n1 x n2
    edge-to-(triangle|cell) incidence matrix. Both are integer sparse
    matrices, so boundary-of-boundary b1 @ b2 = 0 holds exactly. Empty
    simplex sets give zero maps of the right shape.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    cells: tuple[tuple[int, ...], ...]
    b1: sp.csr_array
    b2: sp.csr_array

    @property
    def n0(self) -> int:
        return self.num_vertices

    @property
    def n1(self) -> int:
        return len(self.edges)

    @property
    def n2(self) -> int:
        return len(self.triangles) + len(self.cells)

    def num_simplices(self, k: int) -> int:
        if k == 0:
            return self.n0
        if k == 1:
            return self.n1
        if k == 2:
            return self.n2
        raise ValueError(f"order must be 0, 1 or 2, got {k}")

    def edge_index(self, u: int, v: int) -> int:
        """Canonical index of edge {u, v}."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_lookup[key]
        except KeyError:
            raise KeyError(f"edge {key} not in complex") from None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_edge_lookup", {e: i for i, e in enumerate(self.edges)}
        )

    def cochain(self, order: int, values: Sequence[float]) -> "Cochain":
        return Cochain(self, order, np.asarray(values, dtype=float))

    def zero_cochain(self, order: int) -> "Cochain":
        return Cochain(self, order, np.zeros(self.num_simplices(order)))

    def zero_signal(self) -> "ComplexSignal":
        return ComplexSignal(
            self.zero_cochain(0), self.zero_cochain(1), self.zero_cochain(2)
        )


@dataclass(frozen=True, eq=False)
class Cochain:
    """A real signal of order k, aligned to the canonical simplex ordering."""

    complex: SimplicialComplex
    order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {self.order}")
        expected = self.complex.num_simplices(self.order)
        if values.ndim != 1 or values.shape[0] != expected:
            raise ValueError(
                f"order-{self.order} cochain needs {expected} values, "
                f"got shape {values.shape}"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("cochain values must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class ComplexSignal:
    """Cochains of orders 0, 1, 2 over one complex."""

    x0: Cochain
    x1: Cochain
    x2: Cochain

    def __post_init__(self) -> None:
        if not (self.x0.complex is self.x1.complex is self.x2.complex):
            raise ValueError("all three cochains must share one complex")
        for x, k in ((self.x0, 0), (self.x1, 1), (self.x2, 2)):
            if x.order != k:
                raise ValueError(f"expected order-{k} cochain, got {x.order}")

    @property
    def complex(self) -> SimplicialComplex:
        return self.x0.complex

    @classmethod
    def from_arrays(cls, c: SimplicialComplex, a0, a1, a2) -> "ComplexSignal":
        return cls(c.cochain(0, a0), c.cochain(1, a1), c.cochain(2, a2))

    @classmethod
    def from_stacked(cls, c: SimplicialComplex, v: np.ndarray) -> "ComplexSignal":
        v = np.asarray(v, dtype=float)
        if v.shape != (c.n0 + c.n1 + c.n2,):
            raise ValueError(
                f"stacked signal needs length {c.n0 + c.n1 + c.n2}, "
                f"got shape {v.shape}"
            )
        return cls.from_arrays(
            c, v[: c.n0], v[c.n0 : c.n0 + c.n1], v[c.n0 + c.n1 :]
        )

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.x0.values, self.x1.values, self.x2.values])


class DiracOperator(NamedTuple):
    """Dense Dirac operator with its down (b1) and up (b2) parts."""

    full: np.ndarray
    down: np.ndarray
    up: np.ndarray


def _canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate/reflect a vertex cycle: smallest vertex first, toward its
    smaller neighbor."""
    cyc = list(cycle)
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    if len(rot) >= 3 and rot[-1] < rot[1]:
        rot = rot[:1] + rot[1:][::-1]
    return tuple(rot)


def _check_vertex(v, n: int, owner: str) -> int:
    if not isinstance(v, (int, np.integer)):
        raise TopologyError(f"{owner}: vertex index {v!r} is not an integer")
    if not 0 <= v < n:
        raise TopologyError(
            f"{owner}: vertex index {v} out of range [0, {n})"
        )
    return int(v)


def build_complex(
    num_vertices: int,
    edges: Sequence[Sequence[int]] = (),
    triangles: Sequence[Sequence[int]] = (),
    cells: Sequence[Sequence[int]] = (),
) -> SimplicialComplex:
    """Validate, canonicalize, and assemble a complex.

    Every triangle must have all three of its edges present (simplicial
    inclusivity); every cell must have all of its boundary edges present.
    Raises :class:`TopologyError` naming the offending simplex otherwise.
    """
    n = int(num_vertices)
    if n < 0:
        raise TopologyError(f"num_vertices must be >= 0, got {n}")

    norm_edges = []
    seen = set()
    for e in edges:
        if len(e) != 2:
            raise TopologyError(f"edge {tuple(e)} must have exactly 2 vertices")
        u, v = (_check_vertex(x, n, f"edge {tuple(e)}") for x in e)
        if u == v:
            raise TopologyError(f"edge ({u}, {v}) is a self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TopologyError(f"duplicate edge {key}")
        seen.add(key)
        norm_edges.append(key)
    norm_edges.sort()
    edge_pos = {e: i for i, e in enumerate(norm_edges)}

    norm_tris = []
    seen_tris = set()
    for t in triangles:
        if len(t) != 3:
            raise TopologyError(
                f"triangle {tuple(t)} must have exactly 3 vertices"
            )
        vs = tuple(sorted(_check_vertex(x, n, f"triangle {tuple(t)}") for x in t))
        if len(set(vs)) != 3:
            raise TopologyError(f"triangle {tuple(t)} repeats a vertex")
        if vs in seen_tris:
            raise TopologyError(f"duplicate triangle {vs}")
        seen_tris.add(vs)
        for a, b in ((vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])):
            if (a, b) not in edge_pos:
                raise TopologyError(
                    f"triangle {vs} is missing its edge ({a}, {b})"
                )
        norm_tris.append(vs)
    norm_tris.sort()

    norm_cells = []
    seen_cells = set()
    for cyc in cells:
        tup = tuple(cyc)
        if len(tup) < 3:
            raise TopologyError(f"cell {tup} must have at least 3 vertices")
        vs = [_check_vertex(x, n, f"cell {tup}") for x in tup]
        if len(set(vs)) != len(vs):
            raise TopologyError(f"cell {tup} repeats a vertex")
        canon = _canonical_cycle(vs)
        if canon in seen_cells:
            raise TopologyError(f"duplicate cell {canon}")
        if len(canon) == 3 and tuple(sorted(canon)) in seen_tris:
            raise TopologyError(
                f"cell {canon} duplicates triangle {tuple(sorted(canon))}"
            )
        seen_cells.add(canon)
        for a, b in zip(canon, canon[1:] + canon[:1]):
            key = (a, b) if a < b else (b, a)
            if key not in edge_pos:
                raise TopologyError(
                    f"cell {canon} is missing its boundary edge {key}"
                )
        norm_cells.append(canon)
    norm_cells.sort()

    n1 = len(norm_edges)
    n2 = len(norm_tris) + len(norm_cells)

    rows, cols, vals = [], [], []
    for j, (u, v) in enumerate(norm_edges):
        rows += [u, v]
        cols += [j, j]
        vals += [-1, 1]  # tail, head
    b1 = sp.csr_array(
        sp.coo_array((vals, (rows, cols)), shape=(n, n1), dtype=np.int64)
    )

    rows, cols, vals = [], [], []
    for j, (u, v, w) in enumerate(norm_tris):
        # boundary of [u,v,w]: +[v,w] - [u,w] + [u,v]
        rows += [edge_pos[(v, w)], edge_pos[(u, w)], edge_pos[(u, v)]]
        cols += [j, j, j]
        vals += [1, -1, 1]
    for j, canon in enumerate(norm_cells, start=len(norm_tris)):
        for a, b in zip(canon, canon[1:] + canon[:1]):
            key = (a, b) if a < b else (b, a)
            rows.append(edge_pos[key])
            cols.append(j)
            vals.append(1 if a < b else -1)
    b2 = sp.csr_array(
        sp.coo_array((vals, (rows, cols)), shape=(n1, n2), dtype=np.int64)
    )

    if n1 and n2 and (b1 @ b2).count_nonzero():
        raise AssertionError("internal error: b1 @ b2 != 0")

    return SimplicialComplex(
        num_vertices=n,
        edges=tuple(norm_edges),
        triangles=tuple(norm_tris),
        cells=tuple(norm_cells),
        b1=b1,
        b2=b2,
    )


def incidence(c: SimplicialComplex, k: int, dense: bool = False):
    """Incidence matrix b_k (k in {1, 2}); entries in {-1, 0, +1}."""
    if k == 1:
        b = c.b1
    elif k == 2:
        b = c.b2
    else:
        raise ValueError(f"incidence order must be 1 or 2, got {k}")
    return b.toarray().astype(float) if dense else b


# Per-complex derived objects (Laplacians, incidence SVDs, lambda_max),
# keyed by the immutable complex. No value refers back to its complex, so an
# entry goes away with it.
_cache: "weakref.WeakKeyDictionary[SimplicialComplex, dict]" = (
    weakref.WeakKeyDictionary()
)


def _cached(c: SimplicialComplex, key, compute, *args):
    """The cache entry ``key`` of ``c``, set to ``compute(*args)`` on first
    use."""
    try:
        return _cache[c][key]
    except KeyError:
        value = _cache.setdefault(c, {})[key] = compute(*args)
        return value


def hodge_laplacian(c: SimplicialComplex, k: int, variant: str = "full",
                    sparse: bool = False):
    """Hodge Laplacian L_k, or its down/up part.

    L0 = b1 b1^T, L1 = b1^T b1 + b2 b2^T, L2 = b2^T b2. The down part is
    undefined at k=0 and the up part at k=2. Sparse results are cached on
    the (immutable) complex and must be treated as read-only.
    """
    if variant not in ("full", "down", "up"):
        raise ValueError(f"variant must be full, down or up, got {variant!r}")
    if k == 0 and variant == "down":
        raise ValueError("k=0 has no down Laplacian")
    if k == 2 and variant == "up":
        raise ValueError("k=2 has no up Laplacian")
    if k not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {k}")

    mat = _cached(c, ("laplacian", k, variant), _laplacian, c, k, variant)
    return mat if sparse else mat.toarray()


def _laplacian(c: SimplicialComplex, k: int, variant: str) -> sp.csr_array:
    if k == 0:
        mat = c.b1 @ c.b1.T
    elif k == 1:
        if variant == "down":
            mat = c.b1.T @ c.b1
        elif variant == "up":
            mat = c.b2 @ c.b2.T
        else:
            mat = c.b1.T @ c.b1 + c.b2 @ c.b2.T
    else:
        mat = c.b2.T @ c.b2
    return sp.csr_array(mat).astype(float)


def dirac(c: SimplicialComplex) -> DiracOperator:
    """Block-tridiagonal Dirac operator; full = down + up and
    full^2 = blkdiag(L0, L1, L2)."""
    n0, n1, n2 = c.n0, c.n1, c.n2
    b1 = c.b1.toarray().astype(float)
    b2 = c.b2.toarray().astype(float)
    dim = n0 + n1 + n2
    down = np.zeros((dim, dim))
    up = np.zeros((dim, dim))
    down[:n0, n0 : n0 + n1] = b1
    down[n0 : n0 + n1, :n0] = b1.T
    up[n0 : n0 + n1, n0 + n1 :] = b2
    up[n0 + n1 :, n0 : n0 + n1] = b2.T
    return DiracOperator(full=down + up, down=down, up=up)


def _incidence_svd(c: SimplicialComplex, k: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of dense b_k (k in {1, 2}), computed once per
    complex; the arrays are read-only."""
    return _cached(c, ("svd", k), _read_only_svd, c, k)


def _read_only_svd(c: SimplicialComplex, k: int):
    factors = np.linalg.svd(incidence(c, k, dense=True), full_matrices=False)
    for f in factors:
        f.flags.writeable = False
    return tuple(factors)


def _zero_tolerance(c: SimplicialComplex, tol: float | None) -> float:
    """The complex-wide zero threshold: scaled by the largest singular value
    of b1 and b2, unless overridden."""
    check_tolerance(tol)  # reject a bad override before paying for the SVDs
    sigma_max = max(_incidence_svd(c, k)[1].max(initial=0.0) for k in (1, 2))
    return zero_tolerance(sigma_max, tol)


def betti(c: SimplicialComplex, tol: float | None = None) -> tuple[int, int, int]:
    """Betti numbers (components, holes, cavities) = dim kernel(L_k)."""
    thr = _zero_tolerance(c, tol) ** 0.5
    r1, r2 = (int(np.count_nonzero(_incidence_svd(c, k)[1] > thr))
              for k in (1, 2))
    return (c.n0 - r1, c.n1 - r1 - r2, c.n2 - r2)


def _check_bound(c: SimplicialComplex, x: Cochain, k: int) -> None:
    if x.complex is not c:
        raise ValueError("cochain is bound to a different complex")
    if x.order != k:
        raise ValueError(f"expected an order-{k} cochain, got order {x.order}")


def divergence(c: SimplicialComplex, x1: Cochain) -> Cochain:
    """Net flow b1 @ x1 into each vertex."""
    _check_bound(c, x1, 1)
    return Cochain(c, 0, c.b1 @ x1.values)


def curl(c: SimplicialComplex, x1: Cochain) -> Cochain:
    """Circulation b2^T @ x1 around each triangle/cell."""
    _check_bound(c, x1, 1)
    return Cochain(c, 2, c.b2.T @ x1.values)


def dirac_shift(c: SimplicialComplex, x: ComplexSignal) -> ComplexSignal:
    """One application of the Dirac operator:
    (b1 x1, b1^T x0 + b2 x2, b2^T x1)."""
    if x.complex is not c:
        raise ValueError("signal is bound to a different complex")
    return ComplexSignal.from_arrays(
        c,
        c.b1 @ x.x1.values,
        c.b1.T @ x.x0.values + c.b2 @ x.x2.values,
        c.b2.T @ x.x1.values,
    )
