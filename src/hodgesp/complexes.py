"""Simplicial and cell complexes of order <= 2, their incidence matrices,
Hodge Laplacians, the Dirac operator, and the exact sparse topology core.

Vertices are integers 0..n-1. Edges are vertex pairs (i, j) with i < j,
triangles are triples (i, j, k) with i < j < k, and 2-cells are vertex cycles
of length >= 3 whose boundary edges must exist (interior diagonals need not —
the usual cell-complex relaxation of simplicial inclusivity). The reference
orientation of a simplex is the ascending order of its vertices; a cell is
traversed starting at its smallest vertex toward its smaller neighbor.

Canonical ordering: edges sorted lexicographically, then order-2 simplices
with the triangles (lexicographic) followed by the cells (lexicographic).
All signal vectors index against this ordering.

The topology core is exact and sparse, and cached once per complex: the
connected components, the pivot columns of b2 from elimination over a
prime field, and one sparse LU each for the pseudo-inverses of L0 and L2,
grounded on those pivots (``_Grounded``, which also serves the quadratic
edge-flow reconstruction).
Betti numbers, the default Hodge decomposition and gradient projection
come from it, with no SVD and no dense n1 x n1 or n1 x n2 array.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ._linalg import power_iteration_lambda_max, zero_tolerance
from ._util import check_integer, check_real, first_bad

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
    "lambda_max",
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
        check_integer(k, "k", 0, 2)
        if k == 0:
            return self.n0
        return self.n1 if k == 1 else self.n2

    def edge_index(self, u: int, v: int) -> int:
        """Canonical index of edge {u, v}, from an edge-to-index dict built
        on the first call and cached with the complex."""
        key = (u, v) if u < v else (v, u)
        try:
            return _cached(self, ("edge index",), dict,
                           zip(self.edges, range(self.n1)))[key]
        except KeyError:
            raise KeyError(f"edge {key} not in complex") from None

    def cochain(self, order: int, values: Sequence[float]) -> "Cochain":
        return Cochain(self, order, np.asarray(values, dtype=float))

    def zero_cochain(self, order: int) -> "Cochain":
        check_integer(order, "order", 0, 2)
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
        order, c = self.order, self.complex
        check_integer(order, "order", 0, 2)
        expected = c.n0 if order == 0 else c.n1 if order == 1 else c.n2
        if values.ndim != 1 or values.shape[0] != expected:
            raise ValueError(
                f"order-{self.order} cochain needs {expected} values, "
                f"got shape {values.shape}"
            )
        # count_nonzero is one C call; .all() goes through numpy's Python
        # reduction wrapper, which costs more than the check on the short
        # vectors a stream builds every step
        if np.count_nonzero(np.isfinite(values)) != values.size:
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
                f"v must have shape ({c.n0 + c.n1 + c.n2},), got {v.shape}"
            )
        return cls.from_arrays(
            c, v[: c.n0], v[c.n0 : c.n0 + c.n1], v[c.n0 + c.n1 :]
        )

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.x0.values, self.x1.values, self.x2.values])


class DiracOperator(NamedTuple):
    """Sparse (CSR) Dirac operator with its down (b1) and up (b2) parts;
    ``full`` is cached on the complex and must be treated as read-only."""

    full: sp.csr_array
    down: sp.csr_array
    up: sp.csr_array


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
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise TopologyError(f"{owner}: vertex index {v!r} is not an integer")
    if not 0 <= v < n:
        raise TopologyError(
            f"{owner}: vertex index {v} out of range [0, {n})"
        )
    return int(v)


def _edge_vertices(e, n: int) -> tuple[int, int]:
    """The canonical (u, v), u < v, of one edge, or TopologyError."""
    if len(e) != 2:
        raise TopologyError(f"edge {tuple(e)} must have exactly 2 vertices")
    u, v = (_check_vertex(x, n, f"edge {tuple(e)}") for x in e)
    if u == v:
        raise TopologyError(f"edge ({u}, {v}) is a self-loop")
    return (u, v) if u < v else (v, u)


def _triangle_vertices(t, n: int) -> tuple[int, int, int]:
    """The sorted vertices of one triangle, or TopologyError."""
    if len(t) != 3:
        raise TopologyError(
            f"triangle {tuple(t)} must have exactly 3 vertices"
        )
    vs = tuple(sorted(_check_vertex(x, n, f"triangle {tuple(t)}") for x in t))
    if len(set(vs)) != 3:
        raise TopologyError(f"triangle {tuple(t)} repeats a vertex")
    return vs


def _sorted_rows(rows: np.ndarray, n: int) -> bool:
    """The vectorised test of :func:`_edge_vertices` and
    :func:`_triangle_vertices` for :func:`first_bad`: sorts each row of
    vertices in place, and says whether every vertex lies in range(n) and
    no row repeats one."""
    rows.sort(axis=1)
    return not ((rows[:, 0] < 0) | (rows[:, -1] >= n)
                | (rows[:, 1:] == rows[:, :-1]).any(axis=1)).any()


def _first_repeat(rows: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The order that sorts ``rows`` lexicographically (stable), and the
    index of the first row, in input order, equal to an earlier one."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    same = (ranked[1:] == ranked[:-1]).all(axis=1)
    return order, int(order[1:][same].min()) if same.any() else None


def _triangle_faces(edge_keys: np.ndarray, n: int,
                    triangles: np.ndarray) -> np.ndarray:
    """For each sorted row (u, v, w) of ``triangles``, the positions of its
    faces (u, v), (u, w), (v, w) in the ascending keys a * n + b of the
    edges (a, b), and -1 where a face is not an edge."""
    keys = triangles[:, [0, 0, 1]] * n + triangles[:, [1, 2, 2]]
    if not edge_keys.size:
        return np.full(keys.shape, -1)
    pos = np.searchsorted(edge_keys, keys)
    found = edge_keys[np.minimum(pos, edge_keys.size - 1)] == keys
    return np.where(found, pos, -1)


def build_complex(
    num_vertices: int,
    edges: Sequence[Sequence[int]] = (),
    triangles: Sequence[Sequence[int]] = (),
    cells: Sequence[Sequence[int]] = (),
) -> SimplicialComplex:
    """Validate, canonicalize, and assemble a complex.

    Every triangle must have all three of its edges present (simplicial
    inclusivity); every cell must have all of its boundary edges present.
    Raises :class:`TopologyError` naming the offending simplex otherwise:
    the first one, in input order, of the edges, then the triangles, then
    the cells.
    """
    check_integer(num_vertices, "num_vertices", 0)
    n = int(num_vertices)

    edge_rows, err = first_bad(edges, lambda e: _edge_vertices(e, n),
                               lambda rows: _sorted_rows(rows, n), 2)
    edge_rows = np.asarray(edge_rows, dtype=np.intp).reshape(-1, 2)
    order, dup = _first_repeat(edge_rows)
    if dup is not None:
        raise TopologyError(
            f"duplicate edge {tuple(edge_rows[dup].tolist())}")
    if err is not None:
        raise err
    edge_rows = edge_rows[order]
    edge_keys = edge_rows[:, 0] * n + edge_rows[:, 1]
    norm_edges = list(zip(*(col.tolist() for col in edge_rows.T)))

    tri_rows, err = first_bad(triangles, lambda t: _triangle_vertices(t, n),
                              lambda rows: _sorted_rows(rows, n), 3)
    tri_rows = np.asarray(tri_rows, dtype=np.intp).reshape(-1, 3)
    order, dup = _first_repeat(tri_rows)
    faces = _triangle_faces(edge_keys, n, tri_rows)
    missing = (faces < 0).any(axis=1)
    gap = int(missing.argmax()) if missing.any() else None
    if dup is not None and (gap is None or dup <= gap):
        raise TopologyError(
            f"duplicate triangle {tuple(tri_rows[dup].tolist())}")
    if gap is not None:
        vs = tri_rows[gap].tolist()
        a, b = ((vs[0], vs[1]), (vs[0], vs[2]),
                (vs[1], vs[2]))[int((faces[gap] < 0).argmax())]
        raise TopologyError(
            f"triangle {tuple(vs)} is missing its edge ({a}, {b})")
    if err is not None:
        raise err
    norm_tris = list(zip(*(col.tolist() for col in tri_rows[order].T)))

    n1 = len(norm_edges)
    cells = list(cells)
    seen_tris = set(norm_tris) if cells else set()
    edge_pos = dict(zip(norm_edges, range(n1))) if cells else {}
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
    cell_edges = [
        [(edge_pos[(a, b) if a < b else (b, a)], 1 if a < b else -1)
         for a, b in zip(canon, canon[1:] + canon[:1])]
        for canon in norm_cells
    ]

    b1 = sp.csr_array(
        sp.coo_array((np.tile([-1, 1], n1),  # tail, head
                      (edge_rows.ravel(), np.repeat(np.arange(n1), 2))),
                     shape=(n, n1), dtype=np.int64)
    )
    b2 = _boundary_matrix(n1, faces[order], cell_edges)

    if n1 and b2.shape[1] and (b1 @ b2).count_nonzero():
        raise AssertionError("internal error: b1 @ b2 != 0")

    return SimplicialComplex(
        num_vertices=n,
        edges=tuple(norm_edges),
        triangles=tuple(norm_tris),
        cells=tuple(norm_cells),
        b1=b1,
        b2=b2,
    )


def _boundary_matrix(n1: int, faces: np.ndarray, cells=()) -> sp.csr_array:
    """The n1 x n2 integer boundary matrix b2. Column j < len(faces) is the
    triangle [u,v,w] whose faces (u, v), (u, w), (v, w) are the edges
    ``faces[j]``: its boundary is +[u,v] - [u,w] + [v,w]. Then one column
    per cell, given as the (edge index, sign) pairs of its boundary."""
    m = len(faces)
    rows = [faces.ravel()]
    cols = [np.repeat(np.arange(m), 3)]
    vals = [np.tile([1, -1, 1], m)]
    for j, pairs in enumerate(cells, start=m):
        rows.append([e for e, _ in pairs])
        cols.append([j] * len(pairs))
        vals.append([sign for _, sign in pairs])
    return sp.csr_array(
        sp.coo_array((np.concatenate(vals), (np.concatenate(rows),
                                             np.concatenate(cols))),
                     shape=(n1, m + len(cells)), dtype=np.int64)
    )


def incidence(c: SimplicialComplex, k: int, dense: bool = False):
    """Incidence matrix b_k (k in {1, 2}); entries in {-1, 0, +1}."""
    check_integer(k, "k", 1, 2)
    b = c.b1 if k == 1 else c.b2
    return b.toarray().astype(float) if dense else b


# Per-complex derived objects (the edge-to-index dict, Laplacians, the
# float incidence matrices, incidence SVDs and their values-only spectra,
# lambda_max and its integer bound, the sparse solvers, the quadratic
# reconstruction's factor, the sampled band fit, harmonic blocks, the LMS
# step operator of one pair of orders at a time, and the compiled SCVAR
# operator of one model at a time, keyed on its lags' values; the last
# two held dense or CSR by ``_linalg.held``), keyed by the immutable
# complex. No value or key refers back to its complex, so an entry goes
# away with it.
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


def _cached_slot(c: SimplicialComplex, name, key, compute, *args):
    """``compute(*args)`` held in the one cache slot ``name`` of ``c``,
    recomputed when ``key`` differs from the key it was computed for; a new
    key replaces the slot, so memory stays bounded when the key varies."""
    entries = _cache.setdefault(c, {})
    held = entries.get(name)
    if held is None or held[0] != key:
        held = entries[name] = (key, compute(*args))
    return held[1]


def hodge_laplacian(c: SimplicialComplex, k: int, variant: str = "full",
                    sparse: bool = False):
    """Hodge Laplacian L_k, or its down/up part.

    L0 = b1 b1^T, L1 = b1^T b1 + b2 b2^T, L2 = b2^T b2. The down part is
    undefined at k=0 and the up part at k=2. Sparse results are cached on
    the (immutable) complex and must be treated as read-only.
    """
    check_integer(k, "k", 0, 2)
    if variant not in ("full", "down", "up"):
        raise ValueError(f"variant must be full, down or up, got {variant!r}")
    if (k, variant) in ((0, "down"), (2, "up")):
        raise ValueError(f"k={k} has no {variant} Laplacian")

    if k != 1:
        variant = "full"  # L0's up part and L2's down part are L0 and L2
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
    b1, b2 = _float_incidence(c, 1)[0], _float_incidence(c, 2)[0]
    return DiracOperator(
        full=_dirac_matrix(c),
        down=_dirac_blocks(b1, sp.csr_array(b2.shape)),
        up=_dirac_blocks(sp.csr_array(b1.shape), b2),
    )


def _dirac_matrix(c: SimplicialComplex) -> sp.csr_array:
    """The sparse Dirac operator, built once per complex."""
    return _cached(c, ("dirac",), lambda: _dirac_blocks(
        _float_incidence(c, 1)[0], _float_incidence(c, 2)[0]))


def _dirac_blocks(b1, b2) -> sp.csr_array:
    return sp.csr_array(sp.bmat([[None, b1, None],
                                 [b1.T, None, b2],
                                 [None, b2.T, None]]))


def lambda_max(c: SimplicialComplex, k: int, rtol: float = 1e-6) -> float:
    """Largest eigenvalue of L_k, by power iteration, cached per complex
    and rtol.

    ``rtol`` stops the iteration once the Rayleigh quotient changes by at
    most rtol, relative, from one step to the next. It is not an error
    bound: the quotient approaches lambda_max from below, slowly where the
    top eigenvalues cluster. At the default 1e-6 the result was 8.4e-5
    (L0) and 1.2e-4 (L2) below the dense eigenvalue, relative, on a 20 x 20
    triangulated grid with 72 holes (``perfbench.inputs.hole_grid(20, 6)``,
    seed 1).
    """
    check_integer(k, "k", 0, 2)
    check_real(rtol, "rtol", positive=True)
    return _cached(c, ("lambda_max", k, rtol), _lambda_max, c, k, rtol)


def _lambda_max(c: SimplicialComplex, k: int, rtol: float) -> float:
    lap = hodge_laplacian(c, k, sparse=True)
    return power_iteration_lambda_max(lambda v: lap @ v, lap.shape[0],
                                      rtol=rtol)


def _float_incidence(c: SimplicialComplex, k: int
                     ) -> tuple[sp.csr_array, sp.csr_array]:
    """b_k (k in {1, 2}) as a float CSR array and its transpose as another,
    built once per complex and to be treated as read-only; the potentials,
    the spectra, the transforms, the Dirac operator and the l1
    reconstruction all read these."""
    return _cached(c, ("float incidence", k), _float_pair, c, k)


def _float_pair(c: SimplicialComplex, k: int):
    b = (c.b1 if k == 1 else c.b2).astype(float)
    return b, sp.csr_array(b.T)


def _incidence_svd(c: SimplicialComplex, k: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of b_k (k in {1, 2}), s descending, computed
    once per complex from the eigenpairs of one Gram matrix of b_k
    (:func:`_gram`); the arrays are read-only.

    The Gram matrix's eigenvectors w are one side of the SVD and its
    eigenvalues the squared singular values; the other side is derived as
    b^T w / sigma or b w / sigma. An eigenvalue at or below
    :func:`_zero_floor` is rounding noise of a zero one: its singular value
    is exactly 0 and its derived column zero, so no tolerance counts it as
    rank. The derived side is orthonormal only to about
    eps * lambda_max / lambda_min, lambda_min the smallest nonzero
    eigenvalue: 7e-14 on a 20 x 20 grid with 6 holes, 1e-10 on a
    2000-vertex path, 2e-11 on an 800-rung triangle ladder, where a dense
    SVD reaches about 1e-14.
    """
    return _cached(c, ("svd", k), _gram_svd, c, k)


def _incidence_values(c: SimplicialComplex, k: int) -> np.ndarray:
    """The squared singular values of b_k (k in {1, 2}), descending,
    computed once per complex by ``eigvalsh`` of the Gram matrix that
    :func:`_incidence_svd` factors, with no eigenvectors; values at or
    below :func:`_zero_floor` are exactly 0. Read-only. They may differ
    from the squares of ``_incidence_svd(c, k)[1]`` by rounding."""
    return _cached(c, ("values", k), _gram_values, c, k)


def _gram(c: SimplicialComplex, k: int) -> tuple[sp.csr_array, bool]:
    """The cached sparse Gram matrix of b_k that the spectra factor, and
    whether it is the edge-side one: L0 = b1 b1^T or L2 = b2^T b2, unless
    n1 is smaller, then L1,down = b1^T b1 or L1,up = b2 b2^T."""
    far = 0 if k == 1 else 2  # the order b_k joins to the edges
    if c.n1 < c.num_simplices(far):
        return hodge_laplacian(c, 1, "down" if k == 1 else "up",
                               sparse=True), True
    return hodge_laplacian(c, far, sparse=True), False


def _eigen_left(c: SimplicialComplex, k: int) -> bool:
    """Whether the left factor u of :func:`_incidence_svd` holds the Gram
    eigenvectors of b_k, the right factor vt being derived from them, or
    the other way round."""
    return (k == 1) != _gram(c, k)[1]


def _zero_floor(c: SimplicialComplex, k: int, lam: np.ndarray) -> float:
    """max(m, n) * eps * lambda_max for the m x n b_k, given the Gram
    eigenvalues ``lam`` in descending order: eigenvalues at or below it
    are rounding noise of zero ones."""
    if not lam.size:
        return 0.0
    size = max(c.num_simplices(k - 1), c.num_simplices(k))
    return size * np.finfo(float).eps * lam[0]


def _gram_values(c: SimplicialComplex, k: int) -> np.ndarray:
    lam = np.linalg.eigvalsh(_gram(c, k)[0].toarray())[::-1]
    lam = np.where(lam > _zero_floor(c, k, lam), lam, 0.0)
    lam.flags.writeable = False
    return lam


def _gram_svd(c: SimplicialComplex, k: int):
    b = _float_incidence(c, k)[0]
    # The Gram matrix taken is a a^T; its eigenvectors are the left
    # singular vectors of a.
    a = b if _eigen_left(c, k) else b.T
    lap = _gram(c, k)[0]
    lam, w = np.linalg.eigh(lap.toarray())
    lam, w = lam[::-1], np.ascontiguousarray(w[:, ::-1])
    rank = int(np.count_nonzero(lam > _zero_floor(c, k, lam)))
    s = np.zeros(lam.size)
    s[:rank] = np.sqrt(lam[:rank])
    derived = np.zeros((a.shape[1], lam.size))
    derived[:, :rank] = (a.T @ w[:, :rank]) * (1.0 / s[:rank])
    factors = (w, s, derived.T) if a is b else (derived, s, w.T)
    for f in factors:
        f.flags.writeable = False
    return factors


def _spectral_bound(c: SimplicialComplex) -> int:
    """An integer bound on lambda_max(L1), cached per complex: the largest
    absolute row sum of L0 and of L2 (Gershgorin), as lambda_max(L1) =
    max(lambda_max(L0), lambda_max(L2)). No matvec is taken."""
    return _cached(c, ("bound",), _row_sum_bound, c)


def _row_sum_bound(c: SimplicialComplex) -> int:
    sums = [abs(hodge_laplacian(c, k, sparse=True)).sum(axis=1)
            for k in (0, 2)]
    return int(max((s.max() for s in sums if s.size), default=0))


def _zero_tolerance(c: SimplicialComplex, tol: float | None) -> float:
    """The complex-wide zero threshold, unless overridden: 1e-10 times
    sqrt(:func:`_spectral_bound`), a bound on the largest singular value of
    b1 and b2, which is sqrt(lambda_max(L1)) as the ranges of b1^T and b2
    are orthogonal."""
    if tol is not None:
        return zero_tolerance(0.0, tol)
    return zero_tolerance(np.sqrt(_spectral_bound(c)))


def betti(c: SimplicialComplex, tol: float | None = None) -> tuple[int, int, int]:
    """Betti numbers (components, holes, cavities) = dim kernel(L_k).

    By default they are exact: beta0 counts the connected components,
    rank(b1) = n0 - beta0 and rank(b2) is the number of pivot columns of b2.
    An explicit ``tol`` counts the singular values of b1 and b2 at or below
    sqrt(tol) as zero instead.
    """
    r1, r2 = _rank(c, 1, tol), _rank(c, 2, tol)
    return (c.n0 - r1, c.n1 - r1 - r2, c.n2 - r2)


def _rank(c: SimplicialComplex, k: int, tol: float | None = None) -> int:
    """rank(b_k), k in {1, 2}: exact by default, n0 - beta0 for b1 and the
    pivot count for b2; with an explicit ``tol`` the number of singular
    values above sqrt(tol), read from the values-only spectrum."""
    if tol is None:
        return c.n0 - _components(c)[1] if k == 1 else _b2_pivots(c).size
    thr = _zero_tolerance(c, tol) ** 0.5
    return int(np.count_nonzero(np.sqrt(_incidence_values(c, k)) > thr))


# Prime modulus of the elimination that ranks b2. Columns independent mod
# p are independent over Q; the rank mod p falls short of the rank r over Q
# only if p divides every nonzero r x r minor of the +-1 matrix.
_PRIME = 2147483629


def _components(c: SimplicialComplex) -> tuple[np.ndarray, int]:
    """Connected-component label of every vertex, and their number."""
    return _cached(c, ("components",), _connected_components, c)


def _connected_components(c: SimplicialComplex) -> tuple[np.ndarray, int]:
    # Imported on first use, as splu in _Grounded: importing csgraph or
    # scipy.sparse.linalg takes about 0.14 s, which every CLI call would pay.
    from scipy.sparse.csgraph import connected_components

    tail, head = np.array(c.edges, dtype=np.int64).reshape(-1, 2).T
    graph = sp.csr_array((np.ones(c.n1), (tail, head)), shape=(c.n0, c.n0))
    count, labels = connected_components(graph, directed=False)
    return labels, int(count)


def _b2_pivots(c: SimplicialComplex) -> np.ndarray:
    """Columns of b2 independent of the columns before them: a basis of
    range(b2) taken from its own columns, by sparse column elimination over
    the integers mod _PRIME."""
    return _cached(c, ("pivots",), _eliminate, c.b2)


def _eliminate(b: sp.csr_array) -> np.ndarray:
    """The pivot columns of ``b``: those independent mod _PRIME of the
    columns before them. A column is reduced by the column that owns its
    lowest nonzero row until it claims a free row (a pivot) or vanishes.
    One reduction over the CSC indices gives every column's lowest row,
    so a column whose row is free is a pivot with no dict of entries
    built; a dict is built only for a column whose row collides, and for
    its owner while that is still an original column. Empty columns are
    not pivots."""
    csc = b.tocsc()
    indptr, indices = csc.indptr, csc.indices
    filled = np.flatnonzero(np.diff(indptr))
    lows = np.full(csc.shape[1], -1, dtype=np.int64)
    if filled.size:
        lows[filled] = np.maximum.reduceat(indices, indptr[filled])

    def entries(j: int) -> dict[int, int]:
        lo, hi = indptr[j], indptr[j + 1]
        return dict(zip(indices[lo:hi].tolist(),
                        (csc.data[lo:hi] % _PRIME).tolist()))

    owner: dict[int, int | dict[int, int]] = {}  # low row -> column
    pivots = []
    for j, low in enumerate(lows.tolist()):
        if low < 0:
            continue
        if low not in owner:
            owner[low] = j
            pivots.append(j)
            continue
        col = entries(j)
        while col:
            low = max(col)
            red = owner.get(low)
            if red is None:
                owner[low] = col
                pivots.append(j)
                break
            if isinstance(red, int):
                red = owner[low] = entries(red)
            f = col[low] * pow(red[low], -1, _PRIME) % _PRIME
            for r, v in red.items():
                v = (col.get(r, 0) - f * v) % _PRIME
                if v:
                    col[r] = v
                else:
                    del col[r]
    return np.array(pivots, dtype=np.int64)


class _Grounded:
    """Minimum-norm solves with a symmetric PSD matrix L = A^T A, given
    ``pivots``: columns of A that form a basis of its range.

    L restricted to the pivots is then symmetric positive definite and
    factored by one sparse LU. Each free column j (off the pivots) is
    A[:, pivots] z with L[pivots, pivots] z = L[pivots, j], so e_j - z is in
    ker(L); ``kernel`` is an orthonormal basis of those vectors by QR,
    unless given. A solution supported on the pivots, minus its kernel
    part, is the minimum-norm one. Methods take an (n,) vector or an (n, B)
    block.
    """

    def __init__(self, lap: sp.csr_array, pivots: np.ndarray,
                 kernel: np.ndarray | sp.csr_array | None = None):
        from scipy.sparse.linalg import splu

        n = lap.shape[0]
        self.pivots = pivots
        # A symmetric fill-reducing order and diagonal pivots suit the
        # symmetric positive definite restriction.
        self.lu = splu(sp.csc_array(lap[pivots][:, pivots]),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True}) \
            if pivots.size else None
        if kernel is None:
            free = np.setdiff1d(np.arange(n), pivots)
            null = np.zeros((n, free.size))
            null[free, np.arange(free.size)] = 1.0
            if self.lu is not None and free.size:
                null[pivots] = -self.lu.solve(lap[pivots][:, free].toarray())
            kernel = np.linalg.qr(null)[0]
        # The kernel and its transpose are stored as built: a transpose
        # taken per call cost more than the solve on small complexes.
        self.kernel, self.kernel_t = kernel, kernel.T.copy()

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto range(L)."""
        return x - self.kernel @ (self.kernel_t @ x)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^+ rhs for rhs in range(L)."""
        w = np.zeros(rhs.shape)
        if self.lu is not None:
            w[self.pivots] = self.lu.solve(rhs[self.pivots])
        return self.project(w)


class _Potential(_Grounded):
    """Minimum-norm solves with L = A^T A: L0 with A = b1^T (k=0) or L2
    with A = b2 (k=2), A mapping order-k potentials to edge flows.

    L0 grounds the first vertex of each component, whose kernel is the
    normalized component indicators; L2 keeps the pivot columns of b2.
    """

    def __init__(self, c: SimplicialComplex, k: int):
        b, b_t = _float_incidence(c, 1 if k == 0 else 2)
        self.a, self.a_t = (b_t, b) if k == 0 else (b, b_t)
        lap = hodge_laplacian(c, k, sparse=True)
        n = lap.shape[0]
        kernel = None
        if k == 0:
            labels, count = _components(c)
            free = np.unique(labels, return_index=True)[1]
            pivots = np.setdiff1d(np.arange(n), free)
            size = np.bincount(labels, minlength=count)
            kernel = sp.csr_array((1.0 / np.sqrt(size[labels]),
                                   (np.arange(n), labels)), shape=(n, count))
        else:
            pivots = _b2_pivots(c)
        super().__init__(lap, pivots, kernel)

    def flow_part(self, flow: np.ndarray):
        """The projection of edge flows onto range(A), and their
        minimum-norm potential w = L^+ A^T flow, with A w the projection."""
        w = self.solve(self.a_t @ flow)
        return self.a @ w, w

    def cochain_part(self, x: np.ndarray):
        """The projection of an order-k cochain onto range(L) = range(A^T),
        and its minimum-norm edge potential y = A L^+ x, with A^T y the
        projection."""
        part = self.project(x)
        return part, self.a @ self.solve(part)


def _potential(c: SimplicialComplex, k: int) -> _Potential:
    """The cached L0^+ (k=0) or L2^+ (k=2) solver of ``c``."""
    return _cached(c, ("potential", k), _Potential, c, k)


def _low_spectrum(c: SimplicialComplex, k: int, count: int):
    """The smallest nonzero singular triplets of b_k (k in {1, 2}) as
    ``(lam, u, v)``: lam ascending squared singular values, u and v the
    left and right singular vectors as columns, at least ``count`` of
    them; cached per complex and count. None when they cannot be had
    this way: b_k has at most count + 4 of them, or the eigensolver does
    not converge.

    They are the top eigenpairs of L^+ for L = L0 = b1 b1^T (k=1) or
    L2 = b2^T b2 (k=2), found by ``eigsh`` applying L^+ through the cached
    sparse LU of the topology core, so the kernel of L drops out. The
    edge-side vectors are derived as b1^T w / sigma or b2 w / sigma, and
    lam is the Rayleigh quotient ||b w||^2. The count grows until the cut
    falls in a gap wider than 1e-8 times :func:`_spectral_bound`, a bound on
    lambda_max(L1): a cluster of equal eigenvalues is kept whole.
    """
    return _cached(c, ("low", k, count), _partial_eigh, c, k, count)


def _partial_eigh(c: SimplicialComplex, k: int, count: int):
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    pot = _potential(c, 0 if k == 1 else 2)
    n = pot.a.shape[1]
    rank = n - pot.kernel.shape[1]
    gap = 1e-8 * _spectral_bound(c)
    pinv = LinearOperator((n, n), dtype=float,
                          matvec=lambda x: pot.solve(pot.project(x)))
    start = pot.project(np.random.default_rng(0).standard_normal(n))
    want = count + 4
    while want < rank:
        try:
            mu, w = eigsh(pinv, k=want, which="LA", tol=1e-12, v0=start)
        except ArpackNoConvergence:
            return None
        w = w[:, np.argsort(mu)[::-1]]
        edge = pot.a @ w
        lam = np.einsum("ij,ij->j", edge, edge)
        cuts = np.flatnonzero(np.diff(lam) > gap) + 1
        cuts = cuts[cuts >= count]
        if cuts.size:
            cut = cuts[0]
            edge = edge[:, :cut] / np.sqrt(lam[:cut])
            w = w[:, :cut]
            return (lam[:cut], w, edge) if k == 1 else (lam[:cut], edge, w)
        if want == rank - 1:
            return None
        want = min(2 * want, rank - 1)
    return None


def _check_bound(c: SimplicialComplex, x, name: str,
                 k: int | None = None) -> None:
    """Reject the parameter ``name``, a cochain, signal or basis ``x``,
    unless it belongs to ``c`` and, given ``k``, is of order k."""
    bound = getattr(x, "complex", None)
    if bound is None:
        raise ValueError(f"{name} must be bound to a complex, got "
                         f"{type(x).__name__}")
    if bound is not c:
        raise ValueError(f"{name} is bound to a different complex")
    if k is not None and x.order != k:
        raise ValueError(f"{name} must be of order {k}, got order {x.order}")


def divergence(c: SimplicialComplex, x1: Cochain) -> Cochain:
    """Net flow b1 @ x1 into each vertex."""
    _check_bound(c, x1, "x1", 1)
    return Cochain(c, 0, c.b1 @ x1.values)


def curl(c: SimplicialComplex, x1: Cochain) -> Cochain:
    """Circulation b2^T @ x1 around each triangle/cell."""
    _check_bound(c, x1, "x1", 1)
    return Cochain(c, 2, c.b2.T @ x1.values)


def dirac_shift(c: SimplicialComplex, x: ComplexSignal) -> ComplexSignal:
    """One application of the Dirac operator:
    (b1 x1, b1^T x0 + b2 x2, b2^T x1), as one product of the stacked
    signal with the sparse operator cached on the complex. The edge part
    sums both incidence terms row by row, so it matches the blockwise sum
    to rounding, not bit for bit."""
    _check_bound(c, x, "x")
    return ComplexSignal.from_stacked(c, _dirac_matrix(c) @ x.stacked())
