"""Shared fixtures: the 7-vertex reference complex (one open 3-cycle, so one
hole), its cell-complex variant with a quadrilateral, closed surfaces (one
and two tetrahedron boundaries, so one and two cavities), and random
complex generators for property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from hodgesp import SimplicialComplex, build_complex

# 7 vertices, 10 edges, 3 filled triangles; the 3-cycle {0, 2, 6} stays
# open, giving Betti numbers (1, 1, 0).
EDGES7 = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
          (1, 2), (1, 3), (2, 6), (4, 5)]
TRIS7 = [(0, 1, 2), (0, 1, 3), (0, 4, 5)]
HOLE_CYCLE_EDGES = (1, 5, 8)  # canonical indices of (0,2), (0,6), (2,6)


@pytest.fixture(scope="session")
def complex7() -> SimplicialComplex:
    return build_complex(7, EDGES7, TRIS7)


@pytest.fixture(scope="session")
def skeleton7() -> SimplicialComplex:
    """Same graph, no triangles filled."""
    return build_complex(7, EDGES7)


@pytest.fixture(scope="session")
def cell7() -> SimplicialComplex:
    """Cell-complex variant: edge (0, 2) removed, two triangles, and the
    quadrilateral 0-1-2-6 (whose diagonals are absent)."""
    edges = [e for e in EDGES7 if e != (0, 2)]
    return build_complex(7, edges, [(0, 1, 3), (0, 4, 5)],
                         cells=[(0, 1, 2, 6)])


def tetrahedron_boundaries(copies: int) -> SimplicialComplex:
    """``copies`` disjoint tetrahedron boundaries: closed surfaces with
    Betti numbers (copies, 0, copies)."""
    edges, triangles = [], []
    for first in range(0, 4 * copies, 4):
        quad = range(first, first + 4)
        edges += [(u, v) for u in quad for v in quad if u < v]
        triangles += [(u, v, w) for u in quad for v in quad for w in quad
                      if u < v < w]
    return build_complex(4 * copies, edges, triangles)


@pytest.fixture(scope="session")
def tetra_surface() -> SimplicialComplex:
    return tetrahedron_boundaries(1)


@pytest.fixture(scope="session")
def two_tetra_surfaces() -> SimplicialComplex:
    return tetrahedron_boundaries(2)


def random_complex(rng: np.random.Generator, max_vertices: int = 30,
                   with_cells: bool = False) -> SimplicialComplex:
    """Random inclusive complex: random graph, random subset of 3-cliques
    filled, optionally a few 4-cycles as polygon cells."""
    n = int(rng.integers(3, max_vertices + 1))
    p = rng.uniform(0.2, 0.6)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    edge_set = set(edges)
    cliques = [(i, j, k)
               for i, j in edges
               for k in range(j + 1, n)
               if (i, k) in edge_set and (j, k) in edge_set]
    triangles = [t for t in cliques if rng.random() < 0.5]
    cells = []
    if with_cells:
        adjacency = {v: set() for v in range(n)}
        for i, j in edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = set()
        for a in range(n):
            for b in sorted(adjacency[a]):
                for d in sorted(adjacency[a]):
                    if d <= b:
                        continue
                    for mid in sorted(adjacency[b] & adjacency[d]):
                        if mid == a:
                            continue
                        key = frozenset((a, b, mid, d))
                        if key in seen:
                            continue
                        seen.add(key)
                        if rng.random() < 0.15:
                            cells.append((a, b, mid, d))
            if len(cells) >= 3:
                break
    return build_complex(n, edges, triangles, cells)


@st.composite
def complexes_with_cells(draw) -> SimplicialComplex:
    """Hypothesis strategy: a random complex of up to 12 vertices with
    polygon cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_complex(rng, max_vertices=12, with_cells=True)


def union_find_components(num_vertices: int, edges) -> int:
    """Independent connected-components oracle."""
    parent = list(range(num_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(num_vertices)})


def triangulated_grid(m: int, holes=(), centers: bool = False
                      ) -> SimplicialComplex:
    """An m x m grid of vertices. Each unit square, named by its corner
    (i, j) with the smallest index, is filled with two triangles along its
    diagonal, or with ``centers`` with four triangles around a vertex of
    its own; the squares in ``holes`` keep their edges but no triangle, so
    each leaves one hole (two along a diagonal)."""
    holes = set(holes)
    edges = [(i * m + j, i * m + j + 1) for i in range(m)
             for j in range(m - 1)]
    edges += [(i * m + j, i * m + m + j) for i in range(m - 1)
              for j in range(m)]
    triangles = []
    n = m * m
    for i in range(m - 1):
        for j in range(m - 1):
            a, b = i * m + j, i * m + j + 1
            c, d = a + m, b + m
            if not centers:
                edges.append((a, d))
                if (i, j) not in holes:
                    triangles += [(a, b, d), (a, c, d)]
            elif (i, j) not in holes:
                edges += [(v, n) for v in (a, b, c, d)]
                triangles += [(a, b, n), (b, d, n), (c, d, n), (a, c, n)]
                n += 1
    return build_complex(n, edges, triangles)
