"""Build a small complex and look at its algebra.

The running example throughout these demos: 7 vertices, 10 edges, 3 filled
triangles. The 3-cycle over vertices {1, 3, 7} (file numbering) is left
unfilled, so the complex has one hole. The incidence matrices b1 (vertices x
edges) and b2 (edges x triangles) carry the whole structure: b1 b1^T is the
graph Laplacian, b1^T b1 + b2 b2^T the edge Laplacian, b2^T b2 the triangle
Laplacian, and the kernels of those three count components, holes, and
cavities.
"""

from pathlib import Path

import numpy as np
import scipy.linalg

import hodgesp.io as hio
from hodgesp import betti, dirac, hodge_laplacian, incidence

here = Path(__file__).parent
c = hio.load_complex(here / "data" / "complex7.json")
print(f"complex: {c.n0} vertices, {c.n1} edges, {c.n2} triangles")
print("edges (0-based):", c.edges)

b1 = incidence(c, 1, dense=True)
b2 = incidence(c, 2, dense=True)
print("\nb1 (each column: -1 at the tail, +1 at the head):")
print(b1.astype(int))
print("\nb2 (each column: one triangle's oriented boundary):")
print(b2.astype(int))
print("\nboundary of boundary: ||b1 b2|| =", np.abs(b1 @ b2).max())

l1 = hodge_laplacian(c, 1)
print("\nedge Laplacian diagonal (2 endpoints + #triangles on the edge):")
print(np.diag(l1).astype(int))

d = dirac(c).full  # sparse
blocks = [hodge_laplacian(c, k) for k in (0, 1, 2)]
dim = sum(b.shape[0] for b in blocks)
gap = np.abs((d @ d).toarray() - scipy.linalg.block_diag(*blocks)).max()
print(f"\nDirac operator is {dim} x {dim} with {d.nnz} nonzeros; its square "
      f"stacks the Laplacians (max deviation {gap:g}).")

print("\nBetti numbers (components, holes, cavities):", betti(c))
print("the single hole is the unfilled 3-cycle over vertices {1, 3, 7}")
