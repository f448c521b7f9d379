"""The exact sparse topology core: Betti numbers from connected components
and the pivot columns of b2, and the Hodge decomposition and gradient
projection by sparse LU factors of L0 and L2, with no SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgesp import (
    betti,
    build_complex,
    hodge_basis,
    hodge_decompose,
    infer_triangles,
    project_out_gradient,
)

from conftest import (
    EDGES7,
    TRIS7,
    complexes_with_cells,
    random_complex,
    tetrahedron_boundaries,
    union_find_components,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def dense_rank(b) -> int:
    a = b.toarray()
    return int(np.linalg.matrix_rank(a)) if a.size else 0


def assert_decompose_matches_svd_oracle(c, rng) -> None:
    """Parts and both potentials of the default decomposition equal those
    of the truncated-SVD path within 1e-10, for k = 0, 1, 2."""
    for k in (0, 1, 2):
        x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
        got = hodge_decompose(c, x)
        want = hodge_decompose(c, x, tol=1e-12)
        for name, g, w in zip(want._fields, got, want):
            if w is None:
                assert g is None, name
                continue
            err = np.max(np.abs(g.values - w.values), initial=0.0)
            assert err < 1e-10, (k, name, err)


@PROPERTY
@given(c=complexes_with_cells())
def test_betti_equals_dense_rank_counts(c):
    r1, r2 = dense_rank(c.b1), dense_rank(c.b2)
    assert betti(c) == (c.n0 - r1, c.n1 - r1 - r2, c.n2 - r2)
    assert betti(c)[0] == union_find_components(c.n0, c.edges)


@PROPERTY
@given(c=complexes_with_cells(), seed=SEEDS)
def test_decompose_matches_truncated_svd(c, seed):
    assert_decompose_matches_svd_oracle(c, np.random.default_rng(seed))


@pytest.mark.parametrize("copies", [1, 2])
def test_closed_surfaces(tetra_surface, two_tetra_surfaces, copies):
    c = tetra_surface if copies == 1 else two_tetra_surfaces
    assert betti(c) == (copies, 0, copies)
    assert [hodge_basis(c, k).n_harmonic for k in (0, 1, 2)] == \
        [copies, 0, copies]
    assert_decompose_matches_svd_oracle(c, np.random.default_rng(copies))
    # Each surface's 2-cycle alternates in sign over its ascending-oriented
    # triangles; the harmonic part is the projection onto these cycles.
    cycles = np.tile([-1.0, 1.0, -1.0, 1.0], (copies, 1))
    assert not (c.b2 @ cycles.ravel()).any()
    x = np.arange(c.n2, dtype=float).reshape(copies, 4)
    harmonic = hodge_decompose(c, c.cochain(2, x.ravel())).harmonic.values
    want = cycles * ((cycles * x).sum(1) / 4.0)[:, None]
    assert np.allclose(harmonic.reshape(copies, 4), want, atol=1e-12)


def test_degenerate_complexes():
    for c in (build_complex(0), build_complex(3),
              build_complex(4, [(0, 1), (2, 3)])):
        r1 = dense_rank(c.b1)
        assert betti(c) == (c.n0 - r1, c.n1 - r1, 0)
        assert_decompose_matches_svd_oracle(c, np.random.default_rng(0))


def test_core_paths_call_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(3)
    # Fresh complexes: nothing of theirs is cached yet.
    fresh = [build_complex(7, EDGES7, TRIS7), build_complex(7, EDGES7),
             tetrahedron_boundaries(2),
             random_complex(rng, max_vertices=12, with_cells=True)]
    for c in fresh:
        betti(c)
        for k in (0, 1, 2):
            hodge_decompose(c, c.cochain(k, rng.standard_normal(
                c.num_simplices(k))))
        flows = project_out_gradient(c, rng.standard_normal((c.n1, 3)))
        assert np.allclose(c.b1 @ flows, 0.0, atol=1e-10)
    chosen, _ = infer_triangles(build_complex(7, EDGES7),
                                rng.standard_normal((10, 4)), 2)
    assert len(chosen) == 2
