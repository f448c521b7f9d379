"""The per-complex spectral core: one cached SVD each of b1 and b2, one
complex-wide zero tolerance, and every consumer derived from them."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
from hodgesp import (
    betti,
    build_complex,
    dirac,
    dirac_basis,
    hodge_basis,
    hodge_decompose,
    hodge_laplacian,
    incidence,
    infer_triangles,
    is_perfectly_recoverable,
    lambda_max,
    project_out_gradient,
    reconstruct_bandlimited,
    select_samples,
    slepians,
)

from conftest import EDGES7, TRIS7, random_complex

PROPERTY = settings(max_examples=30, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
# The default, an override below every nonzero singular value of these
# small complexes, and overrides that declare part or all of the spectrum
# zero.
TOLS = st.sampled_from([None, 1e-6, 0.5, 3.0, 100.0])


@st.composite
def complexes(draw):
    rng = np.random.default_rng(draw(SEEDS))
    return random_complex(rng, max_vertices=12, with_cells=draw(st.booleans()))


@PROPERTY
@given(c=complexes(), tol=TOLS)
def test_harmonic_width_is_betti(c, tol):
    b = betti(c, tol)
    for k in (0, 1, 2):
        assert hodge_basis(c, k, tol).n_harmonic == b[k]


@PROPERTY
@given(c=complexes(), tol=TOLS)
def test_blocks_orthonormal_and_mutually_orthogonal(c, tol):
    for k in (0, 1, 2):
        u = hodge_basis(c, k, tol).matrix()
        nk = c.num_simplices(k)
        assert u.shape == (nk, nk)
        assert np.max(np.abs(u.T @ u - np.eye(nk)), initial=0.0) < 1e-10


@PROPERTY
@given(c=complexes(), tol=TOLS, seed=SEEDS)
def test_decompose_parts_are_block_projections(c, tol, seed):
    rng = np.random.default_rng(seed)
    for k in (0, 1, 2):
        x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
        basis = hodge_basis(c, k, tol)
        parts = hodge_decompose(c, x, tol)
        for block, part in ((basis.gradient, parts.gradient),
                            (basis.curl, parts.curl),
                            (basis.harmonic, parts.harmonic)):
            assert np.allclose(part.values, block @ (block.T @ x.values),
                               atol=1e-9)
        if k >= 1:
            assert np.allclose(
                incidence(c, k).T @ parts.lower_potential.values,
                parts.gradient.values, atol=1e-9)
        if k <= 1:
            assert np.allclose(
                incidence(c, k + 1) @ parts.upper_potential.values,
                parts.curl.values, atol=1e-9)


@PROPERTY
@given(c=complexes(), tol=TOLS)
def test_dirac_basis_eigen_relation(c, tol):
    basis = dirac_basis(c, tol)
    q = basis.matrix()
    lam = basis.eigenvalues()
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1])), initial=0.0) < 1e-10
    assert basis.harmonic.shape[1] == sum(betti(c, tol))
    # A tolerance that declares nonzero singular values zero moves their
    # pairs into the harmonic block, which then leaves the kernel of D.
    cols = slice(None) if betti(c, tol) == betti(c) else \
        slice(basis.harmonic.shape[1], None)
    d = dirac(c).full
    assert np.linalg.norm(d @ q[:, cols] - q[:, cols] * lam[cols]) < 1e-9


def test_incidence_svds_computed_once_per_complex(monkeypatch):
    c = build_complex(7, EDGES7, TRIS7)  # fresh: nothing cached yet
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(0)
    for tol in (None, 2.5):
        for k in (0, 1, 2):
            hodge_basis(c, k, tol)
            x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
            hodge_decompose(c, x, tol)
        dirac_basis(c, tol)
        betti(c, tol)
        project_out_gradient(c, rng.standard_normal((c.n1, 3)), tol)
        infer_triangles(c, rng.standard_normal((c.n1, 3)), 2, tol=tol)
    assert shapes == [(c.n0, c.n1), (c.n1, c.n2)]


def test_cached_factors_are_read_only(complex7):
    for k in (1, 2):
        factors = hc._incidence_svd(complex7, k)
        assert factors is hc._incidence_svd(complex7, k)
        for a in factors:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_cache_entry_goes_with_its_complex():
    c = build_complex(7, EDGES7, TRIS7)
    hodge_basis(c, 1)
    hodge_laplacian(c, 1, sparse=True)
    lambda_max(c, 1)
    assert c in hc._cache
    ref = weakref.ref(c)
    size = len(hc._cache)
    del c
    gc.collect()
    assert ref() is None
    assert len(hc._cache) < size


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_bad_tolerance_rejected_naming_tol(complex7, tol):
    # 0 counted b1's rounding-level null singular value as rank and a
    # negative tol compared against a complex square root: betti returned
    # (0, 0, 0) for both instead of (1, 1, 0)
    x = complex7.cochain(1, np.ones(10))
    calls = [
        lambda: betti(complex7, tol),
        lambda: hodge_basis(complex7, 1, tol),
        lambda: hodge_decompose(complex7, x, tol=tol),
        lambda: dirac_basis(complex7, tol),
        lambda: project_out_gradient(complex7, np.ones((10, 2)), tol),
        lambda: infer_triangles(build_complex(7, EDGES7), np.ones((10, 2)),
                                1, tol=tol),
        lambda: select_samples(complex7, 1, [0, 1], 2,
                               basis=hodge_basis(complex7, 1), tol=tol),
        # With a basis given these never needed tol and accepted any value.
        lambda: select_samples(complex7, 1, [0, 1, 2], 1,
                               basis=hodge_basis(complex7, 1), tol=tol),
        lambda: slepians(complex7, [0, 1], [0, 1],
                         basis=hodge_basis(complex7, 1), tol=tol),
        lambda: is_perfectly_recoverable(complex7, 1, [0, 1], [0, 1],
                                         basis=hodge_basis(complex7, 1),
                                         tol=tol),
        lambda: reconstruct_bandlimited(complex7, 1, [0, 1], [0, 1],
                                        [0.0, 0.0],
                                        basis=hodge_basis(complex7, 1),
                                        tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol"):
            call()
