"""Regularized edge-flow reconstruction: the quadratic path against the
dense minimum-norm solution, and the l1 paths against their optimality
conditions (a certificate that needs no third-party solver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

import hodgesp.filters as hf
from hodgesp import (
    ConvergenceWarning,
    build_complex,
    hodge_basis,
    regularized_reconstruct,
)

from conftest import EDGES7, TRIS7, random_complex

PROPERTY = settings(max_examples=40, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
WEIGHTS = st.sampled_from([0.0, 0.3, 1.0, 2.5])


def dense_system(c, mask, alpha, beta):
    b1 = c.b1.toarray().astype(float)
    b2 = c.b2.toarray().astype(float)
    return np.diag(mask.astype(float)) + alpha * b1.T @ b1 + beta * b2 @ b2.T


def harmonic_unobserved_mask(c, rng):
    """A random mask that leaves the support of one harmonic flow h
    unobserved, so A h = 0 and the system is singular; None when the
    complex has no hole."""
    harm = hodge_basis(c, 1).harmonic
    if harm.shape[1] == 0:
        return None, None
    h = harm[:, rng.integers(harm.shape[1])]
    return (rng.random(c.n1) < 0.7) & (np.abs(h) < 1e-9), h


@PROPERTY
@given(seed=SEEDS, mask_kind=st.sampled_from(["random", "none", "hole"]),
       alpha=WEIGHTS, beta=WEIGHTS)
def test_l2_is_the_minimum_norm_solution(seed, mask_kind, alpha, beta):
    rng = np.random.default_rng(seed)
    c = random_complex(rng, max_vertices=12, with_cells=True)
    if c.n1 == 0:
        return
    mask = rng.random(c.n1) < 0.6
    if mask_kind == "none":
        mask = np.zeros(c.n1, bool)
    a = dense_system(c, mask, alpha, beta)
    if mask_kind == "hole":
        hole_mask, h = harmonic_unobserved_mask(c, rng)
        if hole_mask is not None:
            mask = hole_mask
            a = dense_system(c, mask, alpha, beta)
            assert np.linalg.norm(a @ h) < 1e-9  # singular system
    f = rng.standard_normal(c.n1)
    rhs = mask * f
    x = regularized_reconstruct(c, c.cochain(1, f), mask, alpha, beta).values
    want = np.linalg.pinv(a) @ rhs
    assert np.linalg.norm(x - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(a @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_l2_singular_grid_matches_pseudo_inverse():
    # A triangulated 6x6 grid with two unfilled squares (two holes), whose
    # mask leaves one harmonic flow unobserved.
    m = 6
    rng = np.random.default_rng(21)
    edges, tris = [], []
    for i in range(m):
        for j in range(m):
            v = i * m + j
            if j + 1 < m:
                edges.append((v, v + 1))
            if i + 1 < m:
                edges.append((v, v + m))
            if i + 1 < m and j + 1 < m:
                edges.append((v, v + m + 1))
                if (i, j) not in ((1, 1), (3, 3)):
                    tris += [(v, v + 1, v + m + 1), (v, v + m, v + m + 1)]
    c = build_complex(m * m, edges, tris)
    mask, h = harmonic_unobserved_mask(c, rng)
    a = dense_system(c, mask, 0.5, 0.5)
    assert np.linalg.norm(a @ h) < 1e-9
    f = rng.standard_normal(c.n1)
    x = regularized_reconstruct(c, c.cochain(1, f), mask, 0.5, 0.5).values
    want = np.linalg.pinv(a) @ (mask * f)
    assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)
    assert abs(x @ h) < 1e-8  # no component along the unobserved hole


def test_l2_uses_no_dense_solve(complex7, monkeypatch):
    lstsq_calls, dense_laplacians = [], []
    real_lstsq, real_laplacian = np.linalg.lstsq, hf.hodge_laplacian

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return real_lstsq(*args, **kwargs)

    def recording_laplacian(c, k, variant="full", sparse=False):
        if not sparse:
            dense_laplacians.append((k, variant))
        return real_laplacian(c, k, variant, sparse=sparse)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(hf, "hodge_laplacian", recording_laplacian)
    rng = np.random.default_rng(22)
    for c in (complex7, random_complex(rng, max_vertices=12, with_cells=True)):
        f = c.cochain(1, rng.standard_normal(c.n1))
        regularized_reconstruct(c, f, rng.random(c.n1) < 0.6, 0.5, 0.5)
    assert lstsq_calls == []
    assert dense_laplacians == []


def test_l2_iteration_cap_warns_with_residual(complex7):
    f = complex7.cochain(1, np.arange(10.0))
    mask = np.ones(10, bool)
    with pytest.warns(ConvergenceWarning,
                      match=r"relative residual \d\.\d+e[-+]\d+ after 1 "):
        regularized_reconstruct(complex7, f, mask, 0.5, 0.5, max_iter=1)


def l1_certificate(c, f, mask, alpha, beta, p, q, x) -> float:
    """Smallest stationarity residual ||grad + K^T y|| over duals y with
    |y| <= weight and y = weight * sign(K x) where K x is nonzero, relative
    to max(1, ||f||). K stacks b1 (weight alpha) when p = 1 and b2^T
    (weight beta) when q = 1; grad is the gradient of the smooth part."""
    b1 = c.b1.toarray().astype(float)
    b2t = c.b2.toarray().astype(float).T
    grad = 2 * mask * (x - f)
    if p == 2:
        grad += 2 * alpha * b1.T @ (b1 @ x)
    if q == 2:
        grad += 2 * beta * b2t.T @ (b2t @ x)
    k_op = np.vstack([b1] * (p == 1) + [b2t] * (q == 1))
    weight = np.concatenate([np.full(b1.shape[0], alpha)] * (p == 1)
                            + [np.full(b2t.shape[0], beta)] * (q == 1))
    scale = max(1.0, float(np.linalg.norm(f)))
    kx = k_op @ x
    active = np.abs(kx) > 1e-6 * scale
    y = np.where(active, weight * np.sign(kx), 0.0)
    free = ~active & (weight > 0)
    if free.any():
        target = -grad - k_op[~free].T @ y[~free]
        y[free] = lsq_linear(k_op[free].T, target,
                             bounds=(-weight[free], weight[free])).x
    return float(np.linalg.norm(grad + k_op.T @ y)) / scale


L1_CASES = [(p, q, i) for p, q in [(1, 2), (2, 1), (1, 1)] for i in range(5)]


def filled_random_complex(rng):
    """A random complex with cells and at least 8 edges and 2 faces."""
    while True:
        c = random_complex(rng, max_vertices=12, with_cells=True)
        if c.n1 >= 8 and c.n2 >= 2:
            return c


@pytest.mark.parametrize("p,q,case", L1_CASES)
def test_l1_optimality_certificate(p, q, case):
    rng = np.random.default_rng(100 * case + 10 * p + q)
    c = (build_complex(7, EDGES7, TRIS7) if case == 0
         else filled_random_complex(rng))
    f = rng.standard_normal(c.n1)
    mask = rng.random(c.n1) > 0.3
    alpha, beta = 0.4, 0.25
    x = regularized_reconstruct(c, c.cochain(1, f), mask, alpha, beta,
                                p=p, q=q).values
    assert l1_certificate(c, f, mask, alpha, beta, p, q, x) < 1e-5
    # The certificate rejects a slightly scaled solution and the solution
    # of other weights.
    assert l1_certificate(c, f, mask, alpha, beta, p, q, 1.001 * x) > 1e-4
    other = regularized_reconstruct(c, c.cochain(1, f), mask, 0.9 * alpha,
                                    0.9 * beta, p=p, q=q).values
    assert l1_certificate(c, f, mask, alpha, beta, p, q, other) > 1e-4
