"""Convolutional filters, frequency responses, filterbanks, Dirac filters,
and regularized reconstruction."""

import numpy as np
import pytest

from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    apply_filter,
    build_complex,
    build_dictionary,
    dirac,
    dirac_basis,
    dirac_filter,
    filterbank_edge,
    frequency_response,
    hodge_basis,
    hodge_decompose,
    hodge_laplacian,
    lambda_max,
    regularized_reconstruct,
)

from conftest import EDGES7, TRIS7, random_complex


def random_spec(rng, t_down=3, t_up=3) -> HodgeFilterSpec:
    return HodgeFilterSpec(
        h_down=tuple(rng.uniform(-0.5, 0.5, rng.integers(1, t_down + 1))),
        h_up=tuple(rng.uniform(-0.5, 0.5, rng.integers(1, t_up + 1))),
    )


def dense_filter_matrix(c, k, spec):
    """Independent oracle: explicit matrix powers."""
    n = c.num_simplices(k)
    lap_down = hodge_laplacian(c, k, "down") if k > 0 else np.zeros((n, n))
    lap_up = hodge_laplacian(c, k, "up") if k < 2 else np.zeros((n, n))
    h = np.zeros((n, n))
    start = 1 if spec.harmonic is not None else 0
    for lap, coeffs in ((lap_down, spec.h_down), (lap_up, spec.h_up)):
        for t in range(start, len(coeffs)):
            h += coeffs[t] * np.linalg.matrix_power(lap, t)
    if spec.harmonic is not None:
        step = np.eye(n) - spec.harmonic.epsilon * (lap_down + lap_up)
        h += np.linalg.matrix_power(step, spec.harmonic.steps)
    return h


def test_identity_filter(complex7):
    rng = np.random.default_rng(0)
    x = complex7.cochain(1, rng.standard_normal(10))
    y = apply_filter(complex7, 1, HodgeFilterSpec.identity(), x)
    assert np.array_equal(y.values, x.values)


def test_harmonic_vector_gets_constant_gain(complex7):
    basis = hodge_basis(complex7, 1)
    h = complex7.cochain(1, basis.harmonic[:, 0])
    spec = HodgeFilterSpec(h_down=(0.7, 0.1, -0.3), h_up=(0.2, 0.4))
    y = apply_filter(complex7, 1, spec, h)
    assert np.allclose(y.values, (0.7 + 0.2) * h.values, atol=1e-12)


def test_matches_spectral_oracle(complex7):
    rng = np.random.default_rng(1)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    for _ in range(10):
        spec = random_spec(rng)
        x = complex7.cochain(1, rng.standard_normal(10))
        y = apply_filter(complex7, 1, spec, x)
        resp = frequency_response(complex7, 1, spec, basis)
        oracle = u @ (resp * (u.T @ x.values))
        denom = max(np.linalg.norm(oracle), 1e-30)
        assert np.linalg.norm(y.values - oracle) / denom < 1e-9
        # and against raw matrix powers
        mat = dense_filter_matrix(complex7, 1, spec)
        assert np.allclose(y.values, mat @ x.values, atol=1e-10)


def test_matches_oracle_orders_0_and_2(complex7):
    rng = np.random.default_rng(2)
    for k in (0, 2):
        basis = hodge_basis(complex7, k)
        u = basis.matrix()
        spec = random_spec(rng)
        x = complex7.cochain(k, rng.standard_normal(complex7.num_simplices(k)))
        y = apply_filter(complex7, k, spec, x)
        resp = frequency_response(complex7, k, spec, basis)
        assert np.allclose(y.values, u @ (resp * (u.T @ x.values)), atol=1e-9)


def test_matches_oracle_on_cell_fixture(cell7):
    rng = np.random.default_rng(15)
    for k in (0, 1, 2):
        basis = hodge_basis(cell7, k)
        u = basis.matrix()
        spec = random_spec(rng)
        x = cell7.cochain(k, rng.standard_normal(cell7.num_simplices(k)))
        y = apply_filter(cell7, k, spec, x)
        resp = frequency_response(cell7, k, spec, basis)
        assert np.allclose(y.values, u @ (resp * (u.T @ x.values)), atol=1e-9)


def test_frequency_response_values(complex7):
    basis = hodge_basis(complex7, 1)
    ident = frequency_response(complex7, 1, HodgeFilterSpec.identity(), basis)
    assert np.allclose(ident, 1.0)

    spec = HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0,))
    resp = frequency_response(complex7, 1, spec, basis)
    assert resp[0] == 0.0  # harmonic
    assert np.allclose(resp[1:7], basis.gradient_frequencies)
    assert np.allclose(resp[7:], 0.0)


def test_harmonic_projector_response(complex7):
    lam = lambda_max(complex7, 1)
    spec = HodgeFilterSpec(
        h_down=(0.0,), h_up=(0.0,),
        harmonic=HarmonicTerm(epsilon=1.0 / lam, steps=200),
    )
    basis = hodge_basis(complex7, 1)
    resp = frequency_response(complex7, 1, spec, basis)
    assert resp[0] == 1.0
    assert np.max(np.abs(resp[1:])) < 1e-6

    rng = np.random.default_rng(3)
    x = complex7.cochain(1, rng.standard_normal(10))
    y = apply_filter(complex7, 1, spec, x)
    harm = hodge_decompose(complex7, x).harmonic.values
    assert np.linalg.norm(y.values - harm) < 1e-6


def test_harmonic_spec_validation(complex7):
    with pytest.raises(ValueError, match="start at t=1"):
        HodgeFilterSpec(h_down=(1.0,), h_up=(0.0,),
                        harmonic=HarmonicTerm(0.1, 5))
    spec = HodgeFilterSpec(h_down=(0.0, 0.2), h_up=(0.0,),
                           harmonic=HarmonicTerm(epsilon=10.0, steps=5))
    x = complex7.zero_cochain(1)
    with pytest.raises(ValueError, match="stability range"):
        apply_filter(complex7, 1, spec, x)


def test_linearity_and_shift_invariance(complex7):
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    lap = hodge_laplacian(complex7, 1)
    x = complex7.cochain(1, rng.standard_normal(10))
    y = complex7.cochain(1, rng.standard_normal(10))
    a, b = 1.7, -0.4
    combo = apply_filter(complex7, 1, spec,
                         complex7.cochain(1, a * x.values + b * y.values))
    split = (a * apply_filter(complex7, 1, spec, x).values
             + b * apply_filter(complex7, 1, spec, y).values)
    assert np.allclose(combo.values, split, atol=1e-12)

    shifted = apply_filter(complex7, 1, spec,
                           complex7.cochain(1, lap @ x.values))
    filtered = lap @ apply_filter(complex7, 1, spec, x).values
    assert np.allclose(shifted.values, filtered, atol=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    perm = rng.permutation(7)
    edges_p = [tuple(perm[list(e)]) for e in EDGES7]
    tris_p = [tuple(perm[list(t)]) for t in TRIS7]
    c = build_complex(7, EDGES7, TRIS7)
    cp = build_complex(7, edges_p, tris_p)

    # edge correspondence via sorted endpoint tuples
    edge_map = [cp.edge_index(*sorted((perm[u], perm[v])))
                for u, v in c.edges]
    # an edge flips orientation when the permutation reverses its endpoints
    signs = np.array([1.0 if perm[u] < perm[v] else -1.0 for u, v in c.edges])

    # integer data: every float op is exact, so equivariance is bitwise
    int_spec = HodgeFilterSpec(h_down=(1.0, -2.0, 1.0), h_up=(0.0, 3.0))
    x = rng.integers(-5, 6, size=10).astype(float)
    y = apply_filter(c, 1, int_spec, c.cochain(1, x)).values
    xp = np.zeros(10)
    xp[edge_map] = signs * x
    yp = apply_filter(cp, 1, int_spec, cp.cochain(1, xp)).values
    assert np.array_equal(yp[edge_map], signs * y)

    # float data: equivariant to rounding error
    spec = random_spec(rng)
    x = rng.standard_normal(10)
    y = apply_filter(c, 1, spec, c.cochain(1, x)).values
    xp = np.zeros(10)
    xp[edge_map] = signs * x
    yp = apply_filter(cp, 1, spec, cp.cochain(1, xp)).values
    assert np.allclose(yp[edge_map], signs * y, atol=1e-12)


def test_filterbank_reduces_and_validates(complex7):
    rng = np.random.default_rng(6)
    spec11 = random_spec(rng)
    spec01 = HodgeFilterSpec(h_down=(0.5, 0.2), h_up=(0.0,))
    spec21 = HodgeFilterSpec(h_down=(0.0,), h_up=(0.3, -0.1))

    x1 = complex7.cochain(1, rng.standard_normal(10))
    sig = ComplexSignal(complex7.zero_cochain(0), x1, complex7.zero_cochain(2))
    y = filterbank_edge(complex7, spec11, spec01, spec21, sig)
    assert np.allclose(y.values, apply_filter(complex7, 1, spec11, x1).values)

    x0 = complex7.cochain(0, rng.standard_normal(7))
    sig = ComplexSignal(x0, complex7.zero_cochain(1), complex7.zero_cochain(2))
    y = filterbank_edge(complex7, HodgeFilterSpec(), HodgeFilterSpec.identity(),
                        spec21, sig)
    assert np.allclose(y.values, complex7.b1.T @ x0.values)

    with pytest.raises(ValueError, match="only h_down"):
        filterbank_edge(complex7, spec11, spec21, spec21, sig)
    with pytest.raises(ValueError, match="only h_up"):
        filterbank_edge(complex7, spec11, spec01, spec01, sig)


def test_filterbank_node_branch_is_curl_free(complex7):
    rng = np.random.default_rng(7)
    sig = ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), np.zeros(10), np.zeros(3))
    spec01 = HodgeFilterSpec(h_down=tuple(rng.uniform(-0.5, 0.5, 3)),
                             h_up=(0.0,))
    y = filterbank_edge(complex7, HodgeFilterSpec(), spec01,
                        HodgeFilterSpec(), sig)
    parts = hodge_decompose(complex7, y)
    assert np.linalg.norm(parts.curl.values) <= 1e-10
    assert np.linalg.norm(parts.harmonic.values) <= 1e-10


def test_dirac_filter(complex7):
    rng = np.random.default_rng(8)
    sig = ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3)
    )
    ident = HodgeFilterSpec(h_down=(1.0,), h_up=(0.0,))
    y = dirac_filter(complex7, ident, sig)
    assert np.allclose(y.stacked(), sig.stacked())

    square = HodgeFilterSpec(h_down=(0.0, 0.0, 1.0), h_up=(0.0,))
    y = dirac_filter(complex7, square, sig)
    for k in (0, 1, 2):
        lap = hodge_laplacian(complex7, k)
        assert np.allclose(getattr(y, f"x{k}").values,
                           lap @ getattr(sig, f"x{k}").values, atol=1e-10)

    h = tuple(rng.uniform(-0.5, 0.5, 4))
    spec = HodgeFilterSpec(h_down=h, h_up=(0.0,))
    y = dirac_filter(complex7, spec, sig)
    basis = dirac_basis(complex7)
    u, lam = basis.matrix(), basis.eigenvalues()
    resp = sum(h[t] * lam**t for t in range(len(h)))
    oracle = u @ (resp * (u.T @ sig.stacked()))
    assert np.linalg.norm(y.stacked() - oracle) / np.linalg.norm(oracle) < 1e-9

    # random complexes with cells, and one without triangles (n2 = 0),
    # against the polynomial in the dense Dirac matrix
    comps = [random_complex(rng, max_vertices=12, with_cells=True)
             for _ in range(4)] + [build_complex(7, EDGES7)]
    assert comps[-1].n2 == 0
    for c in comps:
        z = ComplexSignal.from_arrays(
            c, rng.standard_normal(c.n0), rng.standard_normal(c.n1),
            rng.standard_normal(c.n2))
        d = dirac(c).full
        oracle = sum(h[t] * np.linalg.matrix_power(d, t)
                     for t in range(len(h))) @ z.stacked()
        assert np.allclose(dirac_filter(c, spec, z).stacked(), oracle,
                           atol=1e-9)

    with pytest.raises(ValueError, match="only h_down"):
        dirac_filter(complex7, HodgeFilterSpec(h_down=(1.0,), h_up=(1.0,)), sig)


def test_reconstruct_full_mask_no_penalty(complex7):
    rng = np.random.default_rng(9)
    f = complex7.cochain(1, rng.standard_normal(10))
    x = regularized_reconstruct(complex7, f, np.ones(10, bool), 0.0, 0.0)
    assert np.allclose(x.values, f.values)


def test_reconstruct_shrinks_only_gradient(complex7):
    rng = np.random.default_rng(10)
    f = complex7.cochain(1, complex7.b1.T @ rng.standard_normal(7))
    alpha = 0.15
    x = regularized_reconstruct(complex7, f, np.ones(10, bool), alpha, 0.0)
    parts = hodge_decompose(complex7, x)
    assert np.linalg.norm(parts.curl.values) < 1e-9
    assert np.linalg.norm(parts.harmonic.values) < 1e-9
    # per-frequency shrinkage 1/(1 + alpha*lambda) on the gradient block
    basis = hodge_basis(complex7, 1)
    coef_in = basis.gradient.T @ f.values
    coef_out = basis.gradient.T @ x.values
    expected = coef_in / (1.0 + alpha * basis.gradient_frequencies)
    assert np.allclose(coef_out, expected, atol=1e-9)


def test_reconstruct_harmonic_masked_monte_carlo(complex7):
    rng = np.random.default_rng(11)
    basis = hodge_basis(complex7, 1)
    x_star = basis.harmonic[:, 0]
    failures = 0
    for _ in range(20):
        mask = np.zeros(10, bool)
        mask[rng.choice(10, size=6, replace=False)] = True
        f = complex7.cochain(1, np.where(mask, x_star, 0.0))
        x = regularized_reconstruct(complex7, f, mask, 0.5, 0.5)
        if np.linalg.norm(x.values - x_star) / np.linalg.norm(x_star) >= 0.05:
            failures += 1
    assert failures == 0


def test_reconstruct_first_order_optimality(complex7):
    rng = np.random.default_rng(12)
    f = complex7.cochain(1, rng.standard_normal(10))
    mask = rng.random(10) > 0.4
    alpha, beta = 0.3, 0.2
    x = regularized_reconstruct(complex7, f, mask, alpha, beta)
    grad = (2 * mask * (x.values - f.values)
            + 2 * alpha * hodge_laplacian(complex7, 1, "down") @ x.values
            + 2 * beta * hodge_laplacian(complex7, 1, "up") @ x.values)
    assert np.linalg.norm(grad) <= 1e-8


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (1, 1)])
def test_reconstruct_l1_matches_cvxpy(complex7, p, q):
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(13 + 10 * p + q)
    f = rng.standard_normal(10)
    mask = rng.random(10) > 0.3
    alpha, beta = 0.4, 0.25
    b1 = complex7.b1.toarray().astype(float)
    b2t = complex7.b2.toarray().astype(float).T

    xv = cp.Variable(10)
    obj = cp.sum_squares(cp.multiply(mask.astype(float), f - xv))
    obj += alpha * (cp.norm1(b1 @ xv) if p == 1 else cp.sum_squares(b1 @ xv))
    obj += beta * (cp.norm1(b2t @ xv) if q == 1 else cp.sum_squares(b2t @ xv))
    problem = cp.Problem(cp.Minimize(obj))
    problem.solve()

    ours = regularized_reconstruct(complex7, complex7.cochain(1, f), mask,
                                   alpha, beta, p=p, q=q)

    def objective(vals):
        v = float(((f - vals)[mask] ** 2).sum())
        d = b1 @ vals
        v += alpha * (np.abs(d).sum() if p == 1 else float(d @ d))
        cu = b2t @ vals
        v += beta * (np.abs(cu).sum() if q == 1 else float(cu @ cu))
        return v

    assert objective(ours.values) <= problem.value + 1e-5


def test_reconstruct_validation(complex7):
    f = complex7.zero_cochain(1)
    with pytest.raises(ValueError):
        regularized_reconstruct(complex7, f, np.ones(9, bool), 0.1, 0.1)
    with pytest.raises(ValueError):
        regularized_reconstruct(complex7, f, np.ones(10, bool), -1.0, 0.0)
    with pytest.raises(ValueError):
        regularized_reconstruct(complex7, f, np.ones(10, bool), 0.1, 0.1, p=3)


def test_lambda_max_cached_per_rtol():
    c = build_complex(7, EDGES7, TRIS7)
    assert lambda_max(c, 1, rtol=0.5) < 6.0  # stops early, far from 7
    assert abs(lambda_max(c, 1) - 7.0) < 1e-4


def test_reconstruct_rejects_nonfinite_weights(complex7):
    f = complex7.cochain(1, np.ones(10))
    mask = np.ones(10, dtype=bool)
    for name, weights in (("alpha", (np.nan, 1.0)), ("alpha", (np.inf, 1.0)),
                          ("beta", (1.0, np.nan)), ("beta", (1.0, -np.inf))):
        for p in (1, 2):
            with pytest.raises(ValueError, match=name):
                regularized_reconstruct(complex7, f, mask, *weights, p=p)


def test_filter_on_random_complexes():
    rng = np.random.default_rng(14)
    for i in range(6):
        c = random_complex(rng, max_vertices=12, with_cells=(i % 2 == 0))
        for k in (0, 1, 2):
            nk = c.num_simplices(k)
            if nk == 0:
                continue
            spec = random_spec(rng)
            x = c.cochain(k, rng.standard_normal(nk))
            y = apply_filter(c, k, spec, x)
            mat = dense_filter_matrix(c, k, spec)
            assert np.allclose(y.values, mat @ x.values, atol=1e-9)
            atoms = build_dictionary(c, k, [spec]).atoms
            assert np.allclose(atoms, mat, atol=1e-9)
