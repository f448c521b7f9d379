"""Typed spectral bases, Fourier transforms, decomposition, and the Dirac
eigenbasis."""

import numpy as np
import pytest

from hodgesp import (
    build_complex,
    dirac,
    dirac_basis,
    dirac_itft,
    dirac_tft,
    frequency_table,
    hodge_basis,
    hodge_decompose,
    hodge_laplacian,
    incidence,
    itft,
    tft,
    ComplexSignal,
)

from conftest import random_complex


def test_reference_block_widths(complex7):
    basis = hodge_basis(complex7, 1)
    assert basis.n_gradient == 6
    assert basis.n_curl == 3
    assert basis.n_harmonic == 1


def test_k0_connected_harmonic_is_constant(complex7):
    basis = hodge_basis(complex7, 0)
    assert basis.n_harmonic == 1
    assert basis.n_gradient == 0
    assert np.allclose(np.abs(basis.harmonic[:, 0]), 1 / np.sqrt(7))


def test_blocks_orthonormal_and_subspace_membership(complex7, cell7):
    for c in (complex7, cell7):
        b1 = incidence(c, 1, dense=True)
        b2 = incidence(c, 2, dense=True)
        for k in (0, 1, 2):
            basis = hodge_basis(c, k)
            u = basis.matrix()
            nk = c.num_simplices(k)
            assert u.shape == (nk, nk)
            gram = u.T @ u - np.eye(nk)
            assert np.max(np.abs(gram)) < 1e-10
            if k == 1:
                for col in basis.gradient.T:
                    assert np.linalg.norm(b2.T @ col) <= 1e-10 * max(
                        1.0, np.linalg.norm(b2, 2))
                for col in basis.curl.T:
                    assert np.linalg.norm(b1 @ col) <= 1e-10 * max(
                        1.0, np.linalg.norm(b1, 2))
                lap = hodge_laplacian(c, 1)
                for col in basis.harmonic.T:
                    assert np.linalg.norm(lap @ col) < 1e-10


def test_frequencies_match_laplacian_eigenvalues(complex7):
    for k in (0, 1, 2):
        basis = hodge_basis(complex7, k)
        freqs = np.sort(basis.frequencies())
        eigs = np.sort(np.linalg.eigvalsh(hodge_laplacian(complex7, k)))
        assert np.allclose(freqs, np.clip(eigs, 0, None),
                           rtol=1e-8, atol=1e-10)


def test_quadratic_variation_of_gradient_columns(complex7):
    basis = hodge_basis(complex7, 1)
    lap = hodge_laplacian(complex7, 1)
    for col, freq in zip(basis.gradient.T, basis.gradient_frequencies):
        assert abs(col @ lap @ col - freq) < 1e-10
    b1 = incidence(complex7, 1, dense=True)
    for col, freq in zip(basis.gradient.T, basis.gradient_frequencies):
        assert abs(np.linalg.norm(b1 @ col) ** 2 - freq) < 1e-10
    b2 = incidence(complex7, 2, dense=True)
    for col, freq in zip(basis.curl.T, basis.curl_frequencies):
        assert abs(np.linalg.norm(b2.T @ col) ** 2 - freq) < 1e-10


def test_tft_roundtrip_and_parseval(complex7):
    rng = np.random.default_rng(0)
    basis = hodge_basis(complex7, 1)
    for _ in range(5):
        x = complex7.cochain(1, rng.standard_normal(10))
        coeffs = tft(basis, x)
        assert abs(coeffs.energy() - x.values @ x.values) < 1e-10
        back = itft(basis, coeffs)
        denom = max(np.linalg.norm(x.values), 1e-30)
        assert np.linalg.norm(back.values - x.values) / denom < 1e-10


def test_itft_then_tft_identity(complex7):
    rng = np.random.default_rng(8)
    from hodgesp import TftCoefficients
    basis = hodge_basis(complex7, 1)
    coeffs = TftCoefficients(
        gradient=rng.standard_normal(basis.n_gradient),
        curl=rng.standard_normal(basis.n_curl),
        harmonic=rng.standard_normal(basis.n_harmonic),
    )
    back = tft(basis, itft(basis, coeffs))
    for a, b in ((coeffs.gradient, back.gradient),
                 (coeffs.curl, back.curl),
                 (coeffs.harmonic, back.harmonic)):
        assert np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-30) < 1e-10


def test_tft_of_pure_components(complex7):
    basis = hodge_basis(complex7, 1)
    x = complex7.cochain(1, basis.harmonic[:, 0])
    coeffs = tft(basis, x)
    assert np.allclose(coeffs.gradient, 0, atol=1e-12)
    assert np.allclose(coeffs.curl, 0, atol=1e-12)
    assert np.allclose(np.abs(coeffs.harmonic), [1.0])

    rng = np.random.default_rng(1)
    grad_flow = complex7.cochain(1, complex7.b1.T @ rng.standard_normal(7))
    coeffs = tft(basis, grad_flow)
    assert np.linalg.norm(coeffs.curl) <= 1e-10
    assert np.linalg.norm(coeffs.harmonic) <= 1e-10


def test_tft_dimension_errors(complex7):
    basis = hodge_basis(complex7, 1)
    with pytest.raises(ValueError):
        tft(basis, complex7.zero_cochain(0))


def test_decompose_projection_agreement(complex7):
    rng = np.random.default_rng(2)
    basis = hodge_basis(complex7, 1)
    x = complex7.cochain(1, rng.standard_normal(10))
    parts = hodge_decompose(complex7, x)
    total = parts.gradient.values + parts.curl.values + parts.harmonic.values
    assert np.linalg.norm(total - x.values) / np.linalg.norm(x.values) < 1e-10
    for block, part in ((basis.gradient, parts.gradient),
                        (basis.curl, parts.curl),
                        (basis.harmonic, parts.harmonic)):
        proj = block @ (block.T @ x.values)
        assert np.allclose(proj, part.values, atol=1e-10)
    # minimum-norm potentials reproduce the components
    assert np.allclose(complex7.b1.T @ parts.lower_potential.values,
                       parts.gradient.values)
    assert np.allclose(complex7.b2 @ parts.upper_potential.values,
                       parts.curl.values)
    # mutual orthogonality
    assert abs(parts.gradient.values @ parts.curl.values) < 1e-10
    assert abs(parts.gradient.values @ parts.harmonic.values) < 1e-10
    assert abs(parts.curl.values @ parts.harmonic.values) < 1e-10


def test_decompose_pure_inputs(complex7):
    rng = np.random.default_rng(3)
    basis = hodge_basis(complex7, 1)
    curl_flow = complex7.cochain(1, complex7.b2 @ rng.standard_normal(3))
    parts = hodge_decompose(complex7, curl_flow)
    assert np.allclose(parts.gradient.values, 0, atol=1e-12)
    assert np.allclose(parts.harmonic.values, 0, atol=1e-12)

    harm = complex7.cochain(1, basis.harmonic[:, 0])
    parts = hodge_decompose(complex7, harm)
    assert np.allclose(parts.gradient.values, 0, atol=1e-12)
    assert np.allclose(parts.curl.values, 0, atol=1e-12)
    assert np.allclose(parts.harmonic.values, harm.values)


def test_decompose_honours_tolerance(complex7):
    rng = np.random.default_rng(6)
    x = complex7.cochain(1, rng.standard_normal(10))
    # tol = 100 declares every singular value zero: all of x is harmonic
    assert hodge_basis(complex7, 1, tol=100.0).n_harmonic == 10
    parts = hodge_decompose(complex7, x, tol=100.0)
    assert np.allclose(parts.harmonic.values, x.values, atol=1e-12)
    assert np.allclose(parts.gradient.values, 0.0, atol=1e-12)
    assert np.allclose(parts.curl.values, 0.0, atol=1e-12)
    # tol = 2.5 drops the squared singular values 1, 1.59 and 2
    basis = hodge_basis(complex7, 1, tol=2.5)
    parts = hodge_decompose(complex7, x, tol=2.5)
    assert basis.n_harmonic == 4
    for block, part in ((basis.gradient, parts.gradient),
                        (basis.curl, parts.curl),
                        (basis.harmonic, parts.harmonic)):
        assert np.allclose(part.values, block @ (block.T @ x.values),
                           atol=1e-10)


def test_frequency_table_layout(complex7):
    basis = hodge_basis(complex7, 1)
    table = frequency_table(basis)
    kinds = [row.kind for row in table]
    assert kinds == ["harmonic"] + ["gradient"] * 6 + ["curl"] * 3
    assert [row.index for row in table] == list(range(10))
    assert table[0].frequency == 0.0
    grad = [row.frequency for row in table if row.kind == "gradient"]
    assert grad == sorted(grad)
    curl_f = [row.frequency for row in table if row.kind == "curl"]
    assert curl_f == sorted(curl_f)

    basis0 = hodge_basis(complex7, 0)
    zero_rows = [r for r in frequency_table(basis0) if r.frequency == 0.0]
    assert len(zero_rows) == 1


def test_determinism_bit_identical(complex7):
    a = hodge_basis(complex7, 1)
    b = hodge_basis(complex7, 1)
    assert np.array_equal(a.matrix(), b.matrix())
    da = dirac_basis(complex7)
    db = dirac_basis(complex7)
    assert np.array_equal(da.matrix(), db.matrix())


def test_dirac_basis_eigen_relation(complex7):
    basis = dirac_basis(complex7)
    d = dirac(complex7).full
    u = basis.matrix()
    lam = basis.eigenvalues()
    assert np.linalg.norm(d @ u - u * lam) < 1e-10
    assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) < 1e-10
    assert basis.harmonic.shape[1] == 2  # beta0 + beta1 + beta2


def test_dirac_eigenvalues_pair_symmetric(complex7):
    basis = dirac_basis(complex7)
    for lam in (basis.gradient_eigenvalues, basis.curl_eigenvalues):
        nonneg = np.sort(lam[lam > 0])
        nonpos = np.sort(-lam[lam < 0])
        assert np.allclose(nonneg, nonpos)
    full = np.sort(np.linalg.eigvalsh(dirac(complex7).full))
    assert np.allclose(np.sort(basis.eigenvalues()), full, atol=1e-10)


def test_dirac_tft_roundtrip_and_harmonic_support(complex7):
    rng = np.random.default_rng(4)
    basis = dirac_basis(complex7)
    sig = ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3)
    )
    coeffs = dirac_tft(complex7, sig, basis)
    back = dirac_itft(complex7, coeffs, basis)
    assert np.linalg.norm(back.stacked() - sig.stacked()) < 1e-10

    h0 = hodge_basis(complex7, 0).harmonic[:, 0]
    h1 = hodge_basis(complex7, 1).harmonic[:, 0]
    stacked_harm = ComplexSignal.from_arrays(complex7, h0, h1, np.zeros(3))
    coeffs = dirac_tft(complex7, stacked_harm, basis)
    n_h = basis.harmonic.shape[1]
    assert np.linalg.norm(coeffs[n_h:]) < 1e-10


def test_random_complex_basis_properties():
    rng = np.random.default_rng(5)
    for i in range(8):
        c = random_complex(rng, max_vertices=14, with_cells=(i % 2 == 0))
        for k in (0, 1, 2):
            nk = c.num_simplices(k)
            basis = hodge_basis(c, k)
            u = basis.matrix()
            assert u.shape == (nk, nk)
            if nk:
                assert np.max(np.abs(u.T @ u - np.eye(nk))) < 1e-10


def test_zero_edge_complex_basis():
    c = build_complex(3)
    basis = hodge_basis(c, 0)
    assert basis.n_harmonic == 3
    assert basis.n_curl == 0
    basis1 = hodge_basis(c, 1)
    assert basis1.matrix().shape == (0, 0)
