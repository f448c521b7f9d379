"""The Dirac basis kept as the cached SVD factors of b1 and b2: dense pair
blocks byte-identical to the direct assembly, transforms that never form
the dim x dim basis, and a complex-wide zero tolerance and cluster gap
taken from an integer row-sum bound instead of a power iteration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
import hodgesp.io as hio
import hodgesp.spectral as hsp
from hodgesp import (
    ComplexSignal,
    DiracBasis,
    build_complex,
    dirac_basis,
    dirac_itft,
    dirac_tft,
    hodge_basis,
    hodge_laplacian,
    lambda_max,
    slepians,
)
from hodgesp.cli import run_cli

from conftest import complexes_with_cells, triangulated_grid

FIXTURES = ["complex7", "skeleton7", "cell7", "tetra_surface",
            "two_tetra_surfaces"]


def fresh(c):
    """An uncached copy of ``c``."""
    return build_complex(c.n0, c.edges, c.triangles, c.cells)


def hole_grid_12():
    """A 12 x 12 triangulated grid whose squares at the crossings of three
    rows and three columns stay unfilled: nine holed squares."""
    return triangulated_grid(12, [(i, j) for i in (2, 5, 8)
                                  for j in (1, 6, 9)])


def reference_pairs(c, k, tol, dim, offset, tau):
    """The signed Dirac pairs of b_k as dense dim x 2r columns: zeros, the
    halves (u; +/-v)/sqrt(2) filled in, then each column multiplied by the
    sign that makes its first entry of magnitude > tau positive."""
    u, s, vt = hc._incidence_svd(c, k)
    r = hc._rank(c, k, tol)
    if tol is not None:
        r = min(r, int(np.count_nonzero(s)))
    half_u = u[:, :r][:, ::-1] / np.sqrt(2.0)
    half_v = vt[:r][::-1].T / np.sqrt(2.0)
    mid = offset + u.shape[0]
    vecs = np.zeros((dim, 2 * r))
    vecs[offset:mid, 0::2] = half_u
    vecs[offset:mid, 1::2] = half_u
    vecs[mid : mid + vt.shape[1], 0::2] = half_v
    vecs[mid : mid + vt.shape[1], 1::2] = -half_v
    signs = np.ones(2 * r)
    for j in range(2 * r):
        big = np.flatnonzero(np.abs(vecs[:, j]) > tau)
        if big.size and vecs[big[0], j] < 0:
            signs[j] = -1.0
    vecs *= signs
    return vecs, np.repeat(s[:r][::-1], 2) * np.tile([1.0, -1.0], r)


def reference_dirac(c, tol):
    """The Dirac basis matrix and eigenvalues, assembled directly; every
    tol signs by the default zero tolerance."""
    dim = c.n0 + c.n1 + c.n2
    tau = hc._zero_tolerance(c, None)
    grad, lam_g = reference_pairs(c, 1, tol, dim, 0, tau)
    curl, lam_c = reference_pairs(c, 2, tol, dim, c.n0, tau)
    blocks = [hodge_basis(c, k, tol).harmonic for k in (0, 1, 2)]
    harm = np.zeros((dim, sum(h.shape[1] for h in blocks)))
    row = col = 0
    for h in blocks:
        harm[row : row + h.shape[0], col : col + h.shape[1]] = h
        row, col = row + h.shape[0], col + h.shape[1]
    lam = np.concatenate([np.zeros(harm.shape[1]), lam_g, lam_c])
    return np.hstack([harm, grad, curl]), lam


@pytest.mark.parametrize("tol", [None, 1e-8, 0.3])
@pytest.mark.parametrize("name", FIXTURES + ["hole_grid_12"])
def test_dirac_matrix_bytes_match_the_direct_assembly(name, tol, request):
    c = hole_grid_12() if name == "hole_grid_12" else fresh(
        request.getfixturevalue(name))
    basis = dirac_basis(c, tol)
    want, lam = reference_dirac(c, tol)
    got = basis.matrix()
    assert got.tobytes() == want.tobytes()  # -0.0 included
    assert basis.eigenvalues().tobytes() == lam.tobytes()
    h, g = basis.harmonic.shape[1], basis.gradient.shape[1]
    assert basis.gradient.tobytes() == want[:, h : h + g].tobytes()
    assert basis.curl.tobytes() == want[:, h + g :].tobytes()
    if name == "hole_grid_12":
        assert np.signbit(got[got == 0]).any()


def test_dirac_basis_holds_no_pair_columns():
    c = hole_grid_12()
    basis = dirac_basis(c)
    for name in ("gradient", "curl", "_matrix"):
        assert name not in vars(basis)
    q = basis.matrix()  # built once, read-only
    assert basis.matrix() is q and not q.flags.writeable
    assert not basis.gradient.flags.writeable
    u1, _, vt1 = hc._incidence_svd(c, 1)
    u2, _, vt2 = hc._incidence_svd(c, 2)
    grad, curl = basis._pairs
    for view, factor in ((grad.u, u1), (grad.vt, vt1), (curl.u, u2),
                         (curl.vt, vt2)):
        assert view.base is factor.base or view.base is factor
        assert np.shares_memory(view, factor)


@settings(max_examples=60, deadline=None, database=None)
@given(c=complexes_with_cells())
def test_dirac_transforms_match_the_dense_basis(c):
    rng = np.random.default_rng(c.n0 + 7 * c.n1 + 31 * c.n2)
    x = ComplexSignal.from_arrays(c, rng.standard_normal(c.n0),
                                  rng.standard_normal(c.n1),
                                  rng.standard_normal(c.n2))
    basis = dirac_basis(c)
    q = basis.matrix()
    coeffs = dirac_tft(c, x, basis)
    scale = max(1.0, np.linalg.norm(x.stacked()))
    assert np.abs(coeffs - q.T @ x.stacked()).max() <= 1e-12 * scale
    back = dirac_itft(c, coeffs, basis)
    assert np.abs(back.stacked() - x.stacked()).max() <= 1e-10 * scale
    assert np.abs(back.stacked() - q @ coeffs).max() <= 1e-12 * scale


def test_dirac_transforms_build_no_dense_basis(monkeypatch):
    c = triangulated_grid(19, [(4, 4), (9, 12), (14, 6)])
    dim = c.n0 + c.n1 + c.n2
    assert 1900 <= dim <= 2100
    rng = np.random.default_rng(1)
    x = ComplexSignal.from_arrays(c, rng.standard_normal(c.n0),
                                  rng.standard_normal(c.n1),
                                  rng.standard_normal(c.n2))
    basis = dirac_basis(c)  # SVDs and harmonic blocks warm
    dirac_itft(c, dirac_tft(c, x, basis), basis)  # first calls untraced

    def refuse(self):
        raise AssertionError("DiracBasis.matrix called")

    monkeypatch.setattr(DiracBasis, "matrix", refuse)
    tracemalloc.start()
    try:
        coeffs = dirac_tft(c, x, basis)
        back = dirac_itft(c, coeffs, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 8 / 4
    assert np.abs(back.stacked() - x.stacked()).max() <= 1e-10
    assert "gradient" not in vars(basis) and "curl" not in vars(basis)


def refuse_power_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complexes._lambda_max called")

    monkeypatch.setattr(hc, "_lambda_max", refuse)


SELECTOR = "grad:0..5+curl:0..4"


def test_band_subcommands_and_dirac_basis_run_no_power_iteration(
        tmp_path, monkeypatch):
    """The band consumers read the zero tolerance (sign fix) and the
    cluster gap of the partial spectra; neither runs the power iteration."""
    c = triangulated_grid(17, [(3, 3), (8, 10), (12, 4)])
    assert min(c.n0, c.n2) >= hsp._PARTIAL_FLOOR  # the partial path runs
    comp = tmp_path / "c.json"
    hio.save_complex(comp, c)
    p = {name: str(tmp_path / name) for name in
         ("samples.txt", "obs.csv", "rec.csv", "slep.csv")}
    refuse_power_iteration(monkeypatch)
    assert run_cli(["sample", str(comp), "--order", "1", "--freqs", SELECTOR,
                    "-m", "14", "-o", p["samples.txt"]]) == 0
    ids = [int(v) for v in open(p["samples.txt"]).read().split()]
    with open(p["obs.csv"], "w") as fh:
        fh.write("simplex_id,value\n")
        fh.writelines(f"{i},{0.25 * i}\n" for i in ids)
    assert run_cli(["reconstruct", str(comp), "--order", "1",
                    "--freqs", SELECTOR, "--samples", p["samples.txt"],
                    "--observed", p["obs.csv"], "-o", p["rec.csv"]]) == 0
    assert run_cli(["slepians", str(comp), "--edges", "1,5,8,40",
                    "--freqs", SELECTOR, "-o", p["slep.csv"]]) == 0
    basis = dirac_basis(fresh(c))
    assert basis.tolerance == 1e-10 * np.sqrt(12.0)


def abs_row_sum_bound(c):
    sums = [np.abs(hodge_laplacian(c, k)).sum(axis=1) for k in (0, 2)]
    return max((s.max() for s in sums if s.size), default=0.0)


@pytest.mark.parametrize("name", FIXTURES + ["hole_grid_12"])
def test_zero_tolerance_comes_from_the_row_sum_bound(name, request):
    """Named change: the default tolerance is 1e-10 * sqrt(bound), the
    cluster gap 1e-8 * bound, for the largest absolute row sum of L0 and
    L2, in place of lambda_max(L1) from the power iteration."""
    c = hole_grid_12() if name == "hole_grid_12" else fresh(
        request.getfixturevalue(name))
    bound = hc._spectral_bound(c)
    assert type(bound) is int and bound == abs_row_sum_bound(c)
    assert bound >= lambda_max(c, 1) * (1 - 1e-6)
    tol = 1e-10 * max(1.0, np.sqrt(bound))
    assert hc._zero_tolerance(c, None) == tol
    assert hodge_basis(c, 1).tolerance == tol
    assert dirac_basis(c).tolerance == tol
    assert hc._zero_tolerance(c, 1e-8) == 1e-8


def test_row_sum_bound_on_grids_and_empty_complexes():
    assert hc._spectral_bound(hole_grid_12()) == 12  # vertex degree 6
    assert hc._spectral_bound(build_complex(0)) == 0
    assert hc._spectral_bound(build_complex(3)) == 0
    assert hc._zero_tolerance(build_complex(3), None) == 1e-10


def assert_signed_by(matrix, tau):
    """Each column's first entry of magnitude above tau is positive."""
    for col in np.asarray(matrix).T:
        big = np.flatnonzero(np.abs(col) > tau)
        assert big.size and col[big[0]] > 0


@settings(max_examples=30, deadline=None, database=None)
@given(c=complexes_with_cells(), tol=st.sampled_from([0.5, 1.0, 4.0]))
def test_explicit_tol_signs_by_the_default_zero_tolerance(c, tol):
    """Named change: every sign fix takes the default zero tolerance as the
    entry size to sign by, whatever tol is in force. With tol itself as
    that size, a column with entries +-0.5 took its sign from rounding at
    0.5, and no column was signed at tol >= 1."""
    tau = hc._zero_tolerance(c, None)
    for k in (0, 1, 2):
        basis = hodge_basis(c, k, tol)
        assert_signed_by(basis.matrix(), tau)
        assert_signed_by(basis.columns(np.arange(c.num_simplices(k))), tau)
    assert_signed_by(dirac_basis(c, tol).matrix(), tau)
    if c.n1:
        edges, freqs = range(0, c.n1, 2), range(c.n1)
        assert_signed_by(slepians(c, edges, freqs, tol=tol).vectors, tau)
