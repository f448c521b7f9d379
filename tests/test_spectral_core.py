"""The per-complex spectral core: one cached SVD each of b1 and b2 (from
one Gram eigendecomposition each), one complex-wide zero tolerance, and every consumer derived from them; and
properties of the transforms and filters on random complexes with cells."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
from hodgesp import (
    HarmonicTerm,
    HodgeBasis,
    HodgeFilterSpec,
    TftCoefficients,
    apply_filter,
    betti,
    build_complex,
    dirac,
    dirac_basis,
    frequency_response,
    frequency_table,
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
    itft,
    slepians,
    tft,
)

from hodgesp._linalg import power_iteration_lambda_max, small

from conftest import (
    EDGES7,
    TRIS7,
    complexes_with_cells,
    random_complex,
    triangulated_grid,
)

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
    d = dirac(c).full.toarray()
    assert np.linalg.norm(d @ q[:, cols] - q[:, cols] * lam[cols]) < 1e-9


@PROPERTY
@given(c=complexes_with_cells(), seed=SEEDS)
def test_tft_parseval(c, seed):
    rng = np.random.default_rng(seed)
    for k in (0, 1, 2):
        x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
        energy = tft(hodge_basis(c, k), x).energy()
        assert abs(energy - x.values @ x.values) <= 1e-10 * max(
            1.0, x.values @ x.values)


def assert_tft_is_the_block_product(c, rng, tol):
    """tft and itft build no dense gradient or curl block, yet give the
    block products to 1e-12 ||x||, invert each other and keep Parseval."""
    for k in (0, 1, 2):
        basis = hodge_basis(c, k, tol)
        x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
        coeffs = tft(basis, x)
        back = itft(basis, coeffs).values
        assert "gradient" not in vars(basis)
        assert "curl" not in vars(basis)
        norm = float(np.linalg.norm(x.values))
        for got, block in ((coeffs.gradient, basis.gradient),
                           (coeffs.curl, basis.curl),
                           (coeffs.harmonic, basis.harmonic)):
            assert np.abs(got - block.T @ x.values).max(initial=0.0) \
                <= 1e-12 * max(1.0, norm)
        assert np.abs(back - x.values).max(initial=0.0) <= 1e-10 * max(
            1.0, norm)
        assert abs(coeffs.energy() - norm**2) <= 1e-10 * max(1.0, norm**2)


@PROPERTY
@given(c=complexes_with_cells(), seed=SEEDS, tol=TOLS)
def test_tft_is_the_block_product(c, seed, tol):
    """On these small complexes every block is held dense."""
    assert_tft_is_the_block_product(c, np.random.default_rng(seed), tol)


@pytest.mark.parametrize("tol", [None, 1e-6, 0.5])
def test_tft_through_the_factors_is_the_block_product(tol):
    """Above the dense threshold the derived blocks go through the small
    factors of b1 and b2: the order-1 gradient block through b1 and the
    eigenvectors of L0, and the curl block through b2^T and those of L2."""
    c = triangulated_grid(12, holes=[(3, 3), (7, 8)])
    basis = hodge_basis(c, 1, tol)
    assert not small((c.n1, basis.n_gradient))
    assert not small((c.n1, basis.n_curl))
    assert basis._gradient_factors.op is not None
    assert basis._curl_factors.op is not None
    assert_tft_is_the_block_product(c, np.random.default_rng(26), tol)


@pytest.mark.parametrize("grid", [0, 12])
def test_tft_gives_zero_on_a_zero_derived_column(complex7, grid):
    """A block that reaches past the nonzero singular values of b1 holds a
    zero derived column there; its coefficient is 0, as the dense block's,
    and its inverse adds nothing. complex7's block is held dense, the
    grid's goes through the factors."""
    c = triangulated_grid(grid) if grid else complex7
    rank = hodge_basis(c, 1).n_gradient
    basis = HodgeBasis(complex=c, order=1, n_gradient=rank + 1, n_curl=0,
                       tol=1e-9)
    assert (basis._gradient_factors.op is None) == (not grid)
    x = c.cochain(1, np.linspace(-1.0, 2.0, c.n1))
    coeffs = tft(basis, x).gradient
    assert np.all(np.isfinite(coeffs)) and coeffs[0] == 0.0
    assert not basis.gradient[:, 0].any()
    assert np.allclose(coeffs, basis.gradient.T @ x.values, atol=1e-12)
    zero = np.zeros(0)
    grad = TftCoefficients(gradient=coeffs, curl=zero, harmonic=np.zeros(
        basis.n_harmonic))
    assert np.allclose(itft(basis, grad).values, basis.gradient @ coeffs,
                       atol=1e-12)


COEFFS = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4)


@PROPERTY
@given(c=complexes_with_cells(), seed=SEEDS, k=st.integers(0, 2),
       h_down=COEFFS, h_up=COEFFS, steps=st.none() | st.integers(0, 6))
def test_filter_is_its_frequency_response(c, seed, k, h_down, h_up, steps):
    harmonic = None
    if steps is not None:
        # A harmonic term needs zero t=0 coefficients and a stable epsilon.
        h_down, h_up = [0.0] + h_down, [0.0] + h_up
        harmonic = HarmonicTerm(1.0 / max(lambda_max(c, k), 1.0), steps)
    spec = HodgeFilterSpec(tuple(h_down), tuple(h_up), harmonic)
    x = c.cochain(k, np.random.default_rng(seed).standard_normal(
        c.num_simplices(k)))
    basis = hodge_basis(c, k)
    u = basis.matrix()
    oracle = u @ (frequency_response(c, k, spec, basis) * (u.T @ x.values))
    y = apply_filter(c, k, spec, x).values
    assert np.linalg.norm(y - oracle) <= 1e-9 * max(
        1.0, np.linalg.norm(oracle))


def test_incidence_grams_factored_once_per_complex(monkeypatch):
    c = build_complex(7, EDGES7, TRIS7)  # fresh: nothing cached yet
    shapes = {"svd": [], "eigh": [], "eigvalsh": []}

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rng = np.random.default_rng(0)
    for tol in (None, 2.5):
        for k in (0, 1, 2):
            frequency_table(hodge_basis(c, k, tol))
            x = c.cochain(k, rng.standard_normal(c.num_simplices(k)))
            hodge_decompose(c, x, tol)
        dirac_basis(c, tol)
        betti(c, tol)
        project_out_gradient(c, rng.standard_normal((c.n1, 3)), tol)
        infer_triangles(c, rng.standard_normal((c.n1, 3)), 2, tol=tol)
    # n0 <= n1 and n2 <= n1: the Gram matrices are L0 (of b1) and L2 (of
    # b2), each given at most one values-only and one vector solve. The
    # frequency tables come first, so their values solves come first.
    grams = [(c.n0, c.n0), (c.n2, c.n2)]
    assert shapes["eigvalsh"] == grams
    assert shapes["eigh"] == grams
    incidence_shapes = {(c.n0, c.n1), (c.n1, c.n0), (c.n1, c.n2), (c.n2, c.n1)}
    assert not incidence_shapes & set(shapes["svd"])


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


def fresh(c):
    """An uncached copy of ``c``."""
    return build_complex(c.n0, c.edges, c.triangles, c.cells)


def grid_oneshot_complex(seed: int, m: int = 20, holes: int = 6):
    """The grid-oneshot benchmark complex of ``seed``: an m x m grid whose
    squares on ``holes`` random square rows and columns stay unfilled."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(m - 1, size=holes, replace=False).tolist()
    cols = rng.choice(m - 1, size=holes, replace=False).tolist()
    return triangulated_grid(m, [(i, j) for i in rows for j in cols])


@pytest.mark.parametrize("case", ["fixtures"] + [f"grid{seed}"
                                                 for seed in range(1, 11)])
def test_explicit_tol_widths_count_the_svd(case, complex7, skeleton7, cell7,
                                           tetra_surface, two_tetra_surfaces):
    """Explicit-tol ranks come from the values-only spectrum, the split and
    the Dirac pairs from the SVD: the two must agree, and no singular value
    the split divides by may be zero, however small tol is."""
    cases = ([complex7, skeleton7, cell7, tetra_surface, two_tetra_surfaces]
             if case == "fixtures" else [grid_oneshot_complex(int(case[4:]))])
    rng = np.random.default_rng(0)
    for base in cases:
        c = fresh(base)
        for tol in (1e-300, 1e-8, 0.5):
            s = {k: hc._incidence_svd(c, k)[1] for k in (1, 2)}
            width = {k: int(np.count_nonzero(s[k] > np.sqrt(tol)))
                     for k in (1, 2)}
            for k in (0, 1, 2):
                basis = hodge_basis(c, k, tol)
                assert basis.n_gradient == width.get(k, 0)
                assert basis.n_curl == width.get(k + 1, 0)
            assert betti(c, tol) == (c.n0 - width[1],
                                     c.n1 - width[1] - width[2],
                                     c.n2 - width[2])
            with np.errstate(divide="raise", invalid="raise"):
                x = c.cochain(1, rng.standard_normal(c.n1))
                parts = hodge_decompose(c, x, tol)
                assert np.all(np.isfinite(parts.lower_potential.values))
                assert np.all(np.isfinite(parts.upper_potential.values))
                if case == "fixtures":
                    assert np.all(np.isfinite(dirac_basis(c, tol).matrix()))


@pytest.mark.parametrize("name", ["complex7", "cell7", "grid"])
def test_explicit_tol_that_drops_nothing_reads_no_svd(name, request):
    """Below the smallest nonzero squared singular value, an explicit tol
    splits by the exact sparse core alone: no incidence SVD is cached."""
    c = (grid_oneshot_complex(1) if name == "grid"
         else fresh(request.getfixturevalue(name)))
    lam = np.concatenate([hc._incidence_values(c, k) for k in (1, 2)])
    tol = 0.5 * lam[lam > 0].min()
    rng = np.random.default_rng(0)
    for k in (0, 1, 2):
        hodge_decompose(c, c.cochain(k, rng.standard_normal(
            c.num_simplices(k))), tol)
    project_out_gradient(c, rng.standard_normal((c.n1, 2)), tol)
    assert not [key for key in hc._cache[c] if key[0] == "svd"]


def _two_matvec_power_iteration(matvec, n, rtol=1e-6, max_iter=5000):
    """Power iteration with one matvec for each step's power and another
    for its Rayleigh quotient; returns the estimate and the step count."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for step in range(1, max_iter + 1):
        w = matvec(v)
        v_new = w / np.linalg.norm(w)
        lam_new = float(v_new @ matvec(v_new))
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1e-30):
            return lam_new, step
        v, lam = v_new, lam_new
    return lam, max_iter


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("rtol", [1e-6, 1e-12])
def test_power_iteration_takes_one_matvec_per_step(k, rtol):
    c = triangulated_grid(10, [(2, 2), (5, 6)])
    lap = hodge_laplacian(c, k, sparse=True)
    calls = []

    def matvec(v):
        calls.append(1)
        return lap @ v

    want, steps = _two_matvec_power_iteration(lambda v: lap @ v,
                                              lap.shape[0], rtol)
    got = power_iteration_lambda_max(matvec, lap.shape[0], rtol)
    assert got == want  # the same products in the same order
    assert len(calls) == steps + 1


# lambda_max(c, k), k = 0, 1, 2, at the default rtol, as float.hex: the
# values of the two-matvec power iteration, which the one-matvec loop must
# reproduce bit for bit.
LAMBDA_MAX_HEX = {
    "complex7": ("0x1.bffff11e90433p+2", "0x1.bffff4c2cafc1p+2",
                 "0x1.ffffe18e0869bp+1"),
    "skeleton7": ("0x1.bffff11e90433p+2", "0x1.bffff4d44d83dp+2", "0x0.0p+0"),
    "cell7": ("0x1.890e1b57a1513p+2", "0x1.890e1268a4e43p+2",
              "0x1.278dd422f250cp+2"),
    "tetra_surface": ("0x1.0000000000000p+2", "0x1.0000000000000p+2",
                      "0x1.0000000000001p+2"),
    "two_tetra_surfaces": ("0x1.0000000000000p+2", "0x1.0000000000000p+2",
                           "0x1.0000000000000p+2"),
    "holed_grid": ("0x1.19bd3c225f28ep+3", "0x1.19b840663b7ebp+3",
                   "0x1.78e1d9fa108f1p+2"),
}


@pytest.mark.parametrize("name", sorted(LAMBDA_MAX_HEX))
def test_lambda_max_is_pinned_bit_for_bit(name, request):
    if name == "holed_grid":
        c = triangulated_grid(10, [(2, 2), (5, 6)])
    else:
        c = fresh(request.getfixturevalue(name))
    got = tuple(lambda_max(c, k).hex() for k in (0, 1, 2))
    assert got == LAMBDA_MAX_HEX[name]
