"""Band columns from the partial spectra of L0 and L2 against the dense
Gram oracle, the exact block widths, and a band path that never forms a
dense n_k x n_k eigenproblem above the size floor."""

import contextlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph  # noqa: F401  (imported before tracing)
import scipy.sparse.linalg  # noqa: F401
from hypothesis import given, settings

import hodgesp.complexes as hc
import hodgesp.io as hio
import hodgesp.spectral as hsp
from hodgesp import (
    build_complex,
    hodge_basis,
    hodge_laplacian,
    incidence,
    lambda_max,
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
    slepians,
)
from hodgesp._linalg import fix_column_signs
from hodgesp.cli import run_cli

from conftest import complexes_with_cells, triangulated_grid

# Four holes placed symmetrically keep the square symmetry of a grid whose
# squares are split around a center vertex, so L0 and L2 have pairs of
# equal eigenvalues among their lowest ones.
SYMMETRIC_HOLES = [(3, 3), (3, 11), (11, 3), (11, 11)]
SELECTOR = "grad:0..9+curl:0..9"


def fresh(c):
    """An uncached copy of ``c``."""
    return build_complex(c.n0, c.edges, c.triangles, c.cells)


@pytest.fixture(scope="module")
def symmetric_grid():
    return triangulated_grid(16, SYMMETRIC_HOLES, centers=True)


def holed_grid(seed, m=16, holes=5):
    rng = np.random.default_rng(seed)
    squares = rng.choice((m - 1) ** 2, size=holes, replace=False)
    return triangulated_grid(m, [divmod(int(s), m - 1) for s in squares])


@contextlib.contextmanager
def dense_basis(c, k, monkeypatch):
    """hodge_basis(c, k), with every column it gives inside the context
    taken from the dense blocks."""
    with monkeypatch.context() as mp:
        mp.setattr(hsp, "_PARTIAL_FLOOR", np.inf)
        yield hodge_basis(c, k)


def block_frequencies(basis, kind):
    return (basis.gradient_frequencies if kind == "gradient"
            else basis.curl_frequencies)


def clusters(freqs, gap):
    """Start indices of the clusters of ``freqs`` (ascending) whose
    neighbours are at most ``gap`` apart, with len(freqs) appended."""
    return np.concatenate([[0], np.flatnonzero(np.diff(freqs) > gap) + 1,
                           [freqs.size]])


def span_distance(a, b):
    """Largest distance of a column of ``a`` from the span of the
    orthonormal columns of ``b``."""
    return np.abs(a - b @ (b.T @ a)).max(initial=0.0)


BLOCKS = [(0, "curl"), (1, "gradient"), (1, "curl"), (2, "gradient")]


@pytest.mark.parametrize("k, kind", BLOCKS)
def test_partial_window_spans_the_dense_columns(symmetric_grid, k, kind,
                                                monkeypatch):
    c = symmetric_grid
    with dense_basis(c, k, monkeypatch) as dense:
        freqs = block_frequencies(dense, kind)
        want = getattr(dense, kind)
    lmax = lambda_max(c, 1)
    starts = clusters(freqs, 1e-8 * hc._spectral_bound(c))
    assert np.any(np.diff(starts[starts <= hsp._PARTIAL_WINDOW]) > 1), \
        "the fixture should have a repeated frequency in the window"
    cut = starts[starts <= hsp._PARTIAL_WINDOW].max()
    offset = dense.n_harmonic + (dense.n_gradient if kind == "curl" else 0)
    idx = offset + np.arange(cut)
    basis = hodge_basis(fresh(c), k)
    got = basis.columns(idx)
    assert "_" + kind + "_block" not in vars(basis)
    want = want[:, :cut]
    assert np.abs(got.T @ got - np.eye(cut)).max() <= 1e-10
    assert span_distance(got, want) <= 1e-10
    assert span_distance(want, got) <= 1e-10

    low = hc._low_spectrum(basis.complex, k if kind == "gradient" else k + 1,
                           hsp._PARTIAL_WINDOW)
    assert low[0].size >= hsp._PARTIAL_WINDOW
    assert np.abs(low[0][:cut] - freqs[:cut]).max() <= 1e-10 * lmax


@pytest.mark.parametrize("k, kind", BLOCKS)
def test_selector_splitting_a_cluster_stays_in_its_span(symmetric_grid, k,
                                                        kind, monkeypatch):
    c = symmetric_grid
    with dense_basis(c, k, monkeypatch) as dense:
        freqs = block_frequencies(dense, kind)
        want = getattr(dense, kind)
    starts = clusters(freqs, 1e-8 * hc._spectral_bound(c))
    pairs = [(a, b) for a, b in zip(starts, starts[1:])
             if b - a > 1 and b <= hsp._PARTIAL_WINDOW]
    assert pairs
    basis = hodge_basis(fresh(c), k)
    name = "grad" if kind == "gradient" else "curl"
    for a, b in pairs:
        idx = parse_frequency_selector(basis, f"{name}:0..{a}")
        got = basis.columns(idx)
        # the columns below the cluster are those of whole clusters, the
        # last one lies in the span of the cluster it splits
        assert span_distance(got[:, :a], want[:, :a]) <= 1e-10
        assert span_distance(got[:, a:], want[:, a:b]) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_partial_spectrum_keeps_clusters_whole(symmetric_grid, k):
    c = symmetric_grid
    freqs = np.sort(hc._incidence_svd(c, k)[1] ** 2)
    freqs = freqs[freqs > 1e-9]
    gap = 1e-8 * hc._spectral_bound(c)
    split = 0
    for count in range(1, hsp._PARTIAL_WINDOW + 1):
        lam = hc._low_spectrum(c, k, count)[0]  # cached per count
        split += lam.size > count
        assert lam.size >= count
        assert freqs[lam.size] - freqs[lam.size - 1] > gap
        assert np.abs(lam - freqs[:lam.size]).max() <= 1e-10 * freqs[-1]
    assert split  # some count cut a cluster


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_partial_picks_equal_dense_picks(seed, monkeypatch):
    c = holed_grid(seed)
    assert min(c.n0, c.n2) >= hsp._PARTIAL_FLOOR
    with dense_basis(c, 1, monkeypatch) as dense:
        for kind in ("gradient", "curl"):  # the band keeps clusters whole
            freqs = block_frequencies(dense, kind)
            assert freqs[10] - freqs[9] > 1e-6 * freqs[-1]
        freq = parse_frequency_selector(dense, SELECTOR)
        want = select_samples(c, 1, freq, len(freq) + 4, basis=dense)
    fast = hodge_basis(fresh(c), 1)
    assert parse_frequency_selector(fast, SELECTOR) == freq
    assert select_samples(fast.complex, 1, freq, len(freq) + 4,
                          basis=fast) == want
    assert "gradient" not in vars(fast)
    assert "curl" not in vars(fast)


def test_low_rank_block_falls_back_to_the_dense_columns():
    # 300 vertices but rank(b1) = 10: too few eigenpairs for eigsh
    c = build_complex(300, [(i, i + 1) for i in range(10)])
    basis = hodge_basis(c, 1)
    assert hc._low_spectrum(c, 1, hsp._PARTIAL_WINDOW) is None
    idx = basis.n_harmonic + np.arange(basis.n_gradient)
    assert basis.columns(idx).tobytes() == basis.matrix()[:, idx].tobytes()


@pytest.mark.parametrize("a, b, pairs", [(12, 250, 249), (1, 260, None)],
                         ids=["K12,250", "star-K1,260"])
def test_partial_spectrum_grows_its_count_past_a_wide_cluster(a, b, pairs):
    """On the skeleton of K_a,b, L0's lowest nonzero eigenvalue a has
    multiplicity b - 1, far more than the window. The eigensolver's count
    doubles until a cut clears that cluster: on K12,250, whose spectrum is
    12 (x249), 250 (x11) and 262, it reaches 260 and keeps 249 pairs. On
    the star K1,260 it reaches rank - 1 with no cut and declines, so the
    columns are the dense SVD's."""
    c = build_complex(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    assert c.n0 >= hsp._PARTIAL_FLOOR
    basis = hodge_basis(c, 1)
    idx = basis.n_harmonic + np.arange(hsp._PARTIAL_WINDOW)
    cols = basis.columns(idx)
    low = hc._low_spectrum(c, 1, hsp._PARTIAL_WINDOW)
    down = hodge_laplacian(c, 1, "down", sparse=True)
    assert np.abs(cols.T @ cols - np.eye(idx.size)).max() <= 1e-12
    assert np.linalg.norm(down @ cols - a * cols, axis=0).max() <= 1e-12
    if pairs is None:
        assert low is None
        assert cols.tobytes() == basis.matrix()[:, idx].tobytes()
    else:
        assert low[0].size == pairs
        assert "gradient" not in vars(basis)


def view_gather_columns(basis, idx):
    """``basis.columns(idx)`` as it was taken: a gradient or curl column
    from the partial spectrum's low block, every column of the block signed
    first, or gathered from the block's factor view, whose signs came from
    one pass over all its columns."""
    c, k = basis.complex, basis.order
    idx = np.asarray(idx, dtype=np.intp)
    out = np.empty((c.num_simplices(k), idx.size))
    start = 0
    for name in ("harmonic", "gradient", "curl"):
        width = getattr(basis, "n_" + name)
        mine = (idx >= start) & (idx < start + width)
        local = idx[mine] - start
        start += width
        if not local.size:
            continue
        if name == "harmonic":
            out[:, mine] = basis.harmonic[:, local]
            continue
        b = k if name == "gradient" else k + 1
        low = None
        if (basis.exact and local.max() < hsp._PARTIAL_WINDOW
                and c.num_simplices(0 if b == 1 else 2)
                >= hsp._PARTIAL_FLOOR):
            low = hc._low_spectrum(c, b, hsp._PARTIAL_WINDOW)
        if low is not None:
            block = fix_column_signs(low[2 if name == "gradient" else 1],
                                     basis.tolerance)
            out[:, mine] = block[:, local]
        else:
            view = getattr(basis, f"_{name}_factors")
            out[:, mine] = (view.u[:, view.s.size - 1 - local]
                            * view.signs[local])
    return out


@pytest.mark.parametrize("tol", [None, 1e-9])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_columns_match_the_view_gather(k, tol):
    c = holed_grid(1)
    assert min(c.n0, c.n2) >= hsp._PARTIAL_FLOOR
    basis = hodge_basis(c, k, tol)
    nh, ng, nc = basis.n_harmonic, basis.n_gradient, basis.n_curl
    grad, curl = nh + np.arange(ng), nh + ng + np.arange(nc)
    rng = np.random.default_rng(k)
    window = hsp._PARTIAL_WINDOW  # sets inside it, beyond it and across
    sets = [grad[:10], curl[:window], np.r_[grad[:5], curl[:5]],
            grad[15:40], curl[window - 3 : window + 9],
            np.r_[np.arange(min(nh, 3)), grad[-3:]],
            rng.choice(c.num_simplices(k), 30, replace=False), [], curl[::-1]]
    for idx in sets:
        got = basis.columns(idx)
        assert got.tobytes() == view_gather_columns(basis, idx).tobytes()
    assert "gradient" not in vars(basis) and "curl" not in vars(basis)


@settings(max_examples=40, deadline=None, database=None)
@given(c=complexes_with_cells())
def test_exact_widths_are_the_dense_svd_ranks(c):
    thr = hc._zero_tolerance(c, None) ** 0.5
    ranks = [0] + [
        int(np.count_nonzero(np.linalg.svd(incidence(c, k, dense=True),
                                           compute_uv=False) > thr))
        if c.num_simplices(k - 1) and c.num_simplices(k) else 0
        for k in (1, 2)] + [0]
    for k in (0, 1, 2):
        basis = hodge_basis(fresh(c), k)
        assert (basis.n_gradient, basis.n_curl) == (ranks[k], ranks[k + 1])
        assert "gradient" not in vars(basis)
        assert basis.gradient.shape == (c.num_simplices(k), ranks[k])
        assert basis.curl.shape == (c.num_simplices(k), ranks[k + 1])
        assert basis.gradient_frequencies.shape == (ranks[k],)
        assert basis.curl_frequencies.shape == (ranks[k + 1],)


@pytest.fixture()
def no_large_eigh(monkeypatch):
    """Refuse a dense eigenproblem larger than any band's Gram matrix."""
    real = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def guard(name):
        def call(a, *args, **kwargs):
            if max(np.shape(a)[-2:], default=0) > 64:
                raise AssertionError(f"np.linalg.{name} of {np.shape(a)}")
            return real[name](a, *args, **kwargs)
        return call

    for name in real:
        monkeypatch.setattr(np.linalg, name, guard(name))


def test_band_path_forms_no_dense_eigenproblem(no_large_eigh):
    c = holed_grid(4, m=24)
    assert min(c.n0, c.n2) >= hsp._PARTIAL_FLOOR
    tracemalloc.start()
    basis = hodge_basis(c, 1)
    freq = parse_frequency_selector(basis, SELECTOR)
    chosen = select_samples(c, 1, freq, len(freq) + 4, basis=basis)
    x = basis.columns(freq) @ np.arange(1.0, len(freq) + 1)
    rec = reconstruct_bandlimited(c, 1, freq, chosen, x[list(chosen)],
                                  basis=basis)
    result = slepians(c, list(range(0, c.n1, 7)), freq, basis=basis)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.allclose(rec.values, x, atol=1e-9)
    assert result.vectors.shape == (c.n1, len(freq))
    # The traced peak grows with n1 |F|; at this size it is under half of
    # the one dense n2 x n2 Gram matrix that the dense path factors.
    assert peak < 8 * c.n2 * c.n2
    for name in ("gradient", "curl", "harmonic"):
        assert name not in vars(basis)


def test_band_subcommands_form_no_dense_eigenproblem(tmp_path,
                                                     no_large_eigh):
    comp = tmp_path / "c.json"
    hio.save_complex(comp, holed_grid(5))
    p = {name: str(tmp_path / name) for name in
         ("samples.txt", "obs.csv", "rec.csv", "slep.csv")}
    assert run_cli(["sample", str(comp), "--order", "1", "--freqs", SELECTOR,
                    "-m", "24", "-o", p["samples.txt"]]) == 0
    ids = [int(v) for v in open(p["samples.txt"]).read().split()]
    with open(p["obs.csv"], "w") as fh:
        fh.write("simplex_id,value\n")
        fh.writelines(f"{i},{0.5 * i}\n" for i in ids)
    assert run_cli(["reconstruct", str(comp), "--order", "1",
                    "--freqs", SELECTOR, "--samples", p["samples.txt"],
                    "--observed", p["obs.csv"], "-o", p["rec.csv"]]) == 0
    assert run_cli(["slepians", str(comp), "--edges", "1,5,8,40,41",
                    "--freqs", SELECTOR, "-o", p["slep.csv"]]) == 0
