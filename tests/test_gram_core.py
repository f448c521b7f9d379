"""Incidence SVDs from the Gram eigenproblems of the cached Laplacians, the
zero floor that keeps rounding noise out of every rank, the harmonic block
built on demand from the Hodge split and shared with the Dirac basis, and
vectorised sign fixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
import hodgesp.io as hio
from hodgesp import (
    betti,
    build_complex,
    dirac,
    dirac_basis,
    frequency_table,
    hodge_basis,
    hodge_laplacian,
    incidence,
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
    slepians,
)
from hodgesp._linalg import fix_column_signs
from hodgesp.cli import run_cli

from conftest import (
    complexes_with_cells,
    tetrahedron_boundaries,
    triangulated_grid,
)


def path_graph(n):
    """n vertices and n - 1 edges: the vertex Gram side is the larger."""
    return build_complex(n, [(i, i + 1) for i in range(n - 1)])


def triangle_ladder(rungs):
    """A strip of 2 (rungs - 1) triangles: vertices 2i and 2i + 1 on rung
    i, each square between two rungs split by the diagonal (2i+1, 2i+2)."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(v, v + 2) for v in range(2 * rungs - 2)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(rungs - 1)]
    triangles = [(v, v + 1, v + 2) for v in range(2 * rungs - 2)]
    return build_complex(2 * rungs, edges, triangles)


def complete_two_skeleton(n):
    """Every edge and triangle on n vertices: n2 > n1 for n >= 8."""
    vs = range(n)
    return build_complex(
        n, [(i, j) for i in vs for j in vs if i < j],
        [(i, j, k) for i in vs for j in vs for k in vs if i < j < k])


SPECTRAL_CASES = {
    # (complex, exact Betti numbers)
    "path": (lambda: path_graph(1000), (1, 0, 0)),
    "ladder": (lambda: triangle_ladder(360), (1, 0, 0)),
    "k9": (lambda: complete_two_skeleton(9), (1, 0, 56)),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_CASES))
def test_gram_bases_orthonormal_eigen_and_exact_rank(name):
    make, betti_numbers = SPECTRAL_CASES[name]
    c = make()
    if name == "path":
        assert c.n0 > c.n1
    if name == "k9":
        assert c.n2 > c.n1
    assert betti(c) == betti_numbers
    assert betti(c, tol=1e-30) == betti_numbers

    bases = [hodge_basis(c, k) for k in (0, 1, 2)]
    for basis, beta in zip(bases, betti_numbers):
        assert basis.n_harmonic == basis.harmonic.shape[1] == beta
    if name == "ladder":
        # The derived singular vectors are orthonormal to about
        # eps * lambda_max / lambda_min: a small lambda_min is the hard case.
        assert min(bases[1].gradient_frequencies[0],
                   bases[1].curl_frequencies[0]) < 1e-4
    q1 = bases[1].matrix()
    assert np.max(np.abs(q1.T @ q1 - np.eye(c.n1))) < 1e-9

    basis = dirac_basis(c)
    q, lam = basis.matrix(), basis.eigenvalues()
    assert basis.harmonic.shape[1] == sum(betti_numbers)
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-9
    assert np.max(np.abs(dirac(c).full @ q - q * lam)) < 1e-9


def test_zero_floor_keeps_noise_out_of_rank(complex7, skeleton7, cell7,
                                            tetra_surface,
                                            two_tetra_surfaces):
    for c in (complex7, skeleton7, cell7, tetra_surface, two_tetra_surfaces,
              tetrahedron_boundaries(3)):
        assert betti(c, tol=1e-30) == betti(c)


@pytest.fixture()
def no_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)


SELECTOR = "grad:0..2+curl:0..1"


def test_band_consumers_build_no_harmonic_block(complex7, no_qr):
    c = build_complex(7, complex7.edges, complex7.triangles)  # nothing cached
    basis = hodge_basis(c, 1)
    assert len(frequency_table(basis)) == c.n1
    freq = parse_frequency_selector(basis, SELECTOR)
    chosen = select_samples(c, 1, freq, 6, basis=basis)
    x = basis.columns(freq) @ np.arange(1.0, 6.0)
    rec = reconstruct_bandlimited(c, 1, freq, chosen, x[list(chosen)],
                                  basis=basis)
    assert np.allclose(rec.values, x, atol=1e-10)
    slepians(c, [1, 5, 8], freq, basis=basis)
    assert "harmonic" not in vars(basis)


def test_band_subcommands_build_no_harmonic_block(tmp_path, complex7, no_qr):
    comp = tmp_path / "c.json"
    hio.save_complex(comp, complex7)
    p = {name: str(tmp_path / name) for name in
         ("spec.csv", "samples.txt", "obs.csv", "rec.csv", "slep.csv")}
    assert run_cli(["spectrum", str(comp), "--order", "1",
                    "-o", p["spec.csv"]]) == 0
    assert run_cli(["sample", str(comp), "--order", "1", "--freqs", SELECTOR,
                    "-m", "6", "-o", p["samples.txt"]]) == 0
    ids = [int(v) for v in open(p["samples.txt"]).read().split()]
    with open(p["obs.csv"], "w") as fh:
        fh.write("simplex_id,value\n")
        fh.writelines(f"{i},{0.5 * i}\n" for i in ids)
    assert run_cli(["reconstruct", str(comp), "--order", "1",
                    "--freqs", SELECTOR, "--samples", p["samples.txt"],
                    "--observed", p["obs.csv"], "-o", p["rec.csv"]]) == 0
    assert run_cli(["slepians", str(comp), "--edges", "1,5,8",
                    "--freqs", SELECTOR, "-o", p["slep.csv"]]) == 0


@pytest.mark.parametrize("tol", [None, "1e-8"])
def test_spectrum_subcommand_runs_no_eigh_and_no_lambda_max(tmp_path, tol,
                                                            monkeypatch):
    """Without --basis-output a cold ``spectrum`` writes the values-only
    frequencies: no eigenvector solve, and no power iteration for a zero
    tolerance that nothing reads."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    c = triangulated_grid(6, [(1, 1), (3, 2)])
    comp, out = tmp_path / "c.json", tmp_path / "spec.csv"
    hio.save_complex(comp, c)
    monkeypatch.setattr(np.linalg, "eigh", refuse("np.linalg.eigh"))
    monkeypatch.setattr(hc, "_lambda_max", refuse("complexes._lambda_max"))
    sigma2 = {k: np.linalg.svd(incidence(c, k, dense=True),
                               compute_uv=False)[::-1] ** 2 for k in (1, 2)}
    for k in (0, 1, 2):
        argv = ["spectrum", str(comp), "--order", str(k), "-o", str(out)]
        assert run_cli(argv + (["--tolerance", tol] if tol else [])) == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        assert len(rows) == c.num_simplices(k)
        for kind, j in (("gradient", k), ("curl", k + 1)):
            got = np.array([float(r[2]) for r in rows if r[1] == kind])
            want = sigma2[j][sigma2[j] > 1e-8] if j in sigma2 else []
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def assert_columns_are_matrix_columns(c, rng, tol):
    """columns() gathers from the factors, building no dense gradient or
    curl block, and gives the bytes of the matrix() columns."""
    for k in (0, 1, 2):
        nk = c.num_simplices(k)
        for idx in ([], list(range(nk)), rng.permutation(nk)[: nk // 2 + 1],
                    rng.integers(0, nk, size=nk) if nk else []):
            # a fresh basis for each, so columns() runs before matrix()
            basis = hodge_basis(c, k, tol)
            cols = basis.columns(idx)
            assert "gradient" not in vars(basis)
            assert "curl" not in vars(basis)
            want = basis.matrix()[:, np.asarray(idx, dtype=np.intp)]
            assert cols.shape == want.shape
            assert cols.tobytes() == want.tobytes()


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_columns_equal_matrix_columns(complex7, cell7, tol):
    for c in (complex7, cell7):
        assert_columns_are_matrix_columns(c, np.random.default_rng(0), tol)


@settings(max_examples=20, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([None, 1e-6]))
def test_columns_equal_matrix_columns_random(c, seed, tol):
    assert_columns_are_matrix_columns(c, np.random.default_rng(seed), tol)


def test_columns_rejects_out_of_range(complex7):
    basis = hodge_basis(complex7, 1)
    for idx in ([-1], [complex7.n1]):
        with pytest.raises(IndexError):
            basis.columns(idx)


def test_harmonic_block_built_once(complex7, tetra_surface):
    for c, k in ((complex7, 1), (complex7, 2), (tetra_surface, 2)):
        basis = hodge_basis(c, k)
        first = basis.harmonic
        assert basis.harmonic is first
        assert first.shape == (c.num_simplices(k), basis.n_harmonic)


def complete_qr_harmonic(basis):
    """The complement of the gradient and curl columns as the trailing
    columns of their complete QR: the reference for the harmonic span."""
    block = np.hstack([basis.gradient, basis.curl])
    return np.linalg.qr(block, mode="complete")[0][:, block.shape[1]:]


def dense_rank(k, c):
    """rank(b_k) of the dense incidence matrix; 0 where b_k is undefined
    or empty."""
    b = incidence(c, k, dense=True) if k in (1, 2) else np.zeros((0, 0))
    return int(np.linalg.matrix_rank(b)) if b.size else 0


@settings(max_examples=40, deadline=None, database=None)
@given(c=complexes_with_cells(), tol=st.sampled_from([None, 1e-8, 0.5]))
def test_harmonic_block_properties(c, tol):
    for k in (0, 1, 2):
        basis = hodge_basis(c, k, tol)
        q, width = basis.harmonic, basis.n_harmonic
        assert q.shape == (c.num_simplices(k), width)
        assert np.allclose(q.T @ q, np.eye(width), rtol=0, atol=1e-12)
        for block in (basis.gradient, basis.curl):
            assert np.allclose(block.T @ q, 0.0, rtol=0, atol=1e-10)
        if tol is None:
            assert width == (c.num_simplices(k) - dense_rank(k, c)
                             - dense_rank(k + 1, c))
            lap = hodge_laplacian(c, k, sparse=True)
            assert np.allclose(lap @ q, 0.0, rtol=0, atol=1e-10)
        if width:
            overlap = complete_qr_harmonic(basis).T @ q
            assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0,
                               rtol=0, atol=1e-9)


def holes_and_surfaces():
    """A triangulated 5 x 5 grid with two unfilled squares (two holes each,
    split by their diagonals) beside two tetrahedron boundaries, built
    afresh: Betti numbers (3, 4, 2), so every harmonic
    block has more than one column and is not unique up to signs."""
    grid, tets = triangulated_grid(5, holes=[(1, 1), (3, 3)]), \
        tetrahedron_boundaries(2)
    n = grid.n0
    return build_complex(
        n + tets.n0,
        list(grid.edges) + [(u + n, v + n) for u, v in tets.edges],
        list(grid.triangles) + [tuple(v + n for v in t)
                                for t in tets.triangles])


@pytest.mark.parametrize("tol", [None, 1e-8])
def test_harmonic_and_dirac_bases_bit_identical_across_copies(tol):
    a, b = holes_and_surfaces(), holes_and_surfaces()
    assert betti(a) == (3, 4, 2)
    for k in (0, 1, 2):
        assert (hodge_basis(a, k, tol).harmonic.tobytes()
                == hodge_basis(b, k, tol).harmonic.tobytes())
    assert (dirac_basis(a, tol).matrix().tobytes()
            == dirac_basis(b, tol).matrix().tobytes())


@pytest.mark.parametrize("tol", [None, 1e-8])
def test_dirac_basis_reuses_the_harmonic_blocks(tol, monkeypatch):
    real_qr = np.linalg.qr

    def thin_qr_only(a, mode="reduced"):
        if mode == "complete":
            raise AssertionError("complete QR")
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", thin_qr_only)
    c = holes_and_surfaces()  # nothing cached
    harm = dirac_basis(c, tol).harmonic
    row = col = nonzero = 0
    for k in (0, 1, 2):
        hk = hodge_basis(c, k, tol).harmonic
        block = harm[row : row + hk.shape[0], col : col + hk.shape[1]]
        assert block.tobytes() == hk.tobytes()
        row, col = row + hk.shape[0], col + hk.shape[1]
        nonzero += np.count_nonzero(hk)
    assert harm.shape == (row, col)
    assert np.count_nonzero(harm) == nonzero  # zero off the blocks


def loop_fix_column_signs(u, tol):
    """The one-column-at-a-time reference."""
    u = np.array(u, copy=True)
    for j in range(u.shape[1]):
        idx = np.flatnonzero(np.abs(u[:, j]) > tol)
        if idx.size and u[idx[0], j] < 0:
            u[:, j] = -u[:, j]
    return u


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.5])
def test_fix_column_signs_matches_column_loop(tol):
    rng = np.random.default_rng(7)
    for shape in ((0, 0), (0, 3), (4, 0), (1, 1), (6, 5), (40, 30)):
        for _ in range(5):
            u = rng.standard_normal(shape) * rng.choice([1e-12, 0.3, 1.0],
                                                        size=shape)
            if u.size:
                u[:, rng.random(shape[1]) < 0.3] = 0.0  # zero columns
                u[rng.random(shape[0]) < 0.3] = 0.0  # zero rows
                u = np.where(u == 0.0, np.copysign(
                    0.0, rng.standard_normal(shape)), u)  # signed zeros
            got = fix_column_signs(u, tol)
            want = loop_fix_column_signs(u, tol)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got is not u
