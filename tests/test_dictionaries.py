"""Slepian sets, parametric filter dictionaries, and greedy sparse coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgesp import (
    HodgeFilterSpec,
    build_dictionary,
    hodge_basis,
    hodge_laplacian,
    slepians,
    sparse_code,
)
from hodgesp import dictionaries

from conftest import HOLE_CYCLE_EDGES, complexes_with_cells

PROPERTY = settings(max_examples=40, deadline=None, database=None)


def omp_reference(atoms, target, sparsity, residual_tol=1e-10):
    """Orthogonal matching pursuit refitting the support by lstsq at every
    step: the loop sparse_code replaced, kept as its reference. Also returns
    the smallest gap between the best and the second-best score over the
    picks made, relative to the norm of the target."""
    norms = np.linalg.norm(atoms, axis=0)
    usable = norms > 0
    norms[~usable] = np.inf
    coeffs = np.zeros(atoms.shape[1])
    selected = []
    residual = target.copy()
    gap = 1.0
    for _ in range(min(sparsity, int(usable.sum()))):
        res_norm = np.linalg.norm(residual)
        if res_norm < residual_tol:
            break
        scores = np.abs(atoms.T @ residual) / norms
        scores[selected] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 1e-12 * res_norm:
            break
        runner_up = max(np.delete(scores, best), default=0.0)
        gap = min(gap, (scores[best] - max(runner_up, 0.0))
                  / np.linalg.norm(target))
        selected.append(best)
        sub = atoms[:, selected]
        fit = np.linalg.lstsq(sub, target, rcond=None)[0]
        residual = target - sub @ fit
    if selected:
        coeffs[selected] = fit
    return coeffs, gap


def fit_tolerance(atoms, coeffs):
    """1e-12, growing with the condition number of the support beyond 1e3:
    the rounding of any least-squares fit does, and random filter
    dictionaries reach 1e7."""
    support = np.flatnonzero(coeffs)
    cond = np.linalg.cond(atoms[:, support]) if support.size else 1.0
    return 1e-12 * max(1.0, cond / 1e3)


def assert_same_residual_norm(atoms, x, got, want):
    assert abs(np.linalg.norm(x - atoms @ got)
               - np.linalg.norm(x - atoms @ want)) \
        <= fit_tolerance(atoms, want) * np.linalg.norm(x)


def assert_matches_reference(atoms, dictionary, x, sparsity):
    """Same support and coefficients as the reference, unless the reference
    met an exact tie; then the same residual norm.

    Two atoms whose components orthogonal to the picks so far are equal up
    to sign tie for every residual and extend the support to the same span,
    so either pick is correct. Filter dictionaries on small complexes have
    many: parallel atoms (an edge outside every 2-cell and without lower
    neighbours gets a scaled unit vector from every filter), and
    mirror-image atoms once the picks span the rest of a symmetric
    neighbourhood. Their computed scores differ by rounding of the order of
    eps times the signal norm; a gap of 1e-13 of the signal norm is far
    above that rounding and far below the gaps of distinct atoms.
    """
    want, gap = omp_reference(atoms, x, sparsity)
    got = sparse_code(dictionary, x, sparsity)
    if gap > 1e-13:
        assert np.array_equal(np.flatnonzero(got), np.flatnonzero(want))
        assert np.linalg.norm(got - want) \
            <= fit_tolerance(atoms, want) * np.linalg.norm(want)
    else:
        assert_same_residual_norm(atoms, x, got, want)


def test_full_sets_give_unit_concentration(complex7):
    s = slepians(complex7, list(range(10)), list(range(10)))
    assert np.allclose(s.concentrations, 1.0)
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(10))) < 1e-10


def test_single_harmonic_frequency(complex7):
    basis = hodge_basis(complex7, 1)
    s = slepians(complex7, [0, 1, 2], [0], basis=basis)
    h = basis.harmonic[:, 0]
    assert np.allclose(np.abs(s.vectors[:, 0]), np.abs(h), atol=1e-12)
    energy = float(np.sum(h[[0, 1, 2]] ** 2))
    assert abs(s.concentrations[0] - energy) < 1e-12


def test_harmonic_concentrated_on_hole_cycle(complex7):
    s = slepians(complex7, list(HOLE_CYCLE_EDGES), [0])
    assert s.concentrations[0] > 0.5


def test_eigen_relation_and_bandlimitedness(complex7):
    rng = np.random.default_rng(0)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    for _ in range(5):
        f_set = sorted(rng.choice(10, size=4, replace=False).tolist())
        s_set = sorted(rng.choice(10, size=5, replace=False).tolist())
        s = slepians(complex7, s_set, f_set, basis=basis)
        f_proj = u[:, f_set] @ u[:, f_set].T
        c_proj = np.zeros((10, 10))
        c_proj[s_set, s_set] = 1.0
        op = f_proj @ c_proj @ f_proj
        for vec, conc in zip(s.vectors.T, s.concentrations):
            assert np.linalg.norm(op @ vec - conc * vec) <= 1e-8
            assert np.linalg.norm(f_proj @ vec - vec) <= 1e-9
        assert np.all(np.diff(s.concentrations) <= 1e-12)
        assert np.all(s.concentrations >= -1e-12)
        assert np.all(s.concentrations <= 1 + 1e-12)


def test_rank_deficient_padding(complex7):
    # one-edge concentration set has rank-1 operator; extra vectors come
    # back bandlimited with zero concentration
    s = slepians(complex7, [3], list(range(4)))
    assert s.vectors.shape == (10, 4)
    assert s.concentrations[0] > 0
    assert np.allclose(s.concentrations[1:], 0.0, atol=1e-12)
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(4))) < 1e-10


def test_slepians_validation(complex7):
    with pytest.raises(ValueError):
        slepians(complex7, [], [0])
    with pytest.raises(ValueError):
        slepians(complex7, [0], [])
    with pytest.raises(ValueError):
        slepians(complex7, [0], [0, 1], m=3)


def test_dictionary_identity(complex7):
    d = build_dictionary(complex7, 1, [HodgeFilterSpec.identity()])
    assert np.array_equal(d.atoms, np.eye(10))


def test_dictionary_single_shift(complex7):
    spec = HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0,))
    d = build_dictionary(complex7, 1, [spec])
    assert np.allclose(d.atoms, hodge_laplacian(complex7, 1, "down"))


def test_dictionary_locality(complex7):
    spec = HodgeFilterSpec(h_down=(1.0, 0.5), h_up=(0.0, -0.5))
    d = build_dictionary(complex7, 1, [spec])
    lap = np.abs(hodge_laplacian(complex7, 1, "down")) \
        + np.abs(hodge_laplacian(complex7, 1, "up"))
    for j in range(10):
        reachable = lap[:, j] > 0
        reachable[j] = True
        outside = ~reachable
        assert np.all(d.atoms[outside, j] == 0.0)


def test_dictionary_rejects_harmonic(complex7):
    from hodgesp import HarmonicTerm
    spec = HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0,),
                           harmonic=HarmonicTerm(0.1, 3))
    with pytest.raises(ValueError, match="pure polynomials"):
        build_dictionary(complex7, 1, [spec])


def test_omp_single_atom(complex7):
    specs = [HodgeFilterSpec.identity(),
             HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0, 0.5))]
    d = build_dictionary(complex7, 1, specs)
    x = 3.0 * d.atoms[:, 5]
    coef = sparse_code(d, x, 1)
    assert coef[5] == pytest.approx(3.0)
    assert np.count_nonzero(coef) == 1
    assert np.linalg.norm(d.atoms @ coef - x) < 1e-10


def test_omp_orthogonal_signal(complex7):
    basis = hodge_basis(complex7, 1)
    d = basis.gradient  # atoms orthogonal to the harmonic vector
    x = basis.harmonic[:, 0]
    coef = sparse_code(d, complex7.cochain(1, x), 3)
    assert np.count_nonzero(coef) == 0
    assert np.linalg.norm(x - d @ coef) == pytest.approx(np.linalg.norm(x))


def test_omp_support_recovery_monte_carlo():
    rng = np.random.default_rng(1)
    n, n_atoms, s = 24, 40, 3
    hits = 0
    for _ in range(100):
        atoms = rng.standard_normal((n, n_atoms))
        atoms /= np.linalg.norm(atoms, axis=0)
        support = sorted(rng.choice(n_atoms, size=s, replace=False).tolist())
        weights = rng.uniform(1.0, 2.0, s) * rng.choice([-1.0, 1.0], s)
        x = atoms[:, support] @ weights
        coef = sparse_code(atoms, x, s)
        if sorted(np.flatnonzero(coef).tolist()) == support:
            hits += 1
    assert hits >= 95


def test_omp_residual_nonincreasing(complex7):
    rng = np.random.default_rng(2)
    specs = [HodgeFilterSpec.identity(),
             HodgeFilterSpec(h_down=(0.3, 1.0), h_up=(0.1, -0.4))]
    d = build_dictionary(complex7, 1, specs)
    x = rng.standard_normal(10)
    resids = []
    for s in range(1, 6):
        coef = sparse_code(d, complex7.cochain(1, x), s)
        resids.append(np.linalg.norm(x - d.atoms @ coef))
    assert all(b <= a + 1e-12 for a, b in zip(resids, resids[1:]))


def test_omp_zero_dictionary(complex7):
    with pytest.raises(ValueError, match="zero dictionary"):
        sparse_code(np.zeros((10, 4)), complex7.zero_cochain(1), 1)


def random_specs(rng):
    """One to three polynomial filters with nonzero random taps."""
    def taps():
        size = int(rng.integers(1, 4))
        return tuple(rng.uniform(0.2, 1.0, size) * rng.choice([-1, 1], size))
    return [HodgeFilterSpec(h_down=taps(), h_up=taps())
            for _ in range(int(rng.integers(1, 4)))]


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1))
def test_omp_matches_reference_on_hodge_dictionaries(c, seed):
    rng = np.random.default_rng(seed)
    for k in (0, 1, 2):
        nk = c.num_simplices(k)
        if nk == 0:
            continue
        d = build_dictionary(c, k, random_specs(rng))
        x = rng.standard_normal(nk)
        for sparsity in (1, 3, nk):
            assert_matches_reference(d.atoms, d, x, sparsity)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       n_atoms=st.integers(1, 20), sparsity=st.integers(1, 8))
def test_omp_matches_reference_on_dense_arrays(seed, n, n_atoms, sparsity):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n, n_atoms))
    atoms[:, rng.random(n_atoms) < 0.2] = 0.0
    if not atoms.any():
        atoms[:, 0] = 1.0
    x = rng.standard_normal(n)
    assert_matches_reference(atoms, atoms, x, sparsity)


def test_omp_degenerate_atoms():
    rng = np.random.default_rng(4)
    atoms = rng.standard_normal((6, 5))
    # atom 5 duplicates atom 1; atom 6 is the sum of atoms 2 and 3
    atoms = np.column_stack([atoms, atoms[:, 1], atoms[:, 2] + atoms[:, 3]])
    for trial in range(20):
        x = atoms @ rng.standard_normal(7) if trial % 2 else \
            rng.standard_normal(6)
        for sparsity in range(1, 8):
            want, _ = omp_reference(atoms, x, sparsity)
            got = sparse_code(atoms, x, sparsity)
            # an exact tie between atoms 1 and 5 may pick either
            assert_same_residual_norm(atoms, x, got, want)


def test_omp_builds_sparse_copy_once_without_lstsq(complex7, monkeypatch):
    specs = [HodgeFilterSpec.identity(),
             HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0, 0.5))]
    built = []
    real_csr = dictionaries.sparse.csr_array

    def counting_csr(*args, **kwargs):
        built.append(1)
        return real_csr(*args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("sparse_code must not call lstsq")

    dicts = [build_dictionary(complex7, 1, specs) for _ in range(2)]
    monkeypatch.setattr(dictionaries.sparse, "csr_array", counting_csr)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    rng = np.random.default_rng(6)
    for n_built, d in enumerate(dicts, start=1):
        for _ in range(5):
            coef = sparse_code(d, rng.standard_normal(10), 4)
            assert np.count_nonzero(coef) == 4
        assert len(built) == n_built


def test_dictionary_atoms_read_only(complex7):
    d = build_dictionary(complex7, 1, [HodgeFilterSpec.identity()])
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 2.0


def _inf_atom():
    atoms = np.eye(10)
    atoms[3, 3] = np.inf
    return atoms


@pytest.mark.parametrize("kwargs, match", [
    ({"x": np.r_[np.nan, np.ones(9)]}, "x must be finite"),
    ({"x": np.ones((10, 2))}, "x must be a 1-D signal"),
    ({"residual_tol": np.nan}, "residual_tol"),
    ({"residual_tol": -1.0}, "residual_tol"),
    ({"sparsity": 2.5}, "sparsity"),
    ({"sparsity": True}, "sparsity"),
    ({"dictionary": _inf_atom()}, "dictionary atoms must be finite"),
], ids=["nan-x", "2d-x", "nan-tol", "negative-tol", "fractional-sparsity",
        "bool-sparsity", "inf-atom"])
def test_sparse_code_rejects_bad_input(kwargs, match):
    args = {"dictionary": np.eye(10), "x": np.ones(10), "sparsity": 2}
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        sparse_code(**args)
