"""Bandlimited sampling: recoverability, reconstruction, greedy selection,
and frequency selectors."""

import gc
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodgesp import (
    RankDeficientWarning,
    build_complex,
    hodge_basis,
    is_perfectly_recoverable,
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
    slepians,
    tft,
)
from hodgesp.complexes import _cache
from hodgesp.sampling import _near_best

from conftest import (
    EDGES7,
    HOLE_CYCLE_EDGES,
    TRIS7,
    complexes_with_cells,
    random_complex,
)


def test_too_few_samples_never_recoverable(complex7):
    ok, margin = is_perfectly_recoverable(complex7, 1, [0, 1, 2], [0, 1])
    assert not ok
    assert margin == 0.0


def test_harmonic_from_one_cycle_edge(complex7):
    ok, margin = is_perfectly_recoverable(
        complex7, 1, [0], [HOLE_CYCLE_EDGES[0]])
    assert ok and margin > 0.1


def test_full_sample_set_always_recoverable(complex7):
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = sorted(rng.choice(10, size=rng.integers(1, 10),
                              replace=False).tolist())
        ok, margin = is_perfectly_recoverable(complex7, 1, f, list(range(10)))
        assert ok
        assert margin == pytest.approx(1.0)


def test_planted_recovery(complex7):
    rng = np.random.default_rng(1)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    for _ in range(100):
        width = int(rng.integers(1, 6))
        f = sorted(rng.choice(10, size=width, replace=False).tolist())
        z = rng.standard_normal(width)
        x_star = u[:, f] @ z
        # random recoverable sample set of the same size
        for _ in range(50):
            s = sorted(rng.choice(10, size=width, replace=False).tolist())
            if is_perfectly_recoverable(complex7, 1, f, s, basis=basis).ok:
                break
        else:
            continue
        x = reconstruct_bandlimited(complex7, 1, f, s, x_star[s], basis=basis)
        err = np.linalg.norm(x.values - x_star) / np.linalg.norm(x_star)
        assert err <= 1e-9


def test_noisy_overdetermined_is_projection(complex7):
    rng = np.random.default_rng(2)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    f = [0, 1, 2]
    s = list(range(10))
    x_star = u[:, f] @ rng.standard_normal(3)
    noise = 0.1 * rng.standard_normal(10)
    x = reconstruct_bandlimited(complex7, 1, f, s, x_star + noise, basis=basis)
    # residual equals the noise component off the bandlimited range
    resid = (x_star + noise) - x.values
    proj_noise = noise - u[:, f] @ (u[:, f].T @ noise)
    assert np.allclose(resid, proj_noise, atol=1e-10)


def test_full_everything_identity(complex7):
    rng = np.random.default_rng(3)
    observed = rng.standard_normal(10)
    x = reconstruct_bandlimited(complex7, 1, list(range(10)),
                                list(range(10)), observed)
    assert np.allclose(x.values, observed, atol=1e-10)


def test_reconstruction_stays_bandlimited(complex7):
    rng = np.random.default_rng(4)
    basis = hodge_basis(complex7, 1)
    f = [0, 3, 8]
    s = select_samples(complex7, 1, f, 5, basis=basis)
    observed = rng.standard_normal(len(s))
    x = reconstruct_bandlimited(complex7, 1, f, s, observed, basis=basis)
    coeffs = tft(basis, x)
    full = np.concatenate([coeffs.harmonic, coeffs.gradient, coeffs.curl])
    outside = np.setdiff1d(np.arange(10), f)
    assert np.max(np.abs(full[outside])) <= 1e-10


def test_rank_deficient_warns(complex7):
    with pytest.warns(RankDeficientWarning):
        reconstruct_bandlimited(complex7, 1, [0, 1, 2], [0, 1], [0.5, 0.2])


def test_select_single_frequency_takes_largest_entry(complex7):
    basis = hodge_basis(complex7, 1)
    s = select_samples(complex7, 1, [0], 1, basis=basis)
    h = np.abs(basis.harmonic[:, 0])
    # Entries 5 and 8 tie in exact arithmetic (vertex 6 meets only those two
    # edges); a tie within the 1e-15 slack goes to the lowest index.
    assert s[0] == int(np.flatnonzero(h >= h.max() - 1e-15)[0])


def test_select_full_set_margin_one(complex7):
    s = select_samples(complex7, 1, [0, 1, 7], 10)
    assert sorted(s) == list(range(10))
    ok, margin = is_perfectly_recoverable(complex7, 1, [0, 1, 7], s)
    assert ok and margin == pytest.approx(1.0)


def test_greedy_beats_random_monte_carlo(complex7):
    from itertools import combinations

    basis = hodge_basis(complex7, 1)
    f = [1, 2, 3]  # three lowest gradient frequencies
    greedy = select_samples(complex7, 1, f, 3, basis=basis)
    greedy_margin = is_perfectly_recoverable(complex7, 1, f, greedy,
                                             basis=basis).margin
    # against the full population of size-3 sets: at least the 95th percentile
    all_margins = [
        is_perfectly_recoverable(complex7, 1, f, list(s), basis=basis).margin
        for s in combinations(range(10), 3)
    ]
    beaten = sum(m > greedy_margin + 1e-12 for m in all_margins)
    assert beaten <= 0.05 * len(all_margins)
    # and the stated seeded Monte-Carlo form
    rng = np.random.default_rng(7)
    wins = sum(
        greedy_margin >= is_perfectly_recoverable(
            complex7, 1, f,
            sorted(rng.choice(10, size=3, replace=False).tolist()),
            basis=basis).margin - 1e-12
        for _ in range(100)
    )
    assert wins >= 95


def test_greedy_error_monotone_along_path(complex7):
    rng = np.random.default_rng(6)
    basis = hodge_basis(complex7, 1)
    u = basis.matrix()
    f = [0, 1, 2, 7]
    x_star = u[:, f] @ rng.standard_normal(4)
    path = select_samples(complex7, 1, f, 10, basis=basis)
    errors = []
    for size in range(4, 11):
        s = list(path[:size])
        x = reconstruct_bandlimited(complex7, 1, f, s, x_star[s], basis=basis)
        errors.append(np.linalg.norm(x.values - x_star))
    assert all(e < 1e-9 for e in errors)  # noiseless: exact once recoverable

    # with observation noise the error still trends down along the path
    noise = 0.05 * rng.standard_normal(10)
    noisy_errors = []
    for size in range(4, 11):
        s = list(path[:size])
        x = reconstruct_bandlimited(complex7, 1, f, s,
                                    (x_star + noise)[s], basis=basis)
        noisy_errors.append(np.linalg.norm(x.values - x_star))
    assert noisy_errors[-1] <= noisy_errors[0] + 1e-12
    for a, b in zip(noisy_errors, noisy_errors[1:]):
        assert b <= 1.5 * a  # non-increasing within noise


def test_selector_parsing(complex7):
    basis = hodge_basis(complex7, 1)
    assert parse_frequency_selector(basis, "harm") == (0,)
    assert parse_frequency_selector(basis, "grad:0..2") == (1, 2, 3)
    assert parse_frequency_selector(basis, "curl:1") == (8,)
    assert parse_frequency_selector(basis, "idx:0,4,9") == (0, 4, 9)
    assert parse_frequency_selector(basis, "harm+curl:0..1") == (0, 7, 8)
    with pytest.raises(ValueError):
        parse_frequency_selector(basis, "grad:0..9")
    with pytest.raises(ValueError):
        parse_frequency_selector(basis, "nonsense")
    # malformed parts are rejected by name
    for bad in ("curl:1..", "grad:", "grad:a..2", "idx:x", "idx:", "grad:2..1",
                "harm+curl:0..x"):
        part = bad.split("+")[-1]
        with pytest.raises(ValueError, match=re.escape(repr(part))):
            parse_frequency_selector(basis, bad)


def reference_select(basis, freq_set, m) -> tuple[int, ...]:
    """The greedy scan with one SVD per candidate and step: the margin of a
    trial set is its min(rows, |F|)-th singular value, and a candidate
    replaces the best so far only when it beats it by more than 1e-15."""
    u_f = basis.matrix()[:, list(freq_set)]
    selected: list[int] = []
    for _ in range(m):
        best_idx, best_margin = -1, -1.0
        for r in range(u_f.shape[0]):
            if r in selected:
                continue
            trial = u_f[selected + [r], :]
            s = np.linalg.svd(trial, compute_uv=False)
            margin = float(s[min(trial.shape) - 1])
            if margin > best_margin + 1e-15:
                best_idx, best_margin = r, margin
        selected.append(best_idx)
    return tuple(selected)


def assert_selection_matches_reference(c, k, freq_set, m) -> None:
    basis = hodge_basis(c, k)
    want = reference_select(basis, freq_set, m)
    u_f = basis.matrix()[:, list(freq_set)]
    if m >= len(freq_set) and np.linalg.svd(
            u_f[list(want)], compute_uv=False)[-1] <= 1e-5:
        with pytest.raises(ValueError, match="no recoverable sample set"):
            select_samples(c, k, freq_set, m, basis=basis)
    else:
        assert select_samples(c, k, freq_set, m, basis=basis) == want


@pytest.mark.parametrize("fixture", ["complex7", "cell7"])
def test_select_matches_one_svd_per_candidate(fixture, request):
    c = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    for k in (0, 1, 2):
        nk = c.num_simplices(k)
        freq_sets = [list(range(nk))] + [
            sorted(rng.choice(nk, size=rng.integers(1, nk + 1),
                              replace=False).tolist()) for _ in range(4)]
        for f in freq_sets:
            for m in range(1, nk + 1):
                assert_selection_matches_reference(c, k, f, m)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_select_matches_one_svd_per_candidate_random(seed, data):
    rng = np.random.default_rng(seed)
    c = random_complex(rng, max_vertices=12, with_cells=True)
    k = data.draw(st.integers(0, 2))
    nk = c.num_simplices(k)
    if nk == 0:
        return
    f = data.draw(st.lists(st.integers(0, nk - 1), min_size=1, unique=True))
    m = data.draw(st.integers(1, nk))
    assert_selection_matches_reference(c, k, sorted(f), m)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), nf=st.integers(1, 6),
       picked=st.integers(0, 8), diagonal=st.booleans())
def test_near_best_is_the_eigvalsh_near_set(seed, nf, picked, diagonal):
    """The secular-equation scores against one eigvalsh per candidate, with
    repeated eigenvalues and exact zero weights when the Gram matrix is
    diagonal."""
    rng = np.random.default_rng(seed)
    if diagonal:
        gram = np.diag(np.sort(rng.choice([0.0, 0.5, 1.0, 2.0], size=nf)))
    else:
        a = rng.standard_normal((picked, nf))
        gram = a.T @ a
    rows = rng.standard_normal((12, nf)) * (rng.random((12, nf)) < 0.6)
    rows[rng.integers(12)] = rows[rng.integers(12)]  # an exact tie
    p = max(nf - picked - 1, 0)
    lam = np.array([np.linalg.eigvalsh(gram + np.outer(u, u))[p]
                    for u in rows])
    near = _near_best(gram, rows, p)
    top = lam.max()
    # eigvalsh itself is accurate to rounding of the matrix norm
    err = 1e-13 * (1.0 + np.abs(gram).sum() + (rows**2).sum(axis=1).max())
    assert np.all(lam[near] >= top - 1e-10 * max(1.0, top) - err)
    clear = lam >= top - 1e-10 * max(1.0, top) + err
    assert set(np.flatnonzero(clear)) <= set(near.tolist())


def test_one_svd_serves_margin_fit_and_slepians(complex7, monkeypatch):
    """The margin, the fit and the Slepian set read one SVD of the sampled
    band, taken once for the three as they share the cached fit; none of
    them calls lstsq or eigh."""
    basis = hodge_basis(complex7, 1)
    f, s = [0, 3, 8], [1, 5, 8, 9]
    basis.columns(f)  # build the lazy blocks and tolerance before patching
    basis.tolerance

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", refuse("lstsq"))
    monkeypatch.setattr(np.linalg, "eigh", refuse("eigh"))
    monkeypatch.setattr(np.linalg, "svd", counted)
    is_perfectly_recoverable(complex7, 1, f, s, basis=basis)
    reconstruct_bandlimited(complex7, 1, f, s, [1.0, 0.5, -0.5, 2.0],
                            basis=basis)
    slepians(complex7, s, f, basis=basis)
    assert calls == [(len(s), len(f))]


def test_fit_follows_sets_changed_in_place(complex7):
    """The cached fit is keyed on the values of the index sets, so a list
    changed between calls gives what a cold complex gives."""
    fresh = build_complex(7, EDGES7, TRIS7)
    freqs, samples = [0, 3, 8], [1, 5, 8, 9]
    x = hodge_basis(complex7, 1).columns(freqs) @ np.array([1.0, -2.0, 0.5])
    for change in (lambda: None, lambda: samples.__setitem__(0, 2),
                   lambda: freqs.__setitem__(1, 4)):
        change()
        got = reconstruct_bandlimited(complex7, 1, freqs, samples, x[samples])
        want = reconstruct_bandlimited(fresh, 1, list(freqs), list(samples),
                                       x[samples])
        assert np.array_equal(got.values, want.values)
        assert is_perfectly_recoverable(complex7, 1, freqs, samples) \
            == is_perfectly_recoverable(fresh, 1, list(freqs), list(samples))
        _cache.pop(fresh)


def test_rank_deficiency_warns_on_every_call(complex7):
    for _ in range(3):
        with pytest.warns(RankDeficientWarning, match="margin 0.000e"):
            reconstruct_bandlimited(complex7, 1, [0, 3, 8], [1, 5], [1.0, 2.0])


def test_new_basis_tol_or_sample_set_replaces_the_fit(complex7, monkeypatch):
    """One slot holds the fit: a repeated (basis, k, tol, F, S) takes no
    SVD, and a new basis, tol or sample set takes one and replaces it."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    f, s = [0, 3, 8], [1, 5, 8, 9]
    basis = hodge_basis(complex7, 1)
    steps = [
        (dict(basis=basis), 1),
        (dict(basis=basis), 0),
        (dict(basis=hodge_basis(complex7, 1)), 1),
        (dict(basis=basis), 1),
        (dict(basis=basis, tol=1e-6), 1),
        (dict(basis=basis, tol=1e-6), 0),
        (dict(basis=basis, tol=1e-6, sample_set=[1, 5, 8]), 1),
        (dict(basis=basis, tol=1e-6), 1),
        (dict(), 1),
        (dict(), 0),
    ]
    for kwargs, svds in steps:
        calls.clear()
        is_perfectly_recoverable(complex7, 1, f, kwargs.pop("sample_set", s),
                                 **kwargs)
        assert len(calls) == svds


def test_fit_slot_keeps_no_complex_alive():
    c = build_complex(7, EDGES7, TRIS7)
    reconstruct_bandlimited(c, 1, [0, 3], [1, 5, 8], [1.0, 0.0, 2.0],
                            basis=hodge_basis(c, 1))
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def draw_band(c, k, data):
    """A nonempty frequency set and a nonempty sample set of order k, each
    of any size, so both rank-deficient sets and |S| < |F| come up."""
    nk = c.num_simplices(k)
    assume(nk > 0)
    index = st.lists(st.integers(0, nk - 1), min_size=1, unique=True)
    return data.draw(index), data.draw(index)


@settings(max_examples=60, deadline=None, database=None)
@given(c=complexes_with_cells(), data=st.data())
def test_fit_is_the_min_norm_lstsq_fit(c, data):
    k = data.draw(st.integers(0, 2))
    f, s = draw_band(c, k, data)
    basis = hodge_basis(c, k)
    u_f = basis.matrix()[:, f]
    observed = np.random.default_rng(len(f) + 7 * len(s)).standard_normal(
        len(s))
    want = u_f @ np.linalg.lstsq(u_f[s], observed, rcond=None)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        got = reconstruct_bandlimited(c, k, f, s, observed, basis=basis)
    assert np.linalg.norm(got.values - want) \
        <= 1e-10 * max(np.linalg.norm(want), 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(c=complexes_with_cells(), data=st.data())
def test_slepians_are_eigenvectors_of_f_c_f(c, data):
    s, f = draw_band(c, 1, data)
    basis = hodge_basis(c, 1)
    u_f = basis.matrix()[:, f]
    band = u_f @ u_f.T
    op = band[:, s] @ band[s, :]  # F C_S F
    result = slepians(c, s, f, basis=basis)
    assert result.vectors.shape == (c.n1, len(f))
    assert np.allclose(result.vectors.T @ result.vectors, np.eye(len(f)),
                       atol=1e-10)
    for vec, conc in zip(result.vectors.T, result.concentrations):
        assert np.linalg.norm(op @ vec - conc * vec) <= 1e-10
        assert np.linalg.norm(band @ vec - vec) <= 1e-10
