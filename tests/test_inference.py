"""Triangle inference from edge flows: projection, residual energy, and the
two greedy criteria, checked against exhaustive search on small cases and
against the per-candidate Gram-Schmidt loop max_curl_fit replaced."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
from hodgesp import (
    DegenerateScoresWarning,
    build_complex,
    hodge_basis,
    hodge_decompose,
    infer_triangles,
    project_out_gradient,
    residual_energy,
    triangle_candidates,
)

from conftest import EDGES7, TRIS7, complexes_with_cells


def boundary_column(c, tri):
    """Boundary [v,w] - [u,w] + [u,v] of the triangle (u, v, w), written
    out independently of build_complex."""
    u, v, w = tri
    col = np.zeros(c.n1)
    col[c.edge_index(u, v)] = 1.0
    col[c.edge_index(u, w)] = -1.0
    col[c.edge_index(v, w)] = 1.0
    return col


def curl_fit_reference(c, flows, count):
    """max_curl_fit as a scan that Gram-Schmidt-orthogonalizes every
    remaining candidate against the chosen columns at every pick: the loop
    the deflation replaced, kept as its reference. Returns the picks, the
    per-step scores, the number of degenerate steps, and per step the gap
    between the best and the second-best gain."""
    candidates = triangle_candidates(c)
    proj = project_out_gradient(c, flows)
    tiny = 1e-12 * float(np.sum(np.asarray(flows, dtype=float) ** 2))
    basis, remaining = [], list(range(len(candidates)))
    chosen, scores, gaps, degenerate = [], [], [], 0
    for _ in range(count):
        best_i, best_gain, gains = None, -1.0, []
        for i in remaining:
            q = boundary_column(c, candidates[i])
            for b in basis:
                q -= (b @ q) * b
            norm = np.linalg.norm(q)
            gain = 0.0 if norm**2 <= 1e-20 else \
                float(np.sum((q / norm @ proj) ** 2))
            if gain <= tiny:
                gain = 0.0
            gains.append(gain)
            if gain > best_gain + 1e-15:
                best_i, best_gain = i, gain
        gains.sort()
        gaps.append(gains[-1] - gains[-2] if len(gains) > 1 else np.inf)
        degenerate += best_gain <= tiny
        chosen.append(candidates[best_i])
        scores.append(best_gain)
        remaining.remove(best_i)
        q = boundary_column(c, candidates[best_i])
        for b in basis:
            q -= (b @ q) * b
        norm = np.linalg.norm(q)
        if norm**2 > 1e-20:
            basis.append(q / norm)
    return chosen, scores, degenerate, gaps


def test_gradient_flows_project_to_zero(skeleton7):
    rng = np.random.default_rng(0)
    flows = skeleton7.b1.toarray().T.astype(float) @ rng.standard_normal((7, 5))
    out = project_out_gradient(skeleton7, flows)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_projection_idempotent_and_divergence_free(skeleton7):
    rng = np.random.default_rng(1)
    flows = rng.standard_normal((10, 8))
    once = project_out_gradient(skeleton7, flows)
    twice = project_out_gradient(skeleton7, once)
    assert np.allclose(once, twice, atol=1e-12)
    assert np.max(np.abs(skeleton7.b1.toarray() @ once)) <= 1e-10


def test_projection_builds_only_the_gradient_solver():
    c = build_complex(7, EDGES7, TRIS7)
    project_out_gradient(c, np.ones((10, 2)))
    assert ("potential", 0) in hc._cache[c]
    assert ("potential", 2) not in hc._cache[c]


@pytest.mark.parametrize("tol", [1e-12, 1e-6, 2.5])
def test_projection_with_tol_matches_the_singular_vectors(complex7, tol):
    # The explicit-tol projection removes the right singular vectors of b1
    # whose singular values exceed sqrt(tol), as the thresholded SVD did,
    # to rounding: the exact sparse part less the vectors tol drops.
    flows = np.random.default_rng(3).standard_normal((10, 4))
    _, s, vt = hc._incidence_svd(complex7, 1)
    v_grad = vt[s > hc._zero_tolerance(complex7, tol) ** 0.5].T
    want = flows - v_grad @ (v_grad.T @ flows)
    got = project_out_gradient(complex7, flows, tol)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_residual_energy_values(complex7, skeleton7):
    rng = np.random.default_rng(2)
    grad = skeleton7.b1.toarray().T.astype(float) @ rng.standard_normal(7)
    assert residual_energy(project_out_gradient(skeleton7, grad)) < 1e-20

    h = hodge_basis(skeleton7, 1).matrix()  # skeleton: harmonic = cycles
    harm = hodge_basis(complex7, 1).harmonic[:, 0]
    assert residual_energy(project_out_gradient(skeleton7, harm)) == \
        pytest.approx(1.0)

    mixed = rng.standard_normal(10)
    parts = hodge_decompose(complex7, complex7.cochain(1, mixed))
    total = float(mixed @ mixed)
    grad_energy = float(parts.gradient.values @ parts.gradient.values)
    got = residual_energy(project_out_gradient(skeleton7, mixed))
    assert abs(got - (total - grad_energy)) < 1e-10


def test_candidates_are_cliques(skeleton7):
    cands = triangle_candidates(skeleton7)
    assert cands == [(0, 1, 2), (0, 1, 3), (0, 2, 6), (0, 4, 5)]
    edge_set = set(skeleton7.edges)
    for u, v, w in cands:
        assert {(u, v), (u, w), (v, w)} <= edge_set


def test_planted_recovery_monte_carlo(complex7, skeleton7):
    rng = np.random.default_rng(3)
    b2 = complex7.b2.toarray().astype(float)
    hits = 0
    for _ in range(100):
        flows = b2 @ rng.standard_normal((3, 20)) \
            + 0.01 * rng.standard_normal((10, 20))
        chosen, _ = infer_triangles(skeleton7, flows, 3, "max_curl_fit")
        if sorted(chosen) == sorted(complex7.triangles):
            hits += 1
    assert hits >= 95


def test_pure_gradient_degenerate_warning(skeleton7):
    rng = np.random.default_rng(4)
    flows = skeleton7.b1.toarray().T.astype(float) @ rng.standard_normal((7, 4))
    with pytest.warns(DegenerateScoresWarning):
        chosen, scores = infer_triangles(skeleton7, flows, 2,
                                         "min_smoothness")
    assert chosen == [(0, 1, 2), (0, 1, 3)]  # lexicographic tie-break
    assert np.allclose(scores, 0.0, atol=1e-15)


def test_harmonic_flow_hole_triangle_selected_last(complex7, skeleton7):
    harm = hodge_basis(complex7, 1).harmonic[:, 0]
    chosen, scores = infer_triangles(skeleton7, harm[:, None], 4,
                                     "min_smoothness")
    assert chosen[-1] == (0, 2, 6)
    assert scores[-1] > max(scores[:-1]) + 0.1
    chosen3, _ = infer_triangles(skeleton7, harm[:, None], 3,
                                 "min_smoothness")
    assert (0, 2, 6) not in chosen3


def test_greedy_objectives_monotone(skeleton7):
    rng = np.random.default_rng(5)
    flows = rng.standard_normal((10, 6))
    _, smooth_scores = infer_triangles(skeleton7, flows, 4, "min_smoothness")
    assert all(b >= a - 1e-12 for a, b in zip(smooth_scores,
                                              smooth_scores[1:]))
    _, fit_scores = infer_triangles(skeleton7, flows, 4, "max_curl_fit")
    assert all(s >= -1e-12 for s in fit_scores)
    total = residual_energy(project_out_gradient(skeleton7, flows))
    assert sum(fit_scores) <= total + 1e-9


def test_scale_invariance(skeleton7):
    rng = np.random.default_rng(6)
    flows = rng.standard_normal((10, 5))
    for criterion in ("min_smoothness", "max_curl_fit"):
        a, _ = infer_triangles(skeleton7, flows, 4, criterion)
        b, _ = infer_triangles(skeleton7, 7.3 * flows, 4, criterion)
        assert a == b


def test_matches_exhaustive_oracle(skeleton7):
    rng = np.random.default_rng(7)
    candidates = triangle_candidates(skeleton7)

    def column(tri):
        return boundary_column(skeleton7, tri)

    for trial in range(5):
        flows = project_out_gradient(
            skeleton7, rng.standard_normal((10, 4)))
        for t_count in (1, 2):
            # oracle: best subset by total captured curl-space energy
            def captured(subset):
                mat = np.column_stack([column(t) for t in subset])
                q, _ = np.linalg.qr(mat)
                return float(np.sum((q.T @ flows) ** 2))

            best = max(combinations(candidates, t_count), key=captured)
            chosen, _ = infer_triangles(skeleton7, flows, t_count,
                                        "max_curl_fit")
            assert captured(tuple(chosen)) >= captured(best) - 1e-9

            # min_smoothness greedy equals the exact minimizer (additive)
            def smoothness(subset):
                return sum(float(np.sum((column(t) @ flows) ** 2))
                           for t in subset)

            best_smooth = min(combinations(candidates, t_count),
                              key=smoothness)
            chosen_s, _ = infer_triangles(skeleton7, flows, t_count,
                                          "min_smoothness")
            assert smoothness(tuple(chosen_s)) <= \
                smoothness(best_smooth) + 1e-9


@pytest.mark.parametrize("count, flows, match", [
    pytest.param(5, np.zeros((10, 1)), "3-cliques", id="too_many"),
    pytest.param(-1, np.ones((10, 1)), "count must be >= 0", id="negative"),
    pytest.param(2.5, np.ones((10, 1)), "count must be an integer",
                 id="fractional"),
    pytest.param(2.0, np.ones((10, 1)), "count must be an integer",
                 id="float"),
    pytest.param(True, np.ones((10, 1)), "count must be an integer",
                 id="bool"),
    pytest.param(2, np.full((10, 1), np.nan), "flows must be a finite",
                 id="nan_flows"),
    pytest.param(2, np.full((10, 1), np.inf), "flows must be a finite",
                 id="inf_flows"),
    pytest.param(2, np.ones((10, 1, 1)), "flows must be a finite",
                 id="3d_flows"),
])
def test_count_validation(skeleton7, count, flows, match):
    for criterion in ("min_smoothness", "max_curl_fit"):
        with pytest.raises(ValueError, match=match):
            infer_triangles(skeleton7, flows, count, criterion)


@settings(max_examples=40, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1),
       in_span=st.booleans())
def test_curl_fit_matches_reference(c, seed, in_span):
    skeleton = build_complex(c.n0, c.edges)
    candidates = triangle_candidates(skeleton)
    if not candidates:
        return
    rng = np.random.default_rng(seed)
    snapshots = int(rng.integers(1, 4))
    if in_span:
        # Flows in the span of about 40% of the candidate boundaries: the
        # later picks are exactly dependent or capture nothing.
        cols = np.column_stack([boundary_column(skeleton, t)
                                for t in candidates])
        coeffs = rng.standard_normal((len(candidates), snapshots))
        coeffs[rng.random(len(candidates)) < 0.6] = 0.0
        flows = cols @ coeffs
    else:
        flows = rng.standard_normal((skeleton.n1, snapshots))
    count = len(candidates)
    want, want_scores, want_degenerate, gaps = curl_fit_reference(
        skeleton, flows, count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, got_scores = infer_triangles(skeleton, flows, count)
    degenerate = sum(issubclass(w.category, DegenerateScoresWarning)
                     for w in caught)
    assert degenerate == want_degenerate == len(caught)
    energy = float(np.sum(flows**2))
    assert np.allclose(got_scores, want_scores, rtol=0,
                       atol=1e-12 * max(energy, 1e-300))
    for step, (a, b) in enumerate(zip(got, want)):
        if a != b:  # the paths may part only where the leading gains tie
            assert gaps[step] <= 1e-12 * energy
            break


def test_grid_skeleton_recovers_planted_triangles():
    m = 10
    right = [(v, v + 1) for v in range(m * m) if v % m < m - 1]
    down = [(v, v + m) for v in range(m * (m - 1))]
    diagonal = [(v, v + m + 1) for v in range(m * (m - 1)) if v % m < m - 1]
    edges = right + down + diagonal
    skeleton = build_complex(m * m, edges)
    # One triangle in each of four squares that share no edge.
    planted = [(0, 1, 11), (22, 32, 33), (45, 46, 56), (77, 87, 88)]
    filled = build_complex(m * m, edges, planted)
    rng = np.random.default_rng(9)
    flows = filled.b2 @ rng.standard_normal((4, 20)) \
        + 0.01 * rng.standard_normal((skeleton.n1, 20))
    chosen, scores = infer_triangles(skeleton, flows, 4)
    assert sorted(chosen) == planted
    assert sum(scores) <= residual_energy(
        project_out_gradient(skeleton, flows)) + 1e-9


def test_outputs_satisfy_inclusivity():
    rng = np.random.default_rng(8)
    from conftest import random_complex
    for _ in range(5):
        c = random_complex(rng, max_vertices=12)
        cands = triangle_candidates(c)
        if not cands:
            continue
        flows = rng.standard_normal((c.n1, 3))
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore")
            chosen, _ = infer_triangles(c, flows, min(2, len(cands)))
        edge_set = set(c.edges)
        for u, v, t in chosen:
            assert {(u, v), (u, t), (v, t)} <= edge_set
