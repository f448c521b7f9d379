"""Coupled autoregression (predict/simulate/fit) and the streaming LMS."""

import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    IllConditionedWarning,
    LmsState,
    SCVarLag,
    SCVarModel,
    build_complex,
    hodge_decompose,
    hodge_laplacian,
    lambda_max,
    lms_build_regressor,
    lms_init,
    lms_step,
    scvar_fit,
    scvar_predict,
    scvar_simulate,
)
from hodgesp.complexes import _cache
from hodgesp.filters import _filter_values
from hodgesp.timeseries import (
    _compile,
    _lms_update,
    _operator,
    _regressor,
    _step_operator,
)

from conftest import EDGES7, TRIS7, complexes_with_cells, triangulated_grid


def random_signal(c, rng) -> ComplexSignal:
    return ComplexSignal.from_arrays(
        c, rng.standard_normal(c.n0), rng.standard_normal(c.n1),
        rng.standard_normal(c.n2)
    )


# The compiled SCVAR operator, and an LMS step operator held dense (at
# most DENSE_ENTRIES entries), sum in an order of their own, so the steps
# match the loops to rounding; the largest relative difference seen was
# 2.5e-15. A step operator held sparse sums as the loop does, byte for
# byte.
RTOL = 1e-12


def assert_close(got, want, exact=False):
    """``got`` equals ``want`` byte for byte, or to RTOL in norm."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def planted_model(c, scale=1.0) -> SCVarModel:
    """Canonical-form coupled model, spectrally small enough to be stable."""
    lag = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(0.3 * scale, -0.02 * scale)),
        g01=HodgeFilterSpec(h_down=(0.0,), h_up=(0.1 * scale, 0.01 * scale)),
        h11=HodgeFilterSpec(h_down=(0.25 * scale, 0.03 * scale),
                            h_up=(0.0, -0.02 * scale)),
        g10=HodgeFilterSpec(h_down=(0.15 * scale, -0.01 * scale),
                            h_up=(0.0,)),
        g12=HodgeFilterSpec(h_down=(0.0,), h_up=(0.12 * scale, 0.02 * scale)),
        g21=HodgeFilterSpec(h_down=(0.2 * scale, 0.01 * scale), h_up=(0.0,)),
        h22=HodgeFilterSpec(h_down=(0.3 * scale, -0.03 * scale), h_up=(0.0,)),
    )
    return SCVarModel(complex=c, lags=(lag,))


def cross_free(model: SCVarModel) -> SCVarModel:
    """The model with every cross-level term dropped: only the own-level
    banks h00, h11 and h22 of each lag."""
    return SCVarModel(complex=model.complex, lags=tuple(
        SCVarLag(h00=lag.h00, h11=lag.h11, h22=lag.h22)
        for lag in model.lags))


def max_coefficient_error(a: SCVarLag, b: SCVarLag) -> float:
    err = 0.0
    for name in ("h00", "g01", "h11", "g10", "g12", "g21", "h22"):
        sa, sb = getattr(a, name), getattr(b, name)
        for pa, pb in ((sa.h_down, sb.h_down), (sa.h_up, sb.h_up)):
            width = max(len(pa), len(pb))
            pa = pa + (0.0,) * (width - len(pa))
            pb = pb + (0.0,) * (width - len(pb))
            err = max(err, float(np.max(np.abs(np.subtract(pa, pb)))))
    return err


def test_zero_model_predicts_zero(complex7):
    rng = np.random.default_rng(0)
    model = SCVarModel(complex=complex7, lags=(SCVarLag(),))
    pred = scvar_predict(model, [random_signal(complex7, rng)])
    assert not pred.stacked().any()


def test_copy_model(complex7):
    rng = np.random.default_rng(1)
    lag = SCVarLag(h11=HodgeFilterSpec.identity())
    model = SCVarModel(complex=complex7, lags=(lag,))
    sig = random_signal(complex7, rng)
    pred = scvar_predict(model, [sig])
    assert np.array_equal(pred.x1.values, sig.x1.values)
    assert not pred.x0.values.any() and not pred.x2.values.any()


def test_predict_matches_simulation(complex7):
    rng = np.random.default_rng(2)
    model = planted_model(complex7)
    history = [random_signal(complex7, rng)]
    sim = scvar_simulate(model, 200, history, rng=rng)
    series = history + sim
    for t in (1, 50, 100, 200):
        pred = scvar_predict(model, series[:t])
        assert np.array_equal(pred.stacked(), series[t].stacked())


def test_prediction_linear_in_history(complex7):
    rng = np.random.default_rng(3)
    model = planted_model(complex7)
    history = [random_signal(complex7, rng)]
    doubled = [ComplexSignal.from_arrays(
        complex7, 2 * s.x0.values, 2 * s.x1.values, 2 * s.x2.values)
        for s in history]
    a = scvar_predict(model, history).stacked()
    b = scvar_predict(model, doubled).stacked()
    assert np.allclose(b, 2 * a, rtol=1e-12, atol=1e-12)


def test_svar_ignores_cross_terms(complex7):
    rng = np.random.default_rng(4)
    lag = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(0.4,)),
        h11=HodgeFilterSpec(h_down=(0.3, 0.1), h_up=(0.0, 0.05)),
        h22=HodgeFilterSpec(h_down=(0.2,), h_up=(0.0,)),
    )
    model = SCVarModel(complex=complex7, lags=(lag,))
    sig = random_signal(complex7, rng)
    assert np.array_equal(scvar_predict(cross_free(model), [sig]).stacked(),
                          scvar_predict(model, [sig]).stacked())
    # with cross terms present the two differ
    coupled = planted_model(complex7)
    assert not np.array_equal(
        scvar_predict(cross_free(coupled), [sig]).stacked(),
        scvar_predict(coupled, [sig]).stacked())


# The level each bank filters on: h_kj on the source level j, g_kj on k.
BANK_LEVEL = {"h00": 0, "g01": 0, "h01": 1, "h11": 1, "g10": 1, "h10": 0,
              "g12": 1, "h12": 2, "g21": 2, "h21": 1, "h22": 2}


def random_lag(c, rng, harmonic_bank=None) -> SCVarLag:
    """Every bank random; ``harmonic_bank`` also gets a harmonic term."""
    banks = {}
    for name, k in BANK_LEVEL.items():
        down = 0.2 * rng.standard_normal(3)
        up = 0.2 * rng.standard_normal(3)
        harmonic = None
        if name == harmonic_bank:
            lam = lambda_max(c, k)
            harmonic = HarmonicTerm(1.5 / lam if lam > 0 else 0.5, 4)
            down[0] = up[0] = 0.0
        banks[name] = HodgeFilterSpec(down, up, harmonic)
    return SCVarLag(**banks)


def dense_predict(c, lags, history) -> np.ndarray:
    """Independent reference: dense Laplacian powers and dense incidence
    matrices, every term written out."""
    b1, b2 = c.b1.toarray().astype(float), c.b2.toarray().astype(float)
    n = (c.n0, c.n1, c.n2)
    down = (np.zeros((n[0], n[0])), b1.T @ b1, b2.T @ b2)
    up = (b1 @ b1.T, b2 @ b2.T, np.zeros((n[2], n[2])))
    # maps[(k, j)] takes level j to level k
    maps = {(0, 1): b1, (1, 0): b1.T, (1, 2): b2, (2, 1): b2.T}

    def filt(spec, k):
        mat = sum(h * np.linalg.matrix_power(down[k], t)
                  for t, h in enumerate(spec.h_down))
        mat = mat + sum(h * np.linalg.matrix_power(up[k], t)
                        for t, h in enumerate(spec.h_up))
        if spec.harmonic is not None:
            step = np.eye(n[k]) - spec.harmonic.epsilon * (down[k] + up[k])
            mat = mat + np.linalg.matrix_power(step, spec.harmonic.steps)
        return mat

    out = [np.zeros(m) for m in n]
    for p, lag in enumerate(lags, start=1):
        x = (history[-p].x0.values, history[-p].x1.values,
             history[-p].x2.values)
        for k in range(3):
            out[k] += filt(getattr(lag, f"h{k}{k}"), k) @ x[k]
        for (k, j), incidence in maps.items():
            out[k] += (filt(getattr(lag, f"g{k}{j}"), k) @ incidence
                       @ filt(getattr(lag, f"h{k}{j}"), j) @ x[j])
    return np.concatenate(out)


def assert_predict_matches_dense(c, rng):
    lags = (random_lag(c, rng, harmonic_bank="h10"),
            random_lag(c, rng, harmonic_bank="g21"))
    history = [random_signal(c, rng) for _ in range(3)]
    got = scvar_predict(SCVarModel(complex=c, lags=lags), history).stacked()
    want = dense_predict(c, lags, history)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_predict_all_banks_matches_dense(complex7, cell7):
    for c in (complex7, cell7):
        assert_predict_matches_dense(c, np.random.default_rng(18))


@settings(max_examples=25, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1))
def test_predict_all_banks_matches_dense_random(c, seed):
    assert_predict_matches_dense(c, np.random.default_rng(seed))


def test_fit_triangle_free_graph(skeleton7):
    rng = np.random.default_rng(19)
    lag = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(0.3,)),
        g01=HodgeFilterSpec(h_down=(0.0,), h_up=(0.1,)),
        h11=HodgeFilterSpec(h_down=(0.25,), h_up=(0.0,)),
        g10=HodgeFilterSpec(h_down=(0.15,), h_up=(0.0,)),
    )
    model = SCVarModel(complex=skeleton7, lags=(lag,))
    init = [random_signal(skeleton7, rng)]
    series = init + scvar_simulate(model, 60, init, rng=rng)
    # With no triangles the edges' up Laplacian is zero: at filter order 1
    # h11's up power is left out of the design (no rank-deficiency warning,
    # which pytest turns into an error) and comes back 0.
    for filter_order in (0, 1):
        fitted, resid = scvar_fit(skeleton7, series, order=1,
                                  filter_order=filter_order)
        assert max_coefficient_error(lag, fitted.lags[0]) < 1e-10
        assert max(resid) < 1e-20 and resid[2] == 0.0
        assert fitted.lags[0].h11.h_up == (0.0,) * (filter_order + 1)

    own, resid = scvar_fit(skeleton7, series, order=1, filter_order=0,
                           include_cross=False)
    for name in ("g01", "g10", "g12", "g21", "h22"):
        assert getattr(own.lags[0], name).is_zero()
    # without the cross terms the coupling is left in the residual
    assert resid[0] > 1e-6 and resid[1] > 1e-6 and resid[2] == 0.0


def test_svar_keeps_gradient_flows_gradient(complex7):
    rng = np.random.default_rng(5)
    lag = SCVarLag(h11=HodgeFilterSpec(h_down=(0.4, 0.2, -0.1), h_up=(0.0,)))
    model = SCVarModel(complex=complex7, lags=(lag,))
    grad = complex7.b1.T @ rng.standard_normal(7)
    sig = ComplexSignal.from_arrays(complex7, np.zeros(7), grad, np.zeros(3))
    pred = scvar_predict(cross_free(model), [sig])
    parts = hodge_decompose(complex7, pred.x1)
    assert np.linalg.norm(parts.curl.values) <= 1e-10
    assert np.linalg.norm(parts.harmonic.values) <= 1e-10


def test_lag1_identity_is_random_walk(complex7):
    rng = np.random.default_rng(6)
    lag = SCVarLag(h00=HodgeFilterSpec.identity(),
                   h11=HodgeFilterSpec.identity(),
                   h22=HodgeFilterSpec.identity())
    model = SCVarModel(complex=complex7, lags=(lag,))
    sig = random_signal(complex7, rng)
    pred = scvar_predict(cross_free(model), [sig])
    assert np.array_equal(pred.stacked(), sig.stacked())


def test_fit_recovers_planted_noiseless(complex7):
    rng = np.random.default_rng(7)
    model = planted_model(complex7)
    init = [random_signal(complex7, rng)]
    series = init + scvar_simulate(model, 120, init, rng=rng)
    fitted, resid = scvar_fit(complex7, series, order=1, filter_order=1)
    assert max_coefficient_error(model.lags[0], fitted.lags[0]) < 1e-6
    assert max(resid) < 1e-12


def test_fit_recovers_planted_svar(complex7):
    rng = np.random.default_rng(8)
    lag = SCVarLag(
        h00=HodgeFilterSpec(h_down=(0.0,), h_up=(0.35, -0.03)),
        h11=HodgeFilterSpec(h_down=(0.3, 0.02), h_up=(0.0, -0.03)),
        h22=HodgeFilterSpec(h_down=(0.25, 0.02), h_up=(0.0,)),
    )
    model = SCVarModel(complex=complex7, lags=(lag,))
    init = [random_signal(complex7, rng)]
    series = init + scvar_simulate(model, 100, init, rng=rng)
    fitted, resid = scvar_fit(complex7, series, order=1, filter_order=1)
    assert max_coefficient_error(model.lags[0], fitted.lags[0]) < 1e-6


def test_fit_white_noise_residual_near_variance(complex7):
    rng = np.random.default_rng(9)
    sigma = 0.7
    series = [ComplexSignal.from_arrays(
        complex7, sigma * rng.standard_normal(7),
        sigma * rng.standard_normal(10), sigma * rng.standard_normal(3))
        for _ in range(600)]
    _, resid = scvar_fit(complex7, series, order=1, filter_order=1)
    for r in resid:
        assert abs(r - sigma**2) / sigma**2 < 0.10


def test_fit_constant_series_zero_residual(complex7):
    rng = np.random.default_rng(10)
    sig = random_signal(complex7, rng)
    series = [sig] * 30
    # a constant series repeats one row block, so the level-2 regressor
    # has 3 independent rows for its 4 columns
    with pytest.warns(IllConditionedWarning):
        _, resid = scvar_fit(complex7, series, order=1, filter_order=1)
    assert max(resid) < 1e-15


def test_fit_residual_beats_zero_model(complex7):
    rng = np.random.default_rng(11)
    model = planted_model(complex7)
    init = [random_signal(complex7, rng)]
    series = init + scvar_simulate(model, 80, init,
                                   noise_std=(0.2, 0.2, 0.2), rng=rng)
    _, resid = scvar_fit(complex7, series, order=1, filter_order=1)
    times = range(1, len(series))
    for level, r in enumerate(resid):
        zero_sse = sum(
            float(np.sum(getattr(series[t], f"x{level}").values ** 2))
            for t in times
        )
        zero_mse = zero_sse / (len(series) - 1) / \
            series[0].complex.num_simplices(level)
        assert r <= zero_mse + 1e-12


def test_fit_validation(complex7):
    rng = np.random.default_rng(12)
    series = [random_signal(complex7, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="need more than"):
        scvar_fit(complex7, series, order=2, filter_order=1)


def test_fit_rejects_negative_filter_order(complex7):
    rng = np.random.default_rng(12)
    series = [random_signal(complex7, rng) for _ in range(6)]
    with pytest.raises(ValueError, match="filter_order"):
        scvar_fit(complex7, series, order=1, filter_order=-1)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, 0.0])
def test_lms_rejects_bad_step_size(complex7, mu):
    with pytest.raises(ValueError, match="mu"):
        lms_init(complex7, 1, 1, mu=mu)


@pytest.mark.parametrize("bad, message", [
    ("other complex", "y_t is bound to a different complex"),
    ("vertex signal", "y_t must be of order 1"),
    ("short mask", r"mask must have shape \(10,\)"),
    ("text mask", r"mask must have shape \(10,\)"),
])
def test_lms_checks_y_and_mask_while_the_window_fills(complex7, bad,
                                                      message):
    """A step that only extends the window checks y_t and the mask as a
    full-window step does, so a bad input raises on the first step."""
    x = complex7.cochain(1, np.ones(10))
    other = build_complex(7, EDGES7, TRIS7)
    y, mask = {
        "other complex": (other.cochain(1, np.ones(10)), None),
        "vertex signal": (complex7.cochain(0, np.ones(7)), None),
        "short mask": (x, np.ones(99, bool)),
        "text mask": (x, "abc"),
    }[bad]
    state = lms_init(complex7, 2, 1, 1e-3)
    for _ in range(3):  # two warm-up steps, then a full window
        with pytest.raises(ValueError, match=message):
            lms_step(state, x, y, mask)
        state, _ = lms_step(state, x, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lms_rejects_non_finite_coefficients(complex7, bad):
    """A non-finite coefficient is named where it is given, not blamed on
    mu when the first full step diverges."""
    message = "^coefficients must be finite"
    with pytest.raises(ValueError, match=message):
        lms_init(complex7, 1, 1, 1e-3, [bad, 0.0, 0.0])
    with pytest.raises(ValueError, match=message):
        LmsState(complex7, 1, 1, 1e-3, np.array([0.0, bad, 0.0]))
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(lms_init(complex7, 1, 1, 1e-3),
                            coefficients=np.array([0.0, 0.0, bad]))


def test_list_window_steps_as_the_tuple_window(complex7):
    rng = np.random.default_rng(28)
    flows = [complex7.cochain(1, rng.standard_normal(10)) for _ in range(6)]
    coeffs = rng.standard_normal(3)
    listed = LmsState(complex7, 1, 1, 1e-3, coeffs, flows[:1])
    tupled = LmsState(complex7, 1, 1, 1e-3, coeffs, tuple(flows[:1]))
    assert listed.window == tupled.window
    for x in flows[1:]:
        listed, got = lms_step(listed, x, x)
        tupled, want = lms_step(tupled, x, x)
        assert got == want
        assert listed.coefficients.tobytes() == tupled.coefficients.tobytes()


@pytest.mark.parametrize("name", ["t_down", "t_up"])
def test_lms_rejects_negative_orders(complex7, name):
    orders = {"t_down": 1, "t_up": 1, name: -1}
    with pytest.raises(ValueError, match=name):
        lms_init(complex7, mu=0.1, **orders)
    with pytest.raises(ValueError, match=name):
        lms_init(complex7, mu=0.1, coefficients=[0.0, 0.0], **orders)


def test_fit_permutation_equivariant_predictions():
    rng = np.random.default_rng(13)
    perm = rng.permutation(7)
    edges_p = [tuple(perm[list(e)]) for e in EDGES7]
    tris_p = [tuple(perm[list(t)]) for t in TRIS7]
    c = build_complex(7, EDGES7, TRIS7)
    cp = build_complex(7, edges_p, tris_p)
    edge_map = [cp.edge_index(*sorted((perm[u], perm[v])))
                for u, v in c.edges]
    edge_sign = np.array([1.0 if perm[u] < perm[v] else -1.0
                          for u, v in c.edges])
    tri_map, tri_sign = [], []
    for (u, v, w) in c.triangles:
        img = sorted([perm[u], perm[v], perm[w]])
        tri_map.append(cp.triangles.index(tuple(img)))
        # sign = parity of the permutation taking (pu, pv, pw) to sorted order
        pu, pv, pw = perm[u], perm[v], perm[w]
        inversions = sum(a > b for a, b in [(pu, pv), (pu, pw), (pv, pw)])
        tri_sign.append(1.0 if inversions % 2 == 0 else -1.0)
    tri_map = np.array(tri_map)
    tri_sign = np.array(tri_sign)

    model = planted_model(c)
    model_p = SCVarModel(complex=cp, lags=model.lags)
    x0 = rng.integers(-4, 5, 7).astype(float)
    x1 = rng.integers(-4, 5, 10).astype(float)
    x2 = rng.integers(-4, 5, 3).astype(float)
    sig = ComplexSignal.from_arrays(c, x0, x1, x2)
    x0p = np.zeros(7)
    x0p[perm] = x0
    x1p = np.zeros(10)
    x1p[edge_map] = edge_sign * x1
    x2p = np.zeros(3)
    x2p[tri_map] = tri_sign * x2
    sig_p = ComplexSignal.from_arrays(cp, x0p, x1p, x2p)

    pred = scvar_predict(model, [sig])
    pred_p = scvar_predict(model_p, [sig_p])
    # the relabelled operator sums its entries in another order
    assert_close(pred_p.x0.values[perm], pred.x0.values)
    assert_close(pred_p.x1.values[edge_map], edge_sign * pred.x1.values)
    assert_close(pred_p.x2.values[tri_map], tri_sign * pred.x2.values)


def test_regressor_columns(complex7):
    rng = np.random.default_rng(14)
    xs = [complex7.cochain(1, rng.standard_normal(10)) for _ in range(4)]
    x_mat = lms_build_regressor(complex7, xs, 0, 0)
    assert x_mat.shape == (10, 1)
    assert np.array_equal(x_mat[:, 0], xs[-1].values)

    td, tu = 2, 3
    x_mat = lms_build_regressor(complex7, xs, td, tu)
    assert x_mat.shape == (10, 1 + td + tu)
    from hodgesp import hodge_laplacian
    lap_d = hodge_laplacian(complex7, 1, "down")
    lap_u = hodge_laplacian(complex7, 1, "up")
    assert np.allclose(x_mat[:, 1], lap_d @ xs[-2].values)
    assert np.allclose(x_mat[:, 2], lap_d @ lap_d @ xs[-3].values)
    assert np.allclose(x_mat[:, 3], lap_u @ xs[-2].values)
    assert np.allclose(x_mat[:, 5],
                       lap_u @ lap_u @ lap_u @ xs[-4].values)

    with pytest.raises(ValueError, match="insufficient history"):
        lms_build_regressor(complex7, xs[:2], 2, 3)


def test_regressor_annihilates_harmonic(complex7):
    from hodgesp import hodge_basis
    h = hodge_basis(complex7, 1).harmonic[:, 0]
    xs = [complex7.cochain(1, h) for _ in range(3)]
    x_mat = lms_build_regressor(complex7, xs, 2, 2)
    assert np.allclose(x_mat[:, 1:], 0.0, atol=1e-12)
    assert np.allclose(x_mat[:, 0], h)


def test_lms_fixed_point_and_masking(complex7):
    rng = np.random.default_rng(15)
    state = lms_init(complex7, 1, 1, mu=0.01,
                     coefficients=[0.5, -0.2, 0.1])
    # warm-up: no update, no error
    state, err = lms_step(state, complex7.cochain(1, rng.standard_normal(10)),
                          complex7.zero_cochain(1))
    assert err is None

    x_t = complex7.cochain(1, rng.standard_normal(10))
    window = state.window + (x_t,)
    x_mat = lms_build_regressor(complex7, window, 1, 1)
    y_exact = complex7.cochain(1, x_mat @ state.coefficients)
    new_state, err = lms_step(state, x_t, y_exact)
    assert err == pytest.approx(0.0, abs=1e-20)
    assert np.array_equal(new_state.coefficients, state.coefficients)

    y_off = complex7.cochain(1, y_exact.values + 1.0)
    same_state, err = lms_step(state, x_t, y_off,
                               mask=np.zeros(10, bool))
    assert err == 0.0
    assert np.array_equal(same_state.coefficients, state.coefficients)


def test_lms_converges_to_planted(complex7):
    rng = np.random.default_rng(16)
    td = tu = 1
    h_star = np.array([0.7, 0.25, -0.15])
    sigma = 0.05

    # empirical spectral bound of E[X^T X]
    mats = []
    window = []
    for _ in range(200):
        window.append(complex7.cochain(1, rng.standard_normal(10)))
        if len(window) > 2:
            window.pop(0)
        if len(window) == 2:
            mats.append(lms_build_regressor(complex7, window, td, tu))
    lam_hat = np.linalg.eigvalsh(np.mean([m.T @ m for m in mats], axis=0))[-1]

    state = lms_init(complex7, td, tu, mu=0.2 / lam_hat)
    errors = []
    for _ in range(4000):
        x = complex7.cochain(1, rng.standard_normal(10))
        window = (state.window + (x,))[-2:]
        if len(window) < 2:
            state, _ = lms_step(state, x, complex7.zero_cochain(1))
            continue
        x_mat = lms_build_regressor(complex7, window, td, tu)
        y = complex7.cochain(
            1, x_mat @ h_star + sigma * rng.standard_normal(10))
        state, err = lms_step(state, x, y)
        errors.append(err)
    floor = sigma**2 * 10
    tail = float(np.mean(errors[-200:]))
    assert 10 * np.log10(tail / floor) < 3.0
    assert np.linalg.norm(state.coefficients - h_star) < 0.2


def test_lms_smoothed_error_nonincreasing(complex7):
    rng = np.random.default_rng(17)
    td = tu = 1
    h_star = np.array([0.6, 0.2, -0.1])
    state = lms_init(complex7, td, tu, mu=2e-4)
    errors = []
    for _ in range(3000):
        x = complex7.cochain(1, rng.standard_normal(10))
        window = (state.window + (x,))[-2:]
        if len(window) < 2:
            state, _ = lms_step(state, x, complex7.zero_cochain(1))
            continue
        x_mat = lms_build_regressor(complex7, window, td, tu)
        y = complex7.cochain(1, x_mat @ h_star
                             + 0.05 * rng.standard_normal(10))
        state, err = lms_step(state, x, y)
        errors.append(err)
    smoothed = np.convolve(errors, np.ones(200) / 200, mode="valid")
    drops = smoothed[200::200]
    for a, b in zip(drops, drops[1:]):
        assert b <= a * 1.05  # monotone up to 5% tolerance


@pytest.mark.parametrize("name", ["t_down", "t_up"])
@pytest.mark.parametrize("value", [1.5, True])
def test_lms_rejects_non_integer_orders(complex7, name, value):
    orders = {"t_down": 1, "t_up": 1, name: value}
    with pytest.raises(ValueError, match=name):
        lms_init(complex7, mu=0.1, **orders)
    with pytest.raises(ValueError, match=name):
        LmsState(complex7, mu=0.1, coefficients=[0.0, 0.0, 0.0], **orders)


@pytest.mark.parametrize("order,mu", [(1, 1e-2), (3, 1e-4)])
def test_lms_divergence_names_mu(order, mu):
    # A 12 x 12 grid with nine unfilled squares (n1 = 385, eighteen
    # holes) and unit-variance inputs, predicting the input itself: mu
    # times the largest eigenvalue of X^T X is about 45 at order 1 and far
    # above 2 at order 3 with mu = 1e-4, so the stream overflows.
    c = triangulated_grid(12, holes=[(i, j) for i in (2, 5, 8)
                                     for j in (3, 6, 9)])
    rng = np.random.default_rng(25)
    state = lms_init(c, order, order, mu)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=rf"mu = {mu}\b") as info:
        for _ in range(3000):
            x = c.cochain(1, rng.standard_normal(c.n1))
            state, _ = lms_step(state, x, x)
    assert re.search(r"squared error is (inf|nan)", str(info.value))


@pytest.mark.parametrize("steps", [-1, 2.5, True])
def test_simulate_rejects_bad_steps(complex7, steps):
    model = planted_model(complex7)
    init = [random_signal(complex7, np.random.default_rng(0))]
    with pytest.raises(ValueError, match="steps"):
        scvar_simulate(model, steps, init)


@pytest.mark.parametrize("noise_std", [(0.1, 0.1), (0.1, -1.0, 0.1),
                                       (0.1, np.nan, 0.1), (np.inf,) * 3,
                                       0.1, ("a", "b", "c")])
def test_simulate_rejects_bad_noise(complex7, noise_std):
    model = planted_model(complex7)
    init = [random_signal(complex7, np.random.default_rng(0))]
    with pytest.raises(ValueError, match="noise_std"):
        scvar_simulate(model, 3, init, noise_std=noise_std)


# --- the streaming steps against the term-by-term and column-by-column
# loops they replaced -------------------------------------------------------

def reference_regressor(c, window, t_down, t_up) -> np.ndarray:
    """Column m of a group is m products of its Laplacian with x_{t-m},
    one vector at a time."""
    cols = [window[-1].values]
    for variant, t_max in (("down", t_down), ("up", t_up)):
        lap = hodge_laplacian(c, 1, variant, sparse=True)
        for m in range(1, t_max + 1):
            z = window[-1 - m].values
            for _ in range(m):
                z = lap @ z
            cols.append(z)
    return np.column_stack(cols)


def reference_lms_step(c, coeffs, window, t_down, t_up, mu, y, mask):
    """The update with the regressor rebuilt from the window and the mask
    applied as 0/1 weights, all ones without a mask."""
    x_mat = reference_regressor(c, window, t_down, t_up)
    m = np.ones(c.n1) if mask is None else mask.astype(float)
    prediction = x_mat @ coeffs
    residual = m * (y.values - prediction)
    error = float(residual @ residual)
    return coeffs + mu * (x_mat.T @ residual), error, prediction


def assert_lms_matches_reference(c, rng, t_down, t_up, steps=10,
                                 exact=False):
    """A chain of steps, rebuilt by hand mid-stream and given a new window
    by dataclasses.replace, against the reference loop, byte for byte if
    ``exact``."""
    need = max(t_down, t_up) + 1
    mu = 1e-3
    state = lms_init(c, t_down, t_up, mu)
    coeffs, window = state.coefficients, ()

    def flow():
        return c.cochain(1, rng.standard_normal(c.n1))

    for step in range(need + steps):
        if step == need + 2:
            state = LmsState(c, t_down, t_up, mu, state.coefficients,
                             state.window)
        if step == need + 5:
            window = tuple(flow() for _ in range(need - 1))
            state = dataclasses.replace(state, window=window)
        x, y = flow(), flow()
        mask = (None, rng.random(c.n1) < 0.6,
                np.zeros(c.n1, bool))[rng.integers(3)]
        window = (window + (x,))[-need:]
        state, error, prediction = _lms_update(state, x, y, mask)
        if len(window) < need:
            assert error is None and prediction is None
            continue
        coeffs, want, want_pred = reference_lms_step(
            c, coeffs, window, t_down, t_up, mu, y, mask)
        assert_close(state.coefficients, coeffs, exact)
        assert_close(prediction, want_pred, exact)
        assert_close(error, want, exact)


def test_lms_steps_match_the_rebuilt_regressor(complex7, cell7):
    for c in (complex7, cell7):
        rng = np.random.default_rng(20)
        for t_down, t_up in itertools.product(range(4), repeat=2):
            assert_lms_matches_reference(c, rng, t_down, t_up)


@settings(max_examples=20, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1),
       t_down=st.integers(0, 3), t_up=st.integers(0, 3))
def test_lms_steps_match_the_rebuilt_regressor_random(c, seed, t_down, t_up):
    assert_lms_matches_reference(c, np.random.default_rng(seed), t_down, t_up)


def test_lms_steps_are_exact_where_the_step_operator_is_sparse():
    c = triangulated_grid(8, holes=[(2, 2)])
    assert sp.issparse(_step_operator(c, 2, 3))
    rng = np.random.default_rng(24)
    for t_down, t_up in ((0, 0), (1, 1), (3, 1), (2, 3)):
        assert_lms_matches_reference(c, rng, t_down, t_up, exact=True)


# A grid whose step operators are held sparse (n1 p squared > 25 000).
SPARSE_GRID = triangulated_grid(8, holes=[(2, 2)])


@pytest.mark.parametrize("t_down, t_up", [(1, 1), (2, 3), (3, 0), (10, 10)])
def test_step_operator_is_linear_in_the_orders(t_down, t_up):
    """Held sparse, the step operator stores each Laplacian once per
    regressor column that applies it."""
    op = _step_operator(SPARSE_GRID, t_down, t_up)
    down, up = (hodge_laplacian(SPARSE_GRID, 1, variant, sparse=True)
                for variant in ("down", "up"))
    assert sp.issparse(op) and op.format == "csr"
    assert op.nnz == t_down * down.nnz + t_up * up.nnz


@settings(max_examples=30, deadline=None, database=None)
@given(c=st.one_of(complexes_with_cells(), st.just(SPARSE_GRID)),
       seed=st.integers(0, 2**16), t_down=st.integers(0, 3),
       t_up=st.integers(0, 3), steps=st.integers(0, 8),
       replace_at=st.integers(0, 8), fill=st.integers(0, 5))
@example(c=SPARSE_GRID, seed=0, t_down=2, t_up=3, steps=8, replace_at=4,
         fill=2)
def test_carried_regressor_is_the_window_regressor(c, seed, t_down, t_up,
                                                   steps, replace_at, fill):
    """After any run of steps, with the window replaced midway by one of
    ``fill`` flows, a state carries the regressor that _regressor builds
    from its window, byte for byte, whether the step operator is held
    dense or sparse."""
    rng = np.random.default_rng(seed)

    def flow():
        return c.cochain(1, rng.standard_normal(c.n1))

    state = lms_init(c, t_down, t_up, 1e-9)
    for step in range(steps):
        if step == replace_at:
            state = dataclasses.replace(
                state, window=tuple(flow() for _ in range(fill)))
        x = flow()
        state, _ = lms_step(state, x, x)
    assert (state._carry.tobytes()
            == _regressor(state._plan, state.window).tobytes())


def test_stepped_state_equals_a_validated_state(complex7):
    """A state made by a step sets every field of LmsState and is what the
    constructor, which validates, makes of the same public fields."""
    rng = np.random.default_rng(23)
    names = [f.name for f in dataclasses.fields(LmsState)]
    state = lms_init(complex7, 2, 1, 1e-3)
    for _ in range(5):
        x = complex7.cochain(1, rng.standard_normal(10))
        state, _ = lms_step(state, x, x)
        assert sorted(vars(state)) == sorted(names)
        rebuilt = LmsState(**{f.name: getattr(state, f.name)
                              for f in dataclasses.fields(LmsState)
                              if f.init})
        assert sorted(vars(rebuilt)) == sorted(names)
        for name in names:
            got, want = getattr(state, name), getattr(rebuilt, name)
            if name in ("coefficients", "_carry"):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            elif name == "window":
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))
            else:
                assert got == want


def test_replaced_state_steps_like_a_fresh_one(complex7):
    """dataclasses.replace rebuilds the step plan for the new orders, so a
    replaced state steps byte for byte as lms_init's; the plan is not in
    the repr and takes no part in comparisons."""
    rng = np.random.default_rng(27)
    flows = [complex7.cochain(1, rng.standard_normal(10)) for _ in range(8)]
    state = lms_init(complex7, 1, 1, 1e-3)
    for x in flows[:3]:
        state, _ = lms_step(state, x, x)
    for t_down, t_up in ((3, 0), (0, 2), (2, 3), (1, 1)):
        coeffs = rng.standard_normal(1 + t_down + t_up)
        replaced = dataclasses.replace(state, t_down=t_down, t_up=t_up,
                                       coefficients=coeffs, window=())
        fresh = lms_init(complex7, t_down, t_up, 1e-3, coeffs)
        for x in flows:
            replaced, got = lms_step(replaced, x, x)
            fresh, want = lms_step(fresh, x, x)
            assert got == want
            assert_close(replaced.coefficients, fresh.coefficients, True)
    plan = {f.name: f for f in dataclasses.fields(LmsState)}["_plan"]
    assert not (plan.init or plan.repr or plan.compare)
    assert "_plan" not in repr(state) and "_Plan" not in repr(state)


def test_regressor_matches_the_column_loop(complex7):
    rng = np.random.default_rng(21)
    window = [complex7.cochain(1, rng.standard_normal(10)) for _ in range(4)]
    for t_down, t_up in itertools.product(range(4), repeat=2):
        got = lms_build_regressor(complex7, window, t_down, t_up)
        want = reference_regressor(complex7, window, t_down, t_up)
        assert_close(got, want)


def reference_filter(c, k, spec, x) -> np.ndarray:
    """The filter summed term by term: each polynomial from zero, down
    before up, then the harmonic term, with every tap of the spec."""
    def polynomial(variant, taps):
        if variant is None:
            taps = taps[:1]
        else:
            lap = hodge_laplacian(c, k, variant, sparse=True)
        y, z = np.zeros_like(x), x
        for t, h in enumerate(taps):
            if t:
                z = lap @ z
            if h:
                y += h * z
        return y

    y = polynomial("down" if k > 0 else None, spec.h_down)
    y += polynomial("up" if k < 2 else None, spec.h_up)
    if spec.harmonic is not None:
        lap, w = hodge_laplacian(c, k, sparse=True), x
        for _ in range(spec.harmonic.steps):
            w = w - spec.harmonic.epsilon * (lap @ w)
        y += w
    return y


def reference_predict(model, history) -> np.ndarray:
    """Every lag and term in turn; a cross term with a zero post-filter is
    skipped, the own-level bank is always added."""
    c = model.complex
    past = [(s.x0.values, s.x1.values, s.x2.values)
            for s in reversed(history[-model.order:])]
    out = []
    for k in range(3):
        acc = np.zeros(c.num_simplices(k))
        for lag, x in zip(model.lags, past):
            if k > 0 and c.num_simplices(k - 1):
                post = getattr(lag, f"g{k}{k - 1}")
                if not post.is_zero():
                    pre = getattr(lag, f"h{k}{k - 1}")
                    moved = getattr(c, f"b{k}").T @ reference_filter(
                        c, k - 1, pre, x[k - 1])
                    acc += reference_filter(c, k, post, moved)
            acc += reference_filter(c, k, getattr(lag, f"h{k}{k}"), x[k])
            if k < 2 and c.num_simplices(k + 1):
                post = getattr(lag, f"g{k}{k + 1}")
                if not post.is_zero():
                    pre = getattr(lag, f"h{k}{k + 1}")
                    moved = getattr(c, f"b{k + 1}") @ reference_filter(
                        c, k + 1, pre, x[k + 1])
                    acc += reference_filter(c, k, post, moved)
        out.append(acc)
    return np.concatenate(out)


def mixed_lag(c, rng, harmonic_bank=None) -> SCVarLag:
    """Banks drawn from zero, identity, taps with trailing zeros and -0.0,
    and random; ``harmonic_bank`` gets a harmonic term."""
    lag = random_lag(c, rng, harmonic_bank)
    banks = {}
    for name in BANK_LEVEL:
        kind = rng.integers(4)
        if name == harmonic_bank or kind == 3:
            banks[name] = getattr(lag, name)
        elif kind == 0:
            banks[name] = HodgeFilterSpec()
        elif kind == 1:
            banks[name] = HodgeFilterSpec.identity()
        else:
            banks[name] = HodgeFilterSpec(
                (-0.0, 0.2 * rng.standard_normal(), 0.0),
                (0.2 * rng.standard_normal(), -0.0))
    return SCVarLag(**banks)


def assert_scvar_matches_reference(c, rng):
    for order in (1, 2, 3):
        lags = tuple(mixed_lag(c, rng, harmonic_bank=("h11", "g21", None)[p])
                     for p in range(order))
        model = SCVarModel(complex=c, lags=lags)
        initial = [random_signal(c, rng) for _ in range(order)]
        pred = scvar_predict(model, initial)
        assert_close(pred.stacked(), reference_predict(model, initial))
        seed = int(rng.integers(2**32))
        sim = scvar_simulate(model, 6, initial, noise_std=(0.1, 0.0, 0.2),
                             rng=seed)
        noise = np.random.default_rng(seed)
        history = list(initial)
        for got in sim:
            want = reference_predict(model, history)
            want += np.concatenate([
                s * noise.standard_normal(c.num_simplices(k))
                for k, s in enumerate((0.1, 0.0, 0.2))])
            assert_close(got.stacked(), want)
            history.append(got)


def test_scvar_steps_match_the_term_loop(complex7, cell7, skeleton7):
    for c in (complex7, cell7, skeleton7):
        assert_scvar_matches_reference(c, np.random.default_rng(22))


@settings(max_examples=20, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1),
       triangle_free=st.booleans())
def test_scvar_steps_match_the_term_loop_random(c, seed, triangle_free):
    if triangle_free:
        c = build_complex(c.n0, c.edges)
    assert_scvar_matches_reference(c, np.random.default_rng(seed))


@settings(max_examples=25, deadline=None, database=None)
@given(c=complexes_with_cells(), seed=st.integers(0, 2**32 - 1),
       order=st.integers(1, 3), harmonic=st.sampled_from(sorted(BANK_LEVEL)))
def test_compiled_step_matches_the_term_loop(c, seed, order, harmonic):
    """The compiled operator on the stacked past, every bank random and one
    bank per lag with a harmonic term, is the term-by-term sum."""
    rng = np.random.default_rng(seed)
    model = SCVarModel(complex=c, lags=tuple(
        random_lag(c, rng, harmonic_bank=harmonic) for _ in range(order)))
    history = [random_signal(c, rng) for _ in range(order)]
    op = _operator(model)
    n = c.n0 + c.n1 + c.n2
    assert op.shape == (n, order * n)
    past = np.concatenate([s.stacked() for s in reversed(history)])
    assert_close(op @ past, reference_predict(model, history))


def reversed_rows(a: sp.csr_array) -> sp.csr_array:
    """``a`` with each row's stored entries in reverse order."""
    order = np.concatenate([np.arange(a.indptr[i + 1] - 1, a.indptr[i] - 1,
                                      -1) for i in range(a.shape[0])])
    return sp.csr_array((a.data[order], a.indices[order], a.indptr.copy()),
                        shape=a.shape)


def test_compiled_operator_bits_ignore_the_entry_order(monkeypatch):
    """The compiled operator is stored canonical: filter results holding
    the same values in another row order give the same bytes."""
    c = triangulated_grid(12, [(i, j) for i in (2, 5, 8) for j in (1, 6, 9)])
    rng = np.random.default_rng(26)
    model = SCVarModel(complex=c, lags=(random_lag(c, rng),
                                        random_lag(c, rng)))
    op = _compile(model)
    assert sp.issparse(op) and op.has_canonical_format

    def reordered(*args):
        out = _filter_values(*args)
        return reversed_rows(out) if sp.issparse(out) else out

    monkeypatch.setattr("hodgesp.timeseries._filter_values", reordered)
    again = _compile(model)
    for name in ("indptr", "indices", "data"):
        assert getattr(again, name).tobytes() == getattr(op, name).tobytes()


def test_compiled_operator_is_held_for_one_model_at_a_time():
    c = build_complex(7, EDGES7, TRIS7)
    rng = np.random.default_rng(25)
    model = planted_model(c)
    history = [random_signal(c, rng)]
    scvar_predict(model, history)
    key, op = _cache[c][("scvar_operator",)]
    assert key == model.lags
    # lags equal by value, a simulation and a prediction reuse it
    same = SCVarModel(complex=c, lags=tuple(
        dataclasses.replace(lag) for lag in model.lags))
    scvar_simulate(same, 3, history)
    scvar_predict(same, history)
    assert _cache[c][("scvar_operator",)][1] is op
    # new lags replace it
    other = planted_model(c, scale=0.5)
    scvar_predict(other, history)
    key, new_op = _cache[c][("scvar_operator",)]
    assert key == other.lags and new_op is not op
    held = weakref.ref(new_op)
    dropped = weakref.ref(c)
    del c, model, same, other, history, key, op, new_op
    gc.collect()
    assert dropped() is None and held() is None
