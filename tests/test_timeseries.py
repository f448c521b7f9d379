"""Coupled autoregression (predict/simulate/fit) and the streaming LMS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    IllConditionedWarning,
    SCVarLag,
    SCVarModel,
    build_complex,
    hodge_decompose,
    lambda_max,
    lms_build_regressor,
    lms_init,
    lms_step,
    scvar_fit,
    scvar_predict,
    scvar_simulate,
    svar_predict,
)

from conftest import EDGES7, TRIS7, complexes_with_cells


def random_signal(c, rng) -> ComplexSignal:
    return ComplexSignal.from_arrays(
        c, rng.standard_normal(c.n0), rng.standard_normal(c.n1),
        rng.standard_normal(c.n2)
    )


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
    assert np.array_equal(svar_predict(model, [sig]).stacked(),
                          scvar_predict(model, [sig]).stacked())
    # with cross terms present the two differ
    coupled = planted_model(complex7)
    assert not np.array_equal(svar_predict(coupled, [sig]).stacked(),
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
    pred = svar_predict(model, [sig])
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
    pred = svar_predict(model, [sig])
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
    # integer-valued signals keep the arithmetic exact
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
    assert np.array_equal(pred_p.x0.values[perm], pred.x0.values)
    assert np.array_equal(pred_p.x1.values[edge_map],
                          edge_sign * pred.x1.values)
    assert np.array_equal(pred_p.x2.values[tri_map],
                          tri_sign * pred.x2.values)


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
