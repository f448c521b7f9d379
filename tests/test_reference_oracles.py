"""Reference oracles for paths written once: the SCVAR fit's single Krylov
pass per term, the typed spectrum built from the block frequency arrays,
the l1 dual step's one bound vector, the filterbank on arrays, the one
filter evaluator, the one Hodge split, the exact elimination's lowest
rows, the LMS step from a state's plan and the one CSV row writer. Each
keeps the earlier code (a regressor loop per lag, a row loop over the
frequency table, a clip per penalty block, one Cochain per branch, a term
plan applied apart, a projection onto the truncated SVD, a dict per
column, the regressor rebuilt by hand, one ``%`` per CSV row) and
must agree with it on random complexes with cells: byte for byte, except
the explicit-tol split, which moves by rounding, and LMS steps through a
dense step operator, which match to rounding."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from hodgesp import (
    Cochain,
    ComplexSignal,
    FrequencyEntry,
    HarmonicTerm,
    HodgeComponents,
    HodgeFilterSpec,
    SCVarLag,
    SCVarModel,
    apply_filter,
    build_complex,
    dirac_shift,
    filterbank_edge,
    frequency_response,
    frequency_table,
    hodge_basis,
    hodge_decompose,
    hodge_laplacian,
    lambda_max,
    regularized_reconstruct,
    scvar_fit,
)
from hodgesp._linalg import krylov
from hodgesp.complexes import (
    _PRIME,
    _eliminate,
    _float_incidence,
    _incidence_svd,
    _rank,
)
from hodgesp.filters import _filter_values, _poly_eval, _polynomial
from hodgesp.io import (
    _WRITE_CHUNK,
    _save_components,
    _save_predictions,
    _save_spectrum,
    save_series,
    save_signal,
)
from hodgesp.timeseries import (
    _OWN_SLOTS,
    _lms_update,
    _terms,
    lms_build_regressor,
    lms_init,
)

from conftest import complexes_with_cells, triangulated_grid
from test_timeseries import (
    assert_close,
    reference_lms_step,
    reference_regressor,
)

PROPERTY = settings(max_examples=30, deadline=None, database=None)
TAPS = st.lists(st.floats(-2, 2, allow_nan=False, width=32), min_size=1,
                max_size=3)


def random_signal(c, rng) -> ComplexSignal:
    return ComplexSignal.from_arrays(c, rng.standard_normal(c.n0),
                                     rng.standard_normal(c.n1),
                                     rng.standard_normal(c.n2))


def term_loop_fit(c, series, order, filter_order, include_cross):
    """The fit as it ran one Krylov pass per lag and slot, on that lag's
    window of the series, and gathered the lags through per-lag dicts."""
    series = list(series)
    t_len = len(series)
    t_ord = filter_order
    n_fit = t_len - order
    signals = [np.column_stack([getattr(sig, f"x{k}").values
                                for sig in series]) for k in (0, 1, 2)]

    def last_power(level, slot):
        lap = hodge_laplacian(c, level, slot, sparse=True)
        return t_ord if lap.count_nonzero() else 0

    def plan(level):
        for j, incidence in _terms(c, level):
            if incidence is not None:
                if include_cross:
                    slot = "down" if j < level else "up"
                    yield (f"g{level}{j}", slot, 0, last_power(level, slot),
                           j, incidence)
                continue
            for start, slot in enumerate(_OWN_SLOTS[level]):
                yield (f"h{level}{level}", slot, start,
                       last_power(level, slot), j, None)

    def regressors(level, slots):
        for p in range(1, order + 1):
            for _, slot, start, stop, source, incidence in slots:
                lap = hodge_laplacian(c, level, slot, sparse=True)
                past = signals[source][:, order - p : t_len - p]
                if incidence is not None:
                    past = incidence @ past
                powers = list(krylov(lambda v: lap @ v, past, stop))
                for z in powers[start:]:
                    yield z.T

    lag_kwargs = [{} for _ in range(order)]
    residuals = [0.0, 0.0, 0.0]
    for level in (0, 1, 2):
        nk = c.num_simplices(level)
        if nk == 0:
            continue
        slots = list(plan(level))
        design = np.stack(list(regressors(level, slots)), axis=-1)
        design = design.reshape(n_fit * nk, -1)
        target = signals[level][:, order:].reshape(-1, order="F")
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        err = target - design @ coef
        residuals[level] = float(err @ err) / target.size
        pos = 0
        for p in range(order):
            for name, slot, start, stop, _, _ in slots:
                width = stop + 1 - start
                vals = (0.0,) * start + tuple(coef[pos : pos + width])
                vals += (0.0,) * (t_ord + 1 - len(vals))
                pos += width
                spec_parts = lag_kwargs[p].setdefault(
                    name, {"down": (0.0,), "up": (0.0,)})
                spec_parts[slot] = vals
    lags = []
    for p in range(order):
        kwargs = {name: HodgeFilterSpec(h_down=parts["down"],
                                        h_up=parts["up"])
                  for name, parts in lag_kwargs[p].items()}
        lags.append(SCVarLag(**kwargs))
    return SCVarModel(complex=c, lags=tuple(lags)), tuple(residuals)


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**16),
       order=st.integers(1, 3), filter_order=st.integers(0, 2),
       extra=st.integers(1, 4), include_cross=st.booleans())
def test_scvar_fit_matches_the_per_lag_regressor_loop(
        c, seed, order, filter_order, extra, include_cross):
    rng = np.random.default_rng(seed)
    series = [random_signal(c, rng)
              for _ in range(order + filter_order + extra)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, resid = scvar_fit(c, series, order, filter_order,
                                 include_cross=include_cross)
        ref, ref_resid = term_loop_fit(c, series, order, filter_order,
                                       include_cross)
    assert_array_equal(resid, ref_resid)
    for lag, ref_lag in zip(model.lags, ref.lags, strict=True):
        for bank in SCVarLag.bank_names():
            spec, ref_spec = getattr(lag, bank), getattr(ref_lag, bank)
            assert_array_equal(spec.h_down, ref_spec.h_down)
            assert_array_equal(spec.h_up, ref_spec.h_up)


def row_loop_table(basis):
    """The frequency table as a counter loop over the three blocks."""
    rows, i = [], 0
    for _ in range(basis.n_harmonic):
        rows.append(FrequencyEntry(i, "harmonic", 0.0))
        i += 1
    for f in basis.gradient_frequencies:
        rows.append(FrequencyEntry(i, "gradient", float(f)))
        i += 1
    for f in basis.curl_frequencies:
        rows.append(FrequencyEntry(i, "curl", float(f)))
        i += 1
    return rows


def row_loop_response(spec, basis):
    """The frequency response as a loop over the table rows, branching on
    each row's kind."""
    down0 = spec.h_down[0] if spec.h_down else 0.0
    up0 = spec.h_up[0] if spec.h_up else 0.0

    def projector_gain(lam):
        if spec.harmonic is None:
            return 0.0
        return (1.0 - spec.harmonic.epsilon * lam) ** spec.harmonic.steps

    out = []
    for row in row_loop_table(basis):
        if row.kind == "harmonic":
            out.append(down0 + up0 + projector_gain(0.0))
        elif row.kind == "gradient":
            out.append(_poly_eval(spec.h_down, row.frequency) + up0
                       + projector_gain(row.frequency))
        else:
            out.append(_poly_eval(spec.h_up, row.frequency) + down0
                       + projector_gain(row.frequency))
    return np.array(out)


@PROPERTY
@given(c=complexes_with_cells(), k=st.integers(0, 2), h_down=TAPS,
       h_up=TAPS, steps=st.one_of(st.none(), st.integers(0, 4)),
       tol=st.sampled_from([None, 1e-8]))
def test_typed_spectrum_matches_the_row_loops(c, k, h_down, h_up, steps,
                                              tol):
    basis = hodge_basis(c, k, tol)
    assert frequency_table(basis) == row_loop_table(basis)
    harmonic = None
    if steps is not None:
        lam = lambda_max(c, k)
        harmonic = HarmonicTerm(1.0 / lam if lam > 0 else 0.5, steps)
        h_down, h_up = [0.0] + h_down, [0.0] + h_up
    spec = HodgeFilterSpec(tuple(h_down), tuple(h_up), harmonic)
    assert_array_equal(frequency_response(c, k, spec, basis),
                       row_loop_response(spec, basis))


def block_clip_l1(c, f, mask, alpha, beta, p, q, max_iter):
    """The l1 primal-dual loop as it split the dual vector per penalty
    block and clipped each block on every iteration."""
    m_diag = mask.astype(float)
    lap_down = hodge_laplacian(c, 1, "down", sparse=True)
    lap_up = hodge_laplacian(c, 1, "up", sparse=True)
    b1 = _float_incidence(c, 1)[0]
    b2t = _float_incidence(c, 2)[1]
    lip = 2.0
    if p == 2:
        lip += 2.0 * alpha * lambda_max(c, 0)
    if q == 2:
        lip += 2.0 * beta * lambda_max(c, 2)

    def grad_smooth(x):
        g = 2.0 * m_diag * (x - f.values)
        if p == 2:
            g += 2.0 * alpha * (lap_down @ x)
        if q == 2:
            g += 2.0 * beta * (lap_up @ x)
        return g

    ops, bounds = [], []
    if p == 1:
        ops.append(b1)
        bounds.append(alpha)
    if q == 1:
        ops.append(b2t)
        bounds.append(beta)
    k_op = sp.vstack(ops, format="csr")
    splits = np.cumsum([op.shape[0] for op in ops])[:-1]
    k_norm = np.sqrt(lambda_max(c, {(1, 2): 0, (2, 1): 2, (1, 1): 1}[(p, q)]))
    sigma = 1.0 / k_norm if k_norm > 0 else 1.0
    tau = 0.9 / (lip / 2.0 + sigma * k_norm**2)
    x = np.zeros(c.n1)
    y = np.zeros(k_op.shape[0])
    for _ in range(max_iter):
        x_new = x - tau * (grad_smooth(x) + k_op.T @ y)
        y_tilde = y + sigma * (k_op @ (2.0 * x_new - x))
        for block, bound in zip(np.split(np.arange(k_op.shape[0]), splits),
                                bounds):
            y_tilde[block] = np.clip(y_tilde[block], -bound, bound)
        y = y_tilde
        rel_change = np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x))
        x = x_new
        if rel_change < 1e-8:
            break
    return x


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**16),
       pq=st.sampled_from([(1, 2), (2, 1), (1, 1)]),
       alpha=st.sampled_from([0.0, 0.3, 1, 2.5]),
       beta=st.sampled_from([0.0, 0.7, 1, 4.0]),
       max_iter=st.integers(1, 300))
def test_l1_reconstruct_matches_the_block_clip_loop(c, seed, pq, alpha, beta,
                                                    max_iter):
    assume(c.n1 > 0)
    rng = np.random.default_rng(seed)
    f = Cochain(c, 1, rng.standard_normal(c.n1))
    mask = rng.random(c.n1) < 0.6
    p, q = pq
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x = regularized_reconstruct(c, f, mask, alpha, beta, p, q,
                                    max_iter=max_iter).values
    assert_array_equal(x, block_clip_l1(c, f, mask, alpha, beta, p, q,
                                        max_iter))


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**16), h11=TAPS,
       h01=TAPS, h21=TAPS)
def test_filterbank_edge_matches_the_cochain_branches(c, seed, h11, h01,
                                                      h21):
    rng = np.random.default_rng(seed)
    x = random_signal(c, rng)
    spec_11 = HodgeFilterSpec(tuple(h11), tuple(h21))
    spec_01 = HodgeFilterSpec(h_down=tuple(h01))
    spec_21 = HodgeFilterSpec(h_up=tuple(h21))
    y = apply_filter(c, 1, spec_11, x.x1).values
    y = y + apply_filter(c, 1, spec_01,
                         Cochain(c, 1, c.b1.T @ x.x0.values)).values
    y = y + apply_filter(c, 1, spec_21,
                         Cochain(c, 1, c.b2 @ x.x2.values)).values
    assert_array_equal(filterbank_edge(c, spec_11, spec_01, spec_21,
                                       x).values, y)


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**16))
def test_dirac_shift_matches_the_incidence_blocks_to_rounding(c, seed):
    # The one named move: the edge rows sum b1^T x0 and b2 x2 together.
    x = random_signal(c, np.random.default_rng(seed))
    shifted = dirac_shift(c, x)
    blocks = (c.b1 @ x.x1.values,
              c.b1.T @ x.x0.values + c.b2 @ x.x2.values,
              c.b2.T @ x.x1.values)
    for got, want in zip((shifted.x0, shifted.x1, shifted.x2), blocks):
        np.testing.assert_allclose(got.values, want, rtol=1e-15,
                                   atol=1e-14)


def term_plan(c, k, spec):
    """The filter resolved into (Laplacian or None, taps) pairs, down
    before up, trailing zero taps cut, and its harmonic term as
    (L_k, epsilon, steps) or None."""
    pairs = []
    for present, variant, taps in ((k > 0, "down", spec.h_down),
                                   (k < 2, "up", spec.h_up)):
        lap = hodge_laplacian(c, k, variant, sparse=True) if present else None
        if lap is None:
            taps = taps[:1]
        while taps and not taps[-1]:
            taps = taps[:-1]
        if taps:
            pairs.append((lap, taps))
    harmonic = None
    if spec.harmonic is not None:
        eps = spec.harmonic.epsilon
        lam = lambda_max(c, k)
        if lam > 0 and not eps < 2.0 / lam:
            raise ValueError(
                f"epsilon {eps} outside the stability range (0, {2.0 / lam})"
            )
        harmonic = (hodge_laplacian(c, k, sparse=True), eps,
                    spec.harmonic.steps)
    return tuple(pairs), harmonic


def apply_plan(terms, values):
    """A :func:`term_plan` applied: the first polynomial's own sum is the
    total, later ones and the harmonic term are added to it."""
    pairs, harmonic = terms
    y = None
    for op, taps in pairs:
        part = _polynomial(op, taps, values)
        if y is None:
            y = part
        else:
            y += part
    if y is None:
        y = sp.csr_array(values.shape) if sp.issparse(values) else \
            np.zeros_like(values)
    if harmonic is not None:
        lap, eps, steps = harmonic
        for w in krylov(lambda v: v - eps * (lap @ v), values, steps):
            pass
        y += w
    return y


def same_bytes(a, b) -> bool:
    """Equal type, shape and bits; sparse results also in format and in
    their index arrays, so in the order each row stores its entries,
    which the sums of products with them follow."""
    if sp.issparse(a) or sp.issparse(b):
        return (sp.issparse(a) and sp.issparse(b) and a.format == b.format
                and a.shape == b.shape and all(
                    getattr(a, n).tobytes() == getattr(b, n).tobytes()
                    for n in ("data", "indices", "indptr")))
    return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@PROPERTY
@given(c=complexes_with_cells(), k=st.integers(0, 2), h_down=TAPS,
       h_up=TAPS, steps=st.one_of(st.none(), st.integers(0, 4)),
       gain=st.sampled_from([0.5, 1.0, 2.5]), seed=st.integers(0, 2**16))
def test_filter_values_match_the_term_plan(c, k, h_down, h_up, steps, gain,
                                           seed):
    harmonic = None
    if steps is not None:  # gain / lam_max, unstable for a gain of 2.5
        lam = lambda_max(c, k)
        harmonic = HarmonicTerm(gain / lam if lam > 0 else 0.5, steps)
        h_down, h_up = [0.0] + h_down, [0.0] + h_up
    spec = HodgeFilterSpec(tuple(h_down), tuple(h_up), harmonic)
    nk = c.num_simplices(k)
    rng = np.random.default_rng(seed)
    for values in (rng.standard_normal(nk), rng.standard_normal((nk, 3)),
                   sp.eye_array(nk, format="csr")):
        try:
            want = apply_plan(term_plan(c, k, spec), values)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _filter_values(c, k, spec, values)
            assert str(got.value) == str(exc)
            continue
        assert same_bytes(_filter_values(c, k, spec, values), want)


def svd_projection_split(c, k, values, tol):
    """The explicit-tol split as it projected onto the truncated SVD: the
    gradient part, curl part, lower and upper potential of an order-k
    cochain, from the leading r singular triplets of b_k and b_{k+1}, r
    the tol rank capped at the SVD's nonzero count."""
    out = []
    for b in (k, k + 1):
        if not 1 <= b <= 2:
            out.append((np.zeros_like(values), None))
            continue
        u, s, vt = _incidence_svd(c, b)
        r = min(_rank(c, b, tol), int(np.count_nonzero(s)))
        if b == k:
            coef = vt[:r] @ values
            out.append((vt[:r].T @ coef, u[:, :r] @ (coef.T / s[:r]).T))
        else:
            coef = u[:, :r].T @ values
            out.append((u[:, :r] @ coef, vt[:r].T @ (coef.T / s[:r]).T))
    (grad, lower), (curl, upper) = out
    return grad, curl, lower, upper


# On these small complexes 0.5 drops part of the spectrum of b1 or b2 for
# about one in six, 1.5 and 3.5 for most, so the subtracted triplets are
# exercised.
@PROPERTY
@given(c=complexes_with_cells(), k=st.integers(0, 2),
       tol=st.sampled_from([1e-300, 1e-8, 0.05, 0.5, 1.5, 3.5]),
       seed=st.integers(0, 2**16))
def test_hodge_split_matches_the_svd_projection(c, k, tol, seed):
    x = Cochain(c, k, np.random.default_rng(seed).standard_normal(
        c.num_simplices(k)))
    got = hodge_decompose(c, x, tol)
    want = svd_projection_split(c, k, x.values, tol)
    bound = 1e-10 * (1.0 + np.linalg.norm(x.values))
    for part, ref in zip(got[:2] + got[3:], want):
        assert (part is None) == (ref is None)
        if ref is not None:
            assert np.max(np.abs(part.values - ref), initial=0.0) <= bound


def dict_per_column_eliminate(b):
    """The pivot columns of ``b`` as the elimination found them with a dict
    of entries built for every column."""
    csc = b.tocsc()
    owner, pivots = {}, []
    for j in range(csc.shape[1]):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        col = dict(zip(csc.indices[lo:hi].tolist(),
                       (csc.data[lo:hi] % _PRIME).tolist()))
        while col:
            low = max(col)
            red = owner.get(low)
            if red is None:
                owner[low] = col
                pivots.append(j)
                break
            f = col[low] * pow(red[low], -1, _PRIME) % _PRIME
            for r, v in red.items():
                v = (col.get(r, 0) - f * v) % _PRIME
                if v:
                    col[r] = v
                else:
                    del col[r]
    return np.array(pivots, dtype=np.int64)


@st.composite
def integer_matrices(draw):
    """A sparse integer matrix of up to 10 rows and 13 columns, some
    columns multiples (by -2, -1, 1 or 2) of others and some empty, so
    collisions and columns that reduce to zero are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = rng.integers(0, 11), rng.integers(0, 8)
    a = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < rng.random())
    if n:
        picks = rng.integers(0, n, rng.integers(0, 7))
        a = np.hstack([a, a[:, picks] * rng.choice([-2, -1, 1, 2],
                                                   picks.size)])
        a = a[:, rng.permutation(a.shape[1])]
    return sp.csr_array(a)


def l2_stacks(c, seed):
    """The incidence rows of the unobserved edges that _l2_factor ranks,
    [b1[:, U]; b2[U, :]^T] and its two halves, under a random mask."""
    unobserved = np.flatnonzero(np.random.default_rng(seed).random(c.n1)
                                < 0.6)
    halves = [c.b1[:, unobserved], c.b2.T[:, unobserved]]
    return [*halves, sp.vstack(halves, format="csc")]


@PROPERTY
@given(b=integer_matrices(), c=complexes_with_cells(),
       seed=st.integers(0, 2**16))
def test_eliminate_matches_the_dict_per_column_loop(b, c, seed):
    for matrix in [b, c.b2, *l2_stacks(c, seed)]:
        assert_array_equal(_eliminate(matrix),
                           dict_per_column_eliminate(matrix))


# A grid whose [Ld; Lu] stack is held sparse (2 n1 x n1 > 25 000 entries).
SPARSE_GRID = triangulated_grid(8, holes=[(2, 2)])


@PROPERTY
@given(c=st.one_of(complexes_with_cells(), st.just(SPARSE_GRID)),
       seed=st.integers(0, 2**16), t_down=st.integers(0, 3),
       t_up=st.integers(0, 3),
       masks=st.sampled_from(["none", "random", "all-False"]))
def test_planned_lms_steps_match_the_rebuilt_regressor(c, seed, t_down, t_up,
                                                      masks):
    """Each step from the state's plan against the regressor rebuilt by
    hand: byte for byte where the step operator is held sparse, to 1e-12
    relative where it is held dense."""
    rng = np.random.default_rng(seed)
    mu, need = 1e-3, max(t_down, t_up) + 1
    state = lms_init(c, t_down, t_up, mu)
    # (0, 0) takes no product; read how (1, 0)'s step operator is held
    plan = state._plan if need > 1 else lms_init(c, 1, 0, mu)._plan
    exact = sp.issparse(plan.op)
    coeffs, window = state.coefficients, ()
    for _ in range(need + 4):
        x = c.cochain(1, rng.standard_normal(c.n1))
        y = c.cochain(1, rng.standard_normal(c.n1))
        mask = {"none": None, "random": rng.random(c.n1) < 0.6,
                "all-False": np.zeros(c.n1, bool)}[masks]
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


@PROPERTY
@given(c=st.one_of(complexes_with_cells(), st.just(SPARSE_GRID)),
       seed=st.integers(0, 2**16), t_down=st.integers(0, 3),
       t_up=st.integers(0, 3), extra=st.integers(0, 3))
def test_regressor_from_the_step_operator_matches_the_column_loop(
        c, seed, t_down, t_up, extra):
    """lms_build_regressor, from steps of the held step operator, against
    the regressor built a column and a product at a time, on windows up
    to three flows longer than needed: byte for byte where the operator
    is held sparse, to 1e-12 relative where it is held dense. Column 0 is
    x_t as given, signed zeros included."""
    rng = np.random.default_rng(seed)
    need = max(t_down, t_up) + 1
    window = [c.cochain(1, rng.standard_normal(c.n1))
              for _ in range(need + extra)]
    x_t = rng.standard_normal(c.n1)
    x_t[rng.random(c.n1) < 0.3] = -0.0
    window[-1] = c.cochain(1, x_t)
    plan = lms_init(c, t_down, t_up, 1e-3)._plan
    got = lms_build_regressor(c, window, t_down, t_up)
    want = reference_regressor(c, window, t_down, t_up)
    assert got.shape == want.shape == (c.n1, 1 + t_down + t_up)
    assert got[:, 0].tobytes() == x_t.tobytes()
    assert_close(got, want, plan.op is None or sp.issparse(plan.op))


def row_at_a_time(header, rows) -> bytes:
    """The CSV bytes of a header and rows, each row a tuple of its fields
    formatted by its own ``%``: every field but the last as ``%s``, the
    last, a float, at 17 significant digits; lines end in CRLF."""
    return (header + "\r\n" + "".join(
        ("%s," * (len(row) - 1) + "%.17g\r\n") % row for row in rows)
        ).encode()


SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e308,
                    -1e308, 1.7976931348623157e308, 0.1, -1 / 3, 1e16])


def values_with_specials(rng, shape) -> np.ndarray:
    """Normal values, about a third of them replaced by signed zeros,
    subnormals, values near the overflow bound and awkward decimals."""
    values = rng.standard_normal(shape)
    special = rng.random(shape) < 0.35
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    return values


NAMES = ("gradient", "curl", "harmonic")


@PROPERTY
@given(c=complexes_with_cells(), seed=st.integers(0, 2**16),
       steps=st.integers(0, 4), start=st.integers(0, 1000))
def test_row_writer_matches_a_row_at_a_time(c, seed, steps, start):
    """The signal, series, lms predictions, spectrum and components tables
    against the rows formatted one ``%`` at a time."""
    rng = np.random.default_rng(seed)
    x = c.cochain(1, values_with_specials(rng, c.n1))
    series = [ComplexSignal.from_stacked(c, values_with_specials(
        rng, c.n0 + c.n1 + c.n2)) for _ in range(steps)]
    kept = np.flatnonzero(rng.random(steps + 2) < 0.6)  # steps with output
    preds = values_with_specials(rng, (steps + 2, c.n1))
    kinds = rng.choice(NAMES, c.n1)
    table = [FrequencyEntry(i, str(kind), v) for i, (kind, v) in enumerate(
        zip(kinds, values_with_specials(rng, c.n1).tolist()))]
    parts = HodgeComponents(*(c.cochain(1, values_with_specials(rng, c.n1))
                              for _ in NAMES), None, None)
    want = {
        "signal": row_at_a_time("simplex_id,value",
                                enumerate(x.values.tolist())),
        "series": row_at_a_time("t,level,simplex_id,value", [
            (t, k, i, v) for t, sig in enumerate(series, start)
            for k in (0, 1, 2)
            for i, v in enumerate(getattr(sig, f"x{k}").values.tolist())]),
        "predictions": row_at_a_time("t,level,simplex_id,value", [
            (t, 1, i, v) for t, row in zip(kept.tolist(), preds)
            for i, v in enumerate(row.tolist())]),
        "spectrum": row_at_a_time("index,type,frequency",
                                  [tuple(row) for row in table]),
        "components": row_at_a_time("simplex_id,component,value", [
            (i, name, v) for name in NAMES
            for i, v in enumerate(getattr(parts, name).values.tolist())]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        for name, write in {
            "signal": lambda: save_signal(path, x),
            "series": lambda: save_series(path, series, start=start),
            "predictions": lambda: _save_predictions(path, kept.tolist(),
                                                     preds),
            "spectrum": lambda: _save_spectrum(path, table),
            "components": lambda: _save_components(path, parts),
        }.items():
            write()
            assert path.read_bytes() == want[name], name


def test_row_writer_formats_a_table_longer_than_a_chunk(tmp_path):
    """A signal of more rows than one ``%`` formats, against the rows
    formatted one at a time."""
    c = build_complex(_WRITE_CHUNK + 1000, [])
    x = c.cochain(0, values_with_specials(np.random.default_rng(3), c.n0))
    save_signal(tmp_path / "x.csv", x)
    assert (tmp_path / "x.csv").read_bytes() == row_at_a_time(
        "simplex_id,value", enumerate(x.values.tolist()))
