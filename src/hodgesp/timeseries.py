"""Time-series models on complexes: coupled node/edge/triangle vector
autoregression (with and without cross-level terms), batch least-squares
fitting, simulation, and the streaming LMS adaptive filter for edge flows.

Level k of the autoregression of order P is fed, lag by lag, by one term
per source level j = k-1, k, k+1 that has simplices. The own-level bank
h_kk filters x_k. A cross term follows the
convolve-transform-convolve pattern g_kj(B h_kj(x_j)): the pre-filter h_kj
acts on the source level, the incidence matrix B maps level j to level k
(b_k^T from below, b_{k+1} from above), and the post-filter g_kj acts on the
target level. Dropping the cross terms leaves three independent per-level
autoregressions. The fit runs the shared sparse Krylov kernel once per term
and Laplacian part over the whole series and slices each lag's regressor
columns from that one pass.

Prediction and simulation compile the model once into one block operator
on the stacked past, cached on the complex; a step is one product with it.
Its sums run in the operator's own order, so a step matches the
term-by-term sum to rounding, not bit for bit.

A step multiplies by a held operator and by the LMS regressor with
``.dot``, not ``@``: on a step's small operands numpy's matmul dispatch
costs about twice ndarray.dot's, for the same bits (see
:mod:`hodgesp._linalg`).

An LMS state carries the regressor of its window, and its step plan,
built once when the state is made: the window length and the held step
operator of its complex and orders. Column m of the regressor is its
Laplacian times column m - 1 of the previous step's, so a step is one
product of the operator with the carried regressor, at every order, and
writes x_t into column 0. The operator stores each Laplacian once per
column that reads it, so its size is linear in the orders. Where it is
held sparse, the regressor has the same bits as separate products with
each Laplacian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ._linalg import held, krylov
from ._util import check_integer, check_real
from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    _cached_slot,
    _check_bound,
    hodge_laplacian,
)
from .filters import HodgeFilterSpec, _filter_values

__all__ = [
    "SCVarLag",
    "SCVarModel",
    "LmsState",
    "IllConditionedWarning",
    "scvar_predict",
    "scvar_simulate",
    "scvar_fit",
    "lms_init",
    "lms_build_regressor",
    "lms_step",
]

_ZERO = HodgeFilterSpec((0.0,), (0.0,))
_IDENTITY = HodgeFilterSpec((1.0,), (0.0,))
# The Laplacian parts of each level that scvar_fit fits h_kk in; the constant
# term lives in the first, so a second part starts at t=1.
_OWN_SLOTS = {0: ("up",), 1: ("down", "up"), 2: ("down",)}


class IllConditionedWarning(UserWarning):
    """Least-squares regressor is numerically ill conditioned."""


@dataclass(frozen=True)
class SCVarLag:
    """Filter banks of one lag.

    h00/h11/h22 act on their own level. The cross term from level j to
    level k is the pre-filter h_kj on level j (h01, h10, h12, h21), the
    incidence map, and the post-filter g_kj on level k (g01, g10, g12, g21).
    """

    h00: HodgeFilterSpec = _ZERO
    g01: HodgeFilterSpec = _ZERO
    h01: HodgeFilterSpec = _IDENTITY
    h11: HodgeFilterSpec = _ZERO
    g10: HodgeFilterSpec = _ZERO
    h10: HodgeFilterSpec = _IDENTITY
    g12: HodgeFilterSpec = _ZERO
    h12: HodgeFilterSpec = _IDENTITY
    g21: HodgeFilterSpec = _ZERO
    h21: HodgeFilterSpec = _IDENTITY
    h22: HodgeFilterSpec = _ZERO

    @classmethod
    def bank_names(cls) -> tuple[str, ...]:
        """The bank names in field order, which is the order of saved
        models."""
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True, eq=False)
class SCVarModel:
    """Per-lag filter banks of the coupled autoregression."""

    complex: SimplicialComplex
    lags: tuple[SCVarLag, ...]

    @property
    def order(self) -> int:
        return len(self.lags)

    def __post_init__(self) -> None:
        if not self.lags:
            raise ValueError("lags must hold at least one lag")


def _check_history(model: SCVarModel, history: Sequence[ComplexSignal],
                   name: str) -> None:
    """Reject ``name`` unless it holds at least model.order signals, all on
    the model's complex."""
    if len(history) < model.order:
        raise ValueError(
            f"{name}: need at least {model.order} past signals, got "
            f"{len(history)}"
        )
    for sig in history:
        _check_bound(model.complex, sig, name)


def _terms(c: SimplicialComplex, k: int) -> list:
    """The terms feeding level k, in the fit's regressor column order:
    (source level j, incidence map from level j to level k), with None for
    the own-level bank h_kk. Source levels without simplices are left
    out."""
    terms = []
    if k > 0 and c.num_simplices(k - 1):
        terms.append((k - 1, getattr(c, f"b{k}").T))
    terms.append((k, None))
    if k < 2 and c.num_simplices(k + 1):
        terms.append((k + 1, getattr(c, f"b{k + 1}")))
    return terms


def _compile(model: SCVarModel):
    """The model compiled for stepping: the (N, P N) block operator A,
    N = n0 + n1 + n2, with A [x_{t-1}; ...; x_{t-P}] the prediction, each
    past signal stacked by level. Block (k, (p, j)) is the term of lag p
    that feeds level k from level j, built as build_dictionary builds
    atoms: the term's filters and incidence map applied to a sparse
    identity of level j. A term whose last filter is zero is left out.
    Each row's entries are sorted by column, so no bit depends on the
    order of the sums; the operator is held by :func:`held`."""
    c = model.complex
    sizes = [c.num_simplices(k) for k in (0, 1, 2)]
    blocks = [[sp.csr_array((n, m)) for _ in model.lags for m in sizes]
              for n in sizes]
    for p, lag in enumerate(model.lags):
        for k in (0, 1, 2):
            for j, incidence in _terms(c, k):
                last = f"h{k}{k}" if incidence is None else f"g{k}{j}"
                if getattr(lag, last).is_zero():
                    continue
                block = sp.eye_array(sizes[j], format="csr")
                if incidence is not None:
                    block = incidence @ _filter_values(
                        c, j, getattr(lag, f"h{k}{j}"), block)
                blocks[k][3 * p + j] = _filter_values(c, k, getattr(lag, last),
                                                      block)
    return held(sp.block_array(blocks, format="csr").sorted_indices())


def _operator(model: SCVarModel):
    """The :func:`_compile` operator of ``model``, held on its complex for
    one model at a time and keyed on the lags' values, which refer to no
    complex."""
    return _cached_slot(model.complex, ("scvar_operator",), model.lags,
                        _compile, model)


def _past(model: SCVarModel, history: Sequence[ComplexSignal]) -> np.ndarray:
    """The last model.order signals, most recent first, stacked."""
    return np.concatenate([sig.stacked()
                           for sig in reversed(history[-model.order:])])


def scvar_predict(model: SCVarModel,
                  history: Sequence[ComplexSignal]) -> ComplexSignal:
    """One-step-ahead prediction with zero noise; history[-p] is the signal
    p steps back."""
    _check_history(model, history, "history")
    return ComplexSignal.from_stacked(
        model.complex, _operator(model).dot(_past(model, history)))


def scvar_simulate(model: SCVarModel, steps: int,
                   initial: Sequence[ComplexSignal],
                   noise_std: tuple[float, float, float] = (0.0, 0.0, 0.0),
                   rng: np.random.Generator | int | None = None
                   ) -> list[ComplexSignal]:
    """Roll the recursion forward, optionally injecting per-level Gaussian
    noise; returns the generated continuation. Each step is one product of
    the compiled model operator with the stacked last model.order
    signals."""
    check_integer(steps, "steps", 0)
    try:
        noise = tuple(noise_std)
    except TypeError:
        noise = ()
    if len(noise) != 3:
        raise ValueError(f"noise_std must hold three deviations, got "
                         f"{noise_std!r}")
    noise_std = [check_real(s, "noise_std") for s in noise]
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    _check_history(model, initial, "initial")
    c = model.complex
    sizes = (c.n0, c.n1, c.n2)
    op = _operator(model)
    past = _past(model, initial)
    n = sum(sizes)
    out = []
    for _ in range(steps):
        nxt = op.dot(past) + np.concatenate([
            s * rng.standard_normal(m) for s, m in zip(noise_std, sizes)])
        out.append(ComplexSignal.from_stacked(c, nxt))
        past = np.concatenate((nxt, past[:-n]))
    return out


def scvar_fit(c: SimplicialComplex, series: Sequence[ComplexSignal],
              order: int, filter_order: int = 1,
              include_cross: bool = True
              ) -> tuple[SCVarModel, tuple[float, float, float]]:
    """Batch least-squares fit of the restricted model (identity
    pre-filters), per level.

    The coefficient basis is canonical so the regressor is full rank. A
    cross post-filter is a polynomial in the part of the target Laplacian
    facing its source, the down part from below and the up part from above;
    the complementary part annihilates the mapped flows exactly. The
    own-level bank h_kk is a polynomial in each part that level k has, with
    its constant in the first; a second part (the edges' up part) starts at
    t=1. A part that is the zero matrix, such as the edges' up part of a
    complex without triangles, is fitted by its constant term alone and
    its higher taps come back 0. Returns the model and the per-level mean
    squared one-step prediction error.
    """
    series = list(series)
    t_len = len(series)
    check_integer(order, "order", 1)
    check_integer(filter_order, "filter_order", 0)
    if t_len <= order + filter_order:
        raise ValueError(
            f"need more than order + filter_order = {order + filter_order} "
            f"signals, got {t_len}"
        )
    for sig in series:
        _check_bound(c, sig, "series")

    n_fit = t_len - order
    # Column j of signals[k] is series[j] on level k.
    signals = [np.column_stack([getattr(sig, f"x{k}").values
                                for sig in series]) for k in (0, 1, 2)]
    banks: list[dict] = [{} for _ in range(order)]
    residuals = [0.0, 0.0, 0.0]
    for level in (0, 1, 2):
        nk = c.num_simplices(level)
        if nk == 0:
            continue
        # (bank, slot, first power, powers of the whole series) per term and
        # Laplacian part, in regressor column order. A part that is the zero
        # matrix (the edges' up part without triangles) has zero powers, so
        # only its constant is fitted.
        slots = []
        for j, incidence in _terms(c, level):
            if incidence is None:
                bank, parts = f"h{level}{level}", enumerate(_OWN_SLOTS[level])
            elif include_cross:
                bank = f"g{level}{j}"
                parts = [(0, "down" if j < level else "up")]
            else:
                continue
            x = signals[j] if incidence is None else incidence @ signals[j]
            for start, slot in parts:
                lap = hodge_laplacian(c, level, slot, sparse=True)
                stop = filter_order if lap.count_nonzero() else 0
                powers = list(krylov(lambda v: lap @ v, x, stop))[start:]
                slots.append((bank, slot, start, powers))
        # Lag p reads columns order - p .. t_len - p of each pass; row
        # t * nk + i of the design is simplex i at time order + t, as in the
        # target. Written C-ordered, the reshape is a view.
        blocks = [z[:, order - p : t_len - p].T for p in range(1, order + 1)
                  for *_, powers in slots for z in powers]
        design = np.stack(blocks, axis=-1, out=np.empty(
            (n_fit, nk, len(blocks)))).reshape(n_fit * nk, -1)
        target = signals[level][:, order:].reshape(-1, order="F")
        coef, _, _, svals = np.linalg.lstsq(design, target, rcond=None)
        if svals.size and svals[-1] > 0:
            cond = svals[0] / svals[-1]
            if cond > 1e10:
                warnings.warn(
                    f"level-{level} regressor ill conditioned "
                    f"(cond ~ {cond:.2e})", IllConditionedWarning)
        elif svals.size:
            warnings.warn(f"level-{level} regressor rank deficient",
                          IllConditionedWarning)
        err = target - design @ coef
        residuals[level] = float(err @ err) / target.size
        for lag, row in zip(banks, coef.reshape(order, -1)):
            pos = 0
            for bank, slot, start, powers in slots:
                taps, width = np.zeros(filter_order + 1), len(powers)
                taps[start : start + width] = row[pos : pos + width]
                lag.setdefault(bank, {})[f"h_{slot}"] = taps
                pos += width

    lags = tuple(SCVarLag(**{bank: HodgeFilterSpec(**parts)
                             for bank, parts in lag.items()}) for lag in banks)
    return SCVarModel(complex=c, lags=lags), tuple(residuals)


@dataclass(frozen=True, eq=False)
class LmsState:
    """Streaming LMS state: coefficient vector, step size, and the window
    of recent input flows (most recent last).

    The state also holds its step plan and the regressor of its window,
    built from the complex, the orders and the window when the state is
    made (by the constructor, :func:`lms_init` or
    ``dataclasses.replace``); they are not shown, compared or passed. A
    step carries the regressor on, so each flow is read once, when it
    enters the window: the window's cochains are treated as
    immutable."""

    complex: SimplicialComplex
    t_down: int
    t_up: int
    mu: float
    coefficients: np.ndarray
    window: tuple[Cochain, ...] = field(default_factory=tuple)
    _plan: _Plan = field(init=False, repr=False, compare=False)
    _carry: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_real(self.mu, "mu", positive=True)
        _check_orders(self.t_down, self.t_up)
        window = tuple(self.window)
        object.__setattr__(self, "window", window)
        for x in window:
            _check_bound(self.complex, x, "window", 1)
        expected = 1 + self.t_down + self.t_up
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"coefficients must have shape ({expected},) "
                f"(1 + t_down + t_up), got {coeffs.shape}"
            )
        if np.count_nonzero(np.isfinite(coeffs)) != coeffs.size:
            raise ValueError("coefficients must be finite")
        plan = _make_plan(self.complex, self.t_down, self.t_up)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_carry", _regressor(plan, window))


def _check_orders(t_down, t_up) -> None:
    check_integer(t_down, "t_down", 0)
    check_integer(t_up, "t_up", 0)


def lms_init(c: SimplicialComplex, t_down: int, t_up: int, mu: float,
             coefficients: Sequence[float] | None = None) -> LmsState:
    _check_orders(t_down, t_up)
    if coefficients is None:
        coefficients = np.zeros(1 + t_down + t_up)
    return LmsState(complex=c, t_down=t_down, t_up=t_up, mu=mu,
                    coefficients=np.asarray(coefficients, dtype=float))


def _step_operator(c: SimplicialComplex, t_down: int, t_up: int):
    """The held step operator of the LMS regressor of orders
    (t_down, t_up).

    Regressor column j >= 1 is Ld^m x_{t-m} (j = m <= t_down) or
    Lu^m x_{t-m} (j = t_down + m): column j's Laplacian times column
    src(j) of the previous step's regressor, src(j) = j - 1, except
    src(t_down + 1) = 0, which is x_{t-1}. The operator has shape
    (n1 p, n1 p), p = 1 + t_down + t_up, on the C-ordered (n1, p)
    regressor: row i p + j holds row i of column j's Laplacian in the
    columns i' p + src(j), and column 0's rows are empty. Held as CSR,
    each row sums its Laplacian row in that row's order, so column j is
    the chain of m products with it, bit for bit; held dense, the products
    match the chain to rounding."""
    n, p = c.n1, 1 + t_down + t_up
    blocks = [sp.csr_array((n, n * p))]
    for j in range(1, p):
        lap = hodge_laplacian(c, 1, "down" if j <= t_down else "up",
                              sparse=True)
        src = 0 if j == t_down + 1 else j - 1
        blocks.append(sp.csr_array((lap.data, lap.indices * p + src,
                                    lap.indptr), shape=(n, n * p)))
    # row i p + j of the interleaved order is row j n + i of the blocks
    rows = np.arange(p * n).reshape(p, n).T.ravel()
    return held(sp.vstack(blocks, format="csr")[rows])


class _Plan(NamedTuple):
    """What every LMS step of one complex and pair of orders repeats:
    the window length max(t_down, t_up) + 1, n1, the regressor width
    p = 1 + t_down + t_up, and the held :func:`_step_operator`."""

    need: int
    n: int
    width: int
    op: object


def _make_plan(c: SimplicialComplex, t_down: int, t_up: int) -> _Plan:
    op = _cached_slot(c, ("lms_shift",), (t_down, t_up), _step_operator,
                      c, t_down, t_up)
    return _Plan(max(t_down, t_up) + 1, c.n1, 1 + t_down + t_up, op)


def lms_build_regressor(c: SimplicialComplex, window: Sequence[Cochain],
                        t_down: int, t_up: int) -> np.ndarray:
    """Regressor of shifted flows, columns
    [x_t, Ld x_{t-1}, ..., Ld^Td x_{t-Td}, Lu x_{t-1}, ..., Lu^Tu x_{t-Tu}].

    Lag m is the chain of m products of its Laplacian with x_{t-m}, taken
    by max(t_down, t_up) + 1 steps of :func:`_step_operator`.
    """
    _check_orders(t_down, t_up)
    plan = _make_plan(c, t_down, t_up)
    if len(window) < plan.need:
        raise ValueError(
            f"insufficient history: need {plan.need} flows, got "
            f"{len(window)}"
        )
    for x in window:
        _check_bound(c, x, "window", 1)
    return _regressor(plan, window).reshape(plan.n, plan.width)


def _regressor(plan: _Plan, window: Sequence[Cochain]) -> np.ndarray:
    """The flat, C-ordered (n1, p) regressor of a checked window, from its
    plan: a step of :func:`_lms_update` for each of its last plan.need
    flows, from zeros. A shorter window leaves the columns of the flows it
    lacks zero."""
    z = np.zeros(plan.n * plan.width)
    for x in window[-plan.need:]:
        z = plan.op.dot(z)
        z.reshape(plan.n, plan.width)[:, 0] = x.values
    return z


def lms_step(state: LmsState, x_t: Cochain, y_t: Cochain,
             mask: np.ndarray | None = None
             ) -> tuple[LmsState, float | None]:
    """One LMS update h <- h + mu * X^T M (y - X h).

    x_t extends the input window; while the window is still too short for
    the regressor the coefficients are left untouched and the error is
    None. x_t, y_t and the mask are checked on every step.
    The returned error is the pre-update masked residual energy
    ||M(y - X h)||^2; when it is not finite, the filter has diverged and a
    ValueError names mu.
    """
    state, error, _ = _lms_update(state, x_t, y_t, mask)
    return state, error


def _lms_update(state: LmsState, x_t: Cochain, y_t: Cochain,
                mask: np.ndarray | None
                ) -> tuple[LmsState, float | None, np.ndarray | None]:
    """:func:`lms_step`, also returning the pre-update prediction X h (None
    while the window fills)."""
    c, plan = state.complex, state._plan
    # _check_bound's test, inline: the call, only to raise its error
    try:
        if x_t.complex is not c or x_t.order != 1:
            _check_bound(c, x_t, "x_t", 1)
        if y_t.complex is not c or y_t.order != 1:
            _check_bound(c, y_t, "y_t", 1)
    except AttributeError:  # not a cochain
        _check_bound(c, x_t, "x_t", 1)
        _check_bound(c, y_t, "y_t", 1)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (plan.n,):
            raise ValueError(f"mask must have shape ({plan.n},)")
    window = (state.window + (x_t,))[-plan.need:]
    carry = plan.op.dot(state._carry)
    x_mat = carry.reshape(plan.n, plan.width)
    x_mat[:, 0] = x_t.values
    if len(window) < plan.need:
        return _advance(state, state.coefficients, window, carry), None, None
    prediction = x_mat.dot(state.coefficients)
    residual = y_t.values - prediction
    if mask is not None:  # no mask is the all-ones mask, and 1.0 * r == r
        residual = mask.astype(float) * residual
    error = float(residual.dot(residual))
    if not math.isfinite(error):  # one scalar check, not the coefficients
        raise ValueError(
            f"LMS diverged: the step's squared error is {error}; the step "
            f"size mu = {state.mu} is too large for these inputs")
    # h + mu X^T r, formed in place: the same bits, two fewer arrays
    update = x_mat.T.dot(residual)
    update *= state.mu
    update += state.coefficients
    return _advance(state, update, window, carry), error, prediction


def _advance(state: LmsState, coefficients: np.ndarray,
             window: tuple[Cochain, ...], carry: np.ndarray) -> LmsState:
    """The state after a step of ``state``, with new coefficients, window
    and regressor; what ``state`` passed at construction is not checked
    again."""
    new = object.__new__(LmsState)
    attrs = new.__dict__
    attrs.update(state.__dict__)
    attrs["coefficients"], attrs["window"] = coefficients, window
    attrs["_carry"] = carry
    return new
