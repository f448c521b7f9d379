"""Time-series models on complexes: coupled node/edge/triangle vector
autoregression (with and without cross-level terms), batch least-squares
fitting, simulation, and the streaming LMS adaptive filter for edge flows.

Level k of the autoregression of order P is fed, lag by lag, by one term
per source level j = k-1, k, k+1 that has simplices, summed in that order.
The own-level bank h_kk filters x_k. A cross term follows the
convolve-transform-convolve pattern g_kj(B h_kj(x_j)): the pre-filter h_kj
acts on the source level, the incidence matrix B maps level j to level k
(b_k^T from below, b_{k+1} from above), and the post-filter g_kj acts on the
target level. Dropping the cross terms leaves three independent per-level
autoregressions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from ._linalg import krylov
from .complexes import Cochain, ComplexSignal, SimplicialComplex, hodge_laplacian
from .filters import HodgeFilterSpec, _filter_values

__all__ = [
    "SCVarLag",
    "SCVarModel",
    "LmsState",
    "IllConditionedWarning",
    "scvar_predict",
    "svar_predict",
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
            raise ValueError("model needs at least one lag")


def _check_history(model: SCVarModel,
                   history: Sequence[ComplexSignal]) -> None:
    if len(history) < model.order:
        raise ValueError(
            f"need at least {model.order} past signals, got {len(history)}"
        )
    for sig in history:
        if sig.complex is not model.complex:
            raise ValueError("history signal bound to a different complex")


def _terms(c: SimplicialComplex, k: int) -> list:
    """The terms feeding level k in summation order: (source level j,
    incidence map from level j to level k), with None for the own-level
    bank h_kk. Source levels without simplices are left out."""
    terms = []
    if k > 0 and c.num_simplices(k - 1):
        terms.append((k - 1, getattr(c, f"b{k}").T))
    terms.append((k, None))
    if k < 2 and c.num_simplices(k + 1):
        terms.append((k + 1, getattr(c, f"b{k + 1}")))
    return terms


def scvar_predict(model: SCVarModel,
                  history: Sequence[ComplexSignal]) -> ComplexSignal:
    """One-step-ahead prediction with zero noise; history[-p] is the signal
    p steps back."""
    _check_history(model, history)
    c = model.complex
    # past[p - 1][j] is the level-j signal p steps back
    past = [(sig.x0.values, sig.x1.values, sig.x2.values)
            for sig in reversed(history[-model.order:])]
    out = []
    for k in (0, 1, 2):
        terms = _terms(c, k)
        acc = np.zeros(c.num_simplices(k))
        for lag, x in zip(model.lags, past):
            for j, incidence in terms:
                if incidence is None:
                    acc += _filter_values(c, k, getattr(lag, f"h{k}{k}"),
                                          x[k])
                    continue
                post = getattr(lag, f"g{k}{j}")
                if not post.is_zero():
                    moved = incidence @ _filter_values(
                        c, j, getattr(lag, f"h{k}{j}"), x[j])
                    acc += _filter_values(c, k, post, moved)
        out.append(acc)
    return ComplexSignal.from_arrays(c, *out)


def svar_predict(model: SCVarModel,
                 history: Sequence[ComplexSignal]) -> ComplexSignal:
    """Prediction with every cross-level term forced to zero:
    :func:`scvar_predict` on the model without its cross terms."""
    own = tuple(SCVarLag(h00=lag.h00, h11=lag.h11, h22=lag.h22)
                for lag in model.lags)
    return scvar_predict(SCVarModel(complex=model.complex, lags=own), history)


def scvar_simulate(model: SCVarModel, steps: int,
                   initial: Sequence[ComplexSignal],
                   noise_std: tuple[float, float, float] = (0.0, 0.0, 0.0),
                   rng: np.random.Generator | int | None = None
                   ) -> list[ComplexSignal]:
    """Roll the recursion forward, optionally injecting per-level Gaussian
    noise; returns the generated continuation."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    c = model.complex
    history = list(initial)
    out = []
    for _ in range(steps):
        pred = scvar_predict(model, history)
        nxt = ComplexSignal.from_arrays(
            c,
            pred.x0.values + noise_std[0] * rng.standard_normal(c.n0),
            pred.x1.values + noise_std[1] * rng.standard_normal(c.n1),
            pred.x2.values + noise_std[2] * rng.standard_normal(c.n2),
        )
        out.append(nxt)
        history.append(nxt)
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
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if filter_order < 0:
        raise ValueError(f"filter_order must be >= 0, got {filter_order}")
    if t_len <= order + filter_order:
        raise ValueError(
            f"need more than order + filter_order = {order + filter_order} "
            f"signals, got {t_len}"
        )
    for sig in series:
        if sig.complex is not c:
            raise ValueError("series signal bound to a different complex")

    t_ord = filter_order
    n_fit = t_len - order
    # Column j of signals[k] is series[j] on level k.
    signals = [np.column_stack([getattr(sig, f"x{k}").values
                                for sig in series]) for k in (0, 1, 2)]

    def last_power(level, slot):
        """t_ord, or 0 for a Laplacian part that is the zero matrix (the
        edges' up part without triangles): its powers are zero columns."""
        lap = hodge_laplacian(c, level, slot, sparse=True)
        return t_ord if lap.count_nonzero() else 0

    def plan(level):
        """The slots of one level in regressor column order: (bank, slot,
        first power, last power, source level, incidence map or None)."""
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
        """The regressor columns of one level, lag by lag and slot by slot,
        each as an (n_fit, n_k) block whose row j belongs to time order + j.
        """
        for p in range(1, order + 1):
            for _, slot, start, stop, source, incidence in slots:
                lap = hodge_laplacian(c, level, slot, sparse=True)
                past = signals[source][:, order - p : t_len - p]
                if incidence is not None:
                    past = incidence @ past
                powers = list(krylov(lambda v: lap @ v, past, stop))
                for z in powers[start:]:
                    yield z.T

    lag_kwargs: list[dict] = [{} for _ in range(order)]
    residuals = [0.0, 0.0, 0.0]
    for level in (0, 1, 2):
        nk = c.num_simplices(level)
        if nk == 0:
            continue
        slots = list(plan(level))
        # one block of nk rows per fitted time step, as in the target
        design = np.stack(list(regressors(level, slots)), axis=-1)
        design = design.reshape(n_fit * nk, -1)
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

        pos = 0
        for p in range(order):
            for name, slot, start, stop, _, _ in slots:
                width = stop + 1 - start
                vals = (0.0,) * start + tuple(coef[pos : pos + width])
                vals += (0.0,) * (t_ord + 1 - len(vals))
                pos += width
                spec_parts = lag_kwargs[p].setdefault(
                    name, {"down": (0.0,), "up": (0.0,)}
                )
                spec_parts[slot] = vals

    lags = []
    for p in range(order):
        kwargs = {}
        for name, parts in lag_kwargs[p].items():
            kwargs[name] = HodgeFilterSpec(h_down=parts["down"],
                                           h_up=parts["up"])
        lags.append(SCVarLag(**kwargs))
    model = SCVarModel(complex=c, lags=tuple(lags))
    return model, tuple(residuals)


@dataclass(frozen=True, eq=False)
class LmsState:
    """Streaming LMS state: coefficient vector, step size, and the window
    of recent input flows (most recent last)."""

    complex: SimplicialComplex
    t_down: int
    t_up: int
    mu: float
    coefficients: np.ndarray
    window: tuple[Cochain, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(
                f"step size mu must be positive and finite, got {self.mu}")
        if self.t_down < 0 or self.t_up < 0:
            name = "t_down" if self.t_down < 0 else "t_up"
            raise ValueError(
                f"{name} must be >= 0, got {getattr(self, name)}")
        expected = 1 + self.t_down + self.t_up
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"need {expected} coefficients (1 + t_down + t_up), "
                f"got shape {coeffs.shape}"
            )


def lms_init(c: SimplicialComplex, t_down: int, t_up: int, mu: float,
             coefficients: Sequence[float] | None = None) -> LmsState:
    if coefficients is None:
        # a negative order is reported by LmsState, naming the parameter
        coefficients = np.zeros(1 + max(t_down, 0) + max(t_up, 0))
    return LmsState(complex=c, t_down=t_down, t_up=t_up, mu=mu,
                    coefficients=np.asarray(coefficients, dtype=float))


def lms_build_regressor(c: SimplicialComplex, window: Sequence[Cochain],
                        t_down: int, t_up: int) -> np.ndarray:
    """Regressor of shifted flows, columns
    [x_t, Ld x_{t-1}, ..., Ld^Td x_{t-Td}, Lu x_{t-1}, ..., Lu^Tu x_{t-Tu}].
    """
    need = max(t_down, t_up) + 1
    if len(window) < need:
        raise ValueError(
            f"insufficient history: need {need} flows, got {len(window)}"
        )
    for x in window:
        if x.complex is not c or x.order != 1:
            raise ValueError("window must hold order-1 cochains on this complex")
    lap_down = hodge_laplacian(c, 1, "down", sparse=True)
    lap_up = hodge_laplacian(c, 1, "up", sparse=True)
    cols = [window[-1].values]
    for lap, t_max in ((lap_down, t_down), (lap_up, t_up)):
        for m in range(1, t_max + 1):
            *_, z = krylov(lambda v: lap @ v, window[-1 - m].values, m)
            cols.append(z)
    return np.column_stack(cols)


def lms_step(state: LmsState, x_t: Cochain, y_t: Cochain,
             mask: np.ndarray | None = None
             ) -> tuple[LmsState, float | None]:
    """One LMS update h <- h + mu * X^T M (y - X h).

    x_t extends the input window; while the window is still too short for
    the regressor the coefficients are left untouched and the error is None.
    The returned error is the pre-update masked residual energy
    ||M(y - X h)||^2.
    """
    state, error, _ = _lms_update(state, x_t, y_t, mask)
    return state, error


def _lms_update(state: LmsState, x_t: Cochain, y_t: Cochain,
                mask: np.ndarray | None
                ) -> tuple[LmsState, float | None, np.ndarray | None]:
    """:func:`lms_step`, also returning the pre-update prediction X h (None
    while the window fills)."""
    c = state.complex
    if x_t.complex is not c or x_t.order != 1:
        raise ValueError("x_t must be an order-1 cochain on this complex")
    need = max(state.t_down, state.t_up) + 1
    window = (state.window + (x_t,))[-need:]
    coeffs, error, prediction = state.coefficients, None, None
    if len(window) == need:
        if y_t.complex is not c or y_t.order != 1:
            raise ValueError("y_t must be an order-1 cochain on this complex")
        if mask is None:
            m = np.ones(c.n1)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (c.n1,):
                raise ValueError(f"mask must have shape ({c.n1},)")
            m = mask.astype(float)
        x_mat = lms_build_regressor(c, window, state.t_down, state.t_up)
        prediction = x_mat @ coeffs
        residual = m * (y_t.values - prediction)
        error = float(residual @ residual)
        coeffs = coeffs + state.mu * (x_mat.T @ residual)
    return (LmsState(complex=c, t_down=state.t_down, t_up=state.t_up,
                     mu=state.mu, coefficients=coeffs, window=window),
            error, prediction)
