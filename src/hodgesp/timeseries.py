"""Time-series models on complexes: coupled node/edge/triangle vector
autoregression (with and without cross-level terms), batch least-squares
fitting, simulation, and the streaming LMS adaptive filter for edge flows.

Cross-level terms follow the convolve-transform-convolve pattern: filter the
source signal on its own level, map it through the incidence matrix, filter
again on the target level. The autoregression of order P couples the three
levels through these terms; dropping them leaves three independent per-level
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
from .filters import HodgeFilterSpec, apply_filter

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


class IllConditionedWarning(UserWarning):
    """Least-squares regressor is numerically ill conditioned."""


@dataclass(frozen=True)
class SCVarLag:
    """Filter banks of one lag.

    h00/h11/h22 act on their own level; each cross term is a pre-filter on
    the source level (h01, h10, h12, h21) followed by the incidence map and
    a post-filter on the target level (g01, g10, g12, g21).
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

    def bank_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self))


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


def _cross_term(c: SimplicialComplex, post: HodgeFilterSpec,
                incidence_map, pre: HodgeFilterSpec,
                source: Cochain, source_k: int, target_k: int) -> np.ndarray:
    if post.is_zero():
        return np.zeros(c.num_simplices(target_k))
    pre_filtered = apply_filter(c, source_k, pre, source)
    moved = Cochain(c, target_k, incidence_map(pre_filtered.values))
    return apply_filter(c, target_k, post, moved).values


def scvar_predict(model: SCVarModel,
                  history: Sequence[ComplexSignal]) -> ComplexSignal:
    """One-step-ahead prediction with zero noise; history[-p] is the signal
    p steps back."""
    _check_history(model, history)
    c = model.complex
    acc0 = np.zeros(c.n0)
    acc1 = np.zeros(c.n1)
    acc2 = np.zeros(c.n2)
    for p, lag in enumerate(model.lags, start=1):
        past = history[-p]
        acc0 += apply_filter(c, 0, lag.h00, past.x0).values
        acc0 += _cross_term(c, lag.g01, lambda v: c.b1 @ v, lag.h01,
                            past.x1, 1, 0)
        acc1 += _cross_term(c, lag.g10, lambda v: c.b1.T @ v, lag.h10,
                            past.x0, 0, 1)
        acc1 += apply_filter(c, 1, lag.h11, past.x1).values
        acc1 += _cross_term(c, lag.g12, lambda v: c.b2 @ v, lag.h12,
                            past.x2, 2, 1)
        acc2 += _cross_term(c, lag.g21, lambda v: c.b2.T @ v, lag.h21,
                            past.x1, 1, 2)
        acc2 += apply_filter(c, 2, lag.h22, past.x2).values
    return ComplexSignal.from_arrays(c, acc0, acc1, acc2)


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

    The coefficient basis is canonical so the regressor is full rank:
    order-0 banks are polynomials in the graph Laplacian (h_up slots),
    order-2 banks in the triangle Laplacian (h_down slots), the edge
    self-term keeps its constant in h_down with h_up starting at t=1, and
    the edge cross terms are one-sided (node input: lower polynomial,
    triangle input: upper polynomial — the complementary Laplacian
    annihilates those flows exactly). Returns the model and the per-level
    mean squared one-step prediction error.
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
    lap0 = hodge_laplacian(c, 0, sparse=True)
    lap1d = hodge_laplacian(c, 1, "down", sparse=True)
    lap1u = hodge_laplacian(c, 1, "up", sparse=True)
    lap2 = hodge_laplacian(c, 2, sparse=True) if c.n2 else None
    n_fit = t_len - order

    # Each entry: (bank name, slot name, number of coefficients). Slots are
    # filled per lag, in this order, matching the regressor columns.
    plans = {
        0: [("h00", "up", t_ord + 1)]
           + ([("g01", "up", t_ord + 1)] if include_cross and c.n1 else []),
        1: ([("g10", "down", t_ord + 1)] if include_cross and c.n0 else [])
           + [("h11", "down", t_ord + 1), ("h11", "up", t_ord)]
           + ([("g12", "up", t_ord + 1)] if include_cross and c.n2 else []),
        2: ([("g21", "down", t_ord + 1)] if include_cross and c.n1 else [])
           + [("h22", "down", t_ord + 1)],
    }
    # Each slot's shift operator, source level and incidence map (if any).
    inputs = {
        ("h00", "up"): (lap0, 0, None),
        ("g01", "up"): (lap0, 1, c.b1),
        ("g10", "down"): (lap1d, 0, c.b1.T),
        ("h11", "down"): (lap1d, 1, None),
        ("h11", "up"): (lap1u, 1, None),
        ("g12", "up"): (lap1u, 2, c.b2),
        ("g21", "down"): (lap2, 1, c.b2.T),
        ("h22", "down"): (lap2, 2, None),
    }
    # Column j of signals[k] is series[j] on level k.
    signals = [np.column_stack([getattr(sig, f"x{k}").values
                                for sig in series]) for k in (0, 1, 2)]

    def regressors(plan):
        """The regressor columns of one level, lag by lag and slot by slot,
        each as an (n_fit, n_k) block whose row j belongs to time order + j.
        """
        for p in range(1, order + 1):
            for name, slot, width in plan:
                lap, source, incidence = inputs[name, slot]
                past = signals[source][:, order - p : t_len - p]
                if incidence is not None:
                    past = incidence @ past
                powers = list(krylov(lambda v: lap @ v, past, t_ord))
                for z in powers[t_ord + 1 - width:]:
                    yield z.T

    lag_kwargs: list[dict] = [{} for _ in range(order)]
    residuals = [0.0, 0.0, 0.0]
    for level in (0, 1, 2):
        nk = c.num_simplices(level)
        if nk == 0:
            continue
        plan = plans[level]
        # one block of nk rows per fitted time step, as in the target
        design = np.stack(list(regressors(plan)), axis=-1)
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
            for name, slot, width in plan:
                vals = tuple(coef[pos : pos + width])
                pos += width
                if name == "h11" and slot == "up":
                    vals = (0.0,) + vals  # h11's up polynomial starts at t=1
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
            z = window[-1 - m].values
            for _ in range(m):
                z = lap @ z
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
    c = state.complex
    if x_t.complex is not c or x_t.order != 1:
        raise ValueError("x_t must be an order-1 cochain on this complex")
    need = max(state.t_down, state.t_up) + 1
    window = (state.window + (x_t,))[-need:]
    new_state = LmsState(complex=c, t_down=state.t_down, t_up=state.t_up,
                         mu=state.mu, coefficients=state.coefficients,
                         window=window)
    if len(window) < need:
        return new_state, None

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
    residual = m * (y_t.values - x_mat @ state.coefficients)
    error = float(residual @ residual)
    coeffs = state.coefficients + state.mu * (x_mat.T @ residual)
    return (
        LmsState(complex=c, t_down=state.t_down, t_up=state.t_up,
                 mu=state.mu, coefficients=coeffs, window=window),
        error,
    )
