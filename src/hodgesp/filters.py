"""Convolutional Hodge filters, cross-level filterbanks, Dirac filters,
and regularization-based edge-flow reconstruction.

A filter is a pair of polynomials, one in the down Laplacian and one in the
up Laplacian, optionally extended with a harmonic projector term
(I - eps*L_k)^T_h. With a harmonic term the t=0 coefficients are zero, so
every polynomial is summed from t=0 and needs no separate start index.
Every Laplacian and Dirac polynomial, and the harmonic term, is applied by
the shared Krylov kernel (repeated sparse matrix-vector products on a
vector or a block of signals), never by matrix powers. Because both
polynomials contribute an identity term at t=0, the effective constant gain
of the plain form is h_down[0] + h_up[0]; both coefficients are kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import (
    CG_RTOL,
    conjugate_gradient,
    krylov,
    power_iteration_lambda_max,
)
from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    _cached,
    hodge_laplacian,
)
from .spectral import HodgeBasis, frequency_table, hodge_basis

__all__ = [
    "HarmonicTerm",
    "HodgeFilterSpec",
    "ConvergenceWarning",
    "lambda_max",
    "apply_filter",
    "frequency_response",
    "filterbank_edge",
    "dirac_filter",
    "regularized_reconstruct",
]


class ConvergenceWarning(UserWarning):
    """Iterative solver stopped before reaching its tolerance."""


@dataclass(frozen=True)
class HarmonicTerm:
    """Projector term (I - epsilon*L_k)^steps; converges to the harmonic
    projector as steps grows when 0 < epsilon < 2/lambda_max(L_k)."""

    epsilon: float
    steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if int(self.steps) != self.steps or self.steps < 0:
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps}")


@dataclass(frozen=True)
class HodgeFilterSpec:
    """Polynomial coefficients over the down/up Laplacians.

    h_down[t] weights (L_down)^t and h_up[t] weights (L_up)^t. With a
    harmonic term set, the polynomials start at t=1, so the t=0 entries must
    be zero.
    """

    h_down: tuple[float, ...] = (0.0,)
    h_up: tuple[float, ...] = (0.0,)
    harmonic: HarmonicTerm | None = None

    def __post_init__(self) -> None:
        down = tuple(float(v) for v in self.h_down)
        up = tuple(float(v) for v in self.h_up)
        object.__setattr__(self, "h_down", down)
        object.__setattr__(self, "h_up", up)
        if not all(np.isfinite(down)) or not all(np.isfinite(up)):
            raise ValueError("filter coefficients must be finite")
        if self.harmonic is not None:
            if (down and down[0] != 0.0) or (up and up[0] != 0.0):
                raise ValueError(
                    "with a harmonic term the polynomials start at t=1; "
                    "set h_down[0] = h_up[0] = 0"
                )

    @classmethod
    def identity(cls) -> "HodgeFilterSpec":
        return cls(h_down=(1.0,), h_up=(0.0,))

    def is_zero(self) -> bool:
        return (self.harmonic is None
                and not any(self.h_down) and not any(self.h_up))


def lambda_max(c: SimplicialComplex, k: int, rtol: float = 1e-6) -> float:
    """Largest eigenvalue of L_k, by power iteration, cached per complex
    and rtol."""
    return _cached(c, ("lambda_max", k, rtol), _lambda_max, c, k, rtol)


def _lambda_max(c: SimplicialComplex, k: int, rtol: float) -> float:
    lap = hodge_laplacian(c, k, sparse=True)
    return power_iteration_lambda_max(lambda v: lap @ v, lap.shape[0],
                                      rtol=rtol)


def _polynomial(op, coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] * op^t x by the Krylov kernel; op=None is the zero
    map, of which only op^0 = I survives."""
    if op is None:
        coeffs = coeffs[:1]
    y = np.zeros_like(x)
    for h, z in zip(coeffs, krylov(lambda v: op @ v, x, len(coeffs) - 1)):
        if h:
            y += h * z
    return y


def apply_filter(c: SimplicialComplex, k: int, spec: HodgeFilterSpec,
                 x: Cochain) -> Cochain:
    """Shift-and-sum filter application in the simplex domain."""
    if x.complex is not c:
        raise ValueError("cochain is bound to a different complex")
    if x.order != k:
        raise ValueError(f"expected an order-{k} cochain, got order {x.order}")
    return Cochain(c, k, _filter_values(c, k, spec, x.values))


def _filter_values(c: SimplicialComplex, k: int, spec: HodgeFilterSpec,
                   values: np.ndarray) -> np.ndarray:
    """The filter applied to an (n_k,) vector or an (n_k, B) block."""
    lap_down = hodge_laplacian(c, k, "down", sparse=True) if k > 0 else None
    lap_up = hodge_laplacian(c, k, "up", sparse=True) if k < 2 else None
    y = _polynomial(lap_down, spec.h_down, values)
    y += _polynomial(lap_up, spec.h_up, values)
    if spec.harmonic is not None:
        eps = spec.harmonic.epsilon
        lam = lambda_max(c, k)
        if lam > 0 and not eps < 2.0 / lam:
            raise ValueError(
                f"epsilon {eps} outside the stability range (0, {2.0 / lam})"
            )
        lap = hodge_laplacian(c, k, sparse=True)
        for w in krylov(lambda v: v - eps * (lap @ v), values,
                        spec.harmonic.steps):
            pass
        y += w
    return y


def _poly_eval(coeffs: tuple[float, ...], lam: float) -> float:
    return sum(h * lam**t for t, h in enumerate(coeffs))


def frequency_response(c: SimplicialComplex, k: int, spec: HodgeFilterSpec,
                       basis: HodgeBasis | None = None) -> np.ndarray:
    """Filter gain at each typed frequency, aligned with the frequency table.

    At a gradient frequency only the down polynomial varies (the up part
    contributes its constant term alone), and symmetrically for curl; the
    harmonic gain is h_down[0] + h_up[0], or exactly 1 with a harmonic term.
    """
    if basis is None:
        basis = hodge_basis(c, k)
    down0 = spec.h_down[0] if spec.h_down else 0.0
    up0 = spec.h_up[0] if spec.h_up else 0.0

    def projector_gain(lam: float) -> float:
        if spec.harmonic is None:
            return 0.0
        return (1.0 - spec.harmonic.epsilon * lam) ** spec.harmonic.steps

    out = []
    for row in frequency_table(basis):
        if row.kind == "harmonic":
            out.append(down0 + up0 + projector_gain(0.0))
        elif row.kind == "gradient":
            out.append(_poly_eval(spec.h_down, row.frequency) + up0
                       + projector_gain(row.frequency))
        else:
            out.append(_poly_eval(spec.h_up, row.frequency) + down0
                       + projector_gain(row.frequency))
    return np.array(out)


def _require_one_sided(spec: HodgeFilterSpec, side: str, name: str) -> None:
    other = spec.h_up if side == "down" else spec.h_down
    if any(other):
        raise ValueError(
            f"{name} must use only h_{side} coefficients"
        )
    if spec.harmonic is not None:
        raise ValueError(f"{name} must not carry a harmonic term")


def filterbank_edge(c: SimplicialComplex, spec_11: HodgeFilterSpec,
                    spec_01: HodgeFilterSpec, spec_21: HodgeFilterSpec,
                    x: ComplexSignal) -> Cochain:
    """Edge output of the cross-level filterbank:
    H(L1) x1 + H(L1_down) b1^T x0 + H(L1_up) b2 x2.

    The node branch is a polynomial in the down Laplacian only and the
    triangle branch in the up Laplacian only; cross-branch harmonic terms
    are rejected (they would be redundant or annihilated).
    """
    if x.complex is not c:
        raise ValueError("signal is bound to a different complex")
    _require_one_sided(spec_01, "down", "spec_01 (node branch)")
    _require_one_sided(spec_21, "up", "spec_21 (triangle branch)")

    y = apply_filter(c, 1, spec_11, x.x1).values
    from_nodes = Cochain(c, 1, c.b1.T @ x.x0.values)
    y = y + apply_filter(c, 1, spec_01, from_nodes).values
    from_tris = Cochain(c, 1, c.b2 @ x.x2.values)
    y = y + apply_filter(c, 1, spec_21, from_tris).values
    return Cochain(c, 1, y)


def dirac_filter(c: SimplicialComplex, spec: HodgeFilterSpec,
                 x: ComplexSignal) -> ComplexSignal:
    """Polynomial in the Dirac operator, applied by the Krylov kernel to
    the stacked signal with the sparse Dirac operator of the complex.

    The polynomial is taken from h_down; h_up must be zero and no harmonic
    term is allowed.
    """
    if x.complex is not c:
        raise ValueError("signal is bound to a different complex")
    _require_one_sided(spec, "down", "a Dirac filter")
    d = _cached(c, ("dirac",), _sparse_dirac, c)
    return ComplexSignal.from_stacked(c, _polynomial(d, spec.h_down,
                                                     x.stacked()))


def _sparse_dirac(c: SimplicialComplex) -> sp.csr_array:
    b1 = c.b1.astype(float)
    b2 = c.b2.astype(float)
    return sp.csr_array(sp.bmat([[None, b1, None],
                                 [b1.T, None, b2],
                                 [None, b2.T, None]]))


def _objective(mask, f, x, b1, b2t, alpha, beta, p, q) -> float:
    fit = f[mask] - x[mask]
    val = float(fit @ fit)
    div = b1 @ x
    cur = b2t @ x
    val += alpha * (np.abs(div).sum() if p == 1 else float(div @ div))
    val += beta * (np.abs(cur).sum() if q == 1 else float(cur @ cur))
    return val


def regularized_reconstruct(c: SimplicialComplex, f: Cochain,
                            mask: np.ndarray, alpha: float, beta: float,
                            p: int = 2, q: int = 2,
                            max_iter: int = 10_000,
                            rtol: float = 1e-8) -> Cochain:
    """Edge flow estimate minimizing
    ||M(f - x)||^2 + alpha*||b1 x||_p^p + beta*||b2^T x||_q^q.

    For p = q = 2 the normal equations (M + alpha*L1_down + beta*L1_up) x
    = M f are solved on the sparse system by conjugate gradients started at
    zero, to a relative residual of 1e-12 or max_iter iterations. M f lies
    in the range of the system matrix, so the result is its minimum-norm
    solution, also when a harmonic flow is left unobserved and the system
    is singular. Any l1 term is handled by a primal-dual proximal gradient
    iteration with step sizes from the Lipschitz constant of the quadratic
    part, run to relative change < rtol (used by this path only) or
    max_iter iterations. Non-convergence of either is reported via
    :class:`ConvergenceWarning` with the final residual or relative change.
    """
    if f.complex is not c or f.order != 1:
        raise ValueError("f must be an order-1 cochain on this complex")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (c.n1,):
        raise ValueError(f"mask must have shape ({c.n1},)")
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not (np.isfinite(weight) and weight >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, "
                             f"got {weight}")
    if p not in (1, 2) or q not in (1, 2):
        raise ValueError("p and q must be 1 or 2")

    m_diag = mask.astype(float)
    lap_down = hodge_laplacian(c, 1, "down", sparse=True)
    lap_up = hodge_laplacian(c, 1, "up", sparse=True)

    if p == 2 and q == 2:
        a = sp.csr_array(sp.diags(m_diag)) + alpha * lap_down + beta * lap_up
        x, iters, res = conjugate_gradient(lambda v: a @ v,
                                           m_diag * f.values, max_iter)
        if res > CG_RTOL:
            warnings.warn(
                "regularized_reconstruct did not converge: relative "
                f"residual {res:.3e} after {iters} conjugate-gradient "
                "iterations", ConvergenceWarning)
        return Cochain(c, 1, x)

    b1 = c.b1.astype(float)
    b2t = c.b2.T.astype(float)

    # Smooth part: data fit plus any l2-squared penalty.
    lip = 2.0
    if p == 2:
        lip += 2.0 * alpha * lambda_max(c, 0)  # lam_max(L1_down) = lam_max(L0)
    if q == 2:
        lip += 2.0 * beta * lambda_max(c, 2)  # lam_max(L1_up) = lam_max(L2)

    def grad_smooth(x: np.ndarray) -> np.ndarray:
        g = 2.0 * m_diag * (x - f.values)
        if p == 2:
            g += 2.0 * alpha * (lap_down @ x)
        if q == 2:
            g += 2.0 * beta * (lap_up @ x)
        return g

    # Nonsmooth part: l1 penalties composed with their incidence operators.
    ops, bounds = [], []
    if p == 1:
        ops.append(b1)
        bounds.append(alpha)
    if q == 1:
        ops.append(b2t)
        bounds.append(beta)
    k_op = sp.vstack(ops, format="csr")
    splits = np.cumsum([op.shape[0] for op in ops])[:-1]
    # ||K||^2 = lam_max(K^T K), where K^T K is L1_down (p = 1 alone, same
    # spectrum as L0), L1_up (q = 1 alone, as L2) or L1 (both, as b1 b2 = 0).
    k_norm = np.sqrt(lambda_max(c, {(1, 2): 0, (2, 1): 2, (1, 1): 1}[(p, q)]))

    sigma = 1.0 / k_norm if k_norm > 0 else 1.0
    tau = 0.9 / (lip / 2.0 + sigma * k_norm**2)

    x = np.zeros(c.n1)
    y = np.zeros(k_op.shape[0])
    rel_change = np.inf
    for _ in range(max_iter):
        x_new = x - tau * (grad_smooth(x) + k_op.T @ y)
        y_tilde = y + sigma * (k_op @ (2.0 * x_new - x))
        for block, bound in zip(np.split(np.arange(k_op.shape[0]), splits),
                                bounds):
            y_tilde[block] = np.clip(y_tilde[block], -bound, bound)
        y = y_tilde
        rel_change = np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x))
        x = x_new
        if rel_change < rtol:
            break
    else:
        warnings.warn(
            "regularized_reconstruct did not converge: relative change "
            f"{rel_change:.3e} after {max_iter} iterations, objective "
            f"{_objective(mask, f.values, x, b1, b2t, alpha, beta, p, q):.6e}",
            ConvergenceWarning,
        )
    return Cochain(c, 1, x)
