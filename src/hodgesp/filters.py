"""Convolutional Hodge filters, cross-level filterbanks, Dirac filters,
and regularization-based edge-flow reconstruction.

A filter is a pair of polynomials, one in the down Laplacian and one in the
up Laplacian, optionally extended with a harmonic projector term
(I - eps*L_k)^T_h. With a harmonic term the t=0 coefficients are zero, so
every polynomial is summed from t=0 and needs no separate start index.
Every Laplacian and Dirac polynomial, and the harmonic term, is applied by
the shared Krylov kernel (repeated sparse matrix-vector products on a
vector or a block of signals, dense or sparse), never by matrix powers.
One evaluator applies a filter for every caller: ``apply_filter``, each
filterbank branch, dictionary atoms and the compiled SCVAR operator.
Because both polynomials contribute an identity term at t=0, the effective
constant gain of the plain form is h_down[0] + h_up[0]; both coefficients
are kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import krylov
from ._util import check_integer, check_real, is_real
from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    _cached_slot,
    _check_bound,
    _dirac_matrix,
    _eliminate,
    _float_incidence,
    _Grounded,
    hodge_laplacian,
    lambda_max,
)
from .spectral import HodgeBasis, hodge_basis

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
    """A solver missed its tolerance: an iteration stopped before reaching
    it, or a direct solve left a larger residual."""


@dataclass(frozen=True)
class HarmonicTerm:
    """Projector term (I - epsilon*L_k)^steps; converges to the harmonic
    projector as steps grows when 0 < epsilon < 2/lambda_max(L_k)."""

    epsilon: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon",
                           check_real(self.epsilon, "epsilon", positive=True))
        check_integer(self.steps, "steps", 0)


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
        for name in ("h_down", "h_up"):
            taps = tuple(getattr(self, name))
            if not all(is_real(v) and math.isfinite(v) for v in taps):
                raise ValueError(f"{name} must hold finite real numbers, "
                                 f"got {taps!r}")
            object.__setattr__(self, name, tuple(float(v) for v in taps))
        if self.harmonic is not None and any(
                taps and taps[0] != 0.0 for taps in (self.h_down, self.h_up)):
            raise ValueError("with a harmonic term the polynomials start at "
                             "t=1; set h_down[0] = h_up[0] = 0")

    @classmethod
    def identity(cls) -> "HodgeFilterSpec":
        return cls(h_down=(1.0,), h_up=(0.0,))

    def is_zero(self) -> bool:
        return (self.harmonic is None
                and not any(self.h_down) and not any(self.h_up))


def _zeros_like(x):
    """A zero array or sparse array of the shape of ``x``."""
    return sp.csr_array(x.shape) if sp.issparse(x) else np.zeros_like(x)


def _polynomial(op, coeffs: tuple[float, ...], x):
    """sum_t coeffs[t] * op^t x by the Krylov kernel. ``x`` is a dense
    array or a sparse block; the sum starts from zero, so no dense entry is
    -0.0."""
    y = _zeros_like(x)
    for h, z in zip(coeffs, krylov(lambda v: op @ v, x, len(coeffs) - 1)):
        if h:
            y += h * z
    return y


def apply_filter(c: SimplicialComplex, k: int, spec: HodgeFilterSpec,
                 x: Cochain) -> Cochain:
    """Shift-and-sum filter application in the simplex domain."""
    check_integer(k, "k", 0, 2)
    _check_bound(c, x, "x", k)
    return Cochain(c, k, _filter_values(c, k, spec, x.values))


def _filter_values(c: SimplicialComplex, k: int, spec: HodgeFilterSpec,
                   values):
    """The filter applied to an (n_k,) vector or an (n_k, B) block, dense
    or sparse; a sparse block gives a sparse result.

    Each polynomial is summed from zero by the Krylov kernel, down before
    up, the first sum being the total (a sparse one added to zero would
    reorder each row's entries), then the harmonic term is added. A
    missing Laplacian (down at k=0, up at k=2) is the zero map, of which
    only the t=0 tap survives. Trailing zero taps are cut and a polynomial
    without a nonzero tap is left out, so no zero tap is added and no
    dense entry is -0.0. The harmonic stability check runs first.
    """
    harmonic = spec.harmonic
    if harmonic is not None:
        eps, lam = harmonic.epsilon, lambda_max(c, k)
        if lam > 0 and not eps < 2.0 / lam:
            raise ValueError(
                f"epsilon {eps} outside the stability range (0, {2.0 / lam})"
            )
    y = None
    for present, variant, taps in ((k > 0, "down", spec.h_down),
                                   (k < 2, "up", spec.h_up)):
        lap = hodge_laplacian(c, k, variant, sparse=True) if present else None
        if lap is None:
            taps = taps[:1]
        while taps and not taps[-1]:
            taps = taps[:-1]
        if taps:
            part = _polynomial(lap, taps, values)
            y = part if y is None else y + part
    if y is None:
        y = _zeros_like(values)
    if harmonic is not None:
        lap = hodge_laplacian(c, k, sparse=True)
        for w in krylov(lambda v: v - eps * (lap @ v), values, harmonic.steps):
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
    check_integer(k, "k", 0, 2)
    if basis is None:
        basis = hodge_basis(c, k)
    _check_bound(c, basis, "basis", k)
    down0 = spec.h_down[0] if spec.h_down else 0.0
    up0 = spec.h_up[0] if spec.h_up else 0.0

    def projector_gain(lam: float) -> float:
        if spec.harmonic is None:
            return 0.0
        return (1.0 - spec.harmonic.epsilon * lam) ** spec.harmonic.steps

    # Harmonic, gradient, then curl, as in the frequency table.
    out = [down0 + up0 + projector_gain(0.0)] * basis.n_harmonic
    out += [_poly_eval(spec.h_down, f) + up0 + projector_gain(f)
            for f in basis.gradient_frequencies.tolist()]
    out += [_poly_eval(spec.h_up, f) + down0 + projector_gain(f)
            for f in basis.curl_frequencies.tolist()]
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
    _check_bound(c, x, "x")
    _require_one_sided(spec_01, "down", "spec_01 (node branch)")
    _require_one_sided(spec_21, "up", "spec_21 (triangle branch)")

    y = _filter_values(c, 1, spec_11, x.x1.values)
    y = y + _filter_values(c, 1, spec_01, c.b1.T @ x.x0.values)
    y = y + _filter_values(c, 1, spec_21, c.b2 @ x.x2.values)
    return Cochain(c, 1, y)


def dirac_filter(c: SimplicialComplex, spec: HodgeFilterSpec,
                 x: ComplexSignal) -> ComplexSignal:
    """Polynomial in the Dirac operator, applied by the Krylov kernel to
    the stacked signal with the sparse Dirac operator of the complex.

    The polynomial is taken from h_down; h_up must be zero and no harmonic
    term is allowed.
    """
    _check_bound(c, x, "x")
    _require_one_sided(spec, "down", "a Dirac filter")
    return ComplexSignal.from_stacked(c, _polynomial(_dirac_matrix(c),
                                                     spec.h_down,
                                                     x.stacked()))


def _l2_factor(c: SimplicialComplex, mask: np.ndarray, alpha: float,
               beta: float) -> tuple[sp.csr_array, _Grounded]:
    """The matrix A = M + alpha*L1_down + beta*L1_up of the quadratic
    reconstruction, and its grounded factor.

    A = C^T C with C = [M; sqrt(alpha) b1; sqrt(beta) b2^T]. The observed
    edges are pivot columns of C through M. The unobserved edges, which M
    does not reach, add the pivot columns of their incidence rows
    [b1[:, U]; b2[U, :]^T] by exact elimination, a block left out when its
    weight is zero; the remaining columns are free and span ker(A).
    """
    a = sp.csr_array(sp.diags(mask.astype(float)))
    blocks = []
    if alpha:
        a = a + alpha * hodge_laplacian(c, 1, "down", sparse=True)
        blocks.append(c.b1)
    if beta:
        a = a + beta * hodge_laplacian(c, 1, "up", sparse=True)
        blocks.append(c.b2.T)
    pivots = np.flatnonzero(mask)
    unobserved = np.flatnonzero(~mask)
    if blocks and unobserved.size:
        stack = sp.vstack([b[:, unobserved] for b in blocks], format="csc")
        pivots = np.union1d(pivots, unobserved[_eliminate(stack)])
    return a, _Grounded(a, pivots)


def _objective(mask, f, x, b1, b2t, alpha, beta, p, q) -> float:
    fit = f[mask] - x[mask]
    val = float(fit @ fit)
    div = b1 @ x
    cur = b2t @ x
    val += alpha * (np.abs(div).sum() if p == 1 else float(div @ div))
    val += beta * (np.abs(cur).sum() if q == 1 else float(cur @ cur))
    return val


# Relative residual ||A x - M f|| / ||M f|| of the quadratic
# reconstruction's direct solve above which it warns.
L2_RESIDUAL_TOL = 1e-10


def regularized_reconstruct(c: SimplicialComplex, f: Cochain,
                            mask: np.ndarray, alpha: float, beta: float,
                            p: int = 2, q: int = 2,
                            max_iter: int = 10_000,
                            rtol: float = 1e-8) -> Cochain:
    """Edge flow estimate minimizing
    ||M(f - x)||^2 + alpha*||b1 x||_p^p + beta*||b2^T x||_q^q.

    For p = q = 2 the normal equations A x = M f, with
    A = M + alpha*L1_down + beta*L1_up, are solved directly by a sparse LU
    factor of A grounded as the topology core grounds L2: the observed
    edges and the pivot columns of the incidence rows of the unobserved
    edges carry the factor, the other columns give an orthonormal basis of
    ker(A), and each solve is projected off it. The result is the
    minimum-norm solution, also when a harmonic flow is left unobserved
    and A is singular. The factor is cached on the complex for one
    (mask, alpha, beta) at a time, so repeated calls with the same mask
    and weights each cost two triangular solves. If the relative residual
    ||A x - M f|| / ||M f|| exceeds 1e-10, a :class:`ConvergenceWarning`
    reports it. ``max_iter`` and ``rtol`` are not used on this path.

    Any l1 term is handled by a primal-dual proximal gradient iteration
    with step sizes from the Lipschitz constant of the quadratic part, run
    to relative change < ``rtol`` or ``max_iter`` iterations; if it stops
    at the cap, a :class:`ConvergenceWarning` reports the final relative
    change and objective.
    """
    _check_bound(c, f, "f", 1)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (c.n1,):
        raise ValueError(f"mask must have shape ({c.n1},)")
    check_real(alpha, "alpha")
    check_real(beta, "beta")
    check_integer(p, "p", 1, 2)
    check_integer(q, "q", 1, 2)
    check_integer(max_iter, "max_iter", 1)
    check_real(rtol, "rtol", positive=True)

    m_diag = mask.astype(float)
    if p == 2 and q == 2:
        # Keyed on the mask's values: a caller may change it in place.
        a, factor = _cached_slot(c, ("l2_factor",),
                                 (mask.tobytes(), float(alpha), float(beta)),
                                 _l2_factor, c, mask, alpha, beta)
        rhs = m_diag * f.values
        x = factor.solve(rhs)
        res = np.linalg.norm(a @ x - rhs) / (np.linalg.norm(rhs) or 1.0)
        if res > L2_RESIDUAL_TOL:
            warnings.warn(
                "regularized_reconstruct: the direct solve left a relative "
                f"residual {res:.3e} above {L2_RESIDUAL_TOL:g}",
                ConvergenceWarning)
        return Cochain(c, 1, x)

    lap_down = hodge_laplacian(c, 1, "down", sparse=True)
    lap_up = hodge_laplacian(c, 1, "up", sparse=True)
    b1 = _float_incidence(c, 1)[0]
    b2t = _float_incidence(c, 2)[1]

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

    # Nonsmooth part: l1 penalties composed with their incidence operators,
    # and the bound each dual entry is clipped to.
    ops, bounds = [], []
    if p == 1:
        ops.append(b1)
        bounds.append(alpha)
    if q == 1:
        ops.append(b2t)
        bounds.append(beta)
    k_op = sp.vstack(ops, format="csr")
    bound = np.repeat(bounds, [op.shape[0] for op in ops])
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
        y = np.clip(y + sigma * (k_op @ (2.0 * x_new - x)), -bound, bound)
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
