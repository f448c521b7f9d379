"""Shared linear-algebra helpers: tolerances, sign fixing, the greedy loops'
Gram-Schmidt step, power iteration, and the Krylov kernel behind every
Laplacian and Dirac polynomial."""

from __future__ import annotations

import numpy as np

from ._util import check_tolerance


def zero_tolerance(sigma_max: float, override: float | None = None) -> float:
    """Scale-aware threshold below which an eigenvalue counts as zero.

    Singular values are compared against the square root of this value,
    eigenvalues of the (squared) Laplacians against the value itself.
    """
    if override is not None:
        check_tolerance(override)
        return float(override)
    return 1e-10 * max(1.0, float(sigma_max))


def column_signs(u: np.ndarray, tol: float) -> np.ndarray:
    """-1.0 for each column of ``u`` whose first entry of magnitude > tol
    is negative, else 1.0: the factors that fix the column signs."""
    if not u.size:
        return np.ones(u.shape[1])
    big = u > tol  # |u| > tol, without a float temporary
    big |= u < -tol
    cols = np.arange(u.shape[1])
    first = big.argmax(axis=0)  # row 0 where a column has no such entry
    flip = big[first, cols] & (u[first, cols] < 0)
    return np.where(flip, -1.0, 1.0)


def fix_column_signs(u: np.ndarray, tol: float) -> np.ndarray:
    """Flip column signs so the first entry of magnitude > tol is positive."""
    u = np.asarray(u)
    # Multiplying by -1.0 or 1.0 negates or copies each entry exactly.
    return u * column_signs(u, tol)


def gram_schmidt(q: np.ndarray, col: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize ``col`` against the orthonormal columns of ``q`` by
    Gram-Schmidt run twice, which keeps it orthogonal to rounding level;
    returns the orthogonalized column and its coefficients on ``q``."""
    first = q.T @ col
    col = col - q @ first
    second = q.T @ col
    col -= q @ second
    return col, first + second


def power_iteration_lambda_max(matvec, n: int, rtol: float = 1e-6,
                               max_iter: int = 5000) -> float:
    """Largest eigenvalue of a symmetric PSD operator given by its matvec;
    ``iterations + 1`` matvecs, as the product that gives a step's Rayleigh
    quotient is the next step's power."""
    if n == 0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = matvec(v)
    for _ in range(max_iter):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matvec(v)
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1e-30):
            return lam_new
        lam = lam_new
    return lam


def krylov(matvec, x: np.ndarray, t_max: int):
    """Yield x, A x, ..., A^t_max x for the operator A given by its matvec;
    x is an (n,) vector or an (n, B) block."""
    yield x
    for _ in range(t_max):
        x = matvec(x)
        yield x
