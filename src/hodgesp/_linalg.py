"""Shared linear-algebra helpers: tolerances, sign fixing, the greedy loops'
Gram-Schmidt step, power iteration, the Krylov kernel behind every Laplacian
and Dirac polynomial, and the conjugate-gradient solver of the quadratic
reconstruction."""

from __future__ import annotations

import numpy as np


def zero_tolerance(sigma_max: float, override: float | None = None) -> float:
    """Scale-aware threshold below which an eigenvalue counts as zero.

    Singular values are compared against the square root of this value,
    eigenvalues of the (squared) Laplacians against the value itself.
    """
    if override is not None:
        check_tolerance(override)
        return float(override)
    return 1e-10 * max(1.0, float(sigma_max))


def check_tolerance(tol: float | None) -> None:
    """Reject a ``tol`` override that is not finite and positive."""
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def fix_column_signs(u: np.ndarray, tol: float) -> np.ndarray:
    """Flip column signs so the first entry of magnitude > tol is positive."""
    u = np.asarray(u)
    if u.size == 0:
        return u.copy()
    big = u > tol  # |u| > tol, without a float temporary
    big |= u < -tol
    cols = np.arange(u.shape[1])
    first = big.argmax(axis=0)  # row 0 where a column has no such entry
    flip = big[first, cols] & (u[first, cols] < 0)
    # Multiplying by -1.0 or 1.0 negates or copies each entry exactly.
    return u * np.where(flip, -1.0, 1.0)


def orthonormal_complement(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the span of the orthonormal
    columns of ``block``: the trailing columns of its complete QR."""
    q, _ = np.linalg.qr(block, mode="complete")
    return q[:, block.shape[1]:]


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
    """Largest eigenvalue of a symmetric PSD operator given by its matvec."""
    if n == 0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ matvec(v_new))
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1e-30):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def krylov(matvec, x: np.ndarray, t_max: int):
    """Yield x, A x, ..., A^t_max x for the operator A given by its matvec;
    x is an (n,) vector or an (n, B) block."""
    yield x
    for _ in range(t_max):
        x = matvec(x)
        yield x


# Relative residual ||b - A x|| / ||b|| at which conjugate_gradient stops.
CG_RTOL = 1e-12


def conjugate_gradient(matvec, b: np.ndarray, max_iter: int):
    """Solve A x = b for a symmetric PSD operator A by conjugate gradients
    started at zero; returns (x, iterations, relative residual).

    Every iterate lies in the Krylov space of b. When b is in range(A) that
    space is orthogonal to the null space of A, so x is the minimum-norm
    solution, also for singular A. Stops at a relative residual of CG_RTOL
    or after max_iter iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
    d = b.copy()
    rr = b_rr = float(r @ r)
    it = 0
    while rr > CG_RTOL**2 * b_rr and it < max_iter:
        ad = matvec(d)
        step = rr / float(d @ ad)
        x += step * d
        r -= step * ad
        rr_new = float(r @ r)
        d = r + (rr_new / rr) * d
        rr = rr_new
        it += 1
    return x, it, np.sqrt(rr / b_rr) if b_rr else 0.0
