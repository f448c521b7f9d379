"""Shared linear-algebra helpers: tolerances, sign fixing, the greedy loops'
Gram-Schmidt step, power iteration, the Krylov kernel behind every
Laplacian and Dirac polynomial, and the rules that hold a cached operator
dense or sparse and multiply by it."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

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


def leads_negative(u: np.ndarray, tol: float) -> np.ndarray:
    """For each column of ``u``, whether its first entry of magnitude > tol
    is negative; False where it has no such entry."""
    if not u.size:
        return np.zeros(u.shape[1], dtype=bool)
    big = u > tol  # |u| > tol, without a float temporary
    big |= u < -tol
    cols = np.arange(u.shape[1])
    first = big.argmax(axis=0)  # row 0 where a column has no such entry
    return big[first, cols] & (u[first, cols] < 0)


def fix_column_signs(u: np.ndarray, tol: float) -> np.ndarray:
    """Flip column signs so the first entry of magnitude > tol is positive."""
    u = np.asarray(u)
    # Multiplying by -1.0 or 1.0 negates or copies each entry exactly.
    return u * np.where(leads_negative(u, tol), -1.0, 1.0)


def gram_schmidt(q: np.ndarray, col: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize ``col`` against the orthonormal columns of ``q`` by
    Gram-Schmidt run twice, which keeps it orthogonal to rounding level;
    returns the orthogonalized column and its coefficients on ``q``."""
    first = q.T.dot(col)
    col = col - q.dot(first)
    second = q.T.dot(col)
    col -= q.dot(second)
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


# A cached operator with at most this many entries (rows times columns) is
# held as a dense array. scipy's sparse product pays 3-5 us of dispatch per
# call whatever its size; on the [Ld; Lu] stacks of triangulated grids
# (1 BLAS thread) a dense product is 3.5 times faster at 512 entries, as
# fast near 2.5e4 and slower beyond.
#
# Per-step and per-pick code (streaming steps, matching pursuit,
# Gram-Schmidt) multiplies with ``a.dot(b)`` rather than ``a @ b``, a held
# operator as well as a dense array. numpy's matmul gufunc costs about
# twice ndarray.dot's dispatch on operands of a few dozen entries (a
# 20 x 10 [Ld; Lu] times a vector: 0.9-1.2 against 0.5-0.8 us on one
# shared x86-64 core, numpy 2.4); both reach the same BLAS kernels, so
# the results are the same bits. The operator stays on the
# left, as ndarray.dot(sparse) does not dispatch to scipy; a CSR operator's
# ``dot`` is its ``@`` for an array operand.
DENSE_ENTRIES = 25_000


def small(shape: tuple[int, ...]) -> bool:
    """Whether an operator of ``shape`` is held dense."""
    return math.prod(shape) <= DENSE_ENTRIES


def held(op):
    """The sparse operator ``op`` as it is held for repeated products: a
    dense array if it is :func:`small`, else CSR with 32-bit indices where
    they fit. A product reads a quarter less per entry through them and
    sums the same entries in the same order."""
    if small(op.shape):
        return op.toarray()
    op = op.tocsr()
    index = np.int32 if max(op.nnz, *op.shape) < 2**31 else np.int64
    return sp.csr_array((op.data, op.indices.astype(index),
                         op.indptr.astype(index)), shape=op.shape)

