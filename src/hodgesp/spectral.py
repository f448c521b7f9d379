"""Hodge and Dirac spectral machinery: subspace bases, topological Fourier
transforms, typed frequencies, and signal decomposition.

Bases, Dirac eigenpairs and decompositions all come from the thin SVDs of
b1 and b2, computed once per complex and cached with it, and from one
complex-wide zero tolerance. Gradient and curl columns are singular vectors
rather than eigenvectors of L_k: that keeps every column exactly inside its
subspace even when a gradient and a curl eigenvalue coincide. The harmonic
block is their orthonormal complement, from one complete QR. Frequencies
are the squared singular values — the squared l2-norm of the divergence
for gradient columns and of the total curl for curl columns. Harmonic
columns all sit at frequency zero; low/high comparisons are only
meaningful within one frequency type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import fix_column_signs, orthonormal_complement
from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    _incidence_svd,
    _zero_tolerance,
)

__all__ = [
    "HodgeBasis",
    "TftCoefficients",
    "FrequencyEntry",
    "HodgeComponents",
    "DiracBasis",
    "hodge_basis",
    "tft",
    "itft",
    "hodge_decompose",
    "frequency_table",
    "dirac_basis",
    "dirac_tft",
    "dirac_itft",
]


@dataclass(frozen=True, eq=False)
class HodgeBasis:
    """Orthonormal gradient/curl/harmonic bases with frequencies for order k.

    gradient spans range(b_k^T), curl spans range(b_{k+1}), harmonic spans
    kernel(L_k); the three blocks are mutually orthonormal and their widths
    sum to N_k. Column signs are fixed (first entry of magnitude > tolerance
    positive), so the basis is a deterministic function of the complex.
    """

    complex: SimplicialComplex
    order: int
    gradient: np.ndarray
    curl: np.ndarray
    harmonic: np.ndarray
    gradient_frequencies: np.ndarray
    curl_frequencies: np.ndarray
    tolerance: float

    @property
    def n_gradient(self) -> int:
        return self.gradient.shape[1]

    @property
    def n_curl(self) -> int:
        return self.curl.shape[1]

    @property
    def n_harmonic(self) -> int:
        return self.harmonic.shape[1]

    def matrix(self) -> np.ndarray:
        """Full basis, columns in frequency-table order:
        harmonic, then gradient, then curl."""
        return np.hstack([self.harmonic, self.gradient, self.curl])

    def frequencies(self) -> np.ndarray:
        """Frequencies aligned with :meth:`matrix` columns."""
        return np.concatenate([
            np.zeros(self.n_harmonic),
            self.gradient_frequencies,
            self.curl_frequencies,
        ])


@dataclass(frozen=True)
class TftCoefficients:
    """Blockwise Fourier coefficients; Parseval holds across the blocks."""

    gradient: np.ndarray
    curl: np.ndarray
    harmonic: np.ndarray

    def energy(self) -> float:
        return float(
            self.gradient @ self.gradient
            + self.curl @ self.curl
            + self.harmonic @ self.harmonic
        )


class FrequencyEntry(NamedTuple):
    index: int
    kind: str  # "harmonic" | "gradient" | "curl"
    frequency: float


class HodgeComponents(NamedTuple):
    gradient: Cochain
    curl: Cochain
    harmonic: Cochain
    lower_potential: Cochain | None
    upper_potential: Cochain | None


def _svd_rank(c: SimplicialComplex, k: int, thr: float):
    """Cached thin SVD of b_k and its number of singular values above thr."""
    u, s, vt = _incidence_svd(c, k)
    return u, s, vt, int(np.count_nonzero(s > thr))


def hodge_basis(c: SimplicialComplex, k: int,
                tol: float | None = None) -> HodgeBasis:
    """Typed spectral basis of order k from the cached incidence SVDs.

    Gradient columns are right singular vectors of b_k, curl columns left
    singular vectors of b_{k+1}, both in ascending frequency order.
    """
    nk = c.num_simplices(k)
    tau = _zero_tolerance(c, tol)
    grad, freq_grad = np.zeros((nk, 0)), np.zeros(0)
    curl, freq_curl = np.zeros((nk, 0)), np.zeros(0)
    if k >= 1:
        _, s, vt, r = _svd_rank(c, k, tau**0.5)
        grad, freq_grad = vt[:r][::-1].T, s[:r][::-1] ** 2
    if k <= 1:
        u, s, _, r = _svd_rank(c, k + 1, tau**0.5)
        curl, freq_curl = u[:, :r][:, ::-1], s[:r][::-1] ** 2
    harm = orthonormal_complement(np.hstack([grad, curl]))

    return HodgeBasis(
        complex=c,
        order=k,
        gradient=fix_column_signs(grad, tau),
        curl=fix_column_signs(curl, tau),
        harmonic=fix_column_signs(harm, tau),
        gradient_frequencies=freq_grad,
        curl_frequencies=freq_curl,
        tolerance=tau,
    )


def tft(basis: HodgeBasis, x: Cochain) -> TftCoefficients:
    """Blockwise projection U^T x onto the typed basis."""
    if x.order != basis.order:
        raise ValueError(
            f"cochain order {x.order} does not match basis order {basis.order}"
        )
    if x.values.shape[0] != basis.complex.num_simplices(basis.order):
        raise ValueError("cochain length does not match the basis")
    return TftCoefficients(
        gradient=basis.gradient.T @ x.values,
        curl=basis.curl.T @ x.values,
        harmonic=basis.harmonic.T @ x.values,
    )


def itft(basis: HodgeBasis, coeffs: TftCoefficients) -> Cochain:
    """Inverse transform; itft(tft(x)) = x."""
    if (coeffs.gradient.shape[0] != basis.n_gradient
            or coeffs.curl.shape[0] != basis.n_curl
            or coeffs.harmonic.shape[0] != basis.n_harmonic):
        raise ValueError("coefficient block widths do not match the basis")
    values = (
        basis.gradient @ coeffs.gradient
        + basis.curl @ coeffs.curl
        + basis.harmonic @ coeffs.harmonic
    )
    return Cochain(basis.complex, basis.order, values)


def hodge_decompose(c: SimplicialComplex, x: Cochain,
                    tol: float | None = None) -> HodgeComponents:
    """Split x into gradient + curl + harmonic parts with minimum-norm
    potentials.

    With b_k = U S V^T, gradient = V V^T x = b_k^T p with the minimum-norm
    lower potential p = U S^-1 V^T x; likewise curl and the upper potential
    from b_{k+1}; harmonic is the remainder. Singular values count as zero
    by the same tolerance as in ``hodge_basis(c, k, tol)``, so the three
    mutually orthogonal parts are the projections onto its blocks.
    """
    if x.complex is not c:
        raise ValueError("cochain is bound to a different complex")
    k = x.order
    values = x.values
    thr = _zero_tolerance(c, tol) ** 0.5
    grad_vals = curl_vals = np.zeros_like(values)
    lower = upper = None

    if k >= 1:
        u, s, vt, r = _svd_rank(c, k, thr)
        coef = vt[:r] @ values
        grad_vals = vt[:r].T @ coef
        lower = Cochain(c, k - 1, u[:, :r] @ (coef / s[:r]))
    if k <= 1:
        u, s, vt, r = _svd_rank(c, k + 1, thr)
        coef = u[:, :r].T @ values
        curl_vals = u[:, :r] @ coef
        upper = Cochain(c, k + 1, vt[:r].T @ (coef / s[:r]))

    return HodgeComponents(
        gradient=Cochain(c, k, grad_vals),
        curl=Cochain(c, k, curl_vals),
        harmonic=Cochain(c, k, values - grad_vals - curl_vals),
        lower_potential=lower,
        upper_potential=upper,
    )


def frequency_table(basis: HodgeBasis) -> list[FrequencyEntry]:
    """Ordered typed spectrum: harmonic rows (frequency 0) first, then
    gradient ascending, then curl ascending.

    Frequency magnitudes are comparable only within one type: gradient
    frequencies measure total divergence, curl frequencies total curl.
    """
    rows = []
    i = 0
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


@dataclass(frozen=True, eq=False)
class DiracBasis:
    """Eigenbasis of the Dirac operator grouped into joint subspaces.

    Joint-gradient pairs come from the SVD of b1 as (u; +/-v; 0)/sqrt(2)
    with eigenvalues +/-sigma, joint-curl pairs from the SVD of b2 as
    (0; u; +/-v)/sqrt(2), and the joint-harmonic block stacks the per-order
    harmonic bases (its width is beta0 + beta1 + beta2). Off the kernel the
    spectrum is symmetric: eigenvalues come in +/- pairs.
    """

    complex: SimplicialComplex
    harmonic: np.ndarray
    gradient: np.ndarray
    gradient_eigenvalues: np.ndarray
    curl: np.ndarray
    curl_eigenvalues: np.ndarray
    tolerance: float

    def matrix(self) -> np.ndarray:
        return np.hstack([self.harmonic, self.gradient, self.curl])

    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([
            np.zeros(self.harmonic.shape[1]),
            self.gradient_eigenvalues,
            self.curl_eigenvalues,
        ])


def _dirac_pairs(c: SimplicialComplex, k: int, thr: float, dim: int,
                 offset: int):
    """Signed eigenpairs of the Dirac operator from the SVD of b_k:
    (u; +/-v)/sqrt(2) with rows from ``offset``, +sigma then -sigma,
    sigma ascending."""
    u, s, vt, r = _svd_rank(c, k, thr)
    half_u = u[:, :r][:, ::-1] / np.sqrt(2.0)
    half_v = vt[:r][::-1].T / np.sqrt(2.0)
    mid = offset + u.shape[0]
    vecs = np.zeros((dim, 2 * r))
    vecs[offset:mid, 0::2] = half_u
    vecs[offset:mid, 1::2] = half_u
    vecs[mid : mid + vt.shape[1], 0::2] = half_v
    vecs[mid : mid + vt.shape[1], 1::2] = -half_v
    return vecs, np.repeat(s[:r][::-1], 2) * np.tile([1.0, -1.0], r)


def dirac_basis(c: SimplicialComplex, tol: float | None = None) -> DiracBasis:
    """Joint spectral basis of the Dirac operator."""
    n0, n1 = c.n0, c.n1
    dim = n0 + n1 + c.n2
    tau = _zero_tolerance(c, tol)
    grad, lam_g = _dirac_pairs(c, 1, tau**0.5, dim, 0)
    curl_, lam_c = _dirac_pairs(c, 2, tau**0.5, dim, n0)

    blocks = []
    for k, off in zip((0, 1, 2), (0, n0, n0 + n1)):
        hk = hodge_basis(c, k, tol).harmonic
        block = np.zeros((dim, hk.shape[1]))
        block[off : off + c.num_simplices(k), :] = hk
        blocks.append(block)
    harm = np.hstack(blocks)

    return DiracBasis(
        complex=c,
        harmonic=fix_column_signs(harm, tau),
        gradient=fix_column_signs(grad, tau),
        gradient_eigenvalues=lam_g,
        curl=fix_column_signs(curl_, tau),
        curl_eigenvalues=lam_c,
        tolerance=tau,
    )


def dirac_tft(c: SimplicialComplex, x: ComplexSignal,
              basis: DiracBasis | None = None) -> np.ndarray:
    """Projection of the stacked (x0, x1, x2) onto the Dirac eigenbasis."""
    if x.complex is not c:
        raise ValueError("signal is bound to a different complex")
    if basis is None:
        basis = dirac_basis(c)
    return basis.matrix().T @ x.stacked()


def dirac_itft(c: SimplicialComplex, coeffs: np.ndarray,
               basis: DiracBasis | None = None) -> ComplexSignal:
    """Inverse of :func:`dirac_tft`."""
    if basis is None:
        basis = dirac_basis(c)
    u = basis.matrix()
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (u.shape[1],):
        raise ValueError(f"expected {u.shape[1]} coefficients, got {coeffs.shape}")
    return ComplexSignal.from_stacked(c, u @ coeffs)
