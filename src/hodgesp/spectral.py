"""Hodge and Dirac spectral machinery: subspace bases, topological Fourier
transforms, typed frequencies, and signal decomposition.

What comes from where:

* Block widths. Under the default tolerance the gradient and curl widths
  of a :class:`HodgeBasis` are exact ranks from the sparse topology core
  of :mod:`hodgesp.complexes`: rank(b1) = n0 - beta0, rank(b2) the pivot
  count of b2. ``hodge_basis`` computes only these, so frequency
  selectors cost no eigensolve.
* Band columns. Gradient and curl columns asked for by index
  (:meth:`HodgeBasis.columns`, which sampling, reconstruction and Slepians
  read) come from the partial spectra of L0 and L2 when that Laplacian
  has at least _PARTIAL_FLOOR rows and the indices lie in its lowest
  _PARTIAL_WINDOW: ``eigsh`` on L^+, applied through the cached sparse LU
  of the topology core, with the cut moved past any cluster of equal
  eigenvalues. Inside a cluster they may be another orthonormal basis of
  the same space as the dense columns. Other band columns are read
  straight from the cached SVD below. Either way only the columns
  returned are signed, so a few columns cost no pass over a block.
* Frequencies. Gradient and curl frequencies, the frequency table, and
  the ranks under an explicit ``tol`` come from the values-only spectra
  of b1 and b2, cached once per complex: one ``eigvalsh`` of the smaller
  Gram matrix of b_k (L0 or L1,down for b1, L2 or L1,up for b2), with no
  eigenvectors, and values at or below max(m, n) * eps * lambda_max of
  the m x n b_k set to exactly 0. A frequency table builds no block and
  reads no tolerance.
* Dense blocks. Each gradient or curl block of a :class:`HodgeBasis`
  and each block of Dirac pairs is one view of the thin SVD of b1 or b2,
  computed once per complex and cached with it: the factors and one sign
  per column, from one chunked pass. ``gradient``, ``curl`` and the
  ``matrix`` methods write the dense columns from the view on first
  access; :meth:`HodgeBasis.columns` builds no view. Each SVD is one
  ``eigh`` of the same Gram matrix, a cached sparse Laplacian made dense,
  with the other side derived as b^T w / sigma or b w / sigma; no dense
  incidence matrix is formed. Eigenvalues under the same floor are exact
  zeros, so rounding noise never counts as rank. These squared singular
  values, which the Dirac eigenvalues and the split use, may differ from
  the frequencies by rounding. The derived columns are orthonormal to about
  eps * lambda_max / lambda_min (lambda_min the smallest nonzero
  eigenvalue): 7e-14 on a 20 x 20 grid with 6 holes, 1e-10 on a
  2000-vertex path, against 1e-14 for a dense SVD. Under the default
  tolerance the blocks keep the exact widths.
* Transforms. :func:`tft` and :func:`itft` apply each gradient or curl
  block, and :func:`dirac_tft` and :func:`dirac_itft` each block of
  pairs, through the same view and never build the dense block. Where a
  gradient or curl block is the side of the SVD derived from the Gram
  eigenvectors w, they go through w, which has fewer rows, and the
  sparse float b_k or b_k^T, cached once per complex: the order-1
  gradient coefficients are signs * (w^T (b1 x)) / sigma, and the curl
  ones signs * (w^T (b2^T x)) / sigma, with 0 where sigma is 0. A block
  of at most ``_linalg.DENSE_ENTRIES`` entries is applied as one dense
  product with its columns instead, as scipy's sparse dispatch costs
  more than the product there. The dense block takes the view's signs,
  so both give one basis; the coefficients agree with the dense block
  products to rounding.
* The zero tolerance is complex-wide: by default 1e-10 times a bound on
  the largest singular value of b1 and b2, sqrt of the largest absolute
  row sum of L0 and L2 (an integer, cached per complex; no power
  iteration). :attr:`HodgeBasis.tolerance` computes it on first read. The
  sign fix of blocks, band columns, Dirac pairs and Slepian vectors signs
  by entries above this default whatever ``tol`` is in force.
* The Hodge decomposition solves L0 p = b1 x and L2 q = b2^T x with the
  exact sparse topology core (sparse LU factors, minimum-norm potentials).
  It reads no SVD unless an explicit ``tol`` counts d > 0 nonzero singular
  values of b1 or b2 as zero; it then subtracts those d cached triplets.
* The harmonic block is what the Hodge decomposition (under the same
  tolerance) leaves of a fixed-seed Gaussian n_k x beta_k block, made
  orthonormal by a thin QR and the sign fix; where beta_k >= 2 it is one
  orthonormal basis of ker(L_k) among many. It is built once per complex,
  order and tolerance, on the first access to ``HodgeBasis.harmonic`` (or
  :meth:`HodgeBasis.matrix`, or :meth:`HodgeBasis.columns` asking for a
  harmonic column), and cached with the complex; :func:`dirac_basis`
  reads the same blocks. Frequency tables, selectors and gradient/curl
  band consumers never build it.

Gradient and curl columns are singular vectors rather than eigenvectors of
L_k: that keeps every column exactly inside its subspace even when a
gradient and a curl eigenvalue coincide. Frequencies are
the squared singular values — the squared l2-norm of the divergence for
gradient columns and of the total curl for curl columns. Harmonic columns
all sit at frequency zero; low/high comparisons are only meaningful within
one frequency type.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ._linalg import fix_column_signs, leads_negative, small
from ._util import check_integer
from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    _cached,
    _check_bound,
    _eigen_left,
    _float_incidence,
    _incidence_svd,
    _incidence_values,
    _low_spectrum,
    _potential,
    _rank,
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


# Band columns come from the partial spectra of L0 and L2 (see
# HodgeBasis.columns) when that Laplacian has at least _PARTIAL_FLOOR rows
# and every index asked of the block is below _PARTIAL_WINDOW. On
# triangulated grids (1 BLAS thread) the partial solve for 20 columns, LU
# build included, takes as long as the dense Gram eigh near 240 rows of L2
# and 256 rows of L0 (both about 10 ms), and is 5-30 times faster from 400
# rows on.
_PARTIAL_FLOOR = 240
_PARTIAL_WINDOW = 20


class _Factors(NamedTuple):
    """Basis columns from the r leading triplets of the thin SVD of b_k,
    held as views of its cached factors u, s and vt (sigma descending)
    and the columns' signs, in the columns' ascending order.

    One side (``offset`` None) is a gradient or curl block of a
    :class:`HodgeBasis`: the columns of ``u`` in reverse order, the left
    singular vectors of b_k, or of b_k^T for a gradient block. Where the
    SVD derived them as b^T w / sigma or b w / sigma from the Gram
    eigenvectors w, the columns of vt^T, which have fewer rows, and the
    block is not :func:`small`, the transforms go through w: ``op`` maps a
    cochain to w's side (the sparse b or b^T), ``op_t`` back, and
    ``scale`` is signs / sigma, 0 where sigma is 0. Else ``scale`` is the
    signs and ``op`` None. ``scale`` is descending.

    Pairs (``offset`` the first row of u) are the 2r Dirac eigenvectors:
    columns 2i and 2i + 1 are signs times (u; v)/sqrt(2) and
    (u; -v)/sqrt(2) for the i-th smallest sigma."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    signs: np.ndarray
    offset: int | None = None
    scale: np.ndarray | None = None
    op: sp.csr_array | None = None
    op_t: sp.csr_array | None = None

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The signed columns, ascending, written into ``out`` when given.
        Pairs need ``out``, with the rows of the whole Dirac basis."""
        if self.offset is None:
            return np.multiply(self.u[:, ::-1], self.signs, out=out)
        half_u = self.u[:, ::-1] / np.sqrt(2.0)
        half_v = self.vt[::-1].T / np.sqrt(2.0)
        mid = self.offset + half_u.shape[0]
        end = mid + half_v.shape[0]
        # Zeros, fill, then the sign product, so a flipped column carries
        # -0.0 off its rows.
        out.fill(0.0)
        out[self.offset:mid, 0::2] = out[self.offset:mid, 1::2] = half_u
        out[mid:end, 0::2], out[mid:end, 1::2] = half_v, -half_v
        out *= self.signs
        return out

    def project(self, x: np.ndarray, x_v: np.ndarray | None = None
                ) -> np.ndarray:
        """The coefficients of the cochain values ``x``, ascending:
        ``dense().T @ x`` to rounding. Pairs take the signal's u rows as
        ``x`` and its v rows as ``x_v``."""
        if self.offset is not None:
            a, b = (self.u.T @ x)[::-1], (self.vt @ x_v)[::-1]
            return (np.column_stack([a + b, a - b]).ravel() / np.sqrt(2.0)
                    * self.signs)
        y = self.u.T @ x if self.op is None else self.vt @ (self.op @ x)
        return (self.scale * y)[::-1]

    def combine(self, coeffs: np.ndarray):
        """The cochain values ``dense() @ coeffs``, to rounding; for pairs
        their u rows and their v rows."""
        if self.offset is not None:
            even, odd = ((coeffs * self.signs).reshape(-1, 2)[::-1].T
                         / np.sqrt(2.0))
            return self.u @ (even + odd), self.vt.T @ (even - odd)
        z = self.scale * coeffs[::-1]
        return self.u @ z if self.op is None else self.op_t @ (self.vt.T @ z)


def _sign_tolerance(c: SimplicialComplex) -> float:
    """The entry size above which a column's first entry is made
    positive: the default zero tolerance of ``c``, whatever ``tol`` is in
    force. An explicit tol bounds squared singular values, not entries; as
    a sign threshold it would sign by rounding near +-tol, and not at all
    at tol >= 1."""
    return _zero_tolerance(c, None)


def _factors(c: SimplicialComplex, k: int, r: int, right: bool = False,
             offset: int | None = None) -> _Factors:
    """The :class:`_Factors` of the left (right, if ``right``) side of
    b_k, or with an ``offset`` of its Dirac pairs; k outside {1, 2} gives
    an empty side. Each column's sign makes its first entry of magnitude
    above :func:`_sign_tolerance` positive, from one chunked pass over the
    vectors that come first in the columns: u, or u / sqrt(2). Both
    columns of a pair share u, so both take their sign from it. A unit
    column of u always has such an entry, as the threshold is far below
    1 / sqrt(2 n) for any n that fits in memory."""
    if not 1 <= k <= 2:  # order 0 has no gradient block, order 2 no curl
        n, none = c.num_simplices(k if right else k - 1), np.zeros(0)
        return _Factors(np.zeros((n, 0)), none, np.zeros((0, n)), none,
                        scale=none)
    u, s, vt = _incidence_svd(c, k)
    if right:  # the left side of b_k^T = v s u^T
        u, vt = vt.T, u.T
    u, s, vt = u[:, :r], s[:r], vt[:r]
    tau = _sign_tolerance(c)
    neg = np.empty(r, dtype=bool)
    step = max(1, (1 << 20) // max(1, u.shape[0]))  # 8 MB chunks
    for a in range(0, r, step):
        chunk = u[:, a : a + step]
        neg[a : a + step] = leads_negative(
            chunk if offset is None else chunk / np.sqrt(2.0), tau)
    signs = np.where(neg[::-1], -1.0, 1.0)
    if offset is not None:
        return _Factors(u, s, vt, np.repeat(signs, 2), offset)
    scale, op, op_t = signs[::-1], None, None
    # u is the side derived from the Gram eigenvectors, and not small
    if right == _eigen_left(c, k) and not small(u.shape):
        b, b_t = _float_incidence(c, k)
        scale = np.zeros(r)
        np.divide(signs[::-1], s, out=scale, where=s > 0)
        op, op_t = (b, b_t) if right else (b_t, b)
    return _Factors(u, s, vt, signs, None, scale, op, op_t)


def _stack(harmonic: np.ndarray, *views: _Factors) -> np.ndarray:
    """The columns of ``harmonic`` and then the dense columns of each view,
    in one new array."""
    ends = np.cumsum([harmonic.shape[1]] + [v.signs.size for v in views])
    out = np.empty((harmonic.shape[0], ends[-1]))
    out[:, : ends[0]] = harmonic
    for view, start, end in zip(views, ends, ends[1:]):
        view.dense(out[:, start:end])
    return out


@dataclass(frozen=True, eq=False)
class HodgeBasis:
    """Orthonormal gradient/curl/harmonic bases with frequencies for order k.

    gradient spans range(b_k^T), curl spans range(b_{k+1}), harmonic spans
    kernel(L_k); the three blocks are mutually orthonormal and their widths
    sum to N_k. Column signs are fixed (first entry of magnitude above the
    default zero tolerance positive, under any ``tol``), so the basis is a
    deterministic function of the complex.
    The widths are fixed up front: under the default tolerance (``exact``,
    ``tol`` None) they are the exact ranks of the topology core. Every
    block, and the zero tolerance, is computed on first access.
    """

    complex: SimplicialComplex
    order: int
    n_gradient: int
    n_curl: int
    tol: float | None

    @property
    def exact(self) -> bool:
        return self.tol is None

    @cached_property
    def tolerance(self) -> float:
        """The zero tolerance in force: ``tol``, or by default the
        complex-wide 1e-10 * sqrt(bound), the bound the largest absolute
        row sum of L0 and L2 (at least lambda_max(L1))."""
        return _zero_tolerance(self.complex, self.tol)

    @cached_property
    def _gradient_factors(self) -> _Factors:
        return _factors(self.complex, self.order, self.n_gradient,
                        right=True)

    @cached_property
    def _curl_factors(self) -> _Factors:
        return _factors(self.complex, self.order + 1, self.n_curl)

    def _frequencies(self, k: int, r: int) -> np.ndarray:
        """The r largest squared singular values of b_k, ascending, from
        the values-only spectrum (read-only)."""
        if not 1 <= k <= 2:
            return np.zeros(0)
        return _incidence_values(self.complex, k)[:r][::-1]

    @cached_property
    def gradient(self) -> np.ndarray:
        return self._gradient_factors.dense()

    @property
    def gradient_frequencies(self) -> np.ndarray:
        return self._frequencies(self.order, self.n_gradient)

    @cached_property
    def curl(self) -> np.ndarray:
        return self._curl_factors.dense()

    @property
    def curl_frequencies(self) -> np.ndarray:
        return self._frequencies(self.order + 1, self.n_curl)

    @cached_property
    def harmonic(self) -> np.ndarray:
        """Orthonormal basis of ker(L_k), cached with the complex per order
        and tolerance and read-only; see :func:`_harmonic_block`."""
        c, k = self.complex, self.order
        return _cached(c, ("harmonic", k, self.tol), _harmonic_block, c, k,
                       self.n_harmonic, self.tol)

    @property
    def n_harmonic(self) -> int:
        return (self.complex.num_simplices(self.order) - self.n_gradient
                - self.n_curl)

    def matrix(self) -> np.ndarray:
        """Full basis, columns in frequency-table order:
        harmonic, then gradient, then curl. The gradient and curl columns
        are written from the factors, so no dense block is kept."""
        return _stack(self.harmonic, self._gradient_factors,
                      self._curl_factors)

    def columns(self, idx) -> np.ndarray:
        """``matrix()[:, idx]`` for indices in [0, N_k), with no dense
        gradient or curl block: each column is taken from its spectrum and
        only the columns returned are signed.

        Under the default tolerance, gradient and curl columns whose
        within-block indices are all below _PARTIAL_WINDOW come from the
        partial spectrum of L0 or L2 when that Laplacian has at least
        _PARTIAL_FLOOR rows. They then span the same space as the dense
        columns, to rounding, wherever the selection keeps clusters of
        equal frequencies whole; inside a cluster it cuts they are another
        orthonormal choice within the cluster's span. Other columns are
        the cached SVD's singular vectors, column i of a block of width r
        being vector r-1-i.
        """
        idx = np.asarray(idx)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"idx must hold integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp).reshape(-1)
        c, k = self.complex, self.order
        nk = c.num_simplices(k)
        if idx.size and not (idx.min() >= 0 and idx.max() < nk):
            raise IndexError(f"column indices must be in [0, {nk})")
        out = np.empty((nk, idx.size))
        start = 0
        for kind, width in (("harmonic", self.n_harmonic),
                            ("gradient", self.n_gradient),
                            ("curl", self.n_curl)):
            mine = (idx >= start) & (idx < start + width)
            local = idx[mine] - start
            start += width
            if not local.size:
                continue
            if kind == "harmonic":
                out[:, mine] = self.harmonic[:, local]
                continue
            b = k if kind == "gradient" else k + 1
            low = None
            if (self.exact and local.max() < _PARTIAL_WINDOW
                    and c.num_simplices(0 if b == 1 else 2) >= _PARTIAL_FLOOR):
                low = _low_spectrum(c, b, _PARTIAL_WINDOW)
            if low is not None:  # (lam, u, v), ascending
                cols = low[2 if kind == "gradient" else 1][:, local]
            else:  # the thin SVD, sigma descending
                u, _, vt = _incidence_svd(c, b)
                side = vt.T if kind == "gradient" else u
                cols = side[:, width - 1 - local]
            out[:, mine] = fix_column_signs(cols, _sign_tolerance(c))
        return out

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


def hodge_basis(c: SimplicialComplex, k: int,
                tol: float | None = None) -> HodgeBasis:
    """Typed spectral basis of order k.

    Gradient columns are right singular vectors of b_k, curl columns left
    singular vectors of b_{k+1}, both in ascending frequency order. Only
    the block widths are computed here (which also checks ``tol``); see
    :class:`HodgeBasis`.
    """
    check_integer(k, "k", 0, 2)
    return HodgeBasis(
        complex=c,
        order=k,
        n_gradient=_rank(c, k, tol) if k >= 1 else 0,
        n_curl=_rank(c, k + 1, tol) if k <= 1 else 0,
        tol=None if tol is None else float(tol),
    )


def tft(basis: HodgeBasis, x: Cochain) -> TftCoefficients:
    """Blockwise projection U^T x onto the typed basis, the gradient and
    curl blocks applied from the cached SVD factors (see the module
    docstring)."""
    _check_bound(basis.complex, x, "x", basis.order)
    return TftCoefficients(
        gradient=basis._gradient_factors.project(x.values),
        curl=basis._curl_factors.project(x.values),
        harmonic=basis.harmonic.T @ x.values,
    )


def itft(basis: HodgeBasis, coeffs: TftCoefficients) -> Cochain:
    """Inverse transform; itft(tft(x)) = x."""
    if (coeffs.gradient.shape[0] != basis.n_gradient
            or coeffs.curl.shape[0] != basis.n_curl
            or coeffs.harmonic.shape[0] != basis.n_harmonic):
        raise ValueError("coeffs: block widths do not match the basis")
    values = (
        basis._gradient_factors.combine(coeffs.gradient)
        + basis._curl_factors.combine(coeffs.curl)
        + basis.harmonic @ coeffs.harmonic
    )
    return Cochain(basis.complex, basis.order, values)


def _part(c: SimplicialComplex, k: int, b: int, values: np.ndarray,
          tol: float | None):
    """The gradient (b = k) or curl (b = k + 1) part of an order-k
    cochain, given as an (n_k,) vector or an (n_k, B) block, and its
    minimum-norm potential; zeros and None where b is not 1 or 2. See
    :func:`hodge_decompose`: the exact sparse part of the L0 (b = 1) or L2
    (b = 2) solver, less the triplets of the cached SVD of b_b of index
    _rank(c, b, tol) up to the exact rank, read only when there are any."""
    if not 1 <= b <= 2:
        return np.zeros_like(values), None
    pot = _potential(c, 0 if b == 1 else 2)
    part, potential = (pot.flow_part if k == 1 else pot.cochain_part)(values)
    if tol is None:
        return part, potential
    r, end = _rank(c, b, tol), _rank(c, b)
    if r < end:
        u, s, vt = _incidence_svd(c, b)
        end = min(end, np.count_nonzero(s))  # never divide by a zero sigma
        u, s, v = u[:, r:end], s[r:end], vt[r:end].T
        side, other = (v, u) if b == k else (u, v)
        coef = side.T @ values
        part = part - side @ coef
        potential = potential - other @ (coef.T / s).T
    return part, potential


def _harmonic_block(c: SimplicialComplex, k: int, width: int,
                    tol: float | None) -> np.ndarray:
    """The order-k harmonic block, ``width`` columns: a fixed-seed Gaussian
    block with its gradient and curl parts removed twice by :func:`_part`
    (the second pass removes what rounding left), a thin QR of the rest,
    and the sign fix."""
    nk = c.num_simplices(k)
    if width == 0:
        return np.zeros((nk, 0))
    block = np.random.default_rng(0).standard_normal((nk, width))
    for _ in range(2):
        block = (block - _part(c, k, k, block, tol)[0]
                 - _part(c, k, k + 1, block, tol)[0])
    harm = fix_column_signs(np.linalg.qr(block)[0], _sign_tolerance(c))
    harm.flags.writeable = False
    return harm


def hodge_decompose(c: SimplicialComplex, x: Cochain,
                    tol: float | None = None) -> HodgeComponents:
    """Split x into gradient + curl + harmonic parts with minimum-norm
    potentials.

    By default the split is exact and sparse: the lower potential of an
    edge flow is p = L0^+ b1 x with gradient b1^T p, the upper potential
    q = L2^+ b2^T x with curl b2 q, by the cached sparse LU factors; a
    vertex (cell) signal's curl (gradient) part is its projection off
    ker(L0) (ker(L2)). With an explicit ``tol`` the parts are the
    projections onto the blocks of ``hodge_basis(c, k, tol)``, singular
    values at or below sqrt(tol) counting as zero: with b_k = U S V^T, the
    exact parts and potentials less the terms of the d triplets that tol
    drops, gradient - V_d V_d^T x and p - U_d S_d^-1 V_d^T x, and likewise
    curl and the upper potential from b_{k+1}. The SVD is read only where
    d > 0. The harmonic part is the remainder.
    """
    _check_bound(c, x, "x")
    k = x.order
    grad_vals, lower = _part(c, k, k, x.values, tol)
    curl_vals, upper = _part(c, k, k + 1, x.values, tol)
    return HodgeComponents(
        gradient=Cochain(c, k, grad_vals),
        curl=Cochain(c, k, curl_vals),
        harmonic=Cochain(c, k, x.values - grad_vals - curl_vals),
        lower_potential=None if lower is None else Cochain(c, k - 1, lower),
        upper_potential=None if upper is None else Cochain(c, k + 1, upper),
    )


def frequency_table(basis: HodgeBasis) -> list[FrequencyEntry]:
    """Ordered typed spectrum: harmonic rows (frequency 0) first, then
    gradient ascending, then curl ascending.

    Frequency magnitudes are comparable only within one type: gradient
    frequencies measure total divergence, curl frequencies total curl.
    """
    typed = [("harmonic", 0.0)] * basis.n_harmonic
    typed += [("gradient", f) for f in basis.gradient_frequencies.tolist()]
    typed += [("curl", f) for f in basis.curl_frequencies.tolist()]
    return [FrequencyEntry(i, kind, f) for i, (kind, f) in enumerate(typed)]


@dataclass(frozen=True, eq=False)
class DiracBasis:
    """Eigenbasis of the Dirac operator grouped into joint subspaces.

    Joint-gradient pairs come from the SVD of b1 as (u; +/-v; 0)/sqrt(2)
    with eigenvalues +/-sigma, joint-curl pairs from the SVD of b2 as
    (0; u; +/-v)/sqrt(2), and the joint-harmonic block stacks the per-order
    harmonic bases (its width is beta0 + beta1 + beta2). Off the kernel the
    spectrum is symmetric: eigenvalues come in +/- pairs.

    The basis keeps the cached SVD factors of b1 and b2 and the column
    signs, not the pair columns: ``gradient``, ``curl`` and
    :meth:`matrix` are dense and built on first access (read-only), while
    :func:`dirac_tft` and :func:`dirac_itft` work from the factors.
    """

    complex: SimplicialComplex
    harmonic: np.ndarray
    gradient_eigenvalues: np.ndarray
    curl_eigenvalues: np.ndarray
    tolerance: float
    _pairs: tuple[_Factors, _Factors] = field(repr=False)

    @cached_property
    def gradient(self) -> np.ndarray:
        return self._read_only(self.harmonic[:, :0], self._pairs[0])

    @cached_property
    def curl(self) -> np.ndarray:
        return self._read_only(self.harmonic[:, :0], self._pairs[1])

    @cached_property
    def _matrix(self) -> np.ndarray:
        return self._read_only(self.harmonic, *self._pairs)

    @staticmethod
    def _read_only(harmonic: np.ndarray, *views: _Factors) -> np.ndarray:
        out = _stack(harmonic, *views)
        out.flags.writeable = False
        return out

    def matrix(self) -> np.ndarray:
        """Full basis (read-only), columns in :meth:`eigenvalues` order:
        harmonic, then gradient pairs, then curl pairs."""
        return self._matrix

    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([
            np.zeros(self.harmonic.shape[1]),
            self.gradient_eigenvalues,
            self.curl_eigenvalues,
        ])


def dirac_basis(c: SimplicialComplex, tol: float | None = None) -> DiracBasis:
    """Joint spectral basis of the Dirac operator.

    The harmonic block places the cached blocks ``hodge_basis(c, k,
    tol).harmonic`` of k = 0, 1, 2 on the diagonal; their signs are
    already fixed. The pair columns are left as the cached SVD factors and
    their signs; see :class:`DiracBasis`."""
    dim = c.n0 + c.n1 + c.n2
    tau = _zero_tolerance(c, tol)
    # The ranks may count a sigma that the SVD's own solve set to zero.
    r1, r2 = (min(_rank(c, k, tol), np.count_nonzero(_incidence_svd(c, k)[1]))
              for k in (1, 2))
    pairs = (_factors(c, 1, r1, offset=0), _factors(c, 2, r2, offset=c.n0))
    lam_g, lam_c = (np.repeat(p.s[::-1], 2) * np.tile([1.0, -1.0], p.s.size)
                    for p in pairs)

    blocks = [hodge_basis(c, k, tol).harmonic for k in (0, 1, 2)]
    harm = np.zeros((dim, sum(h.shape[1] for h in blocks)))
    row = col = 0
    for h in blocks:
        harm[row : row + h.shape[0], col : col + h.shape[1]] = h
        row, col = row + h.shape[0], col + h.shape[1]

    return DiracBasis(
        complex=c,
        harmonic=harm,
        gradient_eigenvalues=lam_g,
        curl_eigenvalues=lam_c,
        tolerance=tau,
        _pairs=pairs,
    )


def dirac_tft(c: SimplicialComplex, x: ComplexSignal,
              basis: DiracBasis | None = None) -> np.ndarray:
    """Projection of the stacked (x0, x1, x2) onto the Dirac eigenbasis,
    ``basis.matrix().T @ x`` to rounding, computed blockwise from the
    cached factors."""
    _check_bound(c, x, "x")
    if basis is None:
        basis = dirac_basis(c)
    _check_bound(c, basis, "basis")
    grad, curl_ = basis._pairs
    return np.concatenate([
        basis.harmonic.T @ x.stacked(),
        grad.project(x.x0.values, x.x1.values),
        curl_.project(x.x1.values, x.x2.values),
    ])


def dirac_itft(c: SimplicialComplex, coeffs: np.ndarray,
               basis: DiracBasis | None = None) -> ComplexSignal:
    """Inverse of :func:`dirac_tft`, also from the cached factors."""
    if basis is None:
        basis = dirac_basis(c)
    _check_bound(c, basis, "basis")
    grad, curl_ = basis._pairs
    n_h, n_g = basis.harmonic.shape[1], grad.signs.size
    width = n_h + n_g + curl_.signs.size
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (width,):
        raise ValueError(f"coeffs: need {width} values, got {coeffs.shape}")
    x0, x1 = grad.combine(coeffs[n_h : n_h + n_g])
    x1_up, x2 = curl_.combine(coeffs[n_h + n_g :])
    return ComplexSignal.from_stacked(c, basis.harmonic @ coeffs[:n_h]
                                      + np.concatenate([x0, x1 + x1_up, x2]))
