"""Localized sparse representations: concentrated bandlimited vector sets
(Slepian-style) and parametric Hodge-filter dictionaries with greedy
sparse coding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from ._linalg import fix_column_signs, gram_schmidt
from ._util import check_integer, check_real
from .complexes import Cochain, SimplicialComplex
from .filters import HodgeFilterSpec, _filter_values
from .sampling import _sampled_fit
from .spectral import HodgeBasis, _sign_tolerance

__all__ = [
    "SlepianSet",
    "HodgeDictionary",
    "slepians",
    "build_dictionary",
    "sparse_code",
]


@dataclass(frozen=True, eq=False)
class SlepianSet:
    """Orthonormal edge vectors perfectly localized on a frequency set and
    maximally energy-concentrated on an edge set.

    vectors[:, i] is the i-th set member; concentrations[i] = ||C_S psi_i||^2
    is its energy on the edge set, non-increasing and in [0, 1].
    """

    vectors: np.ndarray
    concentrations: np.ndarray
    edge_set: tuple[int, ...]
    frequency_set: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class HodgeDictionary:
    """Concatenation of the matrices of P convolutional filters; atom j of
    sub-dictionary i is column j of the i-th filter matrix.

    ``csc`` holds the N_k x (P*N_k) atoms column by column, as a CSC
    array with sorted indices and no stored zeros. It is the dictionary's
    only stored data, and its arrays are read-only; the atoms are
    localized, so it holds few entries. ``atoms`` is a read-only dense
    copy, built on first access; :func:`sparse_code` and the
    ``dictionary`` subcommand never build it. Build dictionaries with
    :func:`build_dictionary`.
    """

    order: int
    specs: tuple[HodgeFilterSpec, ...]
    csc: sparse.csc_array

    @cached_property
    def atoms(self) -> np.ndarray:
        """The atoms as a read-only dense array."""
        atoms = self.csc.toarray()
        atoms.flags.writeable = False
        return atoms

    @cached_property
    def _correlator(self) -> tuple[sparse.csr_array, np.ndarray]:
        """The transpose of ``csc`` (a view, not a copy) and the atom
        norms; the atoms are read-only, so neither can go stale."""
        return self.csc.T, _atom_norms(self.csc)


def slepians(c: SimplicialComplex, edge_set: Sequence[int],
             frequency_set: Sequence[int], m: int | None = None,
             basis: HodgeBasis | None = None,
             tol: float | None = None) -> SlepianSet:
    """Top-m eigenvectors of the bandlimit-then-concentrate operator
    F_F C_S F_F.

    In the |F|-dimensional bandlimited coordinates the operator is
    U_F[S]^T U_F[S], with U_F[S] the edge-set rows of the band columns, so
    its eigenpairs are the right singular vectors and squared singular
    values of U_F[S]: the one SVD that :mod:`hodgesp.sampling` takes for
    the recovery margin and the fit. Every returned vector satisfies
    F_F psi = psi exactly; vectors beyond the rank of U_F[S] are an
    orthonormal completion of the bandlimited space with concentration 0.
    """
    fit = _sampled_fit(c, 1, frequency_set, basis, tol, edge_set,
                       "edge set")
    nf = len(fit.freqs)
    m = nf if m is None else m
    check_integer(m, "m", 1, nf)
    _, s, vt = fit.svd
    concentrations = np.pad(np.minimum(s**2, 1.0), (0, nf - s.size))
    return SlepianSet(
        vectors=fix_column_signs(fit.band @ vt[:m].T, _sign_tolerance(c)),
        concentrations=concentrations[:m],
        edge_set=fit.samples,
        frequency_set=fit.freqs,
    )


def build_dictionary(c: SimplicialComplex, k: int,
                     specs: Sequence[HodgeFilterSpec]) -> HodgeDictionary:
    """Assemble the N_k x (P*N_k) atom matrix of P polynomial filters.

    Atoms are localized: with maximum polynomial order T the atom of
    simplex j is supported within T lower/upper hops of j. Each filter is
    applied by the Krylov kernel to a sparse identity, so the atoms are
    built as one sparse array and no dense N_k x N_k array is formed;
    entries that cancel to zero are not stored. Harmonic terms are not part
    of the dictionary parameterization and are rejected.
    """
    check_integer(k, "k", 0, 2)
    specs = tuple(specs)
    if not specs:
        raise ValueError("specs must hold at least one filter spec")
    if any(s.harmonic is not None for s in specs):
        raise ValueError("dictionary filters must be pure polynomials "
                         "(no harmonic term)")
    identity = sparse.eye_array(c.num_simplices(k), format="csr")
    atoms = sparse.hstack([_filter_values(c, k, s, identity) for s in specs],
                          format="csc")
    atoms.eliminate_zeros()
    for part in (atoms.data, atoms.indices, atoms.indptr):
        part.flags.writeable = False
    return HodgeDictionary(order=k, specs=specs, csc=atoms)


def _atom_norms(atoms) -> np.ndarray:
    """Column norms of a dense or CSC dictionary, rejecting one with a nan
    or inf atom. A CSC's squares are summed down each column in row order
    from zero, as numpy sums a dense array's, so both give the same bits."""
    if sparse.issparse(atoms):
        width = atoms.shape[1]
        norms = np.sqrt(np.bincount(
            np.repeat(np.arange(width), np.diff(atoms.indptr)),
            atoms.data**2, minlength=width))
    else:
        norms = np.linalg.norm(atoms, axis=0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("dictionary atoms must be finite, and so must "
                         "their norms")
    return norms


def _column(atoms, j: int) -> np.ndarray:
    """Atom ``j`` of a dense or CSC dictionary as a dense vector."""
    if not sparse.issparse(atoms):
        return atoms[:, j]
    entries = slice(atoms.indptr[j], atoms.indptr[j + 1])
    col = np.zeros(atoms.shape[0])
    col[atoms.indices[entries]] = atoms.data[entries]
    return col


def sparse_code(dictionary: HodgeDictionary | SlepianSet | np.ndarray,
                x: Cochain | np.ndarray, sparsity: int,
                residual_tol: float = 1e-10) -> np.ndarray:
    """Orthogonal matching pursuit.

    Greedily selects the atom with the largest normalized correlation to the
    residual (ties to the lowest index) and stops after ``sparsity`` atoms
    or when the residual norm drops below ``residual_tol``. Returns the
    full-length coefficient vector, the least-squares fit of ``x`` on the
    selected atoms.

    Each pick appends one column to a QR factorization of the selected
    atoms (Gram-Schmidt run twice) and removes its direction from the
    residual; the coefficients come from one triangular solve at the end.
    A :class:`HodgeDictionary` correlates through its CSC atoms, caching
    their norms on the first call, and takes each picked atom from them;
    other dictionaries use their dense atoms and compute the norms per
    call.
    """
    if isinstance(dictionary, HodgeDictionary):
        atoms = dictionary.csc
    elif isinstance(dictionary, SlepianSet):
        atoms = dictionary.vectors
    else:
        atoms = np.asarray(dictionary, dtype=float)
    target = x.values if isinstance(x, Cochain) else np.asarray(x, dtype=float)
    if target.ndim != 1:
        raise ValueError(f"x must be a 1-D signal, got shape {target.shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("x must be finite")
    if atoms.ndim != 2 or atoms.shape[0] != target.shape[0]:
        raise ValueError(f"dictionary must have one row per entry of x "
                         f"({target.shape[0]}), got shape {atoms.shape}")
    check_integer(sparsity, "sparsity", 1)
    check_real(residual_tol, "residual_tol")

    if isinstance(dictionary, HodgeDictionary):
        correlator, norms = dictionary._correlator
    else:
        correlator, norms = atoms.T, _atom_norms(atoms)
    usable = norms > 0
    if not usable.any():
        raise ValueError("zero dictionary: every atom has zero norm")
    # A zero atom scores 0 / inf = 0 and is never picked over a usable one.
    norms = np.where(usable, norms, np.inf)

    steps = min(sparsity, int(usable.sum()))
    # Row i of q is the i-th orthonormal support vector, so the first k
    # rows are one contiguous block.
    q = np.empty((steps, atoms.shape[0]))
    r = np.zeros((steps, steps))  # support = q.T @ r
    proj = np.empty(steps)        # q @ target
    selected: list[int] = []
    residual = target.copy()
    for k in range(steps):
        res_norm = math.sqrt(residual.dot(residual))
        if res_norm < residual_tol:
            break
        scores = correlator @ residual
        np.abs(scores, out=scores)
        scores /= norms
        scores[selected] = -np.inf
        best = int(scores.argmax())  # argmax takes the lowest tied index
        if scores[best] <= 1e-12 * res_norm:
            break  # residual orthogonal to every atom
        selected.append(best)
        col, r[:k, k] = gram_schmidt(q[:k].T, _column(atoms, best))
        r[k, k] = math.sqrt(col.dot(col))
        np.divide(col, r[k, k], out=q[k])
        # The residual is orthogonal to q[:k], so this is q[k] @ target.
        proj[k] = q[k].dot(residual)
        residual -= proj[k] * q[k]
    coeffs = np.zeros(atoms.shape[1])
    if selected:
        k = len(selected)
        coeffs[selected] = np.linalg.solve(r[:k, :k], proj[:k])
    return coeffs
