"""Localized sparse representations: concentrated bandlimited vector sets
(Slepian-style) and parametric Hodge-filter dictionaries with greedy
sparse coding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import check_tolerance, fix_column_signs
from ._util import as_index_tuple
from .complexes import Cochain, SimplicialComplex
from .filters import HodgeFilterSpec, _filter_values
from .spectral import HodgeBasis, hodge_basis

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
    sub-dictionary i is column j of the i-th filter matrix."""

    order: int
    specs: tuple[HodgeFilterSpec, ...]
    atoms: np.ndarray


def slepians(c: SimplicialComplex, edge_set: Sequence[int],
             frequency_set: Sequence[int], m: int | None = None,
             basis: HodgeBasis | None = None,
             tol: float | None = None) -> SlepianSet:
    """Top-m eigenvectors of the bandlimit-then-concentrate operator
    F_F C_S F_F.

    Solved in the |F|-dimensional bandlimited coordinates (the reduced
    operator U_F^T C_S U_F), so every returned vector satisfies
    F_F psi = psi exactly; eigenvectors beyond the operator's rank are an
    orthonormal completion of the bandlimited space with concentration 0.
    """
    check_tolerance(tol)
    if basis is None:
        basis = hodge_basis(c, 1, tol)
    n1 = c.n1
    s_idx = as_index_tuple(edge_set, n1, "edge set")
    f_idx = as_index_tuple(frequency_set, n1, "frequency set")
    if not s_idx:
        raise ValueError("edge set must be nonempty")
    if not f_idx:
        raise ValueError("frequency set must be nonempty")
    if m is None:
        m = len(f_idx)
    if not 1 <= m <= len(f_idx):
        raise ValueError(f"m must be in [1, {len(f_idx)}], got {m}")

    u_f = basis.columns(f_idx)
    sel = np.zeros(n1)
    sel[list(s_idx)] = 1.0
    reduced = u_f.T @ (sel[:, None] * u_f)
    evals, evecs = np.linalg.eigh(reduced)
    order = np.argsort(evals, kind="stable")[::-1]
    evals = np.clip(evals[order][:m], 0.0, 1.0)
    vectors = fix_column_signs(u_f @ evecs[:, order][:, :m], basis.tolerance)
    return SlepianSet(
        vectors=vectors,
        concentrations=evals,
        edge_set=s_idx,
        frequency_set=f_idx,
    )


def build_dictionary(c: SimplicialComplex, k: int,
                     specs: Sequence[HodgeFilterSpec]) -> HodgeDictionary:
    """Assemble the N_k x (P*N_k) atom matrix of P polynomial filters.

    Atoms are localized: with maximum polynomial order T the atom of
    simplex j is supported within T lower/upper hops of j. Harmonic terms
    are not part of the dictionary parameterization and are rejected.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one filter spec")
    if any(s.harmonic is not None for s in specs):
        raise ValueError("dictionary filters must be pure polynomials "
                         "(no harmonic term)")
    identity = np.eye(c.num_simplices(k))
    atoms = np.hstack([_filter_values(c, k, s, identity) for s in specs])
    return HodgeDictionary(order=k, specs=specs, atoms=atoms)


def sparse_code(dictionary: HodgeDictionary | SlepianSet | np.ndarray,
                x: Cochain | np.ndarray, sparsity: int,
                residual_tol: float = 1e-10) -> np.ndarray:
    """Orthogonal matching pursuit.

    Greedily selects the atom with the largest normalized correlation to the
    residual (ties to the lowest index), refits all selected coefficients by
    least squares, and stops after ``sparsity`` atoms or when the residual
    norm drops below ``residual_tol``. Returns the full-length coefficient
    vector.
    """
    if isinstance(dictionary, HodgeDictionary):
        atoms = dictionary.atoms
    elif isinstance(dictionary, SlepianSet):
        atoms = dictionary.vectors
    else:
        atoms = np.asarray(dictionary, dtype=float)
    target = x.values if isinstance(x, Cochain) else np.asarray(x, dtype=float)
    if atoms.ndim != 2 or atoms.shape[0] != target.shape[0]:
        raise ValueError("dictionary and signal dimensions do not match")
    if sparsity < 1:
        raise ValueError(f"sparsity must be >= 1, got {sparsity}")

    norms = np.linalg.norm(atoms, axis=0)
    usable = norms > 0
    if not usable.any():
        raise ValueError("zero dictionary: every atom has zero norm")
    # A zero atom scores 0 / inf = 0 and is never picked over a usable one.
    norms[~usable] = np.inf

    coeffs = np.zeros(atoms.shape[1])
    selected: list[int] = []
    residual = target.copy()
    for _ in range(min(sparsity, int(usable.sum()))):
        res_norm = np.linalg.norm(residual)
        if res_norm < residual_tol:
            break
        scores = np.abs(atoms.T @ residual) / norms
        scores[selected] = -np.inf
        best = int(np.argmax(scores))  # argmax takes the lowest tied index
        if scores[best] <= 1e-12 * res_norm:
            break  # residual orthogonal to every atom
        selected.append(best)
        sub = atoms[:, selected]
        fit = np.linalg.lstsq(sub, target, rcond=None)[0]
        residual = target - sub @ fit
    if selected:
        coeffs[selected] = fit
    return coeffs
