"""Complex construction, incidence matrices, Laplacians, Dirac operator,
Betti numbers, and elementary boundary operations."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hodgesp.complexes as hc
from hodgesp import (
    ComplexSignal,
    TopologyError,
    betti,
    build_complex,
    curl,
    dirac,
    dirac_shift,
    divergence,
    hodge_laplacian,
    incidence,
)

from conftest import EDGES7, random_complex, union_find_components


def test_reference_counts(complex7):
    assert (complex7.n0, complex7.n1, complex7.n2) == (7, 10, 3)


def test_single_edge_sign_convention():
    c = build_complex(2, [(0, 1)])
    assert incidence(c, 1, dense=True).tolist() == [[-1.0], [1.0]]


def test_b1_columns_one_head_one_tail(complex7):
    b1 = incidence(complex7, 1, dense=True)
    assert np.all(b1.sum(axis=0) == 0)
    assert np.all((b1 == 1).sum(axis=0) == 1)
    assert np.all((b1 == -1).sum(axis=0) == 1)


def test_triangle_column_signs():
    c = build_complex(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    # edges sorted (0,1), (0,2), (1,2); boundary of [0,1,2] is (+1, -1, +1)
    assert incidence(c, 2, dense=True)[:, 0].tolist() == [1.0, -1.0, 1.0]


def test_boundary_of_boundary_zero(complex7, cell7):
    for c in (complex7, cell7):
        prod = (c.b1 @ c.b2).toarray()
        assert not prod.any()


def test_cell_complex_accepted_simplicial_rejected():
    edges = [e for e in EDGES7 if e != (0, 2)]
    c = build_complex(7, edges, [(0, 1, 3), (0, 4, 5)], cells=[(0, 1, 2, 6)])
    assert c.n2 == 3
    # the quadrilateral cannot be triangulated: its diagonal edges are absent
    with pytest.raises(TopologyError, match="missing its edge"):
        build_complex(7, edges, [(0, 1, 2)])


def test_cell_column_signs(cell7):
    b2 = incidence(cell7, 2, dense=True)
    col = b2[:, 2]  # cells come after triangles
    idx = {e: i for i, e in enumerate(cell7.edges)}
    # traversal 0 -> 1 -> 2 -> 6 -> 0 against lexicographic orientations
    assert col[idx[(0, 1)]] == 1
    assert col[idx[(1, 2)]] == 1
    assert col[idx[(2, 6)]] == 1
    assert col[idx[(0, 6)]] == -1
    assert np.count_nonzero(col) == 4


def test_cell_canonicalization_rotation_reflection():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for cycle in [(0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2)]:
        c = build_complex(4, edges, cells=[cycle])
        assert c.cells == ((0, 1, 2, 3),)


def test_duplicate_and_range_errors():
    with pytest.raises(TopologyError, match="duplicate edge"):
        build_complex(3, [(0, 1), (1, 0)])
    with pytest.raises(TopologyError, match="out of range"):
        build_complex(3, [(0, 5)])
    with pytest.raises(TopologyError, match="self-loop"):
        build_complex(3, [(1, 1)])
    # a bool is no vertex index, as np.True_ and a JSON true are not
    for bad in (True, np.True_):
        with pytest.raises(TopologyError, match="is not an integer"):
            build_complex(3, [(bad, 2), (0, 1)])
        with pytest.raises(TopologyError, match="is not an integer"):
            build_complex(3, [(0, 1), (0, 2), (1, 2)], [(0, bad, 2)])
    with pytest.raises(TopologyError, match="duplicate triangle"):
        build_complex(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(TopologyError, match="missing its edge"):
        build_complex(4, [(0, 1), (0, 2), (0, 3)], [(0, 1, 2)])
    with pytest.raises(TopologyError, match="missing its boundary edge"):
        build_complex(4, [(0, 1), (1, 2), (2, 3)], cells=[(0, 1, 2, 3)])
    with pytest.raises(TopologyError, match="duplicate cell"):
        build_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                      cells=[(0, 1, 2, 3), (1, 2, 3, 0)])
    with pytest.raises(TopologyError, match="duplicates triangle"):
        build_complex(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)],
                      cells=[(0, 1, 2)])


def test_valid_simplices_take_the_vectorised_check(monkeypatch, complex7):
    """Integer lists and arrays of valid edges and triangles are checked
    at once; the per-item checkers run only to name a bad simplex."""
    def refuse(*args):
        raise AssertionError("per-item check called")

    monkeypatch.setattr(hc, "_edge_vertices", refuse)
    monkeypatch.setattr(hc, "_triangle_vertices", refuse)
    c = complex7
    for edges, tris in ((list(c.edges), list(c.triangles)),
                        (np.array(c.edges), np.array(c.triangles))):
        d = build_complex(c.n0, edges, tris)
        assert (d.edges, d.triangles) == (c.edges, c.triangles)


SEEDS = st.integers(0, 2**32 - 1)


def scrambled(c, rng):
    """The simplices of ``c`` in a random order, each edge and triangle with
    its vertices in a random order and each cell rotated and maybe
    reversed."""
    def shuffle(items):
        return [items[i] for i in rng.permutation(len(items))]

    cells = []
    for cyc in c.cells:
        turn = int(rng.integers(len(cyc)))
        cyc = cyc[turn:] + cyc[:turn]
        cells.append(cyc[::-1] if rng.random() < 0.5 else cyc)
    return (shuffle([tuple(rng.permutation(e).tolist()) for e in c.edges]),
            shuffle([tuple(rng.permutation(t).tolist())
                     for t in c.triangles]),
            shuffle(cells))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=SEEDS, with_cells=st.booleans(), as_arrays=st.booleans())
def test_build_ignores_input_order_and_orientation(seed, with_cells,
                                                   as_arrays):
    rng = np.random.default_rng(seed)
    c = random_complex(rng, max_vertices=14, with_cells=with_cells)
    edges, triangles, cells = scrambled(c, rng)
    if as_arrays:
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    d = build_complex(c.n0, edges, triangles, cells)
    assert (d.edges, d.triangles, d.cells) == (c.edges, c.triangles, c.cells)
    for got, want in ((d.b1, c.b1), (d.b2, c.b2)):
        assert got.dtype == want.dtype == np.int64
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


DEFECTS = ("edge range", "edge type", "edge self-loop", "edge duplicate",
           "edge length", "triangle range", "triangle repeat",
           "triangle duplicate", "triangle missing", "triangle length")


@settings(max_examples=150, deadline=None, database=None)
@given(seed=SEEDS, defect=st.sampled_from(DEFECTS),
       where=st.floats(0.0, 1.0))
def test_defect_raises_naming_its_simplex(seed, defect, where):
    """One defective simplex at a random position among valid, scrambled
    ones raises the error that names it."""
    rng = np.random.default_rng(seed)
    c = random_complex(rng, max_vertices=10)
    n = c.n0
    edges, triangles, _ = scrambled(c, rng)
    a, b, x = (int(v) for v in rng.permutation(n)[:3])
    group, kind = defect.split()
    if kind == "range":
        bad = (a, n + x) if group == "edge" else (a, b, n + x)
        message = (f"{group} {bad}: vertex index {n + x} out of range "
                   f"[0, {n})")
    elif kind == "type":
        bad = (a, b + 0.5)
        message = f"edge {bad}: vertex index {b + 0.5!r} is not an integer"
    elif kind == "self-loop":
        bad = (a, a)
        message = f"edge ({a}, {a}) is a self-loop"
    elif kind == "length":
        bad = (a,) if group == "edge" else (a, b)
        width = 2 if group == "edge" else 3
        message = f"{group} {bad} must have exactly {width} vertices"
    elif kind == "repeat":
        bad = (a, b, a)
        message = f"triangle {bad} repeats a vertex"
    elif kind == "duplicate":
        pool = c.edges if group == "edge" else c.triangles
        assume(pool)
        simplex = pool[int(rng.integers(len(pool)))]
        bad = tuple(rng.permutation(simplex).tolist())
        message = f"duplicate {group} {simplex}"
    else:  # a triple with an edge missing
        edge_set = set(c.edges)
        triples = [(u, v, w) for u in range(n) for v in range(u + 1, n)
                   for w in range(v + 1, n)
                   if not {(u, v), (u, w), (v, w)} <= edge_set]
        assume(triples)
        bad = triples[int(rng.integers(len(triples)))]
        u, v, w = bad
        gap = next(e for e in ((u, v), (u, w), (v, w)) if e not in edge_set)
        message = f"triangle {bad} is missing its edge {gap}"
        bad = tuple(rng.permutation(bad).tolist())
    pool = edges if group == "edge" else triangles
    pool.insert(int(where * len(pool)), bad)
    with pytest.raises(TopologyError) as info:
        build_complex(n, edges, triangles)
    assert str(info.value) == message


def test_degenerate_complexes_legal():
    c = build_complex(4)
    assert c.b1.shape == (4, 0) and c.b2.shape == (0, 0)
    assert betti(c) == (4, 0, 0)
    c = build_complex(3, [(0, 1)])
    assert c.b2.shape == (1, 0)
    assert hodge_laplacian(c, 1, "up").shape == (1, 1)


def test_edge_index_builds_its_lookup_on_first_use():
    c = build_complex(7, EDGES7)
    assert ("edge index",) not in hc._cache.get(c, {})
    assert [c.edge_index(v, u) for u, v in EDGES7] == list(range(c.n1))
    assert ("edge index",) in hc._cache[c]
    with pytest.raises(KeyError, match=r"edge \(3, 5\) not in complex"):
        c.edge_index(5, 3)


def test_laplacian_structure(complex7):
    l0 = hodge_laplacian(complex7, 0)
    assert np.allclose(l0, l0.T)
    assert np.allclose(l0.sum(axis=1), 0)
    l1 = hodge_laplacian(complex7, 1)
    assert np.allclose(l1, hodge_laplacian(complex7, 1, "down")
                       + hodge_laplacian(complex7, 1, "up"))
    # diagonal: 2 endpoints + number of triangles containing the edge
    tri_count = np.abs(incidence(complex7, 2, dense=True)).sum(axis=1)
    assert np.allclose(np.diag(l1), 2 + tri_count)
    assert np.linalg.eigvalsh(l1)[0] > -1e-10


def test_one_sided_laplacians_share_the_full_entry(complex7):
    for k, variant in ((0, "up"), (2, "down")):
        assert (hodge_laplacian(complex7, k, variant, sparse=True)
                is hodge_laplacian(complex7, k, sparse=True))


def test_single_edge_l0():
    c = build_complex(2, [(0, 1)])
    assert hodge_laplacian(c, 0).tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_variant_errors(complex7):
    with pytest.raises(ValueError):
        hodge_laplacian(complex7, 0, "down")
    with pytest.raises(ValueError):
        hodge_laplacian(complex7, 2, "up")
    with pytest.raises(ValueError):
        hodge_laplacian(complex7, 1, "sideways")


def test_l0_orientation_independent(complex7):
    b1 = incidence(complex7, 1, dense=True)
    rng = np.random.default_rng(0)
    flip = np.diag(np.where(rng.random(complex7.n1) < 0.5, -1.0, 1.0))
    assert np.array_equal((b1 @ flip) @ (b1 @ flip).T, b1 @ b1.T)


def test_edge_flip_conjugates_l1(complex7):
    b1 = incidence(complex7, 1, dense=True)
    b2 = incidence(complex7, 2, dense=True)
    rng = np.random.default_rng(1)
    signs = np.where(rng.random(complex7.n1) < 0.5, -1.0, 1.0)
    d = np.diag(signs)
    l1_flip = (b1 @ d).T @ (b1 @ d) + (d @ b2) @ (d @ b2).T
    assert np.allclose(l1_flip, d @ hodge_laplacian(complex7, 1) @ d)
    # betti from the flipped matrices is unchanged
    r1 = np.linalg.matrix_rank(b1 @ d)
    r2 = np.linalg.matrix_rank(d @ b2)
    assert (complex7.n1 - r1 - r2) == betti(complex7)[1]


def test_dirac_structure(complex7):
    full, down, up = (m.toarray() for m in dirac(complex7))
    assert np.allclose(full, full.T)
    assert np.allclose(full, down + up)
    blk = sla.block_diag(*(hodge_laplacian(complex7, k) for k in (0, 1, 2)))
    err = np.linalg.norm(full @ full - blk) / np.linalg.norm(blk)
    assert err < 1e-12


def test_dirac_no_triangles(skeleton7):
    assert not dirac(skeleton7).up.toarray().any()


def test_betti_reference(complex7):
    assert betti(complex7) == (1, 1, 0)


def test_betti_trivial_cases():
    assert betti(build_complex(1)) == (1, 0, 0)
    assert betti(build_complex(4, [(0, 1), (2, 3)]))[0] == 2


def test_betti_components_match_union_find():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = random_complex(rng, max_vertices=15)
        assert betti(c)[0] == union_find_components(c.n0, c.edges)


def test_divergence_curl_identities(complex7):
    rng = np.random.default_rng(3)
    x0 = complex7.cochain(0, rng.standard_normal(7))
    x2 = complex7.cochain(2, rng.standard_normal(3))
    grad_flow = complex7.cochain(1, complex7.b1.T @ x0.values)
    assert np.allclose(curl(complex7, grad_flow).values, 0)
    curl_flow = complex7.cochain(1, complex7.b2 @ x2.values)
    assert np.allclose(divergence(complex7, curl_flow).values, 0)


def test_harmonic_vector_divergence_and_curl_vanish(complex7):
    from hodgesp import hodge_basis
    harm = complex7.cochain(1, hodge_basis(complex7, 1).harmonic[:, 0])
    assert np.linalg.norm(divergence(complex7, harm).values) < 1e-10
    assert np.linalg.norm(curl(complex7, harm).values) < 1e-10


def test_order_mismatch_errors(complex7):
    x0 = complex7.zero_cochain(0)
    with pytest.raises(ValueError):
        divergence(complex7, x0)
    with pytest.raises(ValueError):
        curl(complex7, x0)
    other = build_complex(2, [(0, 1)])
    with pytest.raises(ValueError):
        divergence(complex7, other.zero_cochain(1))


def test_dirac_shift_blocks(complex7):
    rng = np.random.default_rng(4)
    x1 = complex7.cochain(1, rng.standard_normal(10))
    sig = ComplexSignal(complex7.zero_cochain(0), x1, complex7.zero_cochain(2))
    shifted = dirac_shift(complex7, sig)
    assert np.allclose(shifted.x0.values, divergence(complex7, x1).values)
    assert np.allclose(shifted.x2.values, curl(complex7, x1).values)
    assert np.allclose(shifted.x1.values, 0)

    sig2 = ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), np.zeros(10), rng.standard_normal(3)
    )
    shifted2 = dirac_shift(complex7, sig2)
    expected = complex7.b1.T @ sig2.x0.values + complex7.b2 @ sig2.x2.values
    assert np.allclose(shifted2.x1.values, expected)


def test_dirac_shift_twice_is_laplacian(complex7):
    rng = np.random.default_rng(5)
    sig = ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3)
    )
    twice = dirac_shift(complex7, dirac_shift(complex7, sig))
    for k, part in ((0, twice.x0), (1, twice.x1), (2, twice.x2)):
        lap = hodge_laplacian(complex7, k)
        ref = lap @ getattr(sig, f"x{k}").values
        assert np.allclose(part.values, ref)


def test_random_structural_identities():
    rng = np.random.default_rng(6)
    for i in range(15):
        c = random_complex(rng, max_vertices=18, with_cells=(i % 3 == 0))
        assert not (c.b1 @ c.b2).toarray().any()
        d = dirac(c).full.toarray()
        blk = sla.block_diag(*(hodge_laplacian(c, k) for k in (0, 1, 2)))
        denom = max(np.linalg.norm(blk), 1.0)
        assert np.linalg.norm(d @ d - blk) / denom < 1e-12


def test_cochain_validation(complex7):
    with pytest.raises(ValueError, match="needs 10 values"):
        complex7.cochain(1, np.zeros(9))
    with pytest.raises(ValueError, match="finite"):
        complex7.cochain(0, [np.nan] * 7)
    with pytest.raises(ValueError):
        ComplexSignal(
            complex7.zero_cochain(0),
            build_complex(2, [(0, 1)]).zero_cochain(1),
            complex7.zero_cochain(2),
        )
