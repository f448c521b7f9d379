"""File round-trips, parse-error locations, and the batch CLI."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import hodgesp._util as hu
import hodgesp.io as hio
from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeDictionary,
    HodgeFilterSpec,
    RankDeficientWarning,
    SCVarLag,
    SCVarModel,
    TopologyError,
    build_dictionary,
    frequency_table,
    hodge_basis,
    hodge_decompose,
    is_perfectly_recoverable,
    lms_build_regressor,
    lms_init,
    lms_step,
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
)
import hodgesp
from hodgesp import cli
from hodgesp.cli import run_cli

from conftest import EDGES7, TRIS7, random_complex, triangulated_grid


@pytest.fixture()
def complex_file(tmp_path, complex7):
    path = tmp_path / "complex7.json"
    hio.save_complex(path, complex7)
    return path


def test_complex_round_trip(tmp_path, complex7, cell7):
    for c in (complex7, cell7):
        path = tmp_path / "c.json"
        hio.save_complex(path, c)
        back = hio.load_complex(path)
        assert back.edges == c.edges
        assert back.triangles == c.triangles
        assert back.cells == c.cells
        # bit-exact file round trip
        again = tmp_path / "c2.json"
        hio.save_complex(again, back)
        assert path.read_bytes() == again.read_bytes()


def test_complex_file_is_one_based(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text('{"num_vertices": 2, "edges": [[1, 2]]}')
    c = hio.load_complex(path)
    assert c.edges == ((0, 1),)


def test_reference_fixture_counts(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps({
        "num_vertices": 7,
        "edges": [[u + 1, v + 1] for u, v in EDGES7],
        "triangles": [[u + 1, v + 1, w + 1] for u, v, w in TRIS7],
    }))
    c = hio.load_complex(path)
    assert (c.n0, c.n1, c.n2) == (7, 10, 3)


def test_empty_edge_list_valid(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"num_vertices": 3, "edges": []}')
    assert hio.load_complex(path).n1 == 0


def test_complex_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_vertices": 2,, }')
    with pytest.raises(hio.FileFormatError, match="line 1"):
        hio.load_complex(bad)
    bad.write_text('{"num_vertices": 3, "edges": [[1, 9]]}')
    with pytest.raises(TopologyError, match="out of range"):
        hio.load_complex(bad)
    # int() would truncate 1.7 to vertex 1 and read true as 1
    bad.write_text('{"num_vertices": 3, "edges": [[1.7, 2], [2, 3]]}')
    with pytest.raises(hio.FileFormatError,
                       match=r"field 'edges': bad edge \[1.7, 2\]"):
        hio.load_complex(bad)
    bad.write_text('{"num_vertices": 3, "edges": [[1, 2]], '
                   '"triangles": [[1, 2, true]]}')
    with pytest.raises(hio.FileFormatError,
                       match=r"field 'triangles': bad triangle \[1, 2, True\]"):
        hio.load_complex(bad)
    bad.write_text('{"num_vertices": 2.0, "edges": [[1.0, 2.0]]}')
    assert hio.load_complex(bad).edges == ((0, 1),)
    # nor may the vertex count be truncated or read from a boolean or text
    for count in ("3.7", "true", '"3"'):
        bad.write_text('{"num_vertices": %s, "edges": [[1, 2]]}' % count)
        with pytest.raises(hio.FileFormatError,
                           match="field 'num_vertices'"):
            hio.load_complex(bad)


GRID_EDGES = [[1, 2], [1, 4], [2, 3], [2, 4], [2, 5], [3, 5], [4, 5]]
GRID_TRIS = [[1, 2, 4], [2, 4, 5], [2, 3, 5]]
# (edges, triangles, cells) of 5-vertex complexes: valid ones, then one
# per defect, each in a row that the integer-array path may take.
LOADER_CASES = [
    (GRID_EDGES, GRID_TRIS, []),
    (GRID_EDGES[::-1], [[5, 4, 2], [3, 2, 5]], [[1, 2, 5, 4]]),
    (GRID_EDGES, [], []),
    ([], [], []),
    ([[1, 2], [2, 3], [3.0, 4]], [], []),
    ([[1, 2], [2, 3], [1.0, 3]], [[1, 2, 3.0]], []),
    ([[1, 2], [True, 3]], [], []),
    ([[1, 2], [2, "3"]], [], []),
    ([[1, 2], [2, 3, 4]], [], []),
    ([[1, 2, 3], [2, 3, 4]], [], []),
    ([[1, 2], []], [], []),
    ([[1, 2], [3]], [], []),
    ([[1, 2], [2, 2**70]], [], []),
    ([[1, 2], [2, -2**63]], [], []),
    ([[1, 2], [2, 2**63]], [], []),
    ([[1, 2], [0, 3]], [], []),
    ([[1, 2], [2, 6]], [], []),
    ([[1, 2], [3, 3]], [], []),
    ([[1, 2], [2, 3], [2, 1]], [], []),
    (GRID_EDGES, [[1, 2, 3]], []),
    (GRID_EDGES, [[1, 2, 4], [4, 2, 1]], []),
    (GRID_EDGES, [[1, 2, 2]], []),
    (GRID_EDGES, [[1, 2, 9]], []),
    (GRID_EDGES, [[1, 2], [2, 4, 5]], []),
    (GRID_EDGES, [[1, 2, 4], [2, 4, 5, 3]], []),
    (GRID_EDGES, [[1, 2, 4, 5]], []),
    (GRID_EDGES, GRID_TRIS, [[1, 2, 5, 4], [1, 4, 5, 2]]),
    ([[1, 2], {"a": 1}], [], []),
    ([[1, 2], 7], [], []),
]


def load_outcome(path):
    """The loaded complex's simplices and incidence matrices, or the type
    and message of the error it raised."""
    try:
        c = hio.load_complex(path)
    except Exception as exc:  # every kind is compared, not just ours
        return type(exc), str(exc)
    return (c.num_vertices, c.edges, c.triangles, c.cells,
            c.b1.toarray().tobytes(), c.b2.toarray().tobytes())


@pytest.mark.parametrize("case", range(len(LOADER_CASES)))
def test_integer_array_loader_matches_the_item_loader(case, tmp_path,
                                                      monkeypatch):
    edges, triangles, cells = LOADER_CASES[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"num_vertices": 5, "edges": edges,
                                "triangles": triangles, "cells": cells}))
    fast = load_outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(hu, "integer_array", lambda *args: None)
        slow = load_outcome(path)
    assert fast == slow
    if case == 0:  # a valid file takes the array path, not the walk
        seen = []
        integer = hio._integer
        monkeypatch.setattr(hio, "_integer",
                            lambda v: seen.append(v) or integer(v))
        assert load_outcome(path) == fast
        assert seen == [5]  # num_vertices alone


def test_signal_round_trip(tmp_path, complex7):
    rng = np.random.default_rng(0)
    x = complex7.cochain(1, rng.standard_normal(10))
    path = tmp_path / "sig.csv"
    hio.save_signal(path, x)
    back = hio.load_signal(path, complex7, 1)
    assert np.array_equal(back.values, x.values)  # 17 digits: value-exact


def test_signal_errors(tmp_path, complex7):
    path = tmp_path / "sig.csv"
    path.write_text("simplex_id,value\n0,1.0\n1,2.0\n")
    with pytest.raises(hio.FileFormatError, match="expected 10 rows"):
        hio.load_signal(path, complex7, 1)
    path.write_text("wrong,header\n")
    with pytest.raises(hio.FileFormatError, match="line 1"):
        hio.load_signal(path, complex7, 1)
    path.write_text("simplex_id,value\n0,notanumber\n")
    with pytest.raises(hio.FileFormatError, match="line 2"):
        hio.load_signal(path, complex7, 1)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((4, 6))
    path = tmp_path / "m.csv"
    hio.save_matrix(path, mat)
    assert np.array_equal(hio.load_matrix(path), mat)


def test_filter_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    spec = HodgeFilterSpec(h_down=(0.0, 1.5), h_up=(0.0, -0.25),
                           harmonic=HarmonicTerm(epsilon=0.125, steps=50))
    hio.save_filter_spec(path, spec)
    assert hio.load_filter_spec(path) == spec
    data = json.loads(path.read_text())
    assert data["harmonic"] == {"epsilon": 0.125, "T_h": 50}
    # int() would truncate 2.5 steps to 2 and read true as 1
    for steps in (2.5, True):
        data["harmonic"]["T_h"] = steps
        path.write_text(json.dumps(data))
        with pytest.raises(hio.FileFormatError, match="field 'T_h'"):
            hio.load_filter_spec(path)


@pytest.mark.parametrize("field, value", [
    ("h_down", "2"), ("h_up", True), ("epsilon", "0.1")])
def test_filter_spec_rejects_taps_and_epsilon_that_are_no_numbers(
        tmp_path, field, value):
    # float() read "2" as 2.0, true as 1.0 and "0.1" as 0.1
    data = {"h_down": [0.0, 1.0], "h_up": [0.0, 0.5],
            "harmonic": {"epsilon": 0.1, "T_h": 2}}
    if field == "epsilon":
        data["harmonic"]["epsilon"] = value
    else:
        data[field][1] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(hio.FileFormatError, match=rf"\b{field}\b"):
        hio.load_filter_spec(path)


def test_series_round_trip(tmp_path, complex7):
    rng = np.random.default_rng(2)
    series = [ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3)) for _ in range(4)]
    path = tmp_path / "series.csv"
    hio.save_series(path, series)
    back = hio.load_series(path, complex7)
    assert len(back) == 4
    for a, b in zip(series, back):
        assert np.array_equal(a.stacked(), b.stacked())


def test_model_round_trip(tmp_path, complex7):
    lag = SCVarLag(h11=HodgeFilterSpec(h_down=(0.3, 0.1), h_up=(0.0, -0.2)),
                   g10=HodgeFilterSpec(h_down=(0.15,), h_up=(0.0,)))
    model = SCVarModel(complex=complex7, lags=(lag, SCVarLag()))
    path = tmp_path / "model.json"
    hio.save_model(path, model)
    back = hio.load_model(path, complex7)
    assert back.order == 2
    assert back.lags == model.lags


def test_model_parse_errors(tmp_path, complex_file, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("[]")
    with pytest.raises(hio.FileFormatError, match="expected a model object"):
        hio.load_model(bad, None)
    bad.write_text('{"order": 1, "lags": [["h11"]]}')
    with pytest.raises(hio.FileFormatError, match="lag 1: expected an object"):
        hio.load_model(bad, None)
    # the CLI reports a malformed model as a domain error, not a traceback
    bad.write_text("[]")
    series = tmp_path / "s.csv"
    series.write_text("t,level,simplex_id,value\n")
    assert run_cli(["forecast", str(complex_file), str(bad), str(series),
                    "--steps", "1", "-o", str(tmp_path / "f.csv")]) == 1
    assert "expected a model object" in capsys.readouterr().err


# Each case: loader, file text, 1-based line of the bad row. The files end
# lines in CRLF and put a blank line before the bad row, both of which count.
HEAD = "t,level,simplex_id,value\r\n"
STEP0 = "0,2,0,1.5\r\n0,2,1,-2\r\n0,2,2,0.25\r\n\r\n"  # lines 2-5
STEP1 = "1,2,0,1\r\n1,2,1,1\r\n1,2,2,1\r\n"
PARSE_ERRORS = {
    "header": ("series", "t,level,id,value\r\n" + STEP0, 1, "header"),
    "3 fields": ("series", HEAD + STEP0 + "1,2,0\r\n" + STEP1, 6,
                 "cannot parse '1,2,0' as t:int64,level:int64,simplex_id:int64,value:float64"),
    "5 fields": ("series", HEAD + STEP0 + "1,2,0,1,9\r\n" + STEP1, 6,
                 "cannot parse '1,2,0,1,9'"),
    "non-numeric": ("series", HEAD + STEP0 + "1,2,0,abc\r\n" + STEP1, 6,
                    "cannot parse"),
    "fractional t": ("series", HEAD + STEP0 + "1.5,2,0,1\r\n", 6,
                     "cannot parse"),
    "fractional level": ("series", HEAD + STEP0 + "1,1.5,0,1\r\n", 6,
                         "cannot parse"),
    "fractional id": ("series", HEAD + STEP0 + "1,2,1.5,1\r\n", 6,
                      "cannot parse"),
    "level 3": ("series", HEAD + STEP0 + "1,3,0,1\r\n", 6,
                "level must be 0, 1 or 2"),
    "id out of range": ("series", HEAD + STEP0 + "1,2,3,1\r\n", 6,
                        "simplex_id 3 out of range for level 2"),
    "step gap": ("series", HEAD + STEP0 + STEP1.replace("1,", "2,", 1)
                 .replace("\n1,", "\n2,"), 6, "no row has t = 1"),
    "duplicate row": ("series", HEAD + STEP0 + "0,2,1,5\r\n", 6,
                      "duplicate row for t = 0, level 2, simplex_id 1"),
    "partial block": ("series", HEAD + STEP0 + "1,2,0,1\r\n1,2,2,1\r\n", 6,
                      "t = 1, level 2 covers 2 of 3 simplices"),
    "ragged matrix": ("matrix", "1,2\r\n3,4\r\n\r\n5\r\n6,7\r\n", 4,
                      "cannot parse '5' as 2 floats"),
    "matrix text": ("matrix", "1,2\r\n\r\n3,x\r\n", 3, "cannot parse"),
    "signal order": ("signal", "simplex_id,value\r\n0,1\r\n\r\n2,1\r\n",
                     4, "out of order"),
    "series nan": ("series", HEAD + STEP0 + STEP1.replace(",1\r", ",nan\r", 1),
                   6, "value must be finite"),
    "signal inf": ("signal", "simplex_id,value\r\n0,1\r\n\r\n1,-inf\r\n"
                   "2,1\r\n", 4, "value must be finite"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_name_the_file_line(case, tmp_path, complex7):
    loader, text, line, message = PARSE_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    load = {"series": lambda: hio.load_series(path, complex7),
            "matrix": lambda: hio.load_matrix(path),
            "signal": lambda: hio.load_signal(path, complex7, 2)}[loader]
    with pytest.raises(hio.FileFormatError) as info:
        load()
    assert str(info.value).startswith(f"{path}: line {line}: ")
    assert message in str(info.value)


def test_header_only_and_level_subset_files_load(tmp_path, complex7):
    path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on empty input
        path.write_bytes(b"t,level,simplex_id,value\r\n\r\n")
        assert hio.load_series(path, complex7) == []
        for text in (b"", b"\n\r\n"):
            path.write_bytes(text)
            got = hio.load_matrix(path)
            assert got.shape == (0, 0)
    # absent blocks read as zeros; rows may come in any order
    path.write_bytes(HEAD.encode() + STEP1.encode()
                     + b"\r\n0,2,2,3\r\n0,2,0,1\r\n0,2,1,2\r\n")
    series = hio.load_series(path, complex7)
    assert [s.x2.values.tolist() for s in series] == [[1, 2, 3], [1, 1, 1]]
    assert not any(s.x0.values.any() or s.x1.values.any() for s in series)


SPECIAL = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308,
                           float(2**53 + 2), float(2**60 + 2**8), 0.1])
FINITE = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


def same_bits(a, b) -> bool:
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_csv_round_trips_are_value_exact(tmp_path_factory, seed, data):
    c = random_complex(np.random.default_rng(seed), max_vertices=10,
                       with_cells=True)
    path = tmp_path_factory.mktemp("rt") / "f.csv"

    def draw(n):
        return np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)),
                        dtype=float)

    k = data.draw(st.integers(0, 2))
    x = c.cochain(k, draw(c.num_simplices(k)))
    hio.save_signal(path, x)
    assert same_bits(hio.load_signal(path, c, k).values, x.values)

    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    mat = draw(shape[0] * shape[1]).reshape(shape)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=mat.size,
                                       max_size=mat.size))).reshape(shape)
    mat[~keep] = 0.0
    hio.save_matrix(path, mat)
    assert same_bits(hio.load_matrix(path), mat)
    # The same matrix storing exactly the kept cells, stored zeros included.
    dense_bytes = path.read_bytes()
    hio.save_matrix(path, sparse.csr_array((mat[keep], np.nonzero(keep)),
                                           shape=shape))
    assert path.read_bytes() == dense_bytes

    width = c.n0 + c.n1 + c.n2
    series = [ComplexSignal.from_stacked(c, draw(width))
              for _ in range(data.draw(st.integers(1, 3)))]
    hio.save_series(path, series)
    back = hio.load_series(path, c)
    assert len(back) == len(series)
    for a, b in zip(series, back):
        assert same_bits(b.stacked(), a.stacked())


@pytest.mark.parametrize("start", [2.5, True, -1, "3"])
def test_save_series_rejects_a_bad_start(tmp_path, complex7, start):
    with pytest.raises(ValueError, match="start"):
        hio.save_series(tmp_path / "s.csv", [complex7.zero_signal()],
                        start=start)


def test_writer_golden_bytes(tmp_path, complex7):
    path = tmp_path / "f.csv"
    hio.save_signal(path, complex7.cochain(2, [0.1, -0.0, 1e308]))
    assert path.read_bytes() == (b"simplex_id,value\r\n0,0.10000000000000001"
                                 b"\r\n1,-0\r\n2,1e+308\r\n")
    hio.save_matrix(path, [[0.1, -0.0, 5e-324],
                           [-2.5e-310, 2.0**53 + 2, -1e308]])
    assert path.read_bytes() == (
        b"0.10000000000000001,-0,4.9406564584124654e-324\r\n"
        b"-2.5000000000000171e-310,9007199254740994,-1e+308\r\n")
    values = np.arange(20) / 8 - 1
    values[[3, 12, 19]] = 0.1, -0.0, 1 / 3
    hio.save_series(path, [ComplexSignal.from_stacked(complex7, values)],
                    start=5)
    assert path.read_bytes() == (
        b"t,level,simplex_id,value\r\n5,0,0,-1\r\n5,0,1,-0.875\r\n"
        b"5,0,2,-0.75\r\n5,0,3,0.10000000000000001\r\n5,0,4,-0.5\r\n"
        b"5,0,5,-0.375\r\n5,0,6,-0.25\r\n5,1,0,-0.125\r\n5,1,1,0\r\n"
        b"5,1,2,0.125\r\n5,1,3,0.25\r\n5,1,4,0.375\r\n5,1,5,-0\r\n"
        b"5,1,6,0.625\r\n5,1,7,0.75\r\n5,1,8,0.875\r\n5,1,9,1\r\n"
        b"5,2,0,1.125\r\n5,2,1,1.25\r\n5,2,2,0.33333333333333331\r\n")


@pytest.mark.parametrize("dense, want", [
    ([[0.0, -0.0, 1.5], [0.0, 0.0, 0.0], [2.0, 0.0, -0.25]],
     b"0,-0,1.5\r\n0,0,0\r\n2,0,-0.25\r\n"),
    (np.zeros((2, 3)), b"0,0,0\r\n0,0,0\r\n"),
    ([[0.0], [-3.0], [0.0], [0.1]],
     b"0\r\n-3\r\n0\r\n0.10000000000000001\r\n"),
], ids=["negative-zero-and-empty-row", "all-zero", "single-column"])
def test_sparse_matrix_writes_its_dense_twin(tmp_path, dense, want):
    dense = np.array(dense)
    stored = (dense != 0) | np.signbit(dense)
    for mat in (dense, sparse.csr_array((dense[stored], np.nonzero(stored)),
                                        shape=dense.shape)):
        hio.save_matrix(tmp_path / "m.csv", mat)
        assert (tmp_path / "m.csv").read_bytes() == want


def test_sparse_matrix_writes_its_dense_twin_across_chunks(tmp_path):
    # 93 rows of width 700 fill a write chunk, so 200 rows take three.
    rng = np.random.default_rng(9)
    dense = np.where(rng.random((200, 700)) < 0.02,
                     rng.standard_normal((200, 700)), 0.0)
    dense[[0, 199]] = 0.0
    dense[199, 699] = -0.0
    stored = (dense != 0) | np.signbit(dense)
    # A COO input may come unsorted and hold duplicates, which add up.
    order = rng.permutation(np.count_nonzero(stored))
    half = dense[stored][order] / 2
    row, col = (index[order] for index in np.nonzero(stored))
    coo = sparse.coo_array((np.r_[half, half], (np.r_[row, row],
                                                 np.r_[col, col])),
                           shape=dense.shape)
    want = csv_writer_bytes(dense.tolist())
    for mat in (dense, np.asfortranarray(dense), coo):
        hio.save_matrix(tmp_path / "m.csv", mat)
        assert (tmp_path / "m.csv").read_bytes() == want


def csv_writer_bytes(rows) -> bytes:
    """Reference: the rows as csv.writer writes them, floats at %.17g."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for row in rows:
        writer.writerow([("%.17g" % v) if isinstance(v, float) else v
                         for v in row])
    return out.getvalue().encode()


def test_cli_tables_match_csv_writer_bytes(complex_file, tmp_path,
                                            complex7):
    rng = np.random.default_rng(8)
    x = complex7.cochain(1, rng.standard_normal(10))
    sig = tmp_path / "x.csv"
    hio.save_signal(sig, x)

    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", str(complex_file), "--order", "1",
                    "-o", str(out)]) == 0
    table = frequency_table(hodge_basis(complex7, 1))
    assert out.read_bytes() == csv_writer_bytes(
        [["index", "type", "frequency"]]
        + [[r.index, r.kind, float(r.frequency)] for r in table])

    assert run_cli(["decompose", str(complex_file), str(sig),
                    "-o", str(out)]) == 0
    parts = hodge_decompose(complex7, x)
    assert out.read_bytes() == csv_writer_bytes(
        [["simplex_id", "component", "value"]]
        + [[i, name, float(v)] for name in ("gradient", "curl", "harmonic")
           for i, v in enumerate(getattr(parts, name).values)])

    xs = [ComplexSignal.from_arrays(complex7, np.zeros(7),
                                    rng.standard_normal(10), np.zeros(3))
          for _ in range(6)]
    ys = [ComplexSignal.from_arrays(complex7, np.zeros(7), 0.5 * s.x1.values,
                                    np.zeros(3)) for s in xs]
    hio.save_series(tmp_path / "xs.csv", xs)
    hio.save_series(tmp_path / "ys.csv", ys)
    assert run_cli(["lms", str(complex_file), "--input",
                    str(tmp_path / "xs.csv"), "--observed",
                    str(tmp_path / "ys.csv"), "--mu", "0.05",
                    "-o", str(out)]) == 0
    rows = [["t", "level", "simplex_id", "value"]]
    state = lms_init(complex7, 1, 1, 0.05)
    for t, (a, b) in enumerate(zip(xs, ys)):
        prev = state
        state, err = lms_step(state, a.x1, b.x1)
        if err is not None:
            pred = lms_build_regressor(complex7, state.window, 1, 1) \
                @ prev.coefficients
            rows += [[t, 1, i, float(v)] for i, v in enumerate(pred)]
    assert out.read_bytes() == csv_writer_bytes(rows)


# ---------------------------------------------------------------------------
# CLI


def test_cli_betti(complex_file, capsys):
    assert run_cli(["betti", str(complex_file)]) == 0
    assert capsys.readouterr().out.strip() == "1 1 0"


def test_cli_build_normalizes(tmp_path, capsys):
    src = tmp_path / "messy.json"
    src.write_text(json.dumps({
        "num_vertices": 7,
        "edges": [[v + 1, u + 1] for u, v in reversed(EDGES7)],
        "triangles": [[w + 1, v + 1, u + 1] for u, v, w in TRIS7],
    }))
    out = tmp_path / "norm.json"
    assert run_cli(["build", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "7 10 3"
    c = hio.load_complex(out)
    assert c.edges == tuple(EDGES7)


def test_cli_spectrum(complex_file, tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", str(complex_file), "--order", "1",
                    "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "index,type,frequency"
    assert len(rows) == 11
    kinds = [r.split(",")[1] for r in rows[1:]]
    assert kinds.count("harmonic") == 1
    assert kinds.count("gradient") == 6
    assert kinds.count("curl") == 3


def test_cli_spectrum_basis_export(complex_file, tmp_path):
    spec_out = tmp_path / "spec.csv"
    basis_out = tmp_path / "basis.csv"
    assert run_cli(["spectrum", str(complex_file), "--order", "1",
                    "-o", str(spec_out), "--basis-output",
                    str(basis_out)]) == 0
    u = hio.load_matrix(basis_out)
    assert u.shape == (10, 10)
    assert np.max(np.abs(u.T @ u - np.eye(10))) < 1e-10


def test_cli_unknown_subcommand(complex_file):
    assert run_cli(["frobnicate", str(complex_file)]) == 2


def test_cli_calls_in_a_row_answer_as_a_fresh_parser(complex_file, tmp_path,
                                                     capsys):
    """The parser is built once per process; each call in a row, a parse
    error and a ValueError exit among them, exits and prints as it does
    with a parser built for it alone."""
    out = str(tmp_path / "spec.csv")
    calls = [
        ["betti", str(complex_file)],
        ["spectrum", str(complex_file), "--order", "3", "-o", out],
        ["betti", str(complex_file), "--tolerance", "-1"],
        ["spectrum", str(complex_file), "--order", "1", "-o", out],
        ["frobnicate"],
        ["betti"],
        ["build", "--help"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append((run_cli(argv), *capsys.readouterr()))
    assert [code for code, _, _ in fresh] == [0, 2, 1, 0, 2, 2, 0]
    assert "invalid choice: 3" in fresh[1][2]
    assert "tol must be finite and positive" in fresh[2][2]
    again = [(run_cli(argv), *capsys.readouterr()) for argv in calls * 2]
    assert again == fresh * 2


def test_cli_missing_file_is_domain_error(capsys):
    assert run_cli(["betti", "/nonexistent/complex.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_decompose_filter_round_trip(complex_file, tmp_path, complex7):
    rng = np.random.default_rng(3)
    sig = tmp_path / "x.csv"
    hio.save_signal(sig, complex7.cochain(1, rng.standard_normal(10)))

    out = tmp_path / "parts.csv"
    assert run_cli(["decompose", str(complex_file), str(sig),
                    "--order", "1", "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "simplex_id,component,value"
    assert len(rows) == 31

    spec = tmp_path / "spec.json"
    hio.save_filter_spec(spec, HodgeFilterSpec(h_down=(1.0, -0.5),
                                               h_up=(0.0, 0.25)))
    filtered = tmp_path / "y.csv"
    assert run_cli(["filter", str(complex_file), str(sig), "--order", "1",
                    "--spec", str(spec), "-o", str(filtered)]) == 0
    y = hio.load_signal(filtered, complex7, 1)  # output re-parses
    assert y.values.shape == (10,)


def test_cli_slepians_and_dictionary(complex_file, tmp_path, complex7,
                                     monkeypatch):
    out = tmp_path / "slep.csv"
    assert run_cli(["slepians", str(complex_file), "--edges", "1,5,8",
                    "--freqs", "harm", "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 11  # concentration header + 10 edge rows
    assert float(rows[0]) > 0.5

    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"h_down": [1.0], "h_up": [0.0], "harmonic": None},
        {"h_down": [0.0, 1.0], "h_up": [0.0], "harmonic": None},
    ]))
    atoms = tmp_path / "atoms.csv"

    def no_dense_atoms(self):
        raise AssertionError("the dictionary subcommand must write the "
                             "sparse atoms")

    with monkeypatch.context() as patch:
        patch.setattr(HodgeDictionary, "atoms", property(no_dense_atoms))
        assert run_cli(["dictionary", str(complex_file), "--order", "1",
                        "--specs", str(specs), "-o", str(atoms)]) == 0
    assert hio.load_matrix(atoms).shape == (10, 20)
    dense = tmp_path / "dense.csv"
    hio.save_matrix(dense, build_dictionary(
        complex7, 1, hio.load_filter_spec_list(specs)).atoms)
    assert atoms.read_bytes() == dense.read_bytes()


def test_cli_sample_reconstruct(complex_file, tmp_path, complex7):
    samples = tmp_path / "samples.txt"
    assert run_cli(["sample", str(complex_file), "--order", "1",
                    "--freqs", "harm+grad:0..1", "-m", "4",
                    "-o", str(samples)]) == 0
    s_idx = [int(v) for v in samples.read_text().split()]
    assert len(s_idx) == 4

    from hodgesp import hodge_basis
    basis = hodge_basis(complex7, 1)
    x_star = basis.matrix()[:, [0, 1, 2]] @ np.array([1.0, -2.0, 0.5])
    obs = tmp_path / "obs.csv"
    with obs.open("w") as fh:
        fh.write("simplex_id,value\n")
        for i in s_idx:
            fh.write(f"{i},{float(x_star[i])!r}\n")
    out = tmp_path / "rec.csv"
    assert run_cli(["reconstruct", str(complex_file), "--order", "1",
                    "--freqs", "harm+grad:0..1", "--samples", str(samples),
                    "--observed", str(obs), "-o", str(out)]) == 0
    x = hio.load_signal(out, complex7, 1)
    assert np.linalg.norm(x.values - x_star) < 1e-9


def test_cli_forecast_deterministic(complex_file, tmp_path, complex7):
    rng = np.random.default_rng(4)
    lag = SCVarLag(h11=HodgeFilterSpec(h_down=(0.4, 0.05), h_up=(0.0,)))
    model_path = tmp_path / "model.json"
    hio.save_model(model_path, SCVarModel(complex=complex7, lags=(lag,)))
    series_path = tmp_path / "hist.csv"
    hio.save_series(series_path, [ComplexSignal.from_arrays(
        complex7, rng.standard_normal(7), rng.standard_normal(10),
        rng.standard_normal(3))])

    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    args = ["forecast", str(complex_file), str(model_path), str(series_path),
            "--steps", "5", "--noise-std", "0.1,0.1,0.1", "--seed", "42"]
    assert run_cli(args + ["-o", str(out1)]) == 0
    assert run_cli(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # different seed changes the output
    out3 = tmp_path / "f3.csv"
    assert run_cli(["forecast", str(complex_file), str(model_path),
                    str(series_path), "--steps", "5",
                    "--noise-std", "0.1,0.1,0.1", "--seed", "43",
                    "-o", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


# Each case: the --noise-std text and the domain error it exits with.
NOISE_STD_ERRORS = {
    "a,b,c": "--noise-std: expected comma-separated float values (could "
             "not convert string to float: 'a')",
    "0.1,1e,0": "--noise-std: expected comma-separated float values (could "
                "not convert string to float: '1e')",
    "0.1,0.1": "noise_std must hold three deviations, got [0.1, 0.1]",
}


@pytest.mark.parametrize("text", sorted(NOISE_STD_ERRORS))
def test_cli_forecast_noise_std_errors(text, complex_file, tmp_path,
                                       complex7, capsys):
    model_path, series_path = tmp_path / "model.json", tmp_path / "s.csv"
    hio.save_model(model_path, SCVarModel(complex=complex7, lags=(
        SCVarLag(h11=HodgeFilterSpec(h_down=(0.4,))),)))
    hio.save_series(series_path, [complex7.zero_signal()])
    out = tmp_path / "f.csv"
    assert run_cli(["forecast", str(complex_file), str(model_path),
                    str(series_path), "--steps", "1", "--noise-std", text,
                    "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {NOISE_STD_ERRORS[text]}\n"
    assert not out.exists()


def test_cli_lms_runs(complex_file, tmp_path, complex7):
    rng = np.random.default_rng(5)
    xs = [ComplexSignal.from_arrays(complex7, np.zeros(7),
                                    rng.standard_normal(10), np.zeros(3))
          for _ in range(30)]
    ys = [ComplexSignal.from_arrays(complex7, np.zeros(7),
                                    0.5 * s.x1.values, np.zeros(3))
          for s in xs]
    xs_path, ys_path = tmp_path / "x.csv", tmp_path / "y.csv"
    hio.save_series(xs_path, xs)
    hio.save_series(ys_path, ys)
    out = tmp_path / "pred.csv"
    coeffs = tmp_path / "h.csv"
    assert run_cli(["lms", str(complex_file), "--input", str(xs_path),
                    "--observed", str(ys_path), "--t-down", "1",
                    "--t-up", "1", "--mu", "0.01", "-o", str(out),
                    "--coeffs-output", str(coeffs)]) == 0
    assert hio.load_matrix(coeffs).shape == (1, 3)
    preds = out.read_text().strip().splitlines()
    assert preds[0] == "t,level,simplex_id,value"
    assert len(preds) == 1 + 29 * 10  # one warm-up step


def lms_files(tmp_path, c, steps, seed):
    """Input and observed edge-flow series of ``steps`` steps, written to
    x.csv and y.csv; returns them with their paths."""
    rng = np.random.default_rng(seed)
    xs = [ComplexSignal.from_arrays(c, np.zeros(c.n0),
                                    rng.standard_normal(c.n1),
                                    np.zeros(c.n2)) for _ in range(steps)]
    ys = [ComplexSignal.from_arrays(c, np.zeros(c.n0), 0.5 * s.x1.values
                                    + 0.1 * rng.standard_normal(c.n1),
                                    np.zeros(c.n2)) for s in xs]
    paths = tmp_path / "x.csv", tmp_path / "y.csv"
    for path, series in zip(paths, (xs, ys)):
        hio.save_series(path, series)
    return xs, ys, paths


def test_cli_lms_mask_matches_masked_steps(complex_file, tmp_path,
                                           complex7):
    xs, ys, (xs_path, ys_path) = lms_files(tmp_path, complex7, 12, 11)
    masks = np.random.default_rng(12).random((complex7.n1, 12)) < 0.6
    hio.save_matrix(tmp_path / "mask.csv", masks.astype(float))
    coeffs = tmp_path / "h.csv"
    assert run_cli(["lms", str(complex_file), "--input", str(xs_path),
                    "--observed", str(ys_path), "--t-down", "2",
                    "--t-up", "1", "--mu", "0.05",
                    "--mask", str(tmp_path / "mask.csv"),
                    "-o", str(tmp_path / "pred.csv"),
                    "--coeffs-output", str(coeffs)]) == 0
    masked = unmasked = lms_init(complex7, 2, 1, 0.05)
    for t, (x, y) in enumerate(zip(xs, ys)):
        masked, _ = lms_step(masked, x.x1, y.x1, mask=masks[:, t])
        unmasked, _ = lms_step(unmasked, x.x1, y.x1)
    hio.save_matrix(tmp_path / "want.csv", masked.coefficients[None, :])
    assert coeffs.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert not np.allclose(masked.coefficients, unmasked.coefficients)


@pytest.mark.parametrize("case, message", [
    ("mask", "mask must be 10 x 6, got (10, 5)"),
    ("steps", "input has 6 steps, observed 5"),
])
def test_cli_lms_rejects_mismatched_files(case, message, complex_file,
                                          tmp_path, complex7, capsys):
    xs, ys, (xs_path, ys_path) = lms_files(tmp_path, complex7, 6, 13)
    argv = ["lms", str(complex_file), "--input", str(xs_path), "--observed",
            str(ys_path), "--mu", "0.05", "-o", str(tmp_path / "pred.csv")]
    if case == "mask":
        hio.save_matrix(tmp_path / "mask.csv", np.ones((complex7.n1, 5)))
        argv += ["--mask", str(tmp_path / "mask.csv")]
    else:
        hio.save_series(ys_path, ys[:5])
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "pred.csv").exists()


def test_cli_infer_triangles(tmp_path, complex7, skeleton7):
    rng = np.random.default_rng(6)
    graph = tmp_path / "graph.json"
    hio.save_complex(graph, skeleton7)
    flows_path = tmp_path / "flows.csv"
    flows = complex7.b2.toarray() @ rng.standard_normal((3, 12)) \
        + 0.01 * rng.standard_normal((10, 12))
    hio.save_matrix(flows_path, flows)
    out = tmp_path / "tris.json"
    assert run_cli(["infer-triangles", str(graph), str(flows_path),
                    "--criterion", "curlfit", "--count", "3",
                    "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    got = sorted(tuple(v - 1 for v in t) for t in data["triangles"])
    assert got == sorted(complex7.triangles)
    assert len(data["scores"]) == 3


def test_cli_infer_triangles_rejects_negative_count(tmp_path, capsys,
                                                    skeleton7):
    graph = tmp_path / "graph.json"
    hio.save_complex(graph, skeleton7)
    flows_path = tmp_path / "flows.csv"
    hio.save_matrix(flows_path, np.ones((10, 2)))
    out = tmp_path / "tris.json"
    assert run_cli(["infer-triangles", str(graph), str(flows_path),
                    "--count", "-1", "-o", str(out)]) == 1
    assert "count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_full_determinism(complex_file, tmp_path, complex7):
    rng = np.random.default_rng(7)
    sig = tmp_path / "x.csv"
    hio.save_signal(sig, complex7.cochain(1, rng.standard_normal(10)))
    outs = []
    for name in ("a", "b"):
        spec_out = tmp_path / f"spec_{name}.csv"
        dec_out = tmp_path / f"dec_{name}.csv"
        assert run_cli(["spectrum", str(complex_file), "--order", "1",
                        "--seed", "9", "-o", str(spec_out)]) == 0
        assert run_cli(["decompose", str(complex_file), str(sig),
                        "--order", "1", "--seed", "9",
                        "-o", str(dec_out)]) == 0
        outs.append(spec_out.read_bytes() + dec_out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_tolerance_flag(complex_file, capsys, monkeypatch):
    # absurdly large tolerance collapses every eigenvalue to zero
    assert run_cli(["betti", str(complex_file), "--tolerance", "100"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "7 10 3"
    # a nonpositive tolerance is a domain error naming the parameter
    assert run_cli(["betti", str(complex_file), "--tolerance", "-1"]) == 1
    assert "tol" in capsys.readouterr().err
    monkeypatch.setenv("HODGESP_TOLERANCE", "0")
    assert run_cli(["betti", str(complex_file)]) == 1
    assert "tol" in capsys.readouterr().err
    monkeypatch.setenv("HODGESP_TOLERANCE", "abc")
    assert run_cli(["betti", str(complex_file)]) == 1
    assert "tol must be a number" in capsys.readouterr().err


CLI_ARGS = {
    "build": [],
    "betti": [],
    "spectrum": ["--order", "1", "-o", "out.csv"],
    "decompose": ["signal.csv", "-o", "out.csv"],
    "filter": ["signal.csv", "--spec", "spec.json", "-o", "out.csv"],
    "slepians": ["--edges", "0", "--freqs", "harm", "-o", "out.csv"],
    "dictionary": ["--specs", "specs.json", "-o", "out.csv"],
    "sample": ["--freqs", "harm", "-m", "1", "-o", "out.txt"],
    "reconstruct": ["--freqs", "harm", "--samples", "s.txt",
                    "--observed", "o.csv", "-o", "out.csv"],
    "forecast": ["model.json", "series.csv", "--steps", "1",
                 "-o", "out.csv"],
    "lms": ["--input", "in.csv", "--observed", "o.csv", "--mu", "0.1",
            "-o", "out.csv"],
    "infer-triangles": ["flows.csv", "--count", "1", "-o", "out.json"],
}


@pytest.mark.parametrize("command", sorted(CLI_ARGS))
def test_cli_rejects_bad_tolerance_for_every_subcommand(
        command, complex_file, capsys, monkeypatch):
    # Subcommands without spectral work used to ignore the tolerance and
    # exit 0; it is now checked before any input is read.
    argv = [command, str(complex_file)] + CLI_ARGS[command]
    assert run_cli(argv + ["--tolerance", "-1"]) == 1
    assert "tol must be finite and positive" in capsys.readouterr().err
    monkeypatch.setenv("HODGESP_TOLERANCE", "nan")
    assert run_cli(argv) == 1
    assert "tol must be finite and positive" in capsys.readouterr().err


# The argument surface of every subcommand, after the two options all of
# them share: its help, then (flags or positional name, default, required,
# help) of each argument, positionals first, each group in the order the
# help text lists it.
COMMON_OPTIONS = [
    ("--seed", 0, False, "seed for all randomness (default 0)"),
    ("--tolerance", None, False, "override the zero tolerance (default: "
                                 "scale-aware; env HODGESP_TOLERANCE)"),
]
OUTPUT = ("-o --output", None, True, None)
PARSER_SURFACE = {
    "build": ("validate a complex file", [
        ("complex", None, True, None)], [
        ("-o --output", None, False, "write the normalized complex back out"),
    ]),
    "betti": ("print the Betti numbers", [("complex", None, True, None)], []),
    "spectrum": ("typed frequency table", [("complex", None, True, None)], [
        ("--order", None, True, None),
        OUTPUT,
        ("--basis-output", None, False, "also export the basis matrix (CSV)"),
    ]),
    "decompose": ("gradient/curl/harmonic split of a signal", [
        ("complex", None, True, None), ("signal", None, True, None)], [
        ("--order", 1, False, None),
        OUTPUT,
    ]),
    "filter": ("apply a convolutional filter", [
        ("complex", None, True, None), ("signal", None, True, None)], [
        ("--order", 1, False, None),
        ("--spec", None, True, "filter spec JSON"),
        OUTPUT,
    ]),
    "slepians": ("concentrated bandlimited edge vectors", [
        ("complex", None, True, None)], [
        ("--edges", None, True,
         "comma-separated edge indices (concentration set)"),
        ("--freqs", None, True, "frequency selector: harm | grad:i..j | "
                                "curl:i..j | idx:a,b,c (join with +)"),
        ("-m --count", None, False, None),
        OUTPUT,
    ]),
    "dictionary": ("assemble a polynomial filter dictionary", [
        ("complex", None, True, None)], [
        ("--order", 1, False, None),
        ("--specs", None, True, "JSON list of filter specs"),
        OUTPUT,
    ]),
    "sample": ("greedy sampling-set selection", [
        ("complex", None, True, None)], [
        ("--order", 1, False, None),
        ("--freqs", None, True, None),
        ("-m --count", None, True, None),
        OUTPUT,
    ]),
    "reconstruct": ("bandlimited reconstruction from samples", [
        ("complex", None, True, None)], [
        ("--order", 1, False, None),
        ("--freqs", None, True, None),
        ("--samples", None, True, "index list file"),
        ("--observed", None, True,
         "CSV simplex_id,value for the sampled simplices"),
        OUTPUT,
    ]),
    "forecast": ("roll a model forward", [
        ("complex", None, True, None),
        ("model", None, True, "model JSON"),
        ("series", None, True, "history CSV t,level,simplex_id,value")], [
        ("--steps", None, True, None),
        ("--noise-std", "0,0,0", False,
         "per-level noise std, e.g. 0.1,0.1,0"),
        OUTPUT,
    ]),
    "lms": ("streaming LMS over edge flows", [
        ("complex", None, True, None)], [
        ("--input", None, True, "input flow series CSV"),
        ("--observed", None, True, "observed series CSV"),
        ("--t-down", 1, False, None),
        ("--t-up", 1, False, None),
        ("--mu", None, True, None),
        ("--mask", None, False, "0/1 matrix CSV, edges x T"),
        ("-o --output", None, True, "streamed predictions CSV"),
        ("--coeffs-output", None, False, None),
    ]),
    "infer-triangles": ("fill triangles explaining observed flows", [
        ("complex", None, True, "graph skeleton complex JSON"),
        ("flows", None, True, "edge-flow snapshots, matrix CSV")], [
        ("--criterion", "curlfit", False, None),
        ("--count", None, True, None),
        OUTPUT,
    ]),
}


def test_parser_surface_is_the_table():
    sub = cli._parser()._subparsers._group_actions[0]
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(sub.choices) == list(PARSER_SURFACE)
    for name, (help_, positionals, options) in PARSER_SURFACE.items():
        actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
        rows = {True: [], False: []}
        for a in actions:
            rows[bool(a.option_strings)].append(
                (" ".join(a.option_strings) or a.dest, a.default, a.required,
                 a.help))
        assert helps[name] == help_
        assert rows[False] == positionals, name
        assert rows[True] == COMMON_OPTIONS + options, name


def band_case(tmp_path):
    """A grid with a hole, a 5-edge sample set whose margin for the five
    lowest gradient frequencies lies between the default threshold and
    sqrt(1e-2), its file and its observed values' file."""
    c = triangulated_grid(8, [(2, 2)])
    comp = tmp_path / "grid.json"
    hio.save_complex(comp, c)
    samples = [43, 49, 81, 100, 133]
    (tmp_path / "s.txt").write_text("".join(f"{i}\n" for i in samples))
    (tmp_path / "obs.csv").write_text(
        "simplex_id,value\n" + "".join(f"{i},{0.1 * i}\n" for i in samples))
    return c, comp, samples


def test_cli_band_subcommands_pass_the_tolerance(tmp_path, capsys):
    c, comp, samples = band_case(tmp_path)
    freq = parse_frequency_selector(hodge_basis(c, 1), "grad:0..4")
    margin = is_perfectly_recoverable(c, 1, freq, samples).margin
    assert 1e-5 < margin < 1e-2 ** 0.5
    argv = ["reconstruct", str(comp), "--freqs", "grad:0..4",
            "--samples", str(tmp_path / "s.txt"),
            "--observed", str(tmp_path / "obs.csv"),
            "-o", str(tmp_path / "rec.csv")]
    assert run_cli(argv) == 0  # the default threshold: no warning
    with pytest.warns(RankDeficientWarning):
        reconstruct_bandlimited(c, 1, freq, samples, np.zeros(5), tol=1e-2)
    with pytest.warns(RankDeficientWarning):
        assert run_cli(argv + ["--tolerance", "1e-2"]) == 0
    out = tmp_path / "picks.txt"
    codes = []
    for tol in (None, 1e-6, 1e-2, 5e-2, 0.5):
        basis = hodge_basis(c, 1, tol)
        try:
            picks = select_samples(
                c, 1, parse_frequency_selector(basis, "grad:0..4"), 5,
                basis=basis, tol=tol)
            want = 0, "", picks
        except ValueError as exc:
            want = 1, f"error: {exc}\n", None
        code = run_cli(["sample", str(comp), "--freqs", "grad:0..4", "-m",
                        "5", "-o", str(out)]
                       + ([] if tol is None else ["--tolerance", repr(tol)]))
        got = code, capsys.readouterr().err, (
            None if code else tuple(int(v) for v in out.read_text().split()))
        assert got == want, tol
        codes.append(code)
    assert codes == [0, 0, 0, 1, 1]


# Each costs 0.07-0.13 s to import, which every CLI call would pay; the
# functions that need them import them.
LAZY_SCIPY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_import_leaves_scipy_submodules_unloaded():
    src = str(Path(hodgesp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, hodgesp, hodgesp.cli; "
            f"print([m for m in {LAZY_SCIPY!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
