"""File round-trips, parse-error locations, and the batch CLI."""

import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgesp.io as hio
from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    SCVarLag,
    SCVarModel,
    TopologyError,
    frequency_table,
    hodge_basis,
    hodge_decompose,
    lms_build_regressor,
    lms_init,
    lms_step,
)
from hodgesp.cli import run_cli

from conftest import EDGES7, TRIS7, random_complex


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
    hio.save_matrix(path, mat)
    assert same_bits(hio.load_matrix(path), mat)

    width = c.n0 + c.n1 + c.n2
    series = [ComplexSignal.from_stacked(c, draw(width))
              for _ in range(data.draw(st.integers(1, 3)))]
    hio.save_series(path, series)
    back = hio.load_series(path, c)
    assert len(back) == len(series)
    for a, b in zip(series, back):
        assert same_bits(b.stacked(), a.stacked())


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


def test_cli_slepians_and_dictionary(complex_file, tmp_path):
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
    assert run_cli(["dictionary", str(complex_file), "--order", "1",
                    "--specs", str(specs), "-o", str(atoms)]) == 0
    assert hio.load_matrix(atoms).shape == (10, 20)


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
