"""File round-trips, parse-error locations, and the batch CLI."""

import json

import numpy as np
import pytest

import hodgesp.io as hio
from hodgesp import (
    ComplexSignal,
    HarmonicTerm,
    HodgeFilterSpec,
    SCVarLag,
    SCVarModel,
    TopologyError,
)
from hodgesp.cli import run_cli

from conftest import EDGES7, TRIS7


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
