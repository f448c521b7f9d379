"""Batch command-line interface.

Every subcommand reads flat files (JSON/CSV, formats documented in
:mod:`hodgesp.io`), writes flat files, and is deterministic given ``--seed``.
Exit codes: 0 success, 1 domain error (bad data, infeasible request),
2 usage error. ``--tolerance`` (or the HODGESP_TOLERANCE environment
variable) overrides the scale-aware zero threshold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from ._linalg import check_tolerance
from .complexes import betti
from .dictionaries import build_dictionary, slepians
from .filters import apply_filter
from .inference import infer_triangles
from .io import FileFormatError
from .sampling import (
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
)
from .spectral import frequency_table, hodge_basis, hodge_decompose
from .timeseries import (
    lms_build_regressor,
    lms_init,
    lms_step,
    scvar_simulate,
)

__all__ = ["run_cli", "main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the zero tolerance (default: "
                             "scale-aware; env HODGESP_TOLERANCE)")


def _tolerance(args) -> float | None:
    if args.tolerance is not None:
        return args.tolerance
    env = os.environ.get("HODGESP_TOLERANCE")
    if not env:
        return None
    try:
        return float(env)
    except ValueError:
        raise ValueError(f"tol must be a number, got HODGESP_TOLERANCE="
                         f"{env!r}") from None


def _parse_index_list(text: str, name: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"{name}: expected a comma-separated index list "
                         f"({exc})") from exc


def _read_index_file(path) -> list[int]:
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError as exc:
            raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _write_index_file(path, indices) -> None:
    Path(path).write_text("".join(f"{i}\n" for i in indices))


def _cmd_build(args) -> None:
    c = hio.load_complex(args.complex)
    print(f"{c.n0} {c.n1} {c.n2}")
    if args.output:
        hio.save_complex(args.output, c)


def _cmd_betti(args) -> None:
    c = hio.load_complex(args.complex)
    b = betti(c, tol=_tolerance(args))
    print(f"{b[0]} {b[1]} {b[2]}")


def _cmd_spectrum(args) -> None:
    c = hio.load_complex(args.complex)
    basis = hodge_basis(c, args.order, tol=_tolerance(args))
    hio._write_csv(args.output, "index,type,frequency", "%d,%s,%.17g",
                   *zip(*frequency_table(basis)))
    if args.basis_output:
        hio.save_matrix(args.basis_output, basis.matrix())


def _cmd_decompose(args) -> None:
    c = hio.load_complex(args.complex)
    x = hio.load_signal(args.signal, c, args.order)
    parts = hodge_decompose(c, x, tol=_tolerance(args))
    n = x.values.size
    hio._write_csv(args.output, "simplex_id,component,value", "%d,%s,%.17g",
                   np.tile(np.arange(n), 3),
                   ["gradient"] * n + ["curl"] * n + ["harmonic"] * n,
                   np.concatenate([parts.gradient.values, parts.curl.values,
                                   parts.harmonic.values]))


def _cmd_filter(args) -> None:
    c = hio.load_complex(args.complex)
    spec = hio.load_filter_spec(args.spec)
    x = hio.load_signal(args.signal, c, args.order)
    hio.save_signal(args.output, apply_filter(c, args.order, spec, x))


def _cmd_slepians(args) -> None:
    c = hio.load_complex(args.complex)
    basis = hodge_basis(c, 1, tol=_tolerance(args))
    freq = parse_frequency_selector(basis, args.freqs)
    edges = _parse_index_list(args.edges, "--edges")
    result = slepians(c, edges, freq, m=args.count, basis=basis)
    hio.save_matrix(args.output,
                    np.vstack([result.concentrations, result.vectors]))


def _cmd_dictionary(args) -> None:
    c = hio.load_complex(args.complex)
    specs = hio.load_filter_spec_list(args.specs)
    d = build_dictionary(c, args.order, specs)
    hio.save_matrix(args.output, d.atoms)


def _cmd_sample(args) -> None:
    c = hio.load_complex(args.complex)
    basis = hodge_basis(c, args.order, tol=_tolerance(args))
    freq = parse_frequency_selector(basis, args.freqs)
    chosen = select_samples(c, args.order, freq, args.count, basis=basis)
    _write_index_file(args.output, chosen)


def _cmd_reconstruct(args) -> None:
    c = hio.load_complex(args.complex)
    basis = hodge_basis(c, args.order, tol=_tolerance(args))
    freq = parse_frequency_selector(basis, args.freqs)
    samples = _read_index_file(args.samples)
    observed = _load_partial_signal(args.observed, samples)
    x = reconstruct_bandlimited(c, args.order, freq, samples, observed,
                                basis=basis)
    hio.save_signal(args.output, x)


def _load_partial_signal(path, sample_ids) -> list[float]:
    rows = hio._read_csv(path, hio._SIGNAL)
    values = dict(zip(rows["simplex_id"].tolist(), rows["value"].tolist()))
    missing = [i for i in sample_ids if i not in values]
    if missing:
        raise FileFormatError(f"{path}: missing values for sampled "
                              f"simplices {missing}")
    return [values[i] for i in sample_ids]


def _cmd_forecast(args) -> None:
    c = hio.load_complex(args.complex)
    model = hio.load_model(args.model, c)
    series = hio.load_series(args.series, c)
    if len(series) < model.order:
        raise ValueError(f"series has {len(series)} steps but the model "
                         f"needs {model.order}")
    noise = tuple(float(s) for s in args.noise_std.split(","))
    if len(noise) != 3:
        raise ValueError("--noise-std needs three comma-separated values")
    rng = np.random.default_rng(args.seed)
    out = scvar_simulate(model, args.steps, series, noise_std=noise, rng=rng)
    hio.save_series(args.output, out, start=len(series))


def _cmd_lms(args) -> None:
    c = hio.load_complex(args.complex)
    xs = hio.load_series(args.input, c)
    ys = hio.load_series(args.observed, c)
    if len(xs) != len(ys):
        raise ValueError(f"input has {len(xs)} steps, observed {len(ys)}")
    masks = None
    if args.mask:
        masks = hio.load_matrix(args.mask)
        if masks.shape != (c.n1, len(xs)):
            raise ValueError(f"mask must be {c.n1} x {len(xs)}, "
                             f"got {masks.shape}")
    state = lms_init(c, args.t_down, args.t_up, args.mu)
    errors, steps = [], []
    preds = np.empty((len(xs), c.n1))
    for t, (x, y) in enumerate(zip(xs, ys)):
        mask = None if masks is None else masks[:, t].astype(bool)
        prev = state
        state, err = lms_step(state, x.x1, y.x1, mask)
        if err is None:
            continue
        preds[len(steps)] = lms_build_regressor(
            c, state.window, args.t_down, args.t_up) @ prev.coefficients
        steps.append(t)
        errors.append(err)
    hio._write_csv(args.output, hio._SERIES_HEADER, "%d,1,%d,%.17g",
                   np.repeat(steps, c.n1), np.tile(np.arange(c.n1), len(steps)),
                   preds[:len(steps)].ravel())
    if args.coeffs_output:
        hio.save_matrix(args.coeffs_output, state.coefficients[None, :])
    tail = errors[-min(len(errors), 200):]
    if tail:
        print("mean_error %.17g" % float(np.mean(tail)))


def _cmd_infer_triangles(args) -> None:
    c = hio.load_complex(args.complex)
    flows = hio.load_matrix(args.flows)
    criterion = {"smooth": "min_smoothness",
                 "curlfit": "max_curl_fit"}[args.criterion]
    triangles, scores = infer_triangles(c, flows, args.count, criterion,
                                        tol=_tolerance(args))
    data = {
        "triangles": [[v + 1 for v in t] for t in triangles],
        "scores": scores,
    }
    Path(args.output).write_text(json.dumps(data, indent=1) + "\n")


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgesp",
        description="Signal processing on simplicial and cell complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = add("build", _cmd_build, help="validate a complex file")
    p.add_argument("complex")
    p.add_argument("-o", "--output", default=None,
                   help="write the normalized complex back out")

    p = add("betti", _cmd_betti, help="print the Betti numbers")
    p.add_argument("complex")

    p = add("spectrum", _cmd_spectrum, help="typed frequency table")
    p.add_argument("complex")
    p.add_argument("--order", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--basis-output", default=None,
                   help="also export the basis matrix (CSV)")

    p = add("decompose", _cmd_decompose,
            help="gradient/curl/harmonic split of a signal")
    p.add_argument("complex")
    p.add_argument("signal")
    p.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("-o", "--output", required=True)

    p = add("filter", _cmd_filter, help="apply a convolutional filter")
    p.add_argument("complex")
    p.add_argument("signal")
    p.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--spec", required=True, help="filter spec JSON")
    p.add_argument("-o", "--output", required=True)

    p = add("slepians", _cmd_slepians,
            help="concentrated bandlimited edge vectors")
    p.add_argument("complex")
    p.add_argument("--edges", required=True,
                   help="comma-separated edge indices (concentration set)")
    p.add_argument("--freqs", required=True,
                   help="frequency selector: harm | grad:i..j | curl:i..j "
                        "| idx:a,b,c (join with +)")
    p.add_argument("-m", "--count", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = add("dictionary", _cmd_dictionary,
            help="assemble a polynomial filter dictionary")
    p.add_argument("complex")
    p.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--specs", required=True,
                   help="JSON list of filter specs")
    p.add_argument("-o", "--output", required=True)

    p = add("sample", _cmd_sample, help="greedy sampling-set selection")
    p.add_argument("complex")
    p.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--freqs", required=True)
    p.add_argument("-m", "--count", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("reconstruct", _cmd_reconstruct,
            help="bandlimited reconstruction from samples")
    p.add_argument("complex")
    p.add_argument("--order", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--freqs", required=True)
    p.add_argument("--samples", required=True, help="index list file")
    p.add_argument("--observed", required=True,
                   help="CSV simplex_id,value for the sampled simplices")
    p.add_argument("-o", "--output", required=True)

    p = add("forecast", _cmd_forecast, help="roll a model forward")
    p.add_argument("complex")
    p.add_argument("model", help="model JSON")
    p.add_argument("series", help="history CSV t,level,simplex_id,value")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--noise-std", default="0,0,0",
                   help="per-level noise std, e.g. 0.1,0.1,0")
    p.add_argument("-o", "--output", required=True)

    p = add("lms", _cmd_lms, help="streaming LMS over edge flows")
    p.add_argument("complex")
    p.add_argument("--input", required=True, help="input flow series CSV")
    p.add_argument("--observed", required=True, help="observed series CSV")
    p.add_argument("--t-down", type=int, default=1)
    p.add_argument("--t-up", type=int, default=1)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--mask", default=None, help="0/1 matrix CSV, edges x T")
    p.add_argument("-o", "--output", required=True,
                   help="streamed predictions CSV")
    p.add_argument("--coeffs-output", default=None)

    p = add("infer-triangles", _cmd_infer_triangles,
            help="fill triangles explaining observed flows")
    p.add_argument("complex", help="graph skeleton complex JSON")
    p.add_argument("flows", help="edge-flow snapshots, matrix CSV")
    p.add_argument("--criterion", choices=("smooth", "curlfit"),
                   default="curlfit")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_tolerance(_tolerance(args))
        args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
