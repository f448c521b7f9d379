"""Batch command-line interface.

Every subcommand reads flat files (JSON/CSV, formats documented in
:mod:`hodgesp.io`), the complex file first, which :func:`run_cli` loads
once; it writes flat files and is deterministic given ``--seed``.
Exit codes: 0 success, 1 domain error (bad data, infeasible request),
2 usage error. ``--tolerance`` (or the HODGESP_TOLERANCE environment
variable) overrides the scale-aware zero threshold, and in ``sample``,
``reconstruct`` and ``slepians`` the recoverability threshold.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as hio
from ._util import check_tolerance
from .complexes import betti
from .dictionaries import build_dictionary, slepians
from .filters import apply_filter
from .inference import infer_triangles
from .sampling import (
    parse_frequency_selector,
    reconstruct_bandlimited,
    select_samples,
)
from .spectral import frequency_table, hodge_basis, hodge_decompose
from .timeseries import _lms_update, lms_init, scvar_simulate

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


def _parse_list(text: str, name: str, kind=int) -> list:
    try:
        return [kind(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"{name}: expected comma-separated {kind.__name__} "
                         f"values ({exc})") from exc


def _cmd_build(c, args) -> None:
    print(f"{c.n0} {c.n1} {c.n2}")
    if args.output:
        hio.save_complex(args.output, c)


def _cmd_betti(c, args) -> None:
    b = betti(c, tol=_tolerance(args))
    print(f"{b[0]} {b[1]} {b[2]}")


def _cmd_spectrum(c, args) -> None:
    basis = hodge_basis(c, args.order, tol=_tolerance(args))
    hio._save_spectrum(args.output, frequency_table(basis))
    if args.basis_output:
        hio.save_matrix(args.basis_output, basis.matrix())


def _cmd_decompose(c, args) -> None:
    x = hio.load_signal(args.signal, c, args.order)
    hio._save_components(args.output,
                         hodge_decompose(c, x, tol=_tolerance(args)))


def _cmd_filter(c, args) -> None:
    spec = hio.load_filter_spec(args.spec)
    x = hio.load_signal(args.signal, c, args.order)
    hio.save_signal(args.output, apply_filter(c, args.order, spec, x))


def _band(c, args, k: int):
    """The order-k basis and the ``--freqs`` frequency set of a band
    subcommand."""
    basis = hodge_basis(c, k, tol=_tolerance(args))
    return basis, parse_frequency_selector(basis, args.freqs)


def _cmd_slepians(c, args) -> None:
    basis, freq = _band(c, args, 1)
    edges = _parse_list(args.edges, "--edges")
    result = slepians(c, edges, freq, m=args.count, basis=basis,
                      tol=_tolerance(args))
    hio.save_matrix(args.output,
                    np.vstack([result.concentrations, result.vectors]))


def _cmd_dictionary(c, args) -> None:
    specs = hio.load_filter_spec_list(args.specs)
    d = build_dictionary(c, args.order, specs)
    hio.save_matrix(args.output, d.csc)


def _cmd_sample(c, args) -> None:
    basis, freq = _band(c, args, args.order)
    chosen = select_samples(c, args.order, freq, args.count, basis=basis,
                            tol=_tolerance(args))
    hio._save_indices(args.output, chosen)


def _cmd_reconstruct(c, args) -> None:
    basis, freq = _band(c, args, args.order)
    samples = hio._load_indices(args.samples)
    observed = hio._load_observed(args.observed, samples)
    x = reconstruct_bandlimited(c, args.order, freq, samples, observed,
                                basis=basis, tol=_tolerance(args))
    hio.save_signal(args.output, x)


def _cmd_forecast(c, args) -> None:
    model = hio.load_model(args.model, c)
    series = hio.load_series(args.series, c)
    noise = _parse_list(args.noise_std, "--noise-std", float)
    rng = np.random.default_rng(args.seed)
    out = scvar_simulate(model, args.steps, series, noise_std=noise, rng=rng)
    hio.save_series(args.output, out, start=len(series))


def _cmd_lms(c, args) -> None:
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
        state, err, pred = _lms_update(state, x.x1, y.x1, mask)
        if err is None:
            continue
        preds[len(steps)] = pred
        steps.append(t)
        errors.append(err)
    hio._save_predictions(args.output, steps, preds)
    if args.coeffs_output:
        hio.save_matrix(args.coeffs_output, state.coefficients[None, :])
    tail = errors[-min(len(errors), 200):]
    if tail:
        print("mean_error", hio._FLOAT % float(np.mean(tail)))


def _cmd_infer_triangles(c, args) -> None:
    flows = hio.load_matrix(args.flows)
    criterion = {"smooth": "min_smoothness",
                 "curlfit": "max_curl_fit"}[args.criterion]
    triangles, scores = infer_triangles(c, flows, args.count, criterion,
                                        tol=_tolerance(args))
    hio._save_triangles(args.output, triangles, scores)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    ``parse_args`` leaves it as it was, and building it takes longer than
    parsing with it."""
    parser = argparse.ArgumentParser(
        prog="hodgesp",
        description="Signal processing on simplicial and cell complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    required, order1 = {"required": True}, {"default": 1}
    freqs = ("--freqs", required)

    def add(name, func, help, *arguments, order=None, output=required,
            complex_help=None):
        """Declare subcommand ``name``: the common options, the complex
        file, ``--order`` with the keywords ``order`` if given, each
        argument (its flags, then a dict of keywords), and ``-o`` with the
        keywords ``output`` if given."""
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func)
        p.add_argument("complex", help=complex_help)
        if order is not None:
            p.add_argument("--order", type=int, choices=(0, 1, 2), **order)
        for *flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if output is not None:
            p.add_argument("-o", "--output", **output)
        return p

    add("build", _cmd_build, "validate a complex file",
        output={"help": "write the normalized complex back out"})
    add("betti", _cmd_betti, "print the Betti numbers", output=None)
    add("spectrum", _cmd_spectrum, "typed frequency table",
        order=required).add_argument(
            "--basis-output", help="also export the basis matrix (CSV)")
    add("decompose", _cmd_decompose,
        "gradient/curl/harmonic split of a signal", ("signal", {}),
        order=order1)
    add("filter", _cmd_filter, "apply a convolutional filter",
        ("signal", {}), ("--spec", {**required, "help": "filter spec JSON"}),
        order=order1)
    add("slepians", _cmd_slepians, "concentrated bandlimited edge vectors",
        ("--edges", {**required, "help": "comma-separated edge indices "
                                         "(concentration set)"}),
        ("--freqs", {**required,
                     "help": "frequency selector: harm | grad:i..j | "
                             "curl:i..j | idx:a,b,c (join with +)"}),
        ("-m", "--count", {"type": int}))
    add("dictionary", _cmd_dictionary,
        "assemble a polynomial filter dictionary",
        ("--specs", {**required, "help": "JSON list of filter specs"}),
        order=order1)
    add("sample", _cmd_sample, "greedy sampling-set selection", freqs,
        ("-m", "--count", {"type": int, **required}), order=order1)
    add("reconstruct", _cmd_reconstruct,
        "bandlimited reconstruction from samples", freqs,
        ("--samples", {**required, "help": "index list file"}),
        ("--observed", {**required, "help": "CSV simplex_id,value for the "
                                            "sampled simplices"}),
        order=order1)
    add("forecast", _cmd_forecast, "roll a model forward",
        ("model", {"help": "model JSON"}),
        ("series", {"help": "history CSV t,level,simplex_id,value"}),
        ("--steps", {"type": int, **required}),
        ("--noise-std", {"default": "0,0,0",
                         "help": "per-level noise std, e.g. 0.1,0.1,0"}))
    add("lms", _cmd_lms, "streaming LMS over edge flows",
        ("--input", {**required, "help": "input flow series CSV"}),
        ("--observed", {**required, "help": "observed series CSV"}),
        ("--t-down", {"type": int, "default": 1}),
        ("--t-up", {"type": int, "default": 1}),
        ("--mu", {"type": float, **required}),
        ("--mask", {"help": "0/1 matrix CSV, edges x T"}),
        output={**required, "help": "streamed predictions CSV"}
        ).add_argument("--coeffs-output")
    add("infer-triangles", _cmd_infer_triangles,
        "fill triangles explaining observed flows",
        ("flows", {"help": "edge-flow snapshots, matrix CSV"}),
        ("--criterion", {"choices": ("smooth", "curlfit"),
                         "default": "curlfit"}),
        ("--count", {"type": int, **required}),
        complex_help="graph skeleton complex JSON")
    return parser


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_tolerance(_tolerance(args))
        args.func(hio.load_complex(args.complex), args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
