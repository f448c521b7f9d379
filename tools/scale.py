"""Size sweep of the hodgesp layers, and the Tier-1 test wall time.

Usage (from the repository root):

    python3 tools/scale.py            # writes BENCH_scale.json
    python3 tools/scale.py -o out.json
    python3 tools/scale.py --layer lms_step_T1 --layer scvar_step \
        --sizes complex7 20           # named layers only, JSON to stdout

It takes about 3 minutes and peaks near 850 MB of resident memory, in
the dense layers at m = 40 (dense_blocks and decompose_tol_d, and the
incidence SVDs that dirac_basis, dirac_tft and tft_itft set up untimed).

Each layer is timed cold, on a fresh copy of the complex with nothing
cached, in one process with the BLAS thread count pinned to 1; sizes up to
m = 20 keep the best of three runs, larger ones run once. The complexes are
the 7-vertex reference complex and ``perfbench.inputs.hole_grid(m, m // 7)``
with seed 1 (an m x m triangulated grid with 2 (m // 7)^2 holes). A second
pass on fresh copies records each layer's tracemalloc peak, which counts
numpy and Python allocations but not those inside LAPACK or SuperLU.

Layers (order-1 bases; the band is ``grad:0..9+curl:0..9``, clipped to the
block widths):

    betti, hodge_decompose     the exact sparse topology core
    betti_tol                  betti under tol = 1e-8, from the values-only
                               spectra
    decompose_tol              hodge_decompose under tol = 1e-8, which
                               counts no nonzero singular value as zero
    decompose_tol_d            hodge_decompose under tol = 0.05, which
                               drops some, so it reads the incidence SVDs
    hodge_basis                the lazy basis: the block widths
    frequency_table            hodge_basis and its frequency table, as the
                               spectrum subcommand computes them
    dense_blocks               its gradient and curl blocks (Gram eigh)
    harmonic                   its harmonic block, from the sparse core
    dirac_basis                with the incidence SVDs already cached
    dirac_tft                  dirac_tft and dirac_itft of one signal, the
                               Dirac basis already built
    band_columns               basis.columns of the band
    select_samples             |F| + 10 picks, band columns cached
    reconstruct_bandlimited    from those picks, band columns cached
    slepians                   on every 7th edge, band columns cached
    build_dictionary           two polynomial filters
    dictionary_csv             save_matrix of those atoms to a temporary file
    l2_reconstruct             a quadratic regularized_reconstruct (alpha =
                               beta = 0.5, 70% of the edges observed),
                               factor included
    scvar_build                one scvar_predict of the order-2 model of the
                               stream benchmark workload, which compiles
                               the model operator

Streaming layers are timed warm, in microseconds per step: the mean over
200 steps after the state or model has run once, the median of seven
runs, with their quartiles beside it.

    lms_step_T1, lms_step_T3   lms_step at t_down = t_up = 1 and 3
    lms_regressor_T1, _T3      the regressor of a window of T + 1 flows at
                               the orders of lms_step_T1 or _T3, built
                               from the state's step plan: T + 1 steps
                               from zeros, one product each
    scvar_step                 one scvar_simulate step of the order-2
                               model of the stream benchmark workload

Warm per-call layers are timed in microseconds per call: the mean over
64 calls after one call has filled the caches, the median of seven runs,
with their quartiles beside it. Each runs 64 signals, as the
many-signals benchmark workload does. On a shared host the best of three
such runs moved by up to 1.8x between consecutive sweeps of unchanged
code; a median and its quartiles show how far a reading can be trusted.

    l2_reconstruct             flows through the mask and weights above
    tft_itft                   tft then itft of flows on the order-1 basis
    reconstruct_bandlimited    band signals from their values on the
                               select_samples picks of the band above

Tier-1 runs ``python -m pytest -q`` from the repository root in a
subprocess; its wall time, summary line and five slowest tests are kept.

With ``--layer NAME`` (repeatable) only the named layers run, on the
``--sizes`` given (default all), and the result goes to stdout as JSON:
per size and layer its unit and the median with its quartiles. A
streaming or warm layer is timed as in the sweep (l2_reconstruct and
reconstruct_bandlimited warm); a cold layer is timed on seven fresh
complexes. No BENCH_scale.json and no Tier-1 run. This is
what ``tools/ab.py --scale-layer`` runs on each side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hodgesp as hs  # noqa: E402
import hodgesp.io as hio  # noqa: E402
import inputs as gen  # noqa: E402
from hodgesp.complexes import _incidence_svd  # noqa: E402

EDGES7 = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
          (1, 2), (1, 3), (2, 6), (4, 5)]
TRIS7 = [(0, 1, 2), (0, 1, 3), (0, 4, 5)]
SPECS = (hs.HodgeFilterSpec(h_down=(1.0, 0.2), h_up=(0.0, 0.2)),
         hs.HodgeFilterSpec(h_down=(0.0, 1.0), h_up=(0.0, 0.0, 0.1)))


def complex_arrays(size: str):
    if size == "complex7":
        return 7, EDGES7, TRIS7
    m = int(size)
    cx = gen.hole_grid(m, m // 7, np.random.default_rng(1))
    return cx.n0, cx.edges, cx.triangles


def band(basis) -> str:
    return (f"grad:0..{min(9, basis.n_gradient - 1)}"
            f"+curl:0..{min(9, basis.n_curl - 1)}")


ALPHA = BETA = 0.5  # the l2 reconstruction's weights, as in many-signals
LAYER_TOL = {"hodge_decompose": None, "decompose_tol": 1e-8,
             "decompose_tol_d": 0.05}


def l2_inputs(c, count: int = 1):
    """A mask that observes 70% of the edges and ``count`` flows."""
    rng = np.random.default_rng(0)
    mask = gen.mask(c.n1, rng)
    return mask, [c.cochain(1, rng.standard_normal(c.n1))
                  for _ in range(count)]


def prepare(c, layer: str, work: Path):
    """Everything ``layer`` needs on the fresh complex ``c`` but does not
    time; returns the call to time, which may write files under ``work``."""
    if layer == "betti":
        return lambda: hs.betti(c)
    if layer == "betti_tol":
        return lambda: hs.betti(c, 1e-8)
    if layer in LAYER_TOL:
        x = c.cochain(1, np.random.default_rng(0).standard_normal(c.n1))
        return lambda: hs.hodge_decompose(c, x, LAYER_TOL[layer])
    if layer == "hodge_basis":
        return lambda: hs.hodge_basis(c, 1)
    if layer == "frequency_table":
        return lambda: hs.frequency_table(hs.hodge_basis(c, 1))
    if layer == "build_dictionary":
        return lambda: hs.build_dictionary(c, 1, SPECS)
    if layer == "dictionary_csv":
        atoms = hs.build_dictionary(c, 1, SPECS).csc
        return lambda: hio.save_matrix(work / "atoms.csv", atoms)
    if layer == "l2_reconstruct":
        mask, (f,) = l2_inputs(c)
        return lambda: hs.regularized_reconstruct(c, f, mask, ALPHA, BETA)
    if layer == "scvar_build":
        model, initial = scvar_inputs(c, np.random.default_rng(0))
        return lambda: hs.scvar_predict(model, initial)
    if layer == "dirac_basis":
        _incidence_svd(c, 1), _incidence_svd(c, 2)
        return lambda: hs.dirac_basis(c)
    if layer == "dirac_tft":
        basis = hs.dirac_basis(c)
        rng = np.random.default_rng(0)
        x = hs.ComplexSignal.from_arrays(
            c, *(rng.standard_normal(c.num_simplices(k)) for k in range(3)))
        return lambda: hs.dirac_itft(c, hs.dirac_tft(c, x, basis), basis)
    basis = hs.hodge_basis(c, 1)
    if layer == "dense_blocks":
        return lambda: (basis.gradient, basis.curl)
    if layer == "harmonic":
        return lambda: basis.harmonic
    freq = hs.parse_frequency_selector(basis, band(basis))
    if layer == "band_columns":
        return lambda: basis.columns(freq)
    basis.columns(freq)
    count = min(c.n1, len(freq) + 10)
    if layer == "select_samples":
        return lambda: hs.select_samples(c, 1, freq, count, basis=basis)
    if layer == "reconstruct_bandlimited":
        picks = hs.select_samples(c, 1, freq, count, basis=basis)
        x = basis.columns(freq) @ np.linspace(1.0, 2.0, len(freq))
        return lambda: hs.reconstruct_bandlimited(
            c, 1, freq, picks, x[list(picks)], basis=basis)
    if layer == "slepians":
        return lambda: hs.slepians(c, range(0, c.n1, 7), freq, basis=basis)
    raise ValueError(f"unknown layer {layer!r}")


def scvar_inputs(c, rng):
    """The order-2 model of the stream benchmark workload on ``c`` and
    that many random signals to start from."""
    lags = tuple(hs.SCVarLag(**{
        name: hs.HodgeFilterSpec(spec["h_down"], spec["h_up"])
        for name, spec in lag.items()}) for lag in gen.scvar_model())
    model = hs.SCVarModel(complex=c, lags=lags)
    return model, [hs.ComplexSignal.from_arrays(
        c, *(rng.standard_normal(c.num_simplices(k)) for k in range(3)))
        for _ in range(model.order)]


STEPS = 200


def stream_call(c, layer: str):
    """A stream on ``c`` that has run once, and the call that runs STEPS
    more steps of ``layer``."""
    rng = np.random.default_rng(0)
    if layer == "scvar_step":
        model, initial = scvar_inputs(c, rng)
        hs.scvar_simulate(model, 1, initial)
        return lambda: hs.scvar_simulate(model, STEPS, initial)
    order = int(layer[-1])
    flows = [c.cochain(1, rng.standard_normal(c.n1))
             for _ in range(order + 1 + STEPS)]
    if layer.startswith("lms_regressor"):
        # imported here, so that the other layers also run on a revision
        # of hodgesp without step plans
        from hodgesp.timeseries import _make_plan, _regressor

        plan, window = _make_plan(c, order, order), flows[:order + 1]
        _regressor(plan, window)

        def call():
            for _ in range(STEPS):
                _regressor(plan, window)
        return call
    # a step size far below the stability bound keeps every size finite
    state = hs.lms_init(c, order, order, 1e-12)
    for x in flows[:order + 1]:
        state, _ = hs.lms_step(state, x, x)

    def call():
        s = state
        for x in flows[order + 1:]:
            s, _ = hs.lms_step(s, x, x)
    return call


CALLS = 64


def l2_warm_call(c):
    """The call that runs CALLS l2 reconstructions on ``c`` through one
    mask, after one call has built the factor."""
    mask, flows = l2_inputs(c, CALLS)
    hs.regularized_reconstruct(c, flows[0], mask, ALPHA, BETA)

    def call():
        for f in flows:
            hs.regularized_reconstruct(c, f, mask, ALPHA, BETA)
    return call


def tft_warm_call(c):
    """The call that runs CALLS tft and itft pairs on the order-1 basis of
    ``c``, after one pair has built what the basis caches."""
    basis = hs.hodge_basis(c, 1)
    rng = np.random.default_rng(0)
    flows = [c.cochain(1, rng.standard_normal(c.n1)) for _ in range(CALLS)]
    hs.itft(basis, hs.tft(basis, flows[0]))

    def call():
        for x in flows:
            hs.itft(basis, hs.tft(basis, x))
    return call


def bandlimited_warm_call(c):
    """The call that runs CALLS reconstructions of band signals from the
    picks of ``prepare``'s select_samples layer, after one call has cached
    the fit."""
    basis = hs.hodge_basis(c, 1)
    freq = hs.parse_frequency_selector(basis, band(basis))
    picks = hs.select_samples(c, 1, freq, min(c.n1, len(freq) + 10),
                              basis=basis)
    signals = basis.columns(freq) @ np.random.default_rng(0).standard_normal(
        (len(freq), CALLS))
    observed = list(signals[list(picks)].T)
    hs.reconstruct_bandlimited(c, 1, freq, picks, observed[0], basis=basis)

    def call():
        for values in observed:
            hs.reconstruct_bandlimited(c, 1, freq, picks, values, basis=basis)
    return call


WARM_LAYERS = {"l2_reconstruct": l2_warm_call, "tft_itft": tft_warm_call,
               "reconstruct_bandlimited": bandlimited_warm_call}


SIZES = ("complex7", "10", "20", "30", "40")
LAYERS = ("betti", "betti_tol", "hodge_decompose", "decompose_tol",
          "decompose_tol_d", "hodge_basis", "frequency_table",
          "dense_blocks", "harmonic", "dirac_basis", "dirac_tft",
          "band_columns", "select_samples", "reconstruct_bandlimited",
          "slepians", "build_dictionary", "dictionary_csv", "l2_reconstruct",
          "scvar_build")
STREAM_LAYERS = ("lms_step_T1", "lms_step_T3", "lms_regressor_T1",
                 "lms_regressor_T3", "scvar_step")


REPEATS = 7


def quartiles(call) -> np.ndarray:
    """The first quartile, median and third quartile of REPEATS timed
    runs of ``call``, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return np.percentile(times, [25, 50, 75])


def timed(arrays, layer: str, work: Path) -> tuple[str, list[float]]:
    """The unit and [first quartile, median, third quartile] of ``layer``
    on the complex built from ``arrays``: a streaming or warm layer per
    step or call in microseconds, a cold one over REPEATS fresh complexes
    in seconds."""
    if layer in STREAM_LAYERS or layer in WARM_LAYERS:
        c = hs.build_complex(*arrays)
        if layer in STREAM_LAYERS:
            count, call = STEPS, stream_call(c, layer)
        else:
            count, call = CALLS, WARM_LAYERS[layer](c)
        return "us", [round(t / count * 1e6, 2) for t in quartiles(call)]
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}")
    times = []
    for _ in range(REPEATS):
        call = prepare(hs.build_complex(*arrays), layer, work)
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return "s", [round(t, 6) for t in np.percentile(times, [25, 50, 75])]


def sweep(size: str, work: Path) -> dict:
    n0, edges, triangles = complex_arrays(size)
    c = hs.build_complex(n0, edges, triangles)
    repeats = 3 if c.n1 < 1500 else 1
    cold, peak = {}, {}
    for layer in LAYERS:
        best = np.inf
        for _ in range(repeats):
            call = prepare(hs.build_complex(n0, edges, triangles), layer,
                           work)
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        call = prepare(hs.build_complex(n0, edges, triangles), layer, work)
        tracemalloc.start()
        call()
        peak[layer] = round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
        tracemalloc.stop()
        cold[layer] = round(best, 5)
        print(f"{size:>8} {layer:>24} {best:9.4f} s {peak[layer]:9.3f} MB",
              file=sys.stderr)
    warm = {"step_us": {}, "step_us_quartiles": {}, "warm_us": {},
            "warm_us_quartiles": {}}
    for layer in STREAM_LAYERS + tuple(WARM_LAYERS):
        _, (q1, median, q3) = timed((n0, edges, triangles), layer, work)
        key = "step_us" if layer in STREAM_LAYERS else "warm_us"
        warm[key][layer] = median
        warm[key + "_quartiles"][layer] = [q1, q3]
        print(f"{size:>8} {layer:>24} {median:9.2f} [{q1:.2f}, {q3:.2f}]"
              f" {key}", file=sys.stderr)
    return {"n": [c.n0, c.n1, c.n2], "betti": list(hs.betti(c)),
            "band": band(hs.hodge_basis(c, 1)), "repeats": repeats,
            "cold_s": cold, "peak_mb": peak, **warm}


def tier1() -> dict:
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "-p", "no:cacheprovider", "--durations=5"],
                         cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = run.stdout.splitlines()
    slowest = [{"seconds": float(m.group(1)), "test": m.group(2)}
               for m in (re.match(r"\s*([\d.]+)s \w+\s+(\S+)", line)
                         for line in lines) if m]
    summary = next((line.strip("= ") for line in reversed(lines)
                    if " in " in line and ("passed" in line
                                           or "failed" in line)), "")
    return {"wall_s": round(wall, 2), "exit_code": run.returncode,
            "summary": summary, "slowest": slowest[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", default=str(ROOT /
                                                      "BENCH_scale.json"))
    parser.add_argument("--layer", action="append",
                        choices=LAYERS + STREAM_LAYERS + tuple(WARM_LAYERS),
                        help="time only this layer (repeatable); prints "
                             "JSON and writes no file")
    parser.add_argument("--sizes", nargs="+", choices=SIZES, default=SIZES,
                        help="the sizes of --layer (default all)")
    args = parser.parse_args(argv)
    if args.layer:
        with tempfile.TemporaryDirectory() as work:
            result = {}
            for size in args.sizes:
                arrays = complex_arrays(size)
                for layer in args.layer:
                    unit, (q1, median, q3) = timed(arrays, layer, Path(work))
                    result.setdefault(size, {})[layer] = {
                        "unit": unit, "median": median, "quartiles": [q1, q3]}
        print(json.dumps(result))
        return 0
    with tempfile.TemporaryDirectory() as work:
        sizes = {size: sweep(size, Path(work)) for size in SIZES}
    result = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1,
        },
        "sizes": sizes,
        "tier1": tier1(),
    }
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
