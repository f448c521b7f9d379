"""In-memory span tracer for the traced benchmark run.

install() wraps the public functions of every hodgesp module, everywhere
they are bound (the package namespace and each module that imports them,
so calls between modules are seen too), plus the numpy.linalg entry
points hodgesp calls. Spans are recorded only inside a root span opened
with Tracer.root(), and numpy.linalg spans only when a hodgesp span is open,
so the benchmark's own checks stay out of the trace. Each span keeps its
name, start, end and parent; self time is the duration minus the time its
children cover. Nothing is recorded when the tracer is not installed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("complexes", "spectral", "filters", "dictionaries", "sampling",
          "timeseries", "inference", "io", "cli")
ROOT = "bench.job"


def svd_flops(shape, full_matrices: bool, compute_uv: bool) -> float:
    """Golub-Van Loan operation counts for an SVD of an m x n matrix."""
    big, small = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        return 4.0 * big * small**2 - 4.0 * small**3 / 3.0
    if full_matrices:
        return 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
    return 14.0 * big * small**2 + 8.0 * small**3


def calibrate(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to a call: a wrapped and a bare no-op
    timed inside a root span of a scratch tracer, best of three."""
    def noop(*args, **kwargs):
        return None

    best = float("inf")
    for _ in range(3):
        scratch = Tracer()
        wrapped = scratch._span(noop, lambda args, kwargs: "noop")
        with scratch.root():
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            t1 = time.perf_counter()
            for _ in range(calls):
                noop(1, 2)
            t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapper_calls = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self):
        """Open the root span of one job; spans are recorded inside it."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def _span(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            tracer.wrapper_calls += 1
            idx = tracer._open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def _io_span(self, fn, name):
        tracer = self
        loading = fn.__name__.startswith("load_")

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if not tracer.stack:
                return fn(path, *args, **kwargs)
            tracer.wrapper_calls += 1
            idx = tracer._open(name)
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer._close(idx)
                key = "io.bytes_read" if loading else "io.bytes_written"
                tracer.counters[key] += os.path.getsize(path)
        return wrapper

    def _lapack_span(self, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            tracer.wrapper_calls += 1
            name = kind
            if kind == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                a = args[0]
                if not (ord_ == 2 and np.ndim(a) == 2
                        and kwargs.get("axis") is None):
                    return fn(*args, **kwargs)
                name = "svd"  # the matrix 2-norm is a singular-value solve
            if tracer.names[tracer.stack[-1]] == ROOT:
                return fn(*args, **kwargs)
            if name == "svd":
                a = args[0]
                if kind == "norm":
                    full, uv = False, False
                else:
                    full = kwargs.get("full_matrices",
                                      args[1] if len(args) > 1 else True)
                    uv = kwargs.get("compute_uv",
                                    args[2] if len(args) > 2 else True)
                tracer.counters["lapack.svd.flop"] += svd_flops(
                    np.shape(a), full, uv)
            idx = tracer._open("lapack." + name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    # --- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import hodgesp.cli  # noqa: F401  (loads every module, io included)

        mods = [sys.modules[name] for name in list(sys.modules)
                if name == "hodgesp" or name.startswith("hodgesp.")]
        for layer in LAYERS:
            module = sys.modules[f"hodgesp.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type) \
                        or getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapped = self._wrap_public(layer, attr, fn)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapped)
        for kind in ("svd", "lstsq", "eigh", "norm"):
            self._patch(np.linalg, kind,
                        self._lapack_span(getattr(np.linalg, kind), kind))

    def _wrap_public(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if layer == "io" and attr.startswith(("load_", "save_")):
            return self._io_span(fn, name)
        if attr == "regularized_reconstruct":
            def name_of(args, kwargs):
                p = kwargs.get("p", args[5] if len(args) > 5 else 2)
                q = kwargs.get("q", args[6] if len(args) > 6 else 2)
                return name + ("_l2" if p == 2 and q == 2 else "_l1")
            return self._span(fn, name_of)
        return self._span(fn, lambda args, kwargs: name)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # --- summaries ------------------------------------------------------

    def summary(self):
        """Per-name totals: calls, inclusive seconds, self seconds."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            incl[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return calls, incl, self_s

    def write(self, path: Path) -> None:
        """Spans as a compact JSON: a name table and [name, parent, start,
        end] rows with times in ns from the first span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[name], p, round((s - t0) * 1e9), round((e - t0) * 1e9)]
                for name, p, s, e in zip(self.names, self.parents,
                                         self.starts, self.ends)]
        path.write_text(json.dumps({"names": table, "spans": rows},
                                   separators=(",", ":")))


# (metric, unit, statistic): the spans are those named by the metric minus
# its last part, except where SPANS says otherwise. "total", "self" and
# "calls" are per job; "mean" is the inclusive time of one call.
PER_LAYER = (
    ("spectral.hodge_basis.s", "s", "total"),
    ("spectral.hodge_basis.calls", "count", "calls"),
    ("spectral.dirac_basis.self_s", "s", "self"),
    ("spectral.hodge_decompose.s", "s", "total"),
    ("spectral.tft_itft.us", "us", "mean"),
    ("complexes.betti.s", "s", "total"),
    ("complexes.build_complex.s", "s", "total"),
    ("lapack.svd.calls", "count", "calls"),
    ("lapack.svd.s", "s", "total"),
    ("lapack.lstsq.calls", "count", "calls"),
    ("lapack.lstsq.s", "s", "total"),
    ("lapack.eigh.calls", "count", "calls"),
    ("filters.regularized_reconstruct_l2.s", "s", "total"),
    ("filters.regularized_reconstruct_l1.s", "s", "total"),
    ("filters.lambda_max.s", "s", "total"),
    ("filters.apply_filter.us", "us", "mean"),
    ("filters.dirac_filter.us", "us", "mean"),
    ("sampling.reconstruct_bandlimited.ms", "ms", "mean"),
    ("dictionaries.sparse_code.ms", "ms", "mean"),
    ("sampling.select_samples.s", "s", "total"),
    ("dictionaries.slepians.s", "s", "total"),
    ("dictionaries.build_dictionary.s", "s", "total"),
    ("inference.infer_triangles.s", "s", "total"),
    ("timeseries.lms_step.us", "us", "mean"),
    ("timeseries.lms_build_regressor.us", "us", "mean"),
    ("timeseries.scvar_predict.ms", "ms", "mean"),
    ("timeseries.scvar_fit.s", "s", "total"),
    ("io.load_complex.s", "s", "total"),
    ("io.load_series.s", "s", "total"),
    ("io.save_series.s", "s", "total"),
    ("io.save_signal.s", "s", "total"),
    ("cli.calls", "count", "calls"),
)
SPANS = {"spectral.tft_itft.us": ("spectral.tft", "spectral.itft"),
         "cli.calls": ("cli.run_cli",)}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "count": 1.0}


def layer_metrics(tracer: Tracer, jobs: int, per_call_s: float) -> dict:
    """Per-layer metrics of a traced run of `jobs` jobs. The self times of
    the layers plus bench.self_s (the benchmark's own glue) add up to
    trace.job_s; trace.overhead_frac is the share of that time the
    wrappers themselves took, from their calibrated per-call cost."""
    calls, incl, self_s = tracer.summary()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name, unit, stat in PER_LAYER:
        spans = SPANS.get(name, (name.rsplit(".", 1)[0],))
        n = sum(calls.get(s, 0) for s in spans)
        if stat == "calls":
            value = n / jobs
        elif stat == "mean":
            value = sum(incl.get(s, 0.0) for s in spans) / n if n else 0.0
        else:
            table = incl if stat == "total" else self_s
            value = sum(table.get(s, 0.0) for s in spans) / jobs
        put(name, value * SCALE[unit], unit)
    put("lapack.svd.gflop_computed",
        tracer.counters["lapack.svd.flop"] / 1e9 / jobs, "GFLOP")
    put("io.bytes_read", tracer.counters["io.bytes_read"] / jobs, "B")
    put("io.bytes_written", tracer.counters["io.bytes_written"] / jobs, "B")
    for layer in LAYERS + ("lapack",):
        put(f"{layer}.self_s", sum(v for k, v in self_s.items()
                                   if k.startswith(layer + ".")) / jobs, "s")
    put("bench.self_s", self_s.get(ROOT, 0.0) / jobs, "s")
    traced = incl.get(ROOT, 0.0)
    put("trace.job_s", traced / jobs, "s")
    put("trace.overhead_frac",
        tracer.wrapper_calls * per_call_s / traced if traced else 0.0, "frac")
    return out
