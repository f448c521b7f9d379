"""The benchmark workloads: set-up, one closed-loop job, and its checks.

Each workload is a class with
  setup(work_dir, seed)  -> generate inputs, write files, warm up; untimed
                             by the job clock but timed as set-up;
  job(log)               -> one job; returns step latencies in seconds;
  check(log, first)      -> check the outputs of the job just run;
  extras(job_s, best_ops, best_steps_us) -> workload-specific metrics;
  sizes()                -> array sizes for the report.
Jobs of one run use the same inputs, so every CLI output of a job must be
byte-identical to the first job's; that is the determinism check.

grid-oneshot   one cold analysis job on a 20x20 grid with 36 unfilled
               squares, every subcommand reloading the complex from file.
many-signals   64 planted flows through the per-signal calls on one
               16x16 grid loaded once.
stream         LMS streams on complex7, SCVAR simulation and fitting on a
               12x12 grid, and the forecast and lms subcommands on 300-step
               series files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs as gen
from checks import close_to

import hodgesp as hs
import hodgesp.io as hio

# Weights of the divergence and curl penalties of regularized_reconstruct.
ALPHA = BETA = 0.5
# Noise of the SCVAR series and length of the series files of stream.
SIGMA = 0.1
SERIES_STEPS = 300

DICT_SPECS = [{"h_down": [1.0, 0.1], "h_up": [0.5, 0.1, 0.01],
               "harmonic": None}]


def warm_up() -> None:
    """First dense LAPACK call of the process: Betti numbers of a 10x10
    grid."""
    cx = gen.hole_grid(10, 2, np.random.default_rng(0))
    hs.betti(hs.build_complex(cx.n0, cx.edges, cx.triangles))


def _hodge_parts_ok(log, op, parts, truth, flow) -> None:
    """The parts are mutually orthogonal, sum to the flow, and each is
    within 1e-8 ||flow|| of the planted one."""
    scale = max(1.0, float(np.linalg.norm(flow)))
    for name, got, want in zip(("gradient", "curl", "harmonic"), parts, truth):
        log.check(op, close_to(got, want, 1e-8, scale),
                  f"{name} part differs from the planted")
    if all(np.shape(p) == np.shape(flow) for p in parts):
        g, c, h = parts
        log.check(op, max(abs(g @ c), abs(g @ h), abs(c @ h))
                  <= 1e-8 * scale**2, "parts are not orthogonal")
        log.check(op, close_to(g + c + h, flow, 1e-10, scale),
                  "parts do not sum to the flow")


# --- grid-oneshot ------------------------------------------------------------

@dataclass(frozen=True)
class GridSize:
    m: int = 20
    holes: int = 6
    planted: int = 5
    snapshots: int = 20
    band: tuple[int, int] = (10, 10)
    extra_samples: int = 4
    slepian_edges: int = 40


class GridOneshot:
    name = "grid-oneshot"

    def __init__(self, size: GridSize = GridSize()):
        self.size = size

    def setup(self, work: Path, seed: int) -> None:
        sz, rng = self.size, np.random.default_rng(seed)
        self.work = work
        cx = self.cx = gen.hole_grid(sz.m, sz.holes, rng)
        cx.write(work / "complex.json")
        parts = gen.planted_flows(cx, 1, rng)
        self.truth = [p[:, 0] for p in parts]
        self.flow = sum(self.truth)
        gen.write_signal(work / "flow.csv", self.flow)
        self.band = gen.edge_band(cx, *sz.band)
        nf = self.band.basis.shape[1]
        self.count = nf + sz.extra_samples
        self.bandlimited = self.band.basis @ rng.standard_normal(nf)
        self.slepian_edges = sorted(
            rng.choice(cx.n1, size=sz.slepian_edges, replace=False).tolist())
        gen.grid_skeleton(sz.m).write(work / "skeleton.json")
        self.planted = gen.planted_triangles(sz.m, sz.planted, rng)
        b2p = gen.make_complex(cx.n0, cx.edges, self.planted, (0, 0, 0)).b2
        flows = b2p @ rng.standard_normal((sz.planted, sz.snapshots)) \
            + 0.01 * rng.standard_normal((cx.n1, sz.snapshots))
        gen.write_matrix(work / "flows.csv", flows)
        (work / "specs.json").write_text(json.dumps(DICT_SPECS) + "\n")
        self.mask = gen.mask(cx.n1, rng)
        self.digests: dict[str, str] = {}
        warm_up()

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def sizes(self) -> dict:
        cx = self.cx
        return {"n": [cx.n0, cx.n1, cx.n2], "betti": list(cx.betti),
                "band": self.band.basis.shape[1], "samples": self.count,
                "planted_triangles": self.size.planted,
                "dirac_dim": cx.n0 + cx.n1 + cx.n2}

    def extras(self, job_s, best_ops, best_steps_us) -> dict:
        return {}

    def job(self, log) -> list[float]:
        sz, p = self.size, self._path
        sel, comp = self.band.selector, p("complex.json")
        for files in self.OUTPUTS.values():
            for f in files:
                Path(p(f)).unlink(missing_ok=True)
        calls = [("betti", ["betti", comp])]
        calls += [(f"spectrum{k}", ["spectrum", comp, "--order", str(k),
                                    "-o", p(f"spec{k}.csv")])
                  for k in range(3)]
        calls += [
            ("decompose", ["decompose", comp, p("flow.csv"),
                           "-o", p("parts.csv")]),
            ("sample", ["sample", comp, "--freqs", sel, "-m", str(self.count),
                        "-o", p("samples.txt")]),
            ("reconstruct", ["reconstruct", comp, "--freqs", sel,
                             "--samples", p("samples.txt"),
                             "--observed", p("observed.csv"),
                             "-o", p("rec.csv")]),
            ("slepians", ["slepians", comp, "--edges",
                          ",".join(map(str, self.slepian_edges)),
                          "--freqs", sel, "-o", p("slepians.csv")]),
            ("dictionary", ["dictionary", comp, "--specs", p("specs.json"),
                            "-o", p("atoms.csv")]),
            ("infer-triangles", ["infer-triangles", p("skeleton.json"),
                                 p("flows.csv"), "--criterion", "curlfit",
                                 "--count", str(sz.planted),
                                 "-o", p("triangles.json")]),
        ]
        self.stdout = {}
        for op, argv in calls:
            if op == "reconstruct":
                self._write_observed()
            self.stdout[op] = log.cli(op, argv)

        def load():
            c = hio.load_complex(comp)
            return c, hio.load_signal(p("flow.csv"), c, 1)

        loaded = log.run("api-load", load)
        self.api = {}
        if loaded is not None:
            c, f = loaded
            self.api["c"] = c
            self.api["dirac"] = log.run("dirac_basis", hs.dirac_basis, c)
            self.api["l2"] = log.run("reconstruct-l2",
                                     hs.regularized_reconstruct, c, f,
                                     self.mask, ALPHA, BETA)
            # l1 denoises the fully observed flow: the fit term is then
            # strongly convex and the primal-dual iteration count barely
            # depends on the seed (with a partial mask it varied 6x).
            self.api["l1"] = log.run("reconstruct-l1",
                                     hs.regularized_reconstruct, c, f,
                                     np.ones(c.n1, bool), ALPHA, BETA,
                                     p=1)
        return [log.seconds.get(op, np.nan) for op in self.OPS]

    def _write_observed(self) -> None:
        try:
            ids = [int(s) for s in Path(self._path("samples.txt"))
                   .read_text().split()]
        except (OSError, ValueError):
            ids = []
        gen_rows = "".join(f"{i},{self.bandlimited[i]:.17g}\n" for i in ids
                           if 0 <= i < self.cx.n1)
        Path(self._path("observed.csv")).write_text("simplex_id,value\n"
                                                    + gen_rows)

    OPS = ("betti", "spectrum0", "spectrum1", "spectrum2", "decompose",
           "sample", "reconstruct", "slepians", "dictionary",
           "infer-triangles", "api-load", "dirac_basis", "reconstruct-l2",
           "reconstruct-l1")
    OUTPUTS = {"betti": (), "spectrum0": ("spec0.csv",),
               "spectrum1": ("spec1.csv",), "spectrum2": ("spec2.csv",),
               "decompose": ("parts.csv",), "sample": ("samples.txt",),
               "reconstruct": ("rec.csv",), "slepians": ("slepians.csv",),
               "dictionary": ("atoms.csv",),
               "infer-triangles": ("triangles.json",)}

    def check(self, log, first: bool) -> None:
        for op, files in self.OUTPUTS.items():
            d = checks.digest([self._path(f) for f in files],
                              self.stdout.get(op, ""))
            if first:
                self.digests[op] = d
            else:
                log.check(op, d == self.digests[op],
                          "output differs from the first job's")
        if first:
            self._check_files(log)
        self._check_api(log)

    def _check_files(self, log) -> None:
        cx, p, rng = self.cx, self.work, np.random.default_rng(1)
        log.check("betti", self.stdout["betti"].split()
                  == [str(b) for b in cx.betti], "wrong Betti numbers")
        lam0 = self.band.frequencies["grad"]
        lam2 = self.band.frequencies["curl"]
        expect = {0: {"curl": lam0}, 1: {"gradient": lam0, "curl": lam2},
                  2: {"gradient": lam2}}
        for k in range(3):
            op = f"spectrum{k}"
            try:
                rows = checks.read_table(p / f"spec{k}.csv")
            except OSError as exc:
                log.fail(op, str(exc))
                continue
            kinds = [r[1] for r in rows]
            freqs = {kind: np.array([float(r[2]) for r in rows
                                     if r[1] == kind])
                     for kind in ("harmonic", "gradient", "curl")}
            log.check(op, len(rows) == cx.size(k),
                      "block widths do not sum to n_k")
            log.check(op, kinds.count("harmonic") == cx.betti[k],
                      "harmonic width is not the Betti number")
            for kind in ("gradient", "curl"):
                want = expect[k].get(kind, np.zeros(0))
                log.check(op, close_to(freqs[kind], want, 1e-8),
                          f"{kind} frequencies differ from the reference")
        try:
            rows = checks.read_table(p / "parts.csv")
            parts = [np.array([float(r[2]) for r in rows if r[1] == name])
                     for name in ("gradient", "curl", "harmonic")]
            _hodge_parts_ok(log, "decompose", parts, self.truth, self.flow)
        except (OSError, ValueError) as exc:
            log.fail("decompose", str(exc))
        basis = self.band.basis
        try:
            ids = [int(s) for s in (p / "samples.txt").read_text().split()]
            ok = (len(ids) == self.count == len(set(ids))
                  and all(0 <= i < cx.n1 for i in ids)
                  and np.linalg.svd(basis[ids], compute_uv=False)[-1] > 1e-6)
            log.check("sample", ok, "sample set is not recoverable")
        except (OSError, ValueError) as exc:
            log.fail("sample", str(exc))
        try:
            rec = np.array([float(r[1]) for r in
                            checks.read_table(p / "rec.csv")])
            log.check("reconstruct", close_to(rec, self.bandlimited, 1e-8),
                      "bandlimited reconstruction is not exact")
        except (OSError, ValueError, IndexError) as exc:
            log.fail("reconstruct", str(exc))
        try:
            table = checks.read_matrix(p / "slepians.csv")
            conc, vecs = table[0], table[1:]
            ok = (vecs.shape == basis.shape
                  and np.all((conc >= -1e-12) & (conc <= 1 + 1e-12))
                  and np.all(np.diff(conc) <= 1e-12)
                  and checks.orthonormal(vecs, rng)
                  and close_to(basis @ (basis.T @ vecs), vecs, 1e-8)
                  and close_to((vecs[self.slepian_edges] ** 2).sum(0), conc,
                               1e-8))
            log.check("slepians", ok, "Slepian vectors fail their properties")
        except (OSError, ValueError) as exc:
            log.fail("slepians", str(exc))
        try:
            atoms = checks.read_matrix(p / "atoms.csv")
            v = rng.standard_normal((atoms.shape[1], 2))
            blocks = np.split(v, len(DICT_SPECS))
            want = sum(gen.filter_ref(cx, 1, spec, block)
                       for spec, block in zip(DICT_SPECS, blocks))
            log.check("dictionary", atoms.shape == (cx.n1, cx.n1 * len(
                DICT_SPECS)) and close_to(atoms @ v, want, 1e-9),
                "dictionary atoms differ from the filter matrices")
        except (OSError, ValueError) as exc:
            log.fail("dictionary", str(exc))
        try:
            got = json.loads((p / "triangles.json").read_text())
            chosen = sorted(tuple(v - 1 for v in t) for t in got["triangles"])
            log.check("infer-triangles", chosen == self.planted
                      and np.all(np.isfinite(got["scores"])),
                      "inferred triangles are not the planted set")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.fail("infer-triangles", str(exc))

    def _check_api(self, log) -> None:
        if "c" not in self.api:
            return
        cx, rng, sz = self.cx, np.random.default_rng(2), self.size
        c = self.api["c"]
        log.check("api-load", (c.n0, c.n1, c.n2) == (cx.n0, cx.n1, cx.n2),
                  "loaded complex has the wrong size")
        dirac = self.api["dirac"]
        if dirac is not None:
            q = dirac.matrix()
            n = cx.n0 + cx.n1 + cx.n2
            ok = (q.shape == (n, n)
                  and dirac.harmonic.shape[1] == sum(cx.betti)
                  and checks.orthonormal(q, rng))
            v = rng.standard_normal((q.shape[1], 2))
            x = q @ v
            off = (cx.n0, cx.n0 + cx.n1)
            dx = np.vstack(gen.dirac_ref(cx, (0.0, 1.0), x[:off[0]],
                                         x[off[0]:off[1]], x[off[1]:]))
            ok = ok and close_to(dx, q @ (dirac.eigenvalues()[:, None] * v),
                                 1e-8)
            log.check("dirac_basis", ok, "Dirac basis fails D Q = Q Lambda "
                      "or orthonormality")
        m = self.mask.astype(float)
        ld, lu = cx.lap(1, "down"), cx.lap(1, "up")

        def system(x):
            return m * x + ALPHA * (ld @ x) + BETA * (lu @ x)

        x2 = self.api["l2"]
        if x2 is not None:
            log.check("reconstruct-l2", close_to(
                system(x2.values), m * self.flow, 1e-8),
                "l2 solution fails its normal equations")
        x1 = self.api["l1"]
        if x1 is not None:
            def objective(x):
                fit = self.flow - x
                return (fit @ fit + ALPHA * np.abs(cx.b1 @ x).sum()
                        + BETA * float(x @ (lu @ x)))
            best = objective(x1.values)
            tol = 1e-6 * max(1.0, best)
            trial = [x2.values] if x2 is not None else []
            trial += [x1.values + 1e-3 * d
                      for d in rng.standard_normal((6, cx.n1))]
            ok = np.all(np.isfinite(x1.values)) and all(
                best <= objective(t) + tol for t in trial)
            log.check("reconstruct-l1", ok, "l1 solution is not optimal")


# --- many-signals ------------------------------------------------------------

# The third spec has a harmonic term, so apply_filter needs lambda_max
# (computed once per complex).
FILTER_SPECS = [
    {"h_down": [1.0, -0.1], "h_up": [0.0, -0.1]},
    {"h_down": [0.5, 0.05, -0.01], "h_up": [0.5, 0.05, 0.01]},
    {"h_down": [0.0, 0.2, 0.0, -0.005], "h_up": [0.0, 0.05],
     "harmonic": {"epsilon": 0.05, "T_h": 3}},
]
BATCH_DICT_SPECS = [{"h_down": [1.0, 0.2], "h_up": [0.0, 0.2]},
                    {"h_down": [0.0, 1.0], "h_up": [0.0, 0.0, 0.1]}]
DIRAC_TAPS = (1.0, 0.2, 0.05)


@dataclass(frozen=True)
class BatchSize:
    m: int = 16
    holes: int = 5
    batch: int = 64
    band: tuple[int, int] = (10, 10)
    extra_samples: int = 8
    sparsity: int = 8


def _hs_spec(spec: dict) -> hs.HodgeFilterSpec:
    harmonic = spec.get("harmonic")
    return hs.HodgeFilterSpec(
        h_down=tuple(spec["h_down"]), h_up=tuple(spec["h_up"]),
        harmonic=harmonic and hs.HarmonicTerm(harmonic["epsilon"],
                                              harmonic["T_h"]))


class ManySignals:
    name = "many-signals"

    def __init__(self, size: BatchSize = BatchSize()):
        self.size = size

    def setup(self, work: Path, seed: int) -> None:
        sz, rng = self.size, np.random.default_rng(seed)
        cx = self.cx = gen.hole_grid(sz.m, sz.holes, rng)
        cx.write(work / "complex.json")
        self.band = gen.edge_band(cx, *sz.band)
        self.samples = gen.sample_set(self.band, sz.extra_samples, rng)
        self.mask = gen.mask(cx.n1, rng)
        self.truth = gen.planted_flows(cx, sz.batch, rng)
        self.flows = sum(self.truth)
        self.bandlimited = self.band.basis @ rng.standard_normal(
            (self.band.basis.shape[1], sz.batch))
        self.x0 = rng.standard_normal((cx.n0, sz.batch))
        self.x2 = rng.standard_normal((cx.n2, sz.batch))
        # The program's side: one complex, one basis, one dictionary.
        c = self.c = hio.load_complex(work / "complex.json")
        self.basis = hs.hodge_basis(c, 1)
        self.freqs = hs.parse_frequency_selector(self.basis,
                                                 self.band.selector)
        self.dictionary = hs.build_dictionary(
            c, 1, [_hs_spec(s) for s in BATCH_DICT_SPECS])
        self.specs = [_hs_spec(s) for s in FILTER_SPECS]
        self.dirac_spec = hs.HodgeFilterSpec(h_down=DIRAC_TAPS)
        self.inputs = [(c.cochain(1, self.flows[:, i]),
                        hs.ComplexSignal.from_arrays(
                            c, self.x0[:, i], self.flows[:, i], self.x2[:, i]),
                        self.bandlimited[self.samples, i])
                       for i in range(sz.batch)]
        self.basis_checked = False
        warm_up()

    def sizes(self) -> dict:
        cx = self.cx
        return {"n": [cx.n0, cx.n1, cx.n2], "betti": list(cx.betti),
                "batch": self.size.batch, "band": len(self.freqs),
                "samples": len(self.samples),
                "dictionary_atoms": self.dictionary.atoms.shape[1]}

    def extras(self, job_s, best_ops, best_steps_us) -> dict:
        return {"signals_per_s": self.size.batch / job_s}

    def job(self, log) -> list[float]:
        c, sz, basis = self.c, self.size, self.basis

        def transform(x):
            coeffs = hs.tft(basis, x)
            return coeffs, hs.itft(basis, coeffs)

        def filters(x):
            return [hs.apply_filter(c, 1, spec, x) for spec in self.specs]

        self.results = []
        steps = []
        for i, (x, sig, observed) in enumerate(self.inputs):
            start = time.perf_counter()
            out = {
                "decompose": log.run(f"decompose[{i}]", hs.hodge_decompose,
                                     c, x),
                "tft": log.run(f"tft[{i}]", transform, x),
                "filter": log.run(f"filter[{i}]", filters, x),
                "dirac": log.run(f"dirac_filter[{i}]", hs.dirac_filter, c,
                                 self.dirac_spec, sig),
                "bandlimited": log.run(
                    f"reconstruct_bandlimited[{i}]",
                    hs.reconstruct_bandlimited, c, 1, self.freqs,
                    self.samples, observed, basis=basis),
                "l2": log.run(f"reconstruct-l2[{i}]",
                              hs.regularized_reconstruct, c, x, self.mask,
                              ALPHA, BETA),
                "code": log.run(f"sparse_code[{i}]", hs.sparse_code,
                                self.dictionary, x, sz.sparsity),
            }
            steps.append(time.perf_counter() - start)
            self.results.append(out)
        return steps

    def check(self, log, first: bool) -> None:
        cx, sz, rng = self.cx, self.size, np.random.default_rng(3)
        if not self.basis_checked:
            b = self.basis
            log.check("setup-basis", b.n_harmonic == cx.betti[1]
                      and b.matrix().shape == (cx.n1, cx.n1)
                      and checks.orthonormal(b.matrix(), rng),
                      "edge basis is not orthonormal with beta1 harmonic "
                      "columns")
            self.basis_checked = True
        m = self.mask.astype(float)
        ld, lu = cx.lap(1, "down"), cx.lap(1, "up")
        atoms = self.dictionary.atoms
        for i, out in enumerate(self.results):
            x = self.flows[:, i]
            norm = float(np.linalg.norm(x))
            if out["decompose"] is not None:
                parts = out["decompose"]
                _hodge_parts_ok(log, f"decompose[{i}]",
                                [parts.gradient.values, parts.curl.values,
                                 parts.harmonic.values],
                                [t[:, i] for t in self.truth], x)
            if out["tft"] is not None:
                coeffs, back = out["tft"]
                log.check(f"tft[{i}]", close_to(back.values, x, 1e-10)
                          and abs(coeffs.energy() - norm**2) <= 1e-9 * norm**2,
                          "itft(tft(x)) != x or Parseval fails")
            if out["filter"] is not None:
                for spec, y in zip(FILTER_SPECS, out["filter"]):
                    log.check(f"filter[{i}]", close_to(
                        y.values, gen.filter_ref(cx, 1, spec, x), 1e-10),
                        "filter output differs from the reference")
            if out["dirac"] is not None:
                want = gen.dirac_ref(cx, DIRAC_TAPS, self.x0[:, i], x,
                                     self.x2[:, i])
                got = out["dirac"]
                log.check(f"dirac_filter[{i}]", all(
                    close_to(g.values, w, 1e-10)
                    for g, w in zip((got.x0, got.x1, got.x2), want)),
                    "Dirac filter output differs from the reference")
            if out["bandlimited"] is not None:
                log.check(f"reconstruct_bandlimited[{i}]", close_to(
                    out["bandlimited"].values, self.bandlimited[:, i], 1e-8),
                    "bandlimited reconstruction is not exact")
            if out["l2"] is not None:
                y = out["l2"].values
                log.check(f"reconstruct-l2[{i}]", close_to(
                    m * y + ALPHA * (ld @ y) + BETA * (lu @ y), m * x,
                    1e-8), "l2 solution fails its normal equations")
            if out["code"] is not None:
                code = out["code"]
                chosen = np.flatnonzero(code)
                resid = x - atoms[:, chosen] @ code[chosen]
                ok = (np.all(np.isfinite(code))
                      and 0 < chosen.size <= sz.sparsity
                      and np.linalg.norm(resid) < norm
                      and np.linalg.norm(atoms[:, chosen].T @ resid)
                      <= 1e-8 * norm * np.linalg.norm(atoms[:, chosen]))
                log.check(f"sparse_code[{i}]", ok,
                          "sparse code is not a least-squares fit on its "
                          "support")


# --- stream ------------------------------------------------------------------

@dataclass(frozen=True)
class StreamSize:
    streams: int = 4
    lms_steps: int = 5000
    m: int = 12
    holes: int = 3
    sim_steps: int = 300
    forecast_steps: int = 50


class Stream:
    name = "stream"

    def __init__(self, size: StreamSize = StreamSize()):
        self.size = size

    def setup(self, work: Path, seed: int) -> None:
        sz, rng = self.size, np.random.default_rng(seed)
        self.work, self.seed = work, seed
        # LMS on complex7, step size as in the acceptance test.
        ref7 = self.ref7 = gen.complex7()
        self.mu7 = gen.lms_step_size(ref7, rng, 0.2)
        c7 = self.c7 = hs.build_complex(ref7.n0, ref7.edges, ref7.triangles)
        self.lms_inputs = []
        for _ in range(sz.streams):
            x, y = gen.lms_stream(ref7, sz.lms_steps, rng)
            self.lms_inputs.append([(c7.cochain(1, xt), c7.cochain(1, yt))
                                    for xt, yt in zip(x, y)])
        # SCVAR on a 12x12 grid.
        cx = self.cx = gen.hole_grid(sz.m, sz.holes, rng)
        cx.write(work / "complex.json")
        self.model = gen.scvar_model()
        bound = gen.scvar_gain_bound(cx, self.model)
        if bound >= 1.0:
            raise RuntimeError(f"SCVAR model not provably stable ({bound})")
        gen.write_model(work / "model.json", self.model)
        c = self.c = hio.load_complex(work / "complex.json")
        self.hs_model = hio.load_model(work / "model.json", c)
        self.initial = [hs.ComplexSignal.from_arrays(
            c, *(rng.standard_normal(cx.size(k)) for k in range(3)))
            for _ in range(2)]
        # Series files for the forecast and lms subcommands.
        self.history = gen.scvar_series(cx, self.model, SERIES_STEPS,
                                        SIGMA, rng)
        gen.write_series(work / "history.csv", self.history)
        x, y = gen.lms_stream(cx, SERIES_STEPS, rng)
        zeros = (np.zeros(cx.n0), np.zeros(cx.n2))
        gen.write_series(work / "lms_x.csv",
                         [(zeros[0], v, zeros[1]) for v in x])
        gen.write_series(work / "lms_y.csv",
                         [(zeros[0], v, zeros[1]) for v in y])
        self.lms_mask = rng.random((cx.n1, SERIES_STEPS)) < 0.7
        gen.write_matrix(work / "mask.csv", self.lms_mask.astype(float))
        self.mu12 = gen.lms_step_size(cx, rng, 0.5, observed=0.7)
        self.digests: dict[str, str] = {}
        warm_up()

    OUTPUTS = {"forecast": ("forecast.csv",),
               "lms": ("predictions.csv", "coeffs.csv")}

    def sizes(self) -> dict:
        sz, cx = self.size, self.cx
        return {"lms_streams": sz.streams, "lms_steps": sz.lms_steps,
                "lms_n": [self.ref7.n0, self.ref7.n1, self.ref7.n2],
                "scvar_n": [cx.n0, cx.n1, cx.n2], "betti": list(cx.betti),
                "sim_steps": sz.sim_steps, "series_steps": SERIES_STEPS,
                "forecast_steps": sz.forecast_steps}

    def extras(self, job_s, best_ops, best_steps_us) -> dict:
        return {"lms_step_us_p50": float(np.percentile(best_steps_us, 50)),
                "lms_step_us_p99": float(np.percentile(best_steps_us, 99)),
                "forecast_steps_per_s":
                    self.size.sim_steps / best_ops["scvar_simulate"],
                "cli_job_s": best_ops["forecast"] + best_ops["lms"]}

    def job(self, log) -> list[float]:
        sz, p = self.size, lambda name: str(self.work / name)
        for files in self.OUTPUTS.values():
            for f in files:
                Path(p(f)).unlink(missing_ok=True)
        steps = []
        self.lms_errors = []
        for s, stream in enumerate(self.lms_inputs):
            errors = log.run(f"lms_stream[{s}]", self._lms, stream, steps)
            self.lms_errors.append(errors)
        noise = (SIGMA,) * 3
        self.sim = log.run("scvar_simulate", hs.scvar_simulate, self.hs_model,
                           sz.sim_steps, self.initial, noise_std=noise,
                           rng=np.random.default_rng(self.seed))
        self.fit = None
        if self.sim is not None:
            self.fit = log.run("scvar_fit", hs.scvar_fit, self.c,
                               self.initial + self.sim, order=2,
                               filter_order=1)
        comp = p("complex.json")
        log.cli("forecast", [
            "forecast", comp, p("model.json"), p("history.csv"), "--steps",
            str(sz.forecast_steps), "--seed", str(self.seed),
            "-o", p("forecast.csv")])
        self.lms_stdout = log.cli("lms", [
            "lms", comp, "--input", p("lms_x.csv"),
            "--observed", p("lms_y.csv"), "--mu", f"{self.mu12:.17g}",
            "--mask", p("mask.csv"), "-o", p("predictions.csv"),
            "--coeffs-output", p("coeffs.csv")])
        return steps

    def _lms(self, stream, steps: list) -> list:
        state = hs.lms_init(self.c7, 1, 1, self.mu7)
        errors = []
        clock = time.perf_counter
        for x, y in stream:
            start = clock()
            state, err = hs.lms_step(state, x, y)
            steps.append(clock() - start)
            if err is not None:
                errors.append(err)
        return errors

    def check(self, log, first: bool) -> None:
        sz, cx = self.size, self.cx
        floor7 = gen.LMS_SIGMA**2 * self.ref7.n1
        for s, errors in enumerate(self.lms_errors):
            if errors is None:
                continue
            gap = 10 * np.log10(np.mean(errors[-200:]) / floor7)
            log.check(f"lms_stream[{s}]", abs(gap) <= 3.0,
                      f"LMS error {gap:.2f} dB from the noise floor")
        if self.sim is not None:
            series = [[getattr(sig, f"x{k}").values for k in range(3)]
                      for sig in self.initial + self.sim]
            resid = [[], [], []]
            for t in range(2, len(series)):
                pred = gen.scvar_predict_ref(cx, self.model, series[:t])
                for k in range(3):
                    resid[k].append(series[t][k] - pred[k])
            stds = [float(np.std(r)) for r in resid]
            log.check("scvar_simulate", all(
                abs(s / SIGMA - 1.0) <= 0.1 for s in stds),
                f"one-step noise std {stds} is not {SIGMA}")
        if self.fit is not None:
            model, resid = self.fit
            log.check("scvar_fit", all(
                abs(r - SIGMA**2) <= 0.15 * SIGMA**2 for r in resid)
                and _coef_error(model, self.model) <= 0.05,
                f"fit residuals {resid} or coefficients are off")
        p = self.work
        for op, files in self.OUTPUTS.items():
            d = checks.digest([p / f for f in files],
                              self.lms_stdout if op == "lms" else "")
            if first:
                self.digests[op] = d
            else:
                log.check(op, d == self.digests[op],
                          "output differs from the first job's")
        if first:
            self._check_files(log)

    def _check_files(self, log) -> None:
        sz, cx, p = self.size, self.cx, self.work
        try:
            rows = np.array(checks.read_table(p / "forecast.csv"), dtype=float)
            history = list(self.history)
            for _ in range(sz.forecast_steps):
                history.append(gen.scvar_predict_ref(cx, self.model, history))
            want = np.concatenate([np.concatenate(s) for s in
                                   history[SERIES_STEPS:]])
            ok = (rows.shape[0] == want.size
                  and rows[0, 0] == SERIES_STEPS
                  and close_to(rows[:, 3], want, 1e-9))
            log.check("forecast", ok, "forecast differs from the reference")
        except (OSError, ValueError) as exc:
            log.fail("forecast", str(exc))
        try:
            mean_error = float(self.lms_stdout.split()[1])
            tail = self.lms_mask[:, -200:].sum(0).mean()
            gap = 10 * np.log10(mean_error / (gen.LMS_SIGMA**2 * tail))
            coeffs = checks.read_matrix(p / "coeffs.csv")[0]
            preds = checks.read_table(p / "predictions.csv")
            ok = (abs(gap) <= 3.0
                  and close_to(coeffs, gen.LMS_H_STAR, 0.02)
                  and len(preds) == (SERIES_STEPS - 1) * cx.n1)
            log.check("lms", ok, f"CLI LMS {gap:.2f} dB from the floor, "
                      f"coefficients {coeffs}")
        except (OSError, ValueError, IndexError) as exc:
            log.fail("lms", str(exc))


def _coef_error(model, planted: list[dict]) -> float:
    """Largest coefficient difference over the banks scvar_fit estimates."""
    err = 0.0
    for lag, want in zip(model.lags, planted):
        for name in ("h00", "g01", "h11", "g10", "g12", "g21", "h22"):
            spec = getattr(lag, name)
            ref = want.get(name, {"h_down": [0.0], "h_up": [0.0]})
            for got, exp in ((spec.h_down, ref["h_down"]),
                             (spec.h_up, ref["h_up"])):
                width = max(len(got), len(exp))
                a = np.pad(np.asarray(got, float), (0, width - len(got)))
                b = np.pad(np.asarray(exp, float), (0, width - len(exp)))
                err = max(err, float(np.abs(a - b).max()))
    return err


WORKLOADS = {w.name: w for w in (GridOneshot, ManySignals, Stream)}
