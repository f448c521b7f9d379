"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

For every workload it runs two untraced and two traced jobs and checks
that the result has the contract keys, that every metric of BENCHMARK.json
is reported with its unit, that no operation failed, and that the traced
self times add up to the traced job time. Then, for each workload, it
corrupts one hodgesp result on purpose and checks that the failure is
counted. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

IMPORT_S = run.import_library()

import hodgesp  # noqa: E402
import hodgesp.cli  # noqa: E402

import bench  # noqa: E402
import workloads as wls  # noqa: E402

TINY = {
    "grid-oneshot": lambda: wls.GridOneshot(wls.GridSize(
        m=7, holes=2, planted=3, snapshots=10, band=(3, 3), extra_samples=2,
        slepian_edges=8)),
    "many-signals": lambda: wls.ManySignals(wls.BatchSize(
        m=6, holes=2, batch=4, band=(3, 3), extra_samples=2, sparsity=3)),
    "stream": lambda: wls.Stream(wls.StreamSize(
        streams=1, lms_steps=2000, m=6, holes=1, sim_steps=150,
        forecast_steps=5)),
}


def _wrong_betti(c, tol=None):
    return (0, 0, 0)


def _drop_harmonic(c, x, tol=None):
    parts = _originals["hodge_decompose"](c, x, tol)
    return parts._replace(harmonic=c.zero_cochain(1))


def _biased_simulate(*args, **kwargs):
    out = _originals["scvar_simulate"](*args, **kwargs)
    return [s.from_stacked(s.complex, s.stacked() + 0.5) for s in out]


_originals = {"hodge_decompose": hodgesp.hodge_decompose,
              "scvar_simulate": hodgesp.scvar_simulate}
# workload -> (owner, attribute, corrupted replacement)
CORRUPTIONS = {
    "grid-oneshot": (hodgesp.cli, "betti", _wrong_betti),
    "many-signals": (hodgesp, "hodge_decompose", _drop_harmonic),
    "stream": (hodgesp, "scvar_simulate", _biased_simulate),
}


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    work = bench.ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, make in TINY.items():
            for trace in (False, True):
                result, _, _ = bench.measure(make(), 1, 0.0, work, trace,
                                             IMPORT_S)
                tag = f"{name} trace={int(trace)}"
                problems += _check_result(tag, result, want[str(int(trace))])
                if trace:
                    m = {k: v["value"] for k, v in result["metrics"].items()}
                    parts = sum(v for k, v in m.items()
                                if k.endswith(".self_s")
                                and k != "spectral.dirac_basis.self_s")
                    if abs(parts - m["trace.job_s"]) > 1e-6 * m["trace.job_s"]:
                        problems.append(f"{tag}: self times {parts} do not "
                                        f"add up to {m['trace.job_s']}")
            owner, attr, bad = CORRUPTIONS[name]
            saved = getattr(owner, attr)
            setattr(owner, attr, bad)
            try:
                result, _, _ = bench.measure(make(), 1, 0.0, work, False,
                                             IMPORT_S)
            finally:
                setattr(owner, attr, saved)
            if result["failed"] < 1 or result["correct"]:
                problems.append(f"{name}: corrupted {attr} was not counted "
                                f"as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def _check_result(tag: str, result: dict, units: dict) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"{tag}: result keys {sorted(result)}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != units:
        out.append(f"{tag}: metrics {sorted(set(got) ^ set(units))} differ "
                   f"from BENCHMARK.json, or units do not match")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        out.append(f"{tag}: {result['failed']} of {result['attempted']} "
                   f"operations failed")
    return out


if __name__ == "__main__":
    sys.exit(main())
