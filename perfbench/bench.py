"""Measuring loop, metrics and environment record for one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_JOBS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload reports all of these. Timings are best-of-jobs: each
# operation and each step runs once per job on identical inputs, and its
# shortest time in the run counts. Other tenants of a shared host slow the
# process down in bursts; the minimum filters those (on stream it cut the
# run-to-run spread of the step median from 26% to 10%), though not slow
# periods that last a whole run. The report keeps the plain wall times.
# No tail percentile is among them: grid-oneshot has 14 steps a job and
# many-signals 64, too few for one; the report gives stream's LMS p99.
#   setup_s      import time plus the median of the set-ups
#   job_s        one job, each operation at its best time in the run
#   step_us_p50  median over the steps of each step's best latency
#   peak_rss_mb  peak resident memory of the process
END_TO_END = {"setup_s": "s", "job_s": "s", "step_us_p50": "us",
              "peak_rss_mb": "MB"}


def measure(wl, seed: int, seconds: float, work: Path, trace: bool,
            import_s: float):
    """Set up, run jobs for the given seconds, check them; returns the
    contract result, the report and the tracer (None when untraced)."""
    ledger = checks.Ledger()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup(work, seed)
        setups.append(time.perf_counter() - start)

    tracer = None
    if trace:
        per_call = tracing.calibrate()
        tracer = tracing.Tracer()
        tracer.install()

    jobs, steps, ops = [], [], {}
    begin = time.perf_counter()
    try:
        while len(jobs) < MIN_JOBS or time.perf_counter() - begin < seconds:
            log = ledger.job()
            start = time.perf_counter()
            if tracer is None:
                job_steps = wl.job(log)
            else:
                with tracer.root():
                    job_steps = wl.job(log)
            jobs.append(time.perf_counter() - start)
            steps.append(job_steps)
            for op, sec in log.seconds.items():
                ops.setdefault(op, []).append(sec)
            wl.check(log, first=len(jobs) == 1)
            log.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best_ops = {op: min(v) for op, v in ops.items()}
    # A step that raised may be missing (NaN, or a shorter list); keep the
    # steps every job timed so a failing run still prints valid numbers.
    n = min(len(s) for s in steps)
    best_steps_us = np.min([s[:n] for s in steps], axis=0) * 1e6
    best_steps_us = best_steps_us[np.isfinite(best_steps_us)]
    e2e = {
        "setup_s": import_s + statistics.median(setups),
        "job_s": sum(best_ops.values()),
        "step_us_p50": float(np.percentile(best_steps_us, 50)),
        "peak_rss_mb": rss_mb,
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = tracing.layer_metrics(tracer, len(jobs), per_call)
    kinds = {}
    for op, sec in best_ops.items():
        kind = op.split("[")[0]
        kinds[kind] = kinds.get(kind, 0.0) + sec
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "sizes": wl.sizes(),
        "workload_metrics": {
            **e2e, **wl.extras(e2e["job_s"], best_ops, best_steps_us),
            "job_s_median_wall": statistics.median(jobs),
            "ops_failed_frac": ledger.failed / max(1, ledger.attempted),
        },
        "samples": {"setups": len(setups), "jobs": len(jobs),
                    "steps_per_job": len(best_steps_us),
                    "ops_per_job": len(best_ops)},
        "setup_runs_s": setups, "import_s": import_s, "jobs_s": jobs,
        "best_op_seconds": kinds,
        "failures": ledger.messages,
    }
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, report, tracer


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> int:
    base = ROOT / ".bench_work"
    work = base / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results = base / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name]()
        result, report, tracer = measure(wl, seed, seconds, work, trace,
                                         import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = results / f"{name}-seed{seed}-trace{int(trace)}"
    Path(f"{stem}.json").write_text(json.dumps(
        {"report": report, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(Path(f"{stem}-spans.json"))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def _git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    files = sorted((ROOT / "src" / "hodgesp").glob("*.py"))
    return checks.digest(files)[:16]


def _openblas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", deps["blas"].get("name")))
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "argv": sys.argv,
    }
