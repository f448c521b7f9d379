"""Interleaved A/B runs of the benchmark: the working tree against a git
revision.

Usage (from the repository root):

    python3 tools/ab.py --against REV               # all three workloads
    python3 tools/ab.py --against REV --workload stream --pairs 10 \\
        --seconds 6 --seed 1
    python3 tools/ab.py --against REV --scale-layer lms_step_T1 \\
        --sizes complex7 20     # tools/scale.py layers only

Each side runs from its own copy in one temporary directory, under a
name of the same length: the src/ of REV, extracted with ``git archive``,
and the working tree's src/, each beside a copy of the working tree's
perfbench/. So both sides run the same benchmark code, on their own
library, from the same file system. Each pair runs ``perfbench/run.py``
once on each side, one after the other, and the side that goes first
alternates from pair to pair, so a slow phase of a shared host falls on
both sides alike. Runs are sequential, one process at a time.

For each workload it prints, per end-to-end metric and then per
best-of-jobs operation kind (the report's ``best_op_seconds``): each
side's median with its quartiles, the median over pairs of the ratio
working tree / REV, and in how many pairs the working tree was better.
A ratio below 1 favours the working tree for a metric where lower is
better, as every metric of BENCHMARK.json is. It also prints each side's
failed share of operations.

With ``--scale-layer NAME`` (repeatable) each pair instead runs the
working tree's ``tools/scale.py --layer NAME ... --sizes ...`` once on
each side, alternating as above, and the same table compares the
per-process medians of each layer and size. Without ``--workload`` it
then runs no workload.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-oneshot", "many-signals", "stream")


def materialize(rev: str | None, dest: Path) -> None:
    """Under ``dest``, the src/ of git revision ``rev`` (of the working
    tree when None) and the working tree's perfbench/ and tools/."""
    skip = shutil.ignore_patterns("__pycache__")
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    else:
        archive = subprocess.run(["git", "archive", "--format=tar", rev,
                                  "src"], cwd=ROOT, capture_output=True,
                                 check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # The "data" filter exists from Python 3.10.12 and 3.11.4 on;
            # before, the archive of a revision of this repository is
            # extracted as it is.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") \
                else {}
            tar.extractall(dest, **safe)
    for name in ("perfbench", "tools"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its end-to-end metrics,
    best-of-jobs seconds per operation kind and operation counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {workload} in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    report, result = json.loads(report), json.loads(result)
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "ops": report["best_op_seconds"],
            "failed": result["failed"], "attempted": result["attempted"]}


def scale_run(tree: Path, layers: list[str], sizes: list[str]) -> dict:
    """One ``tools/scale.py --layer`` process in ``tree``: the median of
    each layer per size, keyed "layer size"."""
    proc = subprocess.run(
        [sys.executable, "tools/scale.py", *(f"--layer={name}"
                                             for name in layers),
         "--sizes", *sizes], cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: tools/scale.py in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return {f"{layer} {size}": row["median"]
            for size, rows in json.loads(proc.stdout).items()
            for layer, row in rows.items()}


def directions() -> dict[str, str]:
    """Whether lower or higher is better, per end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (linear interpolation,
    as numpy.percentile)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(base: list[float], mine: list[float], better: str) -> dict:
    """Each side's quartiles, the median paired ratio mine / base and the
    pairs in which mine was better."""
    ratios = [m / b for b, m in zip(base, mine) if b]
    wins = sum((m < b) if better == "lower" else (m > b)
               for b, m in zip(base, mine))
    return {"base": quartiles(base), "mine": quartiles(mine),
            "ratio": statistics.median(ratios) if ratios else float("nan"),
            "wins": wins, "pairs": len(base)}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """:func:`compare` for every end-to-end metric and operation kind both
    sides report."""
    better = directions()
    base, mine = runs["base"], runs["mine"]
    rows = {}
    for name in base[0]["metrics"]:
        rows[name] = compare([r["metrics"][name] for r in base],
                             [r["metrics"][name] for r in mine],
                             better.get(name, "lower"))
    for op in sorted(set(base[0]["ops"]) & set(mine[0]["ops"])):
        rows[f"op {op}"] = compare([r["ops"][op] for r in base],
                                   [r["ops"][op] for r in mine], "lower")
    failed = {side: sum(r["failed"] for r in rs)
              / max(1, sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    return {"rows": rows, "failed_frac": failed}


def summarize_layers(runs: dict[str, list[dict]]) -> dict:
    """:func:`compare` for every scale layer and size."""
    base, mine = runs["base"], runs["mine"]
    return {"rows": {name: compare([r[name] for r in base],
                                   [r[name] for r in mine], "lower")
                     for name in base[0]}}


def show(value: float) -> str:
    return f"{value:.4g}"


def print_summary(title: str, rev: str, summary: dict) -> None:
    print(f"\n{title}: REV {rev} against the working tree")
    print(f"{'metric':<26} {'REV median [q1, q3]':>33} "
          f"{'tree median [q1, q3]':>33} {'ratio':>6} {'wins':>6}")
    for name, row in summary["rows"].items():
        cells = [f"{show(q[1])} [{show(q[0])}, {show(q[2])}]"
                 for q in (row["base"], row["mine"])]
        wins = f"{row['wins']}/{row['pairs']}"
        print(f"{name:<26} {cells[0]:>33} {cells[1]:>33} "
              f"{row['ratio']:>6.3f} {wins:>6}")
    failed = summary.get("failed_frac")
    if failed is not None:
        print(f"failed share of operations: REV {failed['base']:.3g}, "
              f"tree {failed['mine']:.3g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring seconds per run (default 20, as "
                             "BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale-layer", action="append", metavar="NAME",
                        help="tools/scale.py layer to compare (repeatable)")
    parser.add_argument("--sizes", nargs="+", default=["complex7", "20"],
                        help="sizes of the scale layers (default complex7 "
                             "20)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or ([] if args.scale_layer else WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp, "base"), "mine": Path(tmp, "tree")}
        materialize(args.against, trees["base"])
        materialize(None, trees["mine"])
        jobs = [(workload, lambda tree, w=workload: run(
            tree, w, args.seed, args.seconds), summarize)
            for workload in workloads]
        if args.scale_layer:
            jobs.append(("scale layers", lambda tree: scale_run(
                tree, args.scale_layer, args.sizes), summarize_layers))
        for title, measure, summarize_runs in jobs:
            runs = {"base": [], "mine": []}
            for pair in range(args.pairs):
                order = ("base", "mine") if pair % 2 == 0 else ("mine",
                                                                "base")
                for side in order:
                    runs[side].append(measure(trees[side]))
                print(f"{title} pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
            print_summary(title, args.against, summarize_runs(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
