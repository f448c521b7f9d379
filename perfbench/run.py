"""hodgesp benchmark: one workload, one seed, one measuring run.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-oneshot --seed 1 --seconds 20 \\
        --trace 0

The library is imported from ./src in one Python process with the BLAS
thread count pinned to 1. The run sets up the workload three times (the
median is setup_s), then runs closed-loop jobs, each starting when the
previous one ends, until --seconds have passed and at least two jobs have
run; every job's outputs are checked. With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics; with --trace 1 the
public hodgesp functions and the numpy.linalg calls they make are wrapped
in spans and the result holds the per-layer metrics instead. The line
before it is a report with the environment, the workload-specific
metrics, sample counts and failure messages. Results and spans are
written under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Pinned before numpy is imported; bench.environment() records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-oneshot", "many-signals", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> float:
    """Import numpy, scipy and hodgesp from ./src; returns the seconds it
    took. Exits with status 2 when the source tree is missing."""
    src = ROOT / "src"
    if not (src / "hodgesp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hodgesp source tree under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import hodgesp.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not Path(hodgesp.cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write("error: hodgesp was not imported from ./src\n")
        sys.exit(2)
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    import bench
    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main())
