"""Benchmark entry point: run one entqa workload in a fresh process.

    python3 perfbench/run.py --workload matrix-sentence --seed 1 \
        --seconds 20 --trace 0

The workload runs in its own child process (so `peak_rss_mb` is that
process's alone) with the BLAS thread count pinned before numpy loads.
The child's stdout, whose last line is a JSON object with `correct`,
`attempted`, `failed` and `metrics`, is printed as this program's. The
exit code is the child's; nothing is printed on stdout when the child
ends without a result. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *sys.argv[1:]],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: workload ended without a result", file=sys.stderr)
        return child.returncode or 1
    print(child.stdout, end="")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
