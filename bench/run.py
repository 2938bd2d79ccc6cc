"""Benchmark of wavestack, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload train_bench --seed 1 --seconds 30 --trace 0

The workload runs in a process of its own (`workload.py`), with the BLAS
thread count fixed at BLAS_THREADS.  With `--trace 0` the last line of
standard output is a JSON object holding every end-to-end metric; with
`--trace 1` it holds every per-layer metric and the tracing overhead.
`setup_s` is the median of SETUP_RUNS set-ups, each timed from the start
of a fresh process to the end of its set-up and scaled to the reference
host speed.  The run exits 2 when the checkout holds no `src/wavestack`,
and 1 without a result when the workload process fails.  When a check of
the program's outputs fails, the result reads `"correct": false` and the
run exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_bench", "infer_paper")
BLAS_THREADS = 1
SETUP_RUNS = 7
DEADLINE_S = 170.0  # every run ends within 180 s


def _worker(args, root, workdir, deadline, setup_only=False):
    """Run workload.py to its end; returns (start, parsed last line)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - start)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="wavestack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "wavestack" / "__init__.py").is_file():
        print("error: run from a checkout of wavestack (no src/wavestack)",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                start, out = _worker(args, root, workdir / f"setup{k}",
                                     deadline, setup_only=True)
                setups.append((out["ready"] - start) / out["slowdown"])
        start, out = _worker(args, root, workdir / "run", deadline)
        setups.append((out["ready"] - start) / out["slowdown"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = out["metrics"]
    if not args.trace:
        print("as measured, without the host-speed scaling: "
              + json.dumps(out["as_measured"]), file=sys.stderr)
        print("reference figures: " + json.dumps(out["reference"]),
              file=sys.stderr)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": not out["problems"],
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 1 if out["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
