"""Benchmark entry point: run one workload of baylime and print its metrics.

    python3 bench/run.py --workload explain_small --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports baylime from ``src/`` and
builds nothing. The workloads, their metrics and the bounds live in
``BENCHMARK.json``.

``--trace 0`` times set-up in fresh processes, then runs the workload
untraced for ``--seconds`` and prints every ``end_to_end`` metric.
``--trace 1`` runs half the time untraced and half with spans around the
calls between baylime's modules, and prints every ``per_layer`` metric.
Either way the outputs are checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the line before it
records the run: environment, sample counts and the first errors.

Workload processes run with one BLAS thread and, with their predictor
child, on one CPU: sweep_consistency's request/response ping-pong then
never waits for an idle CPU to wake. On a 2-vCPU virtual machine those
wake-ups made its ops about 15% slower and tied them to the host's load.
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
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "baylime" / "__init__.py"

# Set-up is timed in this many fresh processes, the main one included.
SETUP_SAMPLES = 3
# Every workload process of a run must end within this many seconds.
RUN_TIMEOUT_S = 170
COVERAGE_FLOOR_PCT = 90.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def run_worker(args, out: Path, env: dict, setup_only: bool,
               deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out)]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code "
                           f"{proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not PACKAGE.is_file():
        print(f"error: no baylime package at {PACKAGE.relative_to(ROOT)}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every process started
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, **PINNED_ENV}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(
                    run_worker(args, out, env, True, deadline)["setup_s"])
        report = run_worker(args, out, env, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    measured = dict(report["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    if args.trace and measured["coverage_pct"] < COVERAGE_FLOOR_PCT:
        print(f"warning: spans cover {measured['coverage_pct']:.1f}% of op "
              f"time, below {COVERAGE_FLOOR_PCT}%; see "
              f"unattributed_ms_per_op", file=sys.stderr)

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "loadavg_at_start": load_at_start,
        **{k: report[k] for k in ("environment", "checked_ops", "errors")},
        **{k: report[k] for k in ("op_samples", "op_samples_per_mode",
                                  "op_ms_p99_pooled", "samples_beyond_p99")
           if k in report},
        "setup_samples_s": setups,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
