"""One workload process: set up, run the timed loop, check, report.

Started by ``run.py`` with BLAS threads pinned; prints one JSON object on
its last stdout line. With ``--setup-only`` it stops once set-up is done,
so the parent can time set-up in fresh processes.

    python3 bench/worker.py --workload explain_small --seed 1 --seconds 20 \
        --trace 0 --out bench/out/explain_small
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Phase:
    """Op times and records of one stretch of the timed loop."""

    def __init__(self):
        self.times: list[float] = []
        self.records: list[workloads.OpRecord] = []
        self.errors: dict[int, str] = {}
        self.modes: list[str] = []

    @property
    def ops(self) -> int:
        return len(self.times)

    def sum(self, field: str) -> float:
        return math.fsum(getattr(r, field) for r in self.records)


def timed_loop(workload, seconds: float, first: int, tracer=None) -> Phase:
    phase = Phase()
    if tracer is not None:
        entry = tracer.wrap(workload.call, workload.entry,
                            workload.entry_layer)
    deadline = perf_counter() + seconds
    i = first
    while True:
        prep = workload.prepare(i)
        start = perf_counter()
        try:
            if tracer is None:
                result = workload.call(prep)
            else:
                result = tracer.run_op(i, entry, prep)
            raised = None
        except Exception as exc:  # a failed op is counted, not fatal
            result, raised = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        record = workload.after(i, prep, result)
        if raised is not None:
            record.error = raised
        if record.error is not None:
            phase.errors[i] = record.error
        phase.times.append(end - start)
        phase.records.append(record)
        phase.modes.append(workload.mode(i))
        i += 1
        if end >= deadline:
            return phase


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_percentile_s(phase: Phase, p: int) -> float:
    """Op-time percentile per mode, averaged over the modes.

    The explain workloads run four modes of different cost round-robin; a
    pooled median would sit in the gap between two modes and jump between
    them from run to run.
    """
    by_mode: dict[str, list[float]] = {}
    for mode, t in zip(phase.modes, phase.times):
        by_mode.setdefault(mode, []).append(t)
    return statistics.fmean(percentile(v, p) for v in by_mode.values())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def end_to_end(workload, phase: Phase) -> dict:
    op_s = math.fsum(phase.times)
    return {
        "op_ms_p50": 1000 * op_percentile_s(phase, 50),
        "op_ms_p90": 1000 * op_percentile_s(phase, 90),
        "fits_per_s": workload.fits_per_op * phase.ops / op_s,
        "probe_rows_per_op": phase.sum("rows") / phase.ops,
        "probe_calls_per_op": phase.sum("calls") / phase.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(untraced: Phase, traced: Phase, tracer: tracing.Tracer) -> dict:
    split = tracing.layer_breakdown(tracer)
    ops = split["ops"]
    per_op_ms = 1000 / ops
    self_ms = {layer: s * per_op_ms for layer, s in split["self_s"].items()}
    # The model runs in the predictor child (reported by it) or in process
    # (the "model" spans); each workload has only one of the two.
    child_ms = (traced.sum("child_s") + split["model_s"]) * per_op_ms
    metrics = {f"{layer}.self_ms_per_op": v for layer, v in self_ms.items()}
    fits = sum(split["fit_n"].values())
    metrics.update({
        "perturb.bytes_computed_per_op": split["perturb_bytes"] / ops,
        "blackbox.calls_per_op": traced.sum("calls") / ops,
        "blackbox.rows_per_op": traced.sum("rows") / ops,
        "blackbox.child_ms_per_op": child_ms,
        "blackbox.transport_ms_per_op": self_ms["blackbox"] - child_ms,
        "blackbox.request_bytes_per_op": traced.sum("request_bytes") / ops,
        "blackbox.spawn_ms_per_op": split["spawn_s"] * per_op_ms,
        "kernel.calls_per_op": split["kernel_calls"] / ops,
        "regression.fits_per_op": fits / ops,
        "regression.evidence_iters_per_fit":
            split["evidence_iters"] / max(split["evidence_fits"], 1),
        "regression.clamp_hits": split["clamp_hits"],
        "cli.elicit_ms_per_op": split["elicit_s"] * per_op_ms,
        "cli.output_bytes_per_op": traced.sum("output_bytes") / ops,
        "unattributed_ms_per_op": split["unattributed_s"] * per_op_ms,
        "coverage_pct": 100 * (1 - split["unattributed_s"] / split["op_s"]),
        "traced_op_ms": split["op_s"] * per_op_ms,
        "trace_overhead_pct":
            100 * (statistics.fmean(traced.times)
                   / statistics.fmean(untraced.times) - 1),
    })
    for mode in tracing.FIT_MODES:
        n = split["fit_n"][mode]
        metrics[f"regression.{mode}.ms_per_fit"] = (
            1000 * split["fit_s"][mode] / n if n else 0.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    workload.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    report = {"ready": ready, "environment": environment()}
    if args.trace:
        untraced = timed_loop(workload, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        tracer.install()
        workload.set_tracer(tracer)
        try:
            traced = timed_loop(workload, args.seconds / 2, untraced.ops,
                                tracer)
        finally:
            workload.set_tracer(None)
            tracer.uninstall()
        tracer.write(out / "spans.jsonl")
        phases = [untraced, traced]
        report["metrics"] = per_layer(untraced, traced, tracer)
    else:
        phase = timed_loop(workload, args.seconds, 0)
        phases = [phase]
        report["metrics"] = end_to_end(workload, phase)
        tail = percentile(phase.times, 99)
        report["op_samples"] = phase.ops
        report["op_samples_per_mode"] = phase.ops // len(set(phase.modes))
        report["op_ms_p99_pooled"] = 1000 * tail
        report["samples_beyond_p99"] = sum(t > tail for t in phase.times)

    errors: dict[int, str] = {}
    for phase in phases:
        errors.update(phase.errors)
    errors.update(workload.check())
    report["attempted"] = sum(p.ops for p in phases)
    report["failed"] = len(errors)
    report["errors"] = [f"op {i}: {e}" for i, e in sorted(errors.items())][:5]
    report["checked_ops"] = len(getattr(workload, "samples", ())) or sum(
        p.ops for p in phases)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
