#!/usr/bin/env python3
"""Benchmark of postfeas: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sim_study --seed 1 --seconds 15 --trace 0

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run.  Every workload process is
a fresh interpreter with one BLAS thread (see child.py).  With --trace 0
the set-up is timed in SETUP_RUNS processes and setup_s is their median;
the last of them also runs the timed phase.  The last line of stdout is
the result as JSON; the exit code is 0 only when every check passed.

End-to-end times are given at the machine speed at which the calibration
kernel in child.py takes KERNEL_NOMINAL_S (see end_to_end).  The report
above the JSON line also shows the raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim_study", "panel_study", "robust_lp")
SETUP_RUNS = 9
KERNEL_NOMINAL_S = 0.004
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--started-ns", str(time.monotonic_ns())]
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=seconds + 120.0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(child: dict, setups: list[dict], calibrated: bool = True) -> dict:
    """The six end-to-end metrics of one run; setups holds every set-up.

    Calibrated, each time is multiplied by KERNEL_NOMINAL_S over the
    kernel time measured around it: the median of the set-up runs for
    setup_s, of the round for a round's wall time, and of the kernel run
    before the op and its two neighbours for an op's latency.
    """
    def scaled(values, kernels):
        if not calibrated:
            return list(values)
        return [v * KERNEL_NOMINAL_S / k for v, k in zip(values, kernels)]

    setup_s = scaled([c["setup_s"] for c in setups],
                     [c["setup_kernel_s"] for c in setups])
    lat = scaled(child["latencies_s"], child["latency_kernel_s"])
    walls = scaled(child["round_walls_s"], child["round_kernel_s"])
    completed = len(lat) - child["failed"]  # measured runs trace no round
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (completed / sum(walls), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000.0 * statistics.quantiles(
            lat, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def trace_overhead(child: dict) -> float:
    """Calibrated median traced round minus median untraced round."""
    def median_wall(walls, kernels):
        return statistics.median(w * KERNEL_NOMINAL_S / k
                                 for w, k in zip(walls, kernels))

    return (median_wall(child["traced_walls_s"], child["traced_kernel_s"])
            - median_wall(child["round_walls_s"], child["round_kernel_s"]))


def _print_report(args, child: dict, metrics: dict, raw: dict | None) -> None:
    env = child["env"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"env: cpus {env['cpu_count']} (usable {env['cpus_usable']})  "
          f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}")
    print("env: threads " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"ops: {child['round_size']} per round x {child['rounds']} rounds = "
          f"{child['attempted']} attempted, {child['failed']} failed; "
          f"{len(child['latencies_s'])} timed untraced")
    kernel = statistics.median(child["round_kernel_s"])
    print(f"calibration kernel: median {1000 * kernel:.3f} ms over the rounds, "
          f"nominal {1000 * KERNEL_NOMINAL_S:.3f} ms")
    for name, m in metrics.items():
        note = "  (absent)" if name in child.get("absent", ()) else ""
        if raw:
            note = f"   raw {raw[name]['value']:.6g}"
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}{note}")
    for err in child["errors"]:
        print(f"CHECK FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            child = _child(args.workload, args.seed, args.seconds, "trace")
            metrics, raw = child["layers"], None
            metrics["trace.overhead_s"] = {
                "value": trace_overhead(child), "unit": "s"}
        else:
            setups = [_child(args.workload, args.seed, args.seconds, "setup")
                      for _ in range(SETUP_RUNS - 1)]
            child = _child(args.workload, args.seed, args.seconds, "measure")
            setups.append(child)
            metrics = end_to_end(child, setups)
            raw = end_to_end(child, setups, calibrated=False)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(args, child, metrics, raw)
    correct = not child["errors"]
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
