"""One workload process: set-up, warm-up, timed rounds, checks.

Started by run.py, never imported.  It pins the BLAS thread pools to one
thread before numpy is imported, imports postfeas from this checkout's
``src`` and prints one JSON object as the last line of its stdout.

Modes:
  setup    set up and warm up, report setup_s, exit
  measure  also run the timed rounds and the checks
  trace    as measure, alternating untraced and traced rounds
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
TRACE_OUT = ROOT / "perfbench" / "_out"

# A run keeps going, in whole rounds, until it has timed this many ops,
# so that at least ten lie beyond the p90.
MIN_OPS = 100

# The speed of a shared machine can drift by a third within minutes,
# for interpreter and numpy work alike.  So every process also times a
# fixed calibration kernel: CALIBRATE_AT_SETUP times after set-up, and
# before an op at most every CALIBRATE_EVERY_S seconds.  run.py scales
# each time by the kernel time measured around it (see run.py).
CALIBRATE_EVERY_S = 0.25
CALIBRATE_AT_SETUP = 7


class Kernel:
    """A fixed mix of interpreter loop, matrix products, sampling and sort."""

    def __init__(self):
        self.matrix = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)
        self.times: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        for _ in range(3):
            self.matrix @ self.matrix
        np.sort(np.random.default_rng(1).normal(size=20_000))
        took = time.perf_counter() - start
        self.times.append(took)
        return took


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def _local(times: list[float], i: int) -> float:
    """Median of kernel run i and its neighbours."""
    return statistics.median(times[max(i - 1, 0):i + 2])


def _timed_rounds(wl, seconds: float, tracer, kernel: Kernel) -> dict:
    """Repeat the round until `seconds` have passed and MIN_OPS are timed.

    With a tracer, even rounds run untraced and odd rounds traced, the
    run ends after a traced round, and MIN_OPS does not apply: a traced
    run reports no latency percentile.  Each untraced latency and round
    carries the kernel time measured around it.
    """
    out = {"latencies_s": [], "round_walls_s": [], "traced_walls_s": [],
           "failed": set()}
    lat_kernel, round_kernels, traced_kernels = [], [], []
    began = last_kernel = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        first_kernel = len(kernel.times) - 1
        kernel_s = 0.0
        for op in range(wl.round_size):
            if time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                kernel_s += kernel.run()
                last_kernel = time.perf_counter()
            t = time.perf_counter()
            try:
                ok = wl.run(op, r)
            except Exception:  # an op that raises is a failed op
                traceback.print_exc()
                ok = False
            if not traced:
                out["latencies_s"].append(time.perf_counter() - t)
                lat_kernel.append(len(kernel.times) - 1)
            if not ok:
                out["failed"].add((r, op))
        wall = time.perf_counter() - start - kernel_s
        if traced:
            tracer.uninstall()
        (out["traced_walls_s"] if traced else out["round_walls_s"]).append(wall)
        (traced_kernels if traced else round_kernels).append(
            (first_kernel, len(kernel.times)))
        r += 1
        if time.perf_counter() - began < seconds:
            continue
        if (len(out["latencies_s"]) >= MIN_OPS if tracer is None
                else r % 2 == 0):
            break
    out["rounds"] = r
    out["latency_kernel_s"] = [_local(kernel.times, i) for i in lat_kernel]
    out["round_kernel_s"] = [statistics.median(kernel.times[a:b])
                             for a, b in round_kernels]
    out["traced_kernel_s"] = [statistics.median(kernel.times[a:b])
                              for a, b in traced_kernels]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--started-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this process "
                             "was started")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import postfeas

    where = Path(postfeas.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"postfeas was imported from {where}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, absent_metrics, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.run(0, "warmup")
        setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
        kernel = Kernel()
        setup_kernel_s = statistics.median(
            kernel.run() for _ in range(CALIBRATE_AT_SETUP))
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s,
                              "setup_kernel_s": setup_kernel_s}))
            return 0

        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.prepare()
        timing = _timed_rounds(wl, args.seconds, tracer, kernel)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = timing.pop("failed")
        errors = wl.finish(timing["rounds"], failed)
        result = {
            "setup_s": setup_s,
            "setup_kernel_s": setup_kernel_s,
            "round_size": wl.round_size,
            "attempted": timing["rounds"] * wl.round_size,
            "failed": len(failed),
            **timing,
            "peak_rss_mb": rss_mb,
            "errors": errors,
            "env": _environment(),
        }
        if tracer is not None:
            TRACE_OUT.mkdir(exist_ok=True)
            tracer.write(TRACE_OUT / f"spans-{args.workload}.json")
            result["layers"] = layer_metrics(
                tracer, len(timing["traced_walls_s"]) * wl.round_size)
            result["absent"] = absent_metrics(tracer)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
