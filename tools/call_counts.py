#!/usr/bin/env python3
"""Count the calls and seconds per op of matching functions in a benchmark workload.

    python3 tools/call_counts.py --workload robust_lp --seed 1 --ops 200 \\
        --match 'linalg\\._linalg\\.inv$'
    python3 tools/call_counts.py --checkout ../parent --workload robust_lp \\
        --seed 1 --ops 200 --match '^postfeas\\.lp\\.'

Builds the workload of ``perfbench/workloads.py`` from --seed, as a
benchmark run does, runs one untimed warm-up op and then --ops ops
(cycling through the workload's round) in this process under cProfile,
with the BLAS thread pools pinned to one thread.  Functions are named
``module.function`` (``numpy.linalg._linalg.inv``; a method is named by
its module, as ``postfeas.lp.solve``); built-ins keep cProfile's name
(``<built-in method numpy.array>``).  For every function whose name
matches the regular expression --match (``re.search``) it prints the
calls per op, most called first (a function never called is absent),
and then one JSON line: ``{"workload", "seed", "ops", "match",
"checkout", "calls_per_op", "self_s_per_op", "cum_s_per_op"}``, each
of the last three ``{name: value / ops}``.  Self seconds exclude the
time of the functions called, cumulative seconds include it; both are
cProfile's, which adds its own cost to every call, and functions that
share a name are summed.

postfeas is imported from the checkout's ``src`` (this repository
unless --checkout names another clone) and the workload from its
``perfbench``, which is only read: the workload's files go to a
temporary directory.  Exits 2 on an unknown workload, a bad pattern or
a postfeas imported from elsewhere.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def function_name(key: tuple, modules: dict) -> str:
    """module.function for a pstats key (file, line, function)."""
    filename, _, function = key
    module = modules.get(filename)
    return function if module is None else f"{module}.{function}"


def per_op(stats: pstats.Stats, pattern: re.Pattern, ops: int) -> dict:
    """{"calls_per_op", "self_s_per_op", "cum_s_per_op"}, each
    {name: value / ops}, of the profiled functions whose name matches,
    most called first."""
    modules = {getattr(m, "__file__", None): name
               for name, m in list(sys.modules.items())}
    totals: dict[str, list] = {}
    for key, (_, calls, self_s, cum_s, _callers) in stats.stats.items():
        name = function_name(key, modules)
        if pattern.search(name):
            total = totals.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate((calls, self_s, cum_s)):
                total[i] += value
    order = sorted(totals, key=lambda name: (-totals[name][0], name))
    return {field: {name: totals[name][i] / ops for name in order}
            for i, field in enumerate(("calls_per_op", "self_s_per_op",
                                       "cum_s_per_op"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--match", required=True,
                        help="regular expression on module.function")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="clone whose src and perfbench are run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    try:
        pattern = re.compile(args.match)
    except re.error as exc:
        print(f"error: bad --match pattern: {exc}", file=sys.stderr)
        return 2
    if args.ops < 1:
        print(f"error: --ops must be >= 1, got {args.ops}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import postfeas
    import workloads

    where = Path(postfeas.__file__).resolve()
    if (checkout / "src").resolve() not in where.parents:
        print(f"error: postfeas was imported from {where}, not from "
              f"{checkout / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="call_counts-") as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        wl.run(0, "warmup")
        profile = cProfile.Profile()
        profile.enable()
        for op in range(args.ops):
            wl.run(op % wl.round_size, op // wl.round_size)
        profile.disable()
    result = per_op(pstats.Stats(profile), pattern, args.ops)
    for name, calls in result["calls_per_op"].items():
        print(f"{calls:12.3f}  {name}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops": args.ops, "match": args.match,
                      "checkout": str(checkout), **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
