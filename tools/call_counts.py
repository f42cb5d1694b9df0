#!/usr/bin/env python3
"""Count the calls per op of matching functions in a benchmark workload.

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
and then the same as one JSON line: ``{"workload", "seed", "ops",
"match", "checkout", "calls_per_op": {name: calls / ops}}``.

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


def calls_per_op(stats: pstats.Stats, pattern: re.Pattern, ops: int) -> dict:
    """{name: calls / ops} of the profiled functions whose name matches."""
    modules = {getattr(m, "__file__", None): name
               for name, m in list(sys.modules.items())}
    counts: dict[str, int] = {}
    for key, (_, calls, *_rest) in stats.stats.items():
        name = function_name(key, modules)
        if pattern.search(name):
            counts[name] = counts.get(name, 0) + calls
    return {name: calls / ops for name, calls in
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))}


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
    counts = calls_per_op(pstats.Stats(profile), pattern, args.ops)
    for name, per_op in counts.items():
        print(f"{per_op:12.3f}  {name}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops": args.ops, "match": args.match,
                      "checkout": str(checkout), "calls_per_op": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
