#!/usr/bin/env python3
"""Compare the parent and change records of two commits in a benchmark log.

    python3 tools/bench_pairs.py --workload robust_lp --parent f3cb5a6 --change 1a2b3c4

Reads ``BENCH_<workload>.json`` (as ``tools/bench_log.py`` writes it) from
--dir (the repository root by default) and pairs, seed by seed, the
records labelled ``parent`` whose commit starts with --parent with those
labelled ``change`` whose commit starts with --change; a seed run twice
on one side pairs its runs in the order they were logged, and runs left
without a partner are reported and not compared.  For each end-to-end
metric of BENCHMARK.json, with its ``better`` direction and ``bound``,
it prints each side's median and quartiles, the change's relative
difference of medians, the pairs the change won (ties count for
neither side), and two verdicts:

- gain: the change won at least nine tenths of the pairs and its median
  is better than the parent's by more than the distance between the
  parent's quartiles;
- bound: ``worse`` when the change's median is worse than the parent's
  by more than the bound (relative to the parent's median),
  ``unresolved`` when it is not but the parent's interquartile range is
  wider than the bound, unless every change run reads better than every
  parent run, and ``ok`` otherwise.

It also prints the share of failed operations on each side.  The exit
code is 0, or 1 when a metric is worse than its bound or the change
fails a larger share of operations, or 2 when the log holds no pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def pair_records(records: list, parent: str, change: str):
    """(pairs, unpaired): pairs holds (parent, change) records of one seed,
    in seed order; unpaired the records of either commit left over."""
    sides: dict[str, dict[int, list]] = {"parent": {}, "change": {}}
    for record in records:
        label = record.get("label")
        prefix = {"parent": parent, "change": change}.get(label)
        if prefix is not None and str(record.get("commit", "")).startswith(prefix):
            sides[label].setdefault(record["seed"], []).append(record)
    pairs, unpaired = [], []
    for seed in sorted(set(sides["parent"]) | set(sides["change"])):
        ours = sides["parent"].get(seed, [])
        theirs = sides["change"].get(seed, [])
        pairs += zip(ours, theirs)
        unpaired += ours[len(theirs):] + theirs[len(ours):]
    return pairs, unpaired


def quartiles(values: list) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by statistics.quantiles'
    default method, as the logged comparisons have always been read."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(pairs: list, metric: dict) -> dict:
    """The verdicts on one end-to-end metric over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [p["metrics"][name]["value"] for p, _ in pairs]
    new = [c["metrics"][name]["value"] for _, c in pairs]

    def better(a, b):
        """a reads better than b."""
        return a < b if lower else a > b

    p1, p2, p3 = quartiles(base)
    c1, c2, c3 = quartiles(new)
    worse_by = ((c2 - p2) if lower else (p2 - c2)) / p2
    wins = sum(better(c, p) for p, c in zip(base, new))
    if worse_by > metric["bound"]:
        bound = "worse"
    elif ((p3 - p1) / p2 > metric["bound"]
          and not better(max(new) if lower else min(new),
                         min(base) if lower else max(base))):
        bound = "unresolved"
    else:
        bound = "ok"
    return {
        "name": name, "better": metric["better"],
        "parent": (p1, p2, p3), "change": (c1, c2, c3),
        "relative": (c2 - p2) / p2, "wins": wins, "pairs": len(pairs),
        "gain": wins >= 0.9 * len(pairs) and better(c2, p2)
                and abs(c2 - p2) > p3 - p1,
        "bound": bound,
    }


def failed_share(records: list) -> tuple[int, int]:
    """Failed and attempted operations summed over records."""
    return (sum(r.get("failed", 0) for r in records),
            sum(r.get("attempted", 0) for r in records))


def report(workload: str, parent: str, change: str, records: list) -> int:
    pairs, unpaired = pair_records(records, parent, change)
    if not pairs:
        print(f"error: BENCH_{workload}.json has no seed run at both "
              f"{parent} (parent) and {change} (change)", file=sys.stderr)
        return 2
    seeds = ", ".join(str(p["seed"]) for p, _ in pairs)
    print(f"{workload}: {len(pairs)} pairs, parent {parent} vs change {change}; "
          f"seeds {seeds}")
    for record in unpaired:
        print(f"  unpaired: {record['label']} {record['commit']} seed {record['seed']}")
    base_failed = failed_share([p for p, _ in pairs])
    new_failed = failed_share([c for _, c in pairs])
    print(f"  failed ops: parent {base_failed[0]}/{base_failed[1]}, "
          f"change {new_failed[0]}/{new_failed[1]}")
    print(f"  {'metric':<12} {'better':<6} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'diff':>8} {'wins':>6} gain bound")
    # the change fails a larger share: f_c / a_c > f_p / a_p
    regressed = new_failed[0] * base_failed[1] > base_failed[0] * new_failed[1]
    for metric in END_TO_END:
        row = compare(pairs, metric)
        p1, p2, p3 = row["parent"]
        c1, c2, c3 = row["change"]
        print(f"  {row['name']:<12} {row['better']:<6} "
              f"{f'{p2:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
              f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>30} "
              f"{100 * row['relative']:+7.1f}% {row['wins']:>3}/{row['pairs']:<2} "
              f"{'yes' if row['gain'] else 'no':<4} {row['bound']}")
        regressed |= row["bound"] == "worse"
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="parent commit (prefix)")
    parser.add_argument("--change", required=True, help="change commit (prefix)")
    parser.add_argument("--dir", type=Path, default=ROOT,
                        help="directory of the BENCH_<workload>.json files")
    args = parser.parse_args(argv)
    path = args.dir / f"BENCH_{args.workload}.json"
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(records, list):
        print(f"error: {path} does not hold a JSON list", file=sys.stderr)
        return 2
    return report(args.workload, args.parent, args.change, records)


if __name__ == "__main__":
    sys.exit(main())
