#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs, made one after the other.

    python3 perfbench/steady.py

Set A runs every workload of BENCHMARK.json once per seed 1..RUNS, each
run lasting run_seconds; set B then does the same with seeds
1001..1000+RUNS, so the two sets differ in time and in inputs.  For each
end-to-end metric on each workload it prints both medians, their
quartiles, each set's spread (quartile distance over the median) and how
much worse set B's median is than set A's, against the metric's bound in
BENCHMARK.json.  It exits 1 when a spread or a shift exceeds its bound,
or when the two sets' shares of failed ops differ.  Raw results go to
perfbench/_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stdout)
    return json.loads(lines[-1])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    sets = {}
    for set_name, base in (("A", 1), ("B", 1001)):
        results = {w: [] for w in names}
        for seed in range(base, base + RUNS):
            for w in names:
                started = time.monotonic()
                results[w].append(_one_run(w, seed, bench["run_seconds"]))
                print(f"set {set_name} {w} seed {seed}: "
                      f"{time.monotonic() - started:.1f} s", flush=True)
        sets[set_name] = results
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets), encoding="utf-8")

    ok = True
    print(f"{'workload':12s} {'metric':12s} {'median A':>11s} {'Q1..Q3 A':>23s} "
          f"{'spread A':>8s} {'median B':>11s} {'Q1..Q3 B':>23s} "
          f"{'spread B':>8s} {'worse':>7s} {'bound':>6s}")
    for w in names:
        for set_name in "AB":
            runs = sets[set_name][w]
            if not all(r["correct"] for r in runs):
                print(f"{w}: set {set_name} has a run whose checks failed")
                ok = False
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s][w]}
                  for s in "AB"}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"{w}: failed shares differ: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = _summary([r["metrics"][name]["value"] for r in sets["A"][w]])
            b = _summary([r["metrics"][name]["value"] for r in sets["B"][w]])
            worse = (b[0] - a[0]) / a[0]
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > bound or max(a[3], b[3]) > bound:
                flag = "  OVER BOUND"
                ok = False
            elif max(a[3], b[3]) > bound / 3:
                flag = "  spread above bound/3"
            print(f"{w:12s} {name:12s} {a[0]:11.5g} {a[1]:11.5g}..{a[2]:<11.5g}"
                  f" {a[3]:8.3f} {b[0]:11.5g} {b[1]:11.5g}..{b[2]:<11.5g}"
                  f" {b[3]:8.3f} {worse:7.3f} {bound:6.2f}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
