#!/usr/bin/env python3
"""Run one benchmark workload and append its result to BENCH_<workload>.json.

    python3 tools/bench_log.py --label change --workload sim_study --seed 11
    python3 tools/bench_log.py --label parent --checkout ../parent \\
        --workload sim_study --seed 11

Byte-compiles the checkout's ``src`` and ``perfbench`` (the repository
holding this script unless --checkout names another git clone), so that
neither side of a pair compiles its sources in every run when bytecode
writing is off (``PYTHONDONTWRITEBYTECODE``), which would show in
``setup_s``.  Then runs the checkout's ``perfbench/run.py`` for the
benchmark's ``run_seconds`` (from BENCHMARK.json) with tracing off,
reads the result from the last JSON line of its stdout and the
environment from its ``env:`` lines, and appends one record to
``BENCH_<workload>.json`` in --out (the repository root by default).  The file is a JSON list that
only grows: an existing file that is not such a list makes the script
exit 2 and is left as it was.  A record holds the checkout's commit
(with a -dirty suffix when its tree has uncommitted changes other than
the ``BENCH_*.json`` logs), the label (``parent`` or ``change``),
workload, seed, seconds, trace flag (always 0), the environment and
every metric.  The exit code is run.py's: 0 when every check passed, 1
when a check failed (the record says ``"correct": false``); a run with
no result line records nothing and exits 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("parent", "change")
SECONDS = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

_ENV_CPUS = re.compile(r"env: cpus (\S+) \(usable (\S+)\)\s+python (\S+)"
                       r"\s+numpy (\S+)\s+blas (.+)$")


class MalformedLog(Exception):
    """An existing BENCH_*.json file is not a JSON list of records."""


def _count(text: str):
    return int(text) if text.isdigit() else text


def parse_run_output(stdout: str) -> dict:
    """run.py's stdout as {"environment": ..., "result": ...}.

    Raises ValueError when the last line is not a JSON object or an
    ``env:`` line is missing.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as exc:
        raise ValueError(f"last line of the run is not JSON: {exc}") from exc
    if not isinstance(result, dict):
        raise ValueError("the run printed no JSON result line")
    env: dict = {}
    for line in lines:
        match = _ENV_CPUS.match(line)
        if match:
            cpus, usable, python, numpy, blas = match.groups()
            env.update(cpu_count=_count(cpus), cpus_usable=_count(usable),
                       python=python, numpy=numpy, blas=blas)
        elif line.startswith("env: threads "):
            env["threads"] = dict(item.split("=", 1)
                                  for item in line.split()[2:])
    if "cpu_count" not in env or "threads" not in env:
        raise ValueError("the run printed no env: lines")
    return {"environment": env, "result": result}


def _read_records(path: Path) -> list:
    """The records in path ([] when it does not exist yet)."""
    if not path.exists():
        return []
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedLog(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise MalformedLog(f"{path} does not hold a JSON list")
    return records


def append_record(path: Path, record: dict) -> int:
    """Append record to the JSON list at path; return the new length.

    The file is replaced atomically, so a failed write leaves the old
    list.  An existing file that is not a JSON list raises MalformedLog
    and is not touched.
    """
    records = _read_records(path) + [record]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(records, indent=1) + "\n")
    os.replace(tmp, path)
    return len(records)


def _git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise ValueError(f"{checkout} is not a git checkout: {proc.stderr.strip()}")
    return proc.stdout


def _commit(checkout: Path) -> str:
    """HEAD of checkout, suffixed -dirty when tracked files other than the
    BENCH_*.json logs have changes (so appending to a tracked log does not
    mark the next run's code as uncommitted)."""
    head = _git(checkout, "rev-parse", "HEAD").strip()
    changed = _git(checkout, "status", "--porcelain", "--untracked-files=no",
                   "--", ".", ":(exclude)BENCH_*.json")
    return head + "-dirty" if changed.strip() else head


def byte_compile(checkout: Path):
    """Write the bytecode of the checkout's src and perfbench where it is
    missing or older than its source (compileall writes it whatever
    PYTHONDONTWRITEBYTECODE says)."""
    for name in ("src", "perfbench"):
        if (checkout / name).is_dir():
            compileall.compile_dir(checkout / name, quiet=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, choices=LABELS)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git clone whose perfbench/run.py runs")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH_<workload>.json files")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    path = args.out / f"BENCH_{args.workload}.json"
    try:
        _read_records(path)  # refuse a malformed log before the run
        commit = _commit(checkout)
        byte_compile(checkout)
        proc = subprocess.run(
            [sys.executable, str(checkout / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(SECONDS), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=checkout)
        sys.stdout.write(proc.stdout)
        parsed = parse_run_output(proc.stdout)
        count = append_record(path, {
            "commit": commit, "label": args.label, "workload": args.workload,
            "seed": args.seed, "seconds": SECONDS, "trace": 0,
            "environment": parsed["environment"], **parsed["result"],
        })
    except (ValueError, MalformedLog) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"appended record {count} to {path}", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
