#!/usr/bin/env python3
"""Hash what a checkout's program prints and writes, one sha256 per family.

    python3 tools/replay_digest.py
    python3 tools/replay_digest.py --checkout ../parent

Runs the checkout's postfeas (its ``src``; this repository unless
--checkout names another clone) with the BLAS thread pools pinned to one
thread, in child processes that write no bytecode and whose files go to
a temporary directory, and prints one JSON line of four sha256 digests:

- ``sim``: ``postfeas sim --seed 42``: every file it writes but
  ``manifest.json`` (the three CSVs and the SVGs), and its stdout;
- ``panel``: ``postfeas panel`` on the two fixtures of ``tests/data`` at
  seeds 2, 11 and 42: ``panel.csv``, ``panel_clusters.csv``,
  ``certificate.json`` and stdout;
- ``demos``: the stdout of each script in ``demos/``;
- ``robust_lp``: the instances of the ``robust_lp`` benchmark workload
  (``perfbench/workloads.py``, which is only read) at seeds 1 and 2,
  solved by ``solve_robust_cutting_planes``: status, objective,
  iterations, rounds, cuts per round, final max support and the bytes
  of x.

Two checkouts whose lines are equal behave the same on these runs, bit
for bit.  Exits 2 when the checkout has no ``src/postfeas``, and 1 when
a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The fixtures' panel configs, as the acceptance criteria run them.
PANEL_CONFIGS = {
    "panel_simple": {"budget": 3, "threshold": 1.5, "n_scen": 300,
                     "m_cert": 2000, "beta": 0.05},
    "panel_binding": {"budget": 3, "threshold": 1.2, "n_scen": 300,
                      "m_cert": 2000, "beta": 0.05},
}
PANEL_SEEDS = (2, 11, 42)
PANEL_FILES = ("panel.csv", "panel_clusters.csv", "certificate.json")
ROBUST_SEEDS = (1, 2)

# Prints one line per robust_lp instance: its digest fields, x as hex.
ROBUST_CODE = """\
import sys
from pathlib import Path
import postfeas
import workloads
for seed in map(int, sys.argv[1:]):
    for inst in workloads.RobustLp(seed, Path(".")).instances:
        rlp = postfeas.robustify_rows(inst["base"], inst["rows"],
                                      workloads.RobustLp.ALPHA)
        sol, log = postfeas.solve_robust_cutting_planes(rlp)
        print(repr((sol.status, sol.objective_value, sol.iterations,
                    log.rounds, log.cuts_per_round, log.final_max_support,
                    None if sol.x is None else sol.x.tobytes().hex())))
"""


def _feed(digest, label: str, data: bytes):
    """Add data to digest behind its label and length, so that no two
    sequences of items hash alike."""
    digest.update(f"{label}\0{len(data)}\0".encode())
    digest.update(data)


class Runner:
    """Child processes of one checkout, run in a scratch directory."""

    def __init__(self, checkout: Path, scratch: Path):
        self.checkout = checkout
        self.scratch = scratch
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.pathsep.join([str(checkout / "src"),
                                           str(checkout / "perfbench")]),
            "PYTHONDONTWRITEBYTECODE": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def run(self, args: list[str]) -> bytes:
        """stdout of python args in the scratch directory; RuntimeError
        when it exits nonzero."""
        proc = subprocess.run([sys.executable, *args], cwd=self.scratch,
                              env=self.env, capture_output=True, timeout=600)
        if proc.returncode:
            raise RuntimeError(f"{' '.join(args[:4])} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        return proc.stdout

    def cli(self, *args: str) -> bytes:
        return self.run(["-m", "postfeas.cli", *args])


def sim_digest(runner: Runner) -> str:
    digest = hashlib.sha256()
    _feed(digest, "stdout", runner.cli("sim", "--seed", "42", "--out", "sim"))
    out = runner.scratch / "sim"
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            _feed(digest, path.relative_to(out).as_posix(), path.read_bytes())
    return digest.hexdigest()


def panel_digest(runner: Runner) -> str:
    digest = hashlib.sha256()
    for fixture, config in PANEL_CONFIGS.items():
        data = runner.checkout / "tests" / "data" / fixture
        config_path = runner.scratch / f"{fixture}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        for seed in PANEL_SEEDS:
            out = f"{fixture}-{seed}"
            stdout = runner.cli(
                "panel", "--detections", str(data / "detections.csv"),
                "--clusters", str(data / "clusters.csv"),
                "--weights", str(data / "weights.csv"),
                "--config", str(config_path), "--seed", str(seed), "--out", out)
            _feed(digest, f"{out}/stdout", stdout)
            for name in PANEL_FILES:
                _feed(digest, f"{out}/{name}",
                      (runner.scratch / out / name).read_bytes())
    return digest.hexdigest()


def demos_digest(runner: Runner) -> str:
    digest = hashlib.sha256()
    for demo in sorted((runner.checkout / "demos").glob("*.py")):
        _feed(digest, demo.name, runner.run([str(demo)]))
    return digest.hexdigest()


def robust_lp_digest(runner: Runner) -> str:
    digest = hashlib.sha256()
    _feed(digest, "robust_lp", runner.run(
        ["-c", ROBUST_CODE, *map(str, ROBUST_SEEDS)]))
    return digest.hexdigest()


FAMILIES = {
    "sim": sim_digest,
    "panel": panel_digest,
    "demos": demos_digest,
    "robust_lp": robust_lp_digest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="clone whose src, demos, fixtures and perfbench are run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "postfeas").is_dir():
        print(f"error: {checkout} has no src/postfeas", file=sys.stderr)
        return 2
    digests = {}
    try:
        for name, family in FAMILIES.items():
            with tempfile.TemporaryDirectory(prefix="replay_digest-") as scratch:
                digests[name] = family(Runner(checkout, Path(scratch)))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
