"""tools/call_counts.py: calls per op of a benchmark workload under cProfile."""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import child_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "call_counts.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], env=child_env(),
                          capture_output=True, text=True, timeout=300)


def test_counts_calls_per_op_of_matching_functions():
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "4",
                    "--match", r"solve_robust_cutting_planes$|\.solve_lp$|_refactor$")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"], result["ops"]) == ("robust_lp", 1, 4)
    # one cutting-plane solve per op; no cold solve_lp and no refactor
    assert result["calls_per_op"] == {
        "postfeas.robustify.solve_robust_cutting_planes": 1.0}
    assert lines[:-1] == ["       1.000  postfeas.robustify.solve_robust_cutting_planes"]


def test_unknown_workload_and_bad_pattern_exit_2():
    proc = run_tool("--workload", "nope", "--seed", "1", "--ops", "1",
                    "--match", "x")
    assert proc.returncode == 2 and "unknown workload" in proc.stderr
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "1",
                    "--match", "(")
    assert proc.returncode == 2 and "bad --match" in proc.stderr
