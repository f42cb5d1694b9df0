"""tools/call_counts.py: calls per op of a benchmark workload under cProfile."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_seconds_per_op_of_the_matching_functions():
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "2",
                    "--match", r"\.run_dual$|\.solution$")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    names = {"postfeas.lp.run_dual", "postfeas.lp.solution"}
    assert set(result["calls_per_op"]) == names
    assert set(result["self_s_per_op"]) == set(result["cum_s_per_op"]) == names
    # each calls others, whose time only the cumulative seconds hold
    for name in names:
        assert 0.0 < result["self_s_per_op"][name] < result["cum_s_per_op"][name]


@pytest.mark.parametrize("workload, expect", [
    # three trials an op, each method's solve through replace_rhs
    ("sim_study", {"postfeas.lp.replace_rhs": 15.0,
                   "postfeas.experiments.run_trial": 3.0}),
    # one scenario program an op, every round in one row-generation loop
    ("panel_study", {"postfeas.experiments.panel_select": 1.0,
                     "postfeas.lp.solve_cutting_planes": 1.0,
                     "postfeas.scenario.solve_scenario_lp": 1.0}),
])
def test_sim_and_panel_ops_never_solve_cold(workload, expect):
    proc = run_tool("--workload", workload, "--seed", "1", "--ops", "1",
                    "--match", r"run_trial$|panel_select$|solve_scenario_lp$|"
                    r"solve_cutting_planes$|replace_rhs$|\.solve_lp$|"
                    r"_refactor$|linalg\._linalg\.inv$")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["workload"], result["ops"]) == (workload, 1)
    assert result["calls_per_op"] == expect


def test_unknown_workload_and_bad_pattern_exit_2():
    proc = run_tool("--workload", "nope", "--seed", "1", "--ops", "1",
                    "--match", "x")
    assert proc.returncode == 2 and "unknown workload" in proc.stderr
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "1",
                    "--match", "(")
    assert proc.returncode == 2 and "bad --match" in proc.stderr
