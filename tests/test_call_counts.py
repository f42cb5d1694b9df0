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


@pytest.mark.parametrize("workload", ["sim_study", "panel_study"])
def test_cli_ops_reuse_the_parser_built_at_warm_up(workload):
    # main builds its parser on the warm-up op's call and keeps it, so an
    # op neither builds one nor asks for the terminal's size (argparse's
    # help formatter did, 32 times per parser)
    proc = run_tool("--workload", workload, "--seed", "1", "--ops", "1",
                    "--match", r"postfeas\.cli\.main$|cli\.build_parser$|"
                    r"shutil\.get_terminal_size$")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["calls_per_op"] == {"postfeas.cli.main": 1.0}


def test_unknown_workload_and_bad_pattern_exit_2():
    proc = run_tool("--workload", "nope", "--seed", "1", "--ops", "1",
                    "--match", "x")
    assert proc.returncode == 2 and "unknown workload" in proc.stderr
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "1",
                    "--match", "(")
    assert proc.returncode == 2 and "bad --match" in proc.stderr


def test_robust_lp_round_keeps_its_pivots_and_sheds_its_glue():
    # The cutting-plane round's pivots and dual re-entries are the
    # simplex's own and must not move.  The calls that appending a cut
    # and handing back the incumbent shed (np.append of (x, -1), a
    # second finiteness check, a second read of the column values, the
    # box check of an x already clipped to its box, the buffers' zero
    # fills) must not come back: each reads at most its count here.
    proc = run_tool("--workload", "robust_lp", "--seed", "1", "--ops", "200",
                    "--match", r"\._pivot$|\.run_dual$|lp\._values$|lp\._peak$|"
                    r"_check_finite$|lp\._violation$|_function_base_impl\.append$|"
                    r"<built-in method numpy\.(zeros|arange)>$|_make_extobj>$")
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])["calls_per_op"]
    assert calls.pop("postfeas.lp._pivot") == 27.27
    assert calls.pop("postfeas.lp.run_dual") == 17.875
    at_most = {"postfeas.lp._values": 17.875, "postfeas.lp._peak": 52.625,
               "<built-in method numpy.zeros>": 12.37,
               "<built-in method numpy.arange>": 1.79,
               # np.errstate: one per pivot and per solution(), and one per
               # soc_support call, which makes a non-finite support fail closed
               "<built-in method numpy._core._multiarray_umath._make_extobj>": 66.02}
    assert set(calls) <= set(at_most)
    for name, count in calls.items():
        assert count <= at_most[name], name
