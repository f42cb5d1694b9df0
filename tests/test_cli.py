"""End-to-end tests for the command-line surface.

Each command is driven in process through ``main(argv)`` against files in
a temp directory; two tests run ``python -m postfeas.cli`` in a subprocess
to cover logging configuration.  They need no install: the child's
``PYTHONPATH`` points at the directory of the ``postfeas`` this process
imported, so the child runs the same code.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import postfeas
from postfeas import cli as cli_mod
from postfeas import experiments as ex
from postfeas.cli import RunManifest, main
from postfeas.errors import NumericalBreakdown, PostfeasError
from postfeas.experiments import METHODS, TrialRecord
from postfeas.lp import LpProblem, solution_from_json
from postfeas.robustify import robustify_rows

PROBLEM_OPTIMAL = {
    "maximize": [1.0],
    "constraints": [{"row": [1.0], "sense": "<=", "rhs": 1.0}],
    "bounds": [[0.0, None]],
}
PROBLEM_INFEASIBLE = {
    "maximize": [1.0],
    "constraints": [{"row": [1.0], "sense": "<=", "rhs": -1.0}],
    "bounds": [[0.0, None]],
}
PROBLEM_UNBOUNDED = {
    "maximize": [1.0],
    "constraints": [{"row": [1.0], "sense": ">=", "rhs": 0.0}],
    "bounds": [[None, None]],
}

SIM_CONFIG = {
    "n": 8, "m": 3, "d_ctx": 3, "n_obs": 40, "n_scen": 60,
    "m_cert": 400, "trials_per_alpha": 2,
    "alphas": [0.05, 0.1], "master_seed": 7,
}

SOLUTION_1D = {"status": "Optimal", "x": [1.0],
               "objective_value": 1.0, "iterations": 1}
SOLUTION_2D = {"status": "Optimal", "x": [1.0, 1.0],
               "objective_value": 2.0, "iterations": 1}


def child_env(**extra):
    """Minimal env for a CLI subprocess that imports this process's postfeas.

    The caller's environment is not copied, so a POSTFEAS_LOG or
    PYTHONWARNINGS set in the shell cannot reach the child.
    """
    package_root = Path(postfeas.__file__).resolve().parents[1]
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), **extra}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_panel_fixture(directory, detection_rows):
    """Write the three panel CSVs; detection_rows maps gene -> (c1, c2)."""
    weights = directory / "weights.csv"
    weights.write_text(
        "gene,weight\ng1,10.0\ng2,9.0\ng3,8.0\ng4,3.0\ng5,2.5\ng6,2.0\n",
        encoding="utf-8",
    )
    clusters = directory / "clusters.csv"
    clusters.write_text("cluster,n_cells\nc1,400\nc2,400\n", encoding="utf-8")
    lines = ["cluster,gene,detected_count"]
    for gene, (n1, n2) in detection_rows.items():
        lines.append(f"c1,{gene},{n1}")
        lines.append(f"c2,{gene},{n2}")
    detections = directory / "detections.csv"
    detections.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(detections), str(clusters), str(weights)


# Genes g1-g3 carry the weight but are nearly absent from cluster c2, so a
# coverage floor above what one strong gene provides forces two of the
# low-weight genes g4-g6 into the panel.
BINDING_DETECTIONS = {
    "g1": (380, 8), "g2": (380, 8), "g3": (380, 8),
    "g4": (300, 340), "g5": (300, 340), "g6": (300, 340),
}


class TestSolve:
    def test_optimal_single_bound(self, tmp_path, capsys):
        prob = write_json(tmp_path / "prob.json", PROBLEM_OPTIMAL)
        out = tmp_path / "run" / "solution.json"
        rc = main(["solve", prob, "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Optimal"
        assert lines[1].startswith("objective ")
        sol = solution_from_json(out.read_text())
        assert sol.status == "Optimal"
        assert sol.x == pytest.approx([1.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_manifest_records_run(self, tmp_path):
        prob = write_json(tmp_path / "prob.json", PROBLEM_OPTIMAL)
        out = tmp_path / "run" / "solution.json"
        main(["solve", prob, "--out", str(out), "--seed", "17"])
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest) == {f.name for f in dataclasses.fields(RunManifest)}
        assert manifest["command"] == "solve"
        assert manifest["master_seed"] == 17
        assert manifest["version"] == postfeas.__version__
        assert manifest["outputs"] == ["solution.json"]
        assert manifest["duration_seconds"] >= 0.0

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        prob = write_json(tmp_path / "prob.json", PROBLEM_OPTIMAL)
        out = tmp_path / "run" / "solution.json"
        assert main(["solve", prob, "--out", str(out), "--seed", "17"]) == 0
        text = (tmp_path / "run" / "manifest.json").read_text()
        assert json.loads(text)["environment"] == {
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "cpus_usable": (len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity") else None),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }
        assert json.loads(text)["environment"]["MKL_NUM_THREADS"] is None

    def test_manifest_records_usable_cpus(self, tmp_path, monkeypatch):
        # the CPUs this process may run on, which can be fewer than cpu_count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        prob = write_json(tmp_path / "prob.json", PROBLEM_OPTIMAL)
        out = tmp_path / "run" / "solution.json"
        assert main(["solve", prob, "--out", str(out)]) == 0
        env = read_json(tmp_path / "run" / "manifest.json")["environment"]
        assert env["cpus_usable"] == 1
        assert env["cpu_count"] == os.cpu_count()
        # a platform without the call records null
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["solve", prob, "--out", str(out)]) == 0
        env = read_json(tmp_path / "run" / "manifest.json")["environment"]
        assert env["cpus_usable"] is None

    def test_infeasible_exit_code(self, tmp_path, capsys):
        prob = write_json(tmp_path / "prob.json", PROBLEM_INFEASIBLE)
        out = tmp_path / "solution.json"
        rc = main(["solve", prob, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().out.splitlines()[0] == "Infeasible"
        assert solution_from_json(out.read_text()).status == "Infeasible"

    def test_bounds_only_problem_solves(self, tmp_path, capsys):
        # an empty constraint list is an LP of bounds only, not a bad input
        doc = {"maximize": [1.0, -1.0], "constraints": [],
               "bounds": [[0.0, 3.0], [-1.0, 2.0]]}
        prob = write_json(tmp_path / "prob.json", doc)
        out = tmp_path / "solution.json"
        assert main(["solve", prob, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Optimal", "objective 4.0", "x 3.0 -1.0"]
        doc["constraints"] = {}
        prob = write_json(tmp_path / "prob.json", doc)
        assert main(["solve", prob, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: problem.constraints: expected a list, got an object\n")

    def test_unbounded_exit_code(self, tmp_path):
        prob = write_json(tmp_path / "prob.json", PROBLEM_UNBOUNDED)
        rc = main(["solve", prob, "--out", str(tmp_path / "solution.json")])
        assert rc == 4

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        rc = main(["solve", str(bad), "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("bounds", [["a", 1]], 'problem.bounds[0][0]: expected a finite number, '
                               'got "a"'),
        ("maximize", ["x"], 'problem.maximize[0]: expected a finite number, got "x"'),
        ("rhs", "abc", 'problem.constraints[0].rhs: expected a finite number, '
                       'got "abc"'),
        ("row", ["abc"],
         'problem.constraints[0].row[0]: expected a finite number, got "abc"'),
    ], ids=["bounds", "maximize", "rhs", "row"])
    def test_non_numeric_entry_exit_code(self, tmp_path, capsys, field, value, message):
        doc = json.loads(json.dumps(PROBLEM_OPTIMAL))
        if field in ("rhs", "row"):
            doc["constraints"][0][field] = value
        else:
            doc[field] = value
        prob = write_json(tmp_path / "prob.json", doc)
        rc = main(["solve", prob, "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["solve", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2

    def test_numerical_breakdown_exit_code(self, tmp_path, monkeypatch):
        def boom(problem):
            raise NumericalBreakdown("pivot collapsed")

        monkeypatch.setattr(cli_mod, "solve_lp", boom)
        prob = write_json(tmp_path / "prob.json", PROBLEM_OPTIMAL)
        rc = main(["solve", prob, "--out", str(tmp_path / "s.json")])
        assert rc == 5

    @pytest.mark.filterwarnings("error")
    def test_non_finite_optimum_exit_code(self, tmp_path, capsys):
        # x = (2, 0) is finite, but its objective 2e308 overflows
        prob = write_json(tmp_path / "prob.json", {
            "maximize": [1e308, 1e308],
            "constraints": [{"row": [1.0, 1.0], "sense": "<=", "rhs": 2.0}],
            "bounds": [[0.0, None], [0.0, None]],
        })
        out = tmp_path / "run" / "solution.json"
        rc = main(["solve", prob, "--out", str(out)])
        assert rc == 5
        captured = capsys.readouterr()
        assert "not finite" in captured.err and "Warning" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestScenarioSize:
    def test_loosest_case_needs_one_draw(self, tmp_path, capsys):
        rc = main(["scenario-size", "--eps", "0.5", "--delta", "0.5",
                   "--d", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_closed_form_count(self, tmp_path, capsys):
        rc = main(["scenario-size", "--eps", "0.05", "--delta", "0.05",
                   "--d", "1", "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "59"
        achieved = float(lines[1].split()[0].split("=")[1])
        assert achieved <= 0.05
        assert achieved == pytest.approx(0.95 ** 59, rel=1e-12)

    def test_minimality_line(self, tmp_path, capsys):
        main(["scenario-size", "--eps", "0.05", "--delta", "0.05",
              "--d", "1", "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("minimality:")
        at_prev = float(lines[2].split(" is ")[1].split(" > ")[0])
        assert at_prev > 0.05
        assert at_prev == pytest.approx(0.95 ** 58, rel=1e-12)

    def test_domain_violation_exit_code(self, tmp_path, capsys):
        rc = main(["scenario-size", "--eps", "1.5", "--delta", "0.05",
                   "--d", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_manifest_written(self, tmp_path):
        main(["scenario-size", "--eps", "0.5", "--delta", "0.5",
              "--d", "1", "--out", str(tmp_path)])
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "scenario-size"
        assert manifest["config"] == {"eps": 0.5, "delta": 0.5, "d": 1}


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    cfg = write_json(root / "sim.json", SIM_CONFIG)
    out = root / "out"
    rc = main(["sim", "--config", cfg, "--out", str(out)])
    return rc, out, cfg


class TestSim:
    def test_exit_zero(self, sim_run):
        assert sim_run[0] == 0

    def test_output_files_exist(self, sim_run):
        _, out, _ = sim_run
        expected = {
            "trials.csv", "by_alpha.csv", "overall.csv", "manifest.json",
            "profit_bar_alpha_0.05.svg", "violation_bar_alpha_0.05.svg",
            "profit_bar_alpha_0.1.svg", "violation_bar_alpha_0.1.svg",
            "calibration_scatter.svg",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_trials_csv_schema(self, sim_run):
        _, out, _ = sim_run
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == ("alpha,method,trial,status,profit,v_true,"
                            "v_post,v_post_ub95,clamped,master_seed")
        assert len(lines) == 1 + 2 * 2 * len(METHODS)

    def test_by_alpha_csv_schema(self, sim_run):
        _, out, _ = sim_run
        lines = (out / "by_alpha.csv").read_text().splitlines()
        assert lines[0] == ("alpha,method,n,profit_mean,profit_sd,"
                            "vtrue_mean,vtrue_sd,vpost_mean,vpost_ub95_mean")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * len(METHODS)
        assert [r[1] for r in rows[: len(METHODS)]] == list(METHODS)

    def test_overall_csv_schema(self, sim_run):
        _, out, _ = sim_run
        lines = (out / "overall.csv").read_text().splitlines()
        assert lines[0] == ("method,n,profit_mean,profit_sd,"
                            "vtrue_mean,vpost_mean,vpost_ub95_mean")
        assert [line.split(",")[0] for line in lines[1:]] == list(METHODS)

    def test_manifest_lists_outputs(self, sim_run):
        _, out, _ = sim_run
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "sim"
        assert manifest["master_seed"] == SIM_CONFIG["master_seed"]
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_violation_chart_has_dashed_target(self, sim_run):
        _, out, _ = sim_run
        chart = (out / "violation_bar_alpha_0.05.svg").read_text()
        assert "stroke-dasharray" in chart
        assert "stroke-dasharray" not in (out / "profit_bar_alpha_0.05.svg").read_text()

    def test_replay_same_seed_identical(self, sim_run, tmp_path):
        _, out, cfg = sim_run
        again = tmp_path / "again"
        rc = main(["sim", "--config", cfg, "--out", str(again)])
        assert rc == 0
        for name in ("trials.csv", "by_alpha.csv", "overall.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_seed_flag_overrides_config(self, sim_run, tmp_path):
        _, out, cfg = sim_run
        other = tmp_path / "other"
        rc = main(["sim", "--config", cfg, "--out", str(other), "--seed", "9"])
        assert rc == 0
        assert read_json(other / "manifest.json")["master_seed"] == 9
        assert (other / "trials.csv").read_bytes() != (out / "trials.csv").read_bytes()

    def test_stdout_one_summary_line_per_method(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(METHODS)
        assert all("profit=" in line and "v_true=" in line for line in lines)

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", {"n": 8, "bogus_key": 1})
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_removed_m_true_key_exit_code(self, tmp_path, capsys):
        # v_true is exact, so there is no true-model draw count to set
        cfg = write_json(tmp_path / "sim.json", {"m_true": 5000})
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SimConfig.m_true: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_config_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"alphas": [1.5], "n_scen": 0})
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SimConfig" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alphas", [[0.05, 0.05], [0.1, 0.1000001]])
    def test_alphas_sharing_a_chart_name_exit_code(self, tmp_path, capsys, alphas):
        # a repeated alpha counted both groups in by_alpha.csv; two alphas
        # that print alike overwrote each other's charts
        cfg = write_json(tmp_path / "sim.json",
                         {"alphas": alphas, "trials_per_alpha": 2})
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SimConfig.alphas" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_few_observations_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json",
                         {"trials_per_alpha": 1, "n_obs": 4, "d_ctx": 6})
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "n_obs=4 must exceed d_ctx=6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--jobs", jobs])
        assert rc == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_successes_exit_code(self, tmp_path, monkeypatch):
        def all_errors(cfg, jobs=1):
            return [
                TrialRecord(alpha=alpha, method=m, trial=t, status="Error",
                            profit=math.nan, v_true=math.nan, v_post=math.nan,
                            v_post_ub95=math.nan, clamped=False,
                            master_seed=cfg.master_seed)
                for alpha in cfg.alphas
                for t in range(cfg.trials_per_alpha)
                for m in METHODS
            ]

        monkeypatch.setattr(ex, "run_benchmark", all_errors)
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        rc = main(["sim", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_one_error_record_fails_the_run(self, tmp_path, monkeypatch, capsys):
        real = ex.run_benchmark

        def one_error(cfg, jobs=1):
            records = real(cfg, jobs)
            records[3] = dataclasses.replace(
                records[3], status="Error", profit=math.nan, v_true=math.nan,
                v_post=math.nan, v_post_ub95=math.nan)
            return records

        monkeypatch.setattr(ex, "run_benchmark", one_error)
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        out = tmp_path / "out"
        rc = main(["sim", "--config", cfg, "--out", str(out)])
        assert rc == 1
        n_records = 2 * 2 * len(METHODS)
        assert (f"error: 1 of {n_records} trial records failed"
                in capsys.readouterr().err)
        # the outputs are still written, with the failed record in them
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + n_records
        assert lines[4].split(",")[3] == "Error"


class TestCertify:
    def test_replay_reference_value(self, tmp_path, capsys):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json",
                           {"family": "replay", "violations": 82})
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "4000", "--beta", "0.05", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        assert cert["M"] == 4000
        assert cert["s"] == 82
        assert cert["v_hat"] == pytest.approx(82 / 4000, rel=1e-15)
        assert cert["upper_bound"] == pytest.approx(0.024582, abs=1e-5)
        stdout = capsys.readouterr().out
        assert "v_hat=" in stdout and "upper_bound=" in stdout

    def test_replay_zero_violations_closed_form(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json",
                           {"family": "replay", "violations": 0})
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "100", "--beta", "0.05", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        assert cert["v_hat"] == 0.0
        assert cert["upper_bound"] == pytest.approx(
            1.0 - 0.05 ** (1.0 / 100.0), rel=1e-10
        )

    def test_replay_rejects_non_integer_violations(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        for bad in (82.0, True, "82"):
            model = write_json(tmp_path / "model.json",
                               {"family": "replay", "violations": bad})
            rc = main(["certify", "--solution", sol, "--model", model,
                       "--out", str(tmp_path / "c.json")])
            assert rc == 2

    def test_student_t_family_matches_cdf_oracle(self, tmp_path):
        # One row a = (1), x = (1), rhs ~ loc 2 scale 0.5 dof 5: violation
        # happens when the draw falls below a.x = 1, with probability
        # P(T < (1 - 2) / 0.5) under the standard t with 5 dof.
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t",
            "rows": [[1.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        target = scipy.stats.t.cdf(-2.0, 5)
        se = math.sqrt(target * (1 - target) / 4000)
        assert abs(cert["v_hat"] - target) <= 4 * se
        assert cert["per_constraint"] == [cert["v_hat"]]

    def test_gaussian_family_matches_normal_oracle(self, tmp_path):
        # Row (a, b) ~ N((0, 1), 0.25 I); at x = 1 the margin a x - b is
        # N(-1, 0.5), so the violation probability is 1 - Phi(1 / sqrt(0.5)).
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {
            "family": "gaussian_rows",
            "blocks": [{"center": [0.0, 1.0],
                        "cov": [[0.25, 0.0], [0.0, 0.25]]}],
        })
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        target = 1.0 - scipy.stats.norm.cdf(1.0 / math.sqrt(0.5))
        se = math.sqrt(target * (1 - target) / 4000)
        assert abs(cert["v_hat"] - target) <= 4 * se

    def test_bad_beta_exits_before_drawing(self, tmp_path, monkeypatch):
        def no_draws(*args):
            raise AssertionError("certify drew before checking beta")

        monkeypatch.setattr("postfeas.certification.draw_blocks", no_draws)
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {
            "family": "gaussian_rows",
            "blocks": [{"center": [0.0, 1.0],
                        "cov": [[0.25, 0.0], [0.0, 0.25]]}],
        })
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "3000000", "--beta", "2",
                   "--out", str(tmp_path / "certificate.json")])
        assert rc == 2
        assert not (tmp_path / "certificate.json").exists()

    def test_gaussian_family_accepts_psd_covariance(self, tmp_path):
        # The coefficient a = 1 is known exactly (zero variance) and
        # b ~ N(2, 0.25), so at x = 1 the violation probability is
        # P(b < 1) = Phi(-2).
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {
            "family": "gaussian_rows",
            "blocks": [{"center": [1.0, 2.0],
                        "cov": [[0.0, 0.0], [0.0, 0.25]]}],
        })
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        target = scipy.stats.norm.cdf(-2.0)
        se = math.sqrt(target * (1 - target) / 4000)
        assert abs(cert["v_hat"] - target) <= 4 * se

    def test_gaussian_family_bad_covariance_exit_code(self, tmp_path, capsys):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        for cov, message in (
                ([[1.0, 2.0], [2.0, 1.0]], "negative eigenvalue"),
                ([[1.0, 0.0, 0.0]], "model.blocks[0].cov: expected a list of 2, "
                                    "got a list of 1"),
                ([1.0, 0.0], "model.blocks[0].cov[0]: expected a list of 2, got 1.0"),
                ([[1.0, 0.0], [0.0, None]],
                 "model.blocks[0].cov[1][1]: expected a finite number, got null")):
            model = write_json(tmp_path / "model.json", {
                "family": "gaussian_rows",
                "blocks": [{"center": [1.0, 2.0], "cov": cov}],
            })
            rc = main(["certify", "--solution", sol, "--model", model,
                       "--out", str(tmp_path / "c.json")])
            assert rc == 2, cov
            assert message in capsys.readouterr().err, cov

    @pytest.mark.parametrize("cov, reader_message", [
        pytest.param([[1.0, 2.0], [2.0, 1.0]], None, id="indefinite"),
        pytest.param([[1.0, 0.0, 0.0]],
                     "model.blocks[0].cov: expected a list of 2, got a list of 1",
                     id="non-square"),
        pytest.param([[1.0, 0.0], [0.0, math.nan]],
                     "model.blocks[0].cov[1][1]: expected a finite number, got NaN",
                     id="non-finite"),
        pytest.param([[0.0, 0.0], [0.0, 0.25]], None, id="zero-variance"),
    ])
    def test_gaussian_family_matches_robustify_on_covariances(
            self, tmp_path, capsys, cov, reader_message):
        # The robust solve and its certificate read one covariance the
        # same way: both reject it with the same error, or both accept it.
        # A covariance of the wrong shape or with a non-finite entry is
        # rejected where the document is read, with the same error class
        # and a message naming its path.
        base = LpProblem([1.0], [], [(0.0, 3.0)])
        try:
            robustify_rows(base, [([1.0, 2.0], cov)], 0.1)
            error = None
        except PostfeasError as exc:
            error = exc
        doc = {"family": "gaussian_rows",
               "blocks": [{"center": [1.0, 2.0], "cov": cov}]}
        model = write_json(tmp_path / "model.json", doc)
        read_back = json.loads(Path(model).read_text(encoding="utf-8"))
        family = cli_mod._MODEL_FAMILIES["gaussian_rows"]
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "100", "--out", str(tmp_path / "c.json")])
        if error is None:
            assert reader_message is None
            assert rc == 0
            return
        with pytest.raises(type(error)):
            family(read_back, np.ones(1))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {reader_message or error}\n" == err

    def test_beta_family_matches_mc_oracle(self, tmp_path):
        # Coverage q1 + q2 with q_i ~ Beta(2, 2) against threshold 0.5;
        # reference probability from an independent large-sample draw.
        sol = write_json(tmp_path / "sol.json", SOLUTION_2D)
        model = write_json(tmp_path / "model.json", {
            "family": "beta_coverage",
            "a": [[2.0, 2.0]], "b": [[2.0, 2.0]], "threshold": 0.5,
        })
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "4000", "--seed", "5", "--out", str(out)])
        assert rc == 0
        cert = read_json(out)
        gen = np.random.default_rng(0)
        draws = gen.beta(2.0, 2.0, size=(2_000_000, 2)).sum(axis=1)
        target = float((draws < 0.5).mean())
        se = math.sqrt(target * (1 - target) / 4000)
        assert abs(cert["v_hat"] - target) <= 4 * se

    def test_beta_coverage_all_zero_decision(self, tmp_path, capsys):
        # x selects no gene, so restrict leaves (J, 0) cells: every coverage
        # is 0, below the threshold, and every draw violates
        sol = write_json(tmp_path / "sol.json", {
            "status": "Optimal", "x": [0.0, 0.0], "objective_value": 0.0,
            "iterations": 0,
        })
        model = write_json(tmp_path / "model.json", {
            "family": "beta_coverage",
            "a": [[2.0, 2.0]], "b": [[2.0, 2.0]], "threshold": 0.5,
        })
        out = tmp_path / "certificate.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "100", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["v_hat=1.0", "upper_bound=1.0"]
        assert read_json(out)["s"] == 100

    def test_sampling_family_deterministic(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_2D)
        model = write_json(tmp_path / "model.json", {
            "family": "beta_coverage",
            "a": [[2.0, 2.0]], "b": [[2.0, 2.0]], "threshold": 0.5,
        })
        paths = []
        for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
            out = tmp_path / name / "certificate.json"
            rc = main(["certify", "--solution", sol, "--model", model,
                       "--M", "4000", "--seed", seed, "--out", str(out)])
            assert rc == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_beta_coverage_draws_only_selected_genes(self, tmp_path):
        # a gene the solution leaves at 0 is not drawn: its parameters do
        # not matter, and deleting it gives the same certificate bytes
        sol = write_json(tmp_path / "sol.json", {
            "status": "Optimal", "x": [1.0, 0.0, 1.0],
            "objective_value": 2.0, "iterations": 1,
        })
        sol_kept = write_json(tmp_path / "sol_kept.json", SOLUTION_2D)
        docs = {
            "full": ([[2.0, 2.0, 2.0]], [[2.0, 2.0, 2.0]], sol),
            "other": ([[2.0, 0.3, 2.0]], [[2.0, 9.0, 2.0]], sol),
            "deleted": ([[2.0, 2.0]], [[2.0, 2.0]], sol_kept),
        }
        certs = {}
        for name, (a, b, solution) in docs.items():
            model = write_json(tmp_path / f"{name}.json", {
                "family": "beta_coverage", "a": a, "b": b, "threshold": 0.9,
            })
            out = tmp_path / name / "certificate.json"
            rc = main(["certify", "--solution", solution, "--model", model,
                       "--M", "3000", "--seed", "5", "--out", str(out)])
            assert rc == 0
            certs[name] = out.read_bytes()
        assert certs["full"] == certs["other"] == certs["deleted"]
        assert 0 < read_json(tmp_path / "full" / "certificate.json")["s"] < 3000

    def test_unknown_family_exit_code(self, tmp_path, capsys):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {"family": "cauchy_rows"})
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "cauchy_rows" in capsys.readouterr().err

    def test_missing_model_key_exit_code(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {"family": "replay"})
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_malformed_model_entries_exit_code(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        for doc in (
            {"family": "rhs_student_t", "rows": [[1.0]], "predictive": ["dof"]},
            {"family": "rhs_student_t", "rows": [["a"]],
             "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}]},
            {"family": "gaussian_rows", "blocks": [[0.0, 1.0]]},
            {"family": "gaussian_rows", "blocks": []},
            {"family": "gaussian_rows", "blocks": 3},
            {"family": "rhs_student_t", "rows": [[1.0]], "predictive": 5.0},
            {"family": "beta_coverage", "a": [[2.0]], "b": [[2.0]],
             "threshold": "high"},
        ):
            model = write_json(tmp_path / "model.json", doc)
            rc = main(["certify", "--solution", sol, "--model", model,
                       "--out", str(tmp_path / "c.json")])
            assert rc == 2, doc

    @pytest.mark.parametrize("doc, key", [
        pytest.param({"family": "gaussian_rows", "blocks": []}, "blocks",
                     id="gaussian_rows"),
        pytest.param({"family": "rhs_student_t", "rows": [], "predictive": []},
                     "predictive", id="rhs_student_t"),
        pytest.param({"family": "beta_coverage", "a": [], "b": [],
                      "threshold": 0.5}, "a", id="beta_coverage"),
    ])
    def test_empty_model_list_names_its_key(self, tmp_path, capsys, doc, key):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", doc)
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: model.{key}: expected a non-empty list, got a list of 0" in err
        assert "shape" not in err

    def test_solution_without_decisions_exit_code(self, tmp_path):
        sol = write_json(tmp_path / "sol.json",
                         {"status": "Infeasible", "x": None,
                          "objective_value": None, "iterations": 2})
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t", "rows": [[1.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2

    @pytest.mark.parametrize("status", ["Infeasible", "Unbounded"])
    def test_non_optimal_solution_exit_code(self, tmp_path, capsys, status):
        # a status other than Optimal is refused even with an x
        sol = write_json(tmp_path / "sol.json",
                         {"status": status, "x": [1.0],
                          "objective_value": None, "iterations": 2})
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t", "rows": [[1.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        out = tmp_path / "c.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(out)])
        assert rc == 2
        assert f"solution status is '{status}'" in capsys.readouterr().err
        assert not out.exists()

    def test_optimal_solution_without_decisions_exit_code(self, tmp_path, capsys):
        sol = write_json(tmp_path / "sol.json",
                         {"status": "Optimal", "x": None,
                          "objective_value": 1.0, "iterations": 2})
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t", "rows": [[1.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "no decision vector" in capsys.readouterr().err

    def test_row_shape_mismatch_exit_code(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t", "rows": [[1.0, 2.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_non_finite_solution_exit_code(self, tmp_path, capsys):
        sol = write_json(tmp_path / "sol.json", {
            "status": "Optimal", "x": [math.nan, 1.0],
            "objective_value": 1.0, "iterations": 1,
        })
        model = write_json(tmp_path / "model.json", {
            "family": "rhs_student_t", "rows": [[1.0, 1.0]],
            "predictive": [{"dof": 5.0, "loc": 2.0, "scale": 0.5}],
        })
        out = tmp_path / "c.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"dof": 5.0, "loc": 2.0, "scale": -1.0},
        {"dof": 5.0, "loc": 2.0, "scale": 0.0},
        {"dof": 0.0, "loc": 2.0, "scale": 0.5},
        {"dof": -3.0, "loc": 2.0, "scale": 0.5},
        {"dof": 5.0, "loc": math.nan, "scale": 0.5},
        {"dof": 5.0, "loc": math.inf, "scale": 0.5},
        # numbers only: a string or a bool is not read as one
        {"dof": "3", "loc": 2.0, "scale": 0.5},
        {"dof": 5.0, "loc": True, "scale": 0.5},
        # a whole model document rather than one predictive entry
        {"family": "beta_coverage", "a": [[2.0]], "b": [[2.0]],
         "threshold": "0.1"},
    ])
    def test_bad_predictive_parameters_exit_code(self, tmp_path, spec):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json", spec if "family" in spec else {
            "family": "rhs_student_t", "rows": [[1.0]], "predictive": [spec],
        })
        out = tmp_path / "c.json"
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_nonpositive_draw_count_exit_code(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json",
                           {"family": "replay", "violations": 0})
        rc = main(["certify", "--solution", sol, "--model", model,
                   "--M", "0", "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_manifest_written(self, tmp_path):
        sol = write_json(tmp_path / "sol.json", SOLUTION_1D)
        model = write_json(tmp_path / "model.json",
                           {"family": "replay", "violations": 1})
        out = tmp_path / "run" / "certificate.json"
        main(["certify", "--solution", sol, "--model", model,
              "--M", "50", "--out", str(out)])
        manifest = read_json(tmp_path / "run" / "manifest.json")
        assert manifest["command"] == "certify"
        assert manifest["config"]["family"] == "replay"
        assert manifest["config"]["M"] == 50
        assert manifest["outputs"] == ["certificate.json"]


@pytest.fixture(scope="module")
def binding_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("panel")
    det, clu, wts = write_panel_fixture(root, BINDING_DETECTIONS)
    cfg = write_json(root / "panel.json",
                     {"budget": 3, "threshold": 1.2, "n_scen": 300,
                      "m_cert": 2000, "beta": 0.05})
    out = root / "out"
    rc = main(["panel", "--detections", det, "--clusters", clu,
               "--weights", wts, "--config", cfg,
               "--seed", "11", "--out", str(out)])
    return rc, out, (det, clu, wts, cfg)


class TestPanel:
    def test_exit_zero_and_files(self, binding_run):
        rc, out, _ = binding_run
        assert rc == 0
        for name in ("panel.csv", "panel_clusters.csv", "certificate.json",
                     "coverage_box.svg", "manifest.json"):
            assert (out / name).exists()

    def test_coverage_floor_forces_low_weight_genes(self, binding_run):
        # Pure weight ranking would pick g1, g2, g3, but those genes are
        # nearly absent from cluster c2, so the floor admits only one of
        # them alongside two genes that cover c2.
        _, out, _ = binding_run
        lines = (out / "panel.csv").read_text().splitlines()
        assert lines[0] == "rank,gene,x_relaxed,weight"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["g1", "g4", "g5"]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert [float(r[3]) for r in rows] == [10.0, 3.0, 2.5]

    def test_cluster_summary_schema(self, binding_run):
        _, out, _ = binding_run
        lines = (out / "panel_clusters.csv").read_text().splitlines()
        assert lines[0] == "cluster,mean,q05,median,q95,violation_rate"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["c1", "c2"]
        for row in rows:
            q05, med, q95 = float(row[2]), float(row[3]), float(row[4])
            assert q05 <= med <= q95
            assert q05 >= 1.2
            assert 0.0 <= float(row[5]) <= 1.0

    def test_certificate_consistent(self, binding_run):
        _, out, _ = binding_run
        cert = read_json(out / "certificate.json")
        assert cert["M"] == 2000
        assert cert["v_hat"] <= cert["upper_bound"]
        assert len(cert["per_constraint"]) == 2

    def test_coverage_chart_has_threshold_line(self, binding_run):
        _, out, _ = binding_run
        chart = (out / "coverage_box.svg").read_text()
        assert "stroke-dasharray" in chart
        assert "c1" in chart and "c2" in chart

    def test_stdout_reports_panel_and_certificate(self, tmp_path, capsys):
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        cfg = write_json(tmp_path / "panel.json",
                         {"budget": 3, "threshold": 1.2, "m_cert": 500})
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--config", cfg,
                   "--seed", "11", "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "g1 g4 g5"
        assert lines[1].startswith("v_hat=")
        assert lines[2].startswith("upper_bound=")

    def test_replay_same_seed_identical(self, binding_run, tmp_path):
        _, out, (det, clu, wts, cfg) = binding_run
        again = tmp_path / "again"
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--config", cfg,
                   "--seed", "11", "--out", str(again)])
        assert rc == 0
        for name in ("panel.csv", "panel_clusters.csv", "certificate.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_single_cluster_takes_top_weights(self, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text(
            "gene,weight\ng1,10.0\ng2,9.0\ng3,8.0\ng4,3.0\ng5,2.5\ng6,2.0\n",
            encoding="utf-8",
        )
        clusters = tmp_path / "clusters.csv"
        clusters.write_text("cluster,n_cells\nc1,400\n", encoding="utf-8")
        detections = tmp_path / "detections.csv"
        detections.write_text(
            "cluster,gene,detected_count\n"
            + "".join(f"c1,g{k},380\n" for k in range(1, 7)),
            encoding="utf-8",
        )
        cfg = write_json(tmp_path / "panel.json",
                         {"budget": 3, "threshold": 1.5, "m_cert": 500})
        rc = main(["panel", "--detections", str(detections),
                   "--clusters", str(clusters), "--weights", str(weights),
                   "--config", cfg, "--seed", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "g1 g2 g3"

    def test_unreachable_threshold_exit_code(self, tmp_path, capsys):
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        cfg = write_json(tmp_path / "panel.json",
                         {"budget": 3, "threshold": 2.9})
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "c2" in capsys.readouterr().err

    def test_out_of_range_config_exit_code(self, tmp_path, capsys):
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        for doc in ({"budget": 2.5}, {"beta": 1.5}, {"threshold": math.inf}):
            cfg = write_json(tmp_path / "panel.json", doc)
            rc = main(["panel", "--detections", det, "--clusters", clu,
                       "--weights", wts, "--config", cfg,
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            assert "PanelConfig" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_detection_exit_code(self, tmp_path, capsys):
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        with open(det, "a", encoding="utf-8") as fh:
            fh.write("c1,g2,10\n")
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "(c1, g2)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which, line, kind, shown", [
        ("weights", '"g,7",1.0', "gene", "'g,7'"),
        ("weights", '"g""7",1.0', "gene", "'g\"7'"),
        ("weights", '"g\n7",1.0', "gene", "'g\\n7'"),
        ("weights", ",1.0", "gene", "''"),
        ("clusters", '"c,3",400', "cluster", "'c,3'"),
        ("clusters", '"c\r3",400', "cluster", "'c\\r3'"),
    ], ids=["comma", "quote", "newline", "empty", "cluster-comma", "cluster-cr"])
    def test_id_the_outputs_cannot_write_exit_code(self, tmp_path, capsys, which,
                                                   line, kind, shown):
        # panel.csv and panel_clusters.csv write ids unquoted, so an id with
        # a comma, a quote or a line break would break their rows
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        path = {"weights": wts, "clusters": clu}[which]
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write(line + "\n")
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {kind} id {shown} is empty or holds a comma, "
            "a quote or a line break\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exit_code(self, tmp_path, capsys, weight):
        det, clu, wts = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        with open(wts, "a", encoding="utf-8") as fh:
            fh.write(f"g7,{weight}\n")
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "weights.csv: gene 'g7' weight: expected a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_mean_below_threshold_warns(self, tmp_path, capsys):
        # g1 covers only c1 and g2 only c2.  The relaxed program splits the
        # single slot between them; the rounded panel {g1} leaves c2 with
        # almost no coverage on average.
        det, clu, wts = write_panel_fixture(
            tmp_path, {"g1": (380, 0), "g2": (0, 380)})
        cfg = write_json(tmp_path / "panel.json",
                         {"budget": 1, "threshold": 0.45, "m_cert": 500})
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[0] == "g1"
        assert len(out) == 3
        assert out[1].startswith("v_hat=") and out[2].startswith("upper_bound=")
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: cluster c2 has mean coverage 0.")
        assert err[0].endswith("below the threshold 0.45")

    def test_mean_above_threshold_is_quiet(self, binding_run, tmp_path, capsys):
        _, _, (det, clu, wts, cfg) = binding_run
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", wts, "--config", cfg,
                   "--seed", "11", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seed", ["2", "42", "11"])
    def test_binding_fixture_panel_certifies(self, tmp_path, capsys, seed):
        # top-B rounding picks g1 g2 g4 at seeds 2 and 42, which misses
        # c2's floor in every draw; the swap repair trades g2 for g5
        d = Path(__file__).parent / "data" / "panel_binding"
        cfg = write_json(tmp_path / "panel.json",
                         {"budget": 3, "threshold": 1.2, "n_scen": 300})
        rc = main(["panel", "--detections", str(d / "detections.csv"),
                   "--clusters", str(d / "clusters.csv"),
                   "--weights", str(d / "weights.csv"), "--config", cfg,
                   "--seed", seed, "--out", str(tmp_path / "out")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == ["g1 g4 g5", "v_hat=0.0"]
        assert captured.err == ""

    def test_malformed_csv_exit_code(self, tmp_path):
        det, clu, _ = write_panel_fixture(tmp_path, BINDING_DETECTIONS)
        bad = tmp_path / "weights.csv"
        bad.write_text("gene,score\ng1,10.0\n", encoding="utf-8")
        rc = main(["panel", "--detections", det, "--clusters", clu,
                   "--weights", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2


class TestEntryPoint:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_console_script_logs_to_stderr(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "postfeas.cli", "scenario-size",
             "--eps", "0.05", "--delta", "0.05", "--d", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
            env=child_env(POSTFEAS_LOG="info"),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "59"
        assert "INFO postfeas.cli" in proc.stderr

    def test_log_level_is_read_on_every_call(self, tmp_path):
        # a first call at the default level, then one at info in the
        # same process
        proc = subprocess.run(
            [sys.executable, "-c", LOG_LEVEL_CALLS, str(tmp_path), "error", "info"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        wrote = f"wrote {tmp_path / 'manifest.json'}\n"
        assert proc.stderr == "--\n" + "INFO postfeas.cli: " + wrote + "--\n"

    def test_log_level_reaches_a_host_that_set_up_logging(self, tmp_path):
        # the host's handlers print postfeas records, once each
        code = ("import logging\n"
                "logging.basicConfig(format='HOST %(name)s %(message)s')\n"
                + LOG_LEVEL_CALLS)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), "info", "error"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (f"HOST postfeas.cli wrote {tmp_path / 'manifest.json'}"
                               f"\n--\n--\n")

    @pytest.mark.parametrize("value", ["warning", "", "inf"])
    def test_unknown_log_level_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("POSTFEAS_LOG", value)
        rc = main(["scenario-size", "--eps", "0.5", "--delta", "0.5",
                   "--d", "1", "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: POSTFEAS_LOG must be one of error, info, "
                                f"debug, got {value!r}\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_command_patched_after_an_earlier_call_runs(self, tmp_path, monkeypatch):
        argv = ["scenario-size", "--eps", "0.5", "--delta", "0.5", "--d", "1",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        seen = []

        def patched(args):
            seen.append(args.eps)
            return 7

        monkeypatch.setattr(cli_mod, "_cmd_scenario_size", patched)
        assert main(argv) == 7
        assert seen == [0.5]

    def test_build_parser_returns_a_new_parser(self):
        assert cli_mod.build_parser() is not cli_mod.build_parser()

    def test_quiet_by_default(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "postfeas.cli", "scenario-size",
             "--eps", "0.5", "--delta", "0.5", "--d", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""


# One scenario-size call per POSTFEAS_LOG value in argv[2:], each
# followed by a "--" line on stderr.
LOG_LEVEL_CALLS = """
import os, sys
from postfeas.cli import main
for level in sys.argv[2:]:
    os.environ["POSTFEAS_LOG"] = level
    assert main(["scenario-size", "--eps", "0.5", "--delta", "0.5",
                 "--d", "1", "--out", sys.argv[1]]) == 0
    sys.stderr.write("--\\n")
"""

# Modules of the network, e-mail and process-pool stacks; no command needs them.
UNUSED_STACKS = ("ssl", "socket", "selectors", "subprocess", "http.client",
                 "urllib.request", "email", "xml.sax", "multiprocessing",
                 "concurrent.futures")

COMMANDS_IN_PROCESS = """
import json, sys
import postfeas, postfeas.cli
from postfeas.cli import main
out, fixture = sys.argv[1], sys.argv[2]
with open(out + "/sim.json", "w") as fh:
    json.dump({"n": 6, "m": 3, "d_ctx": 2, "n_obs": 30, "n_scen": 40,
               "m_cert": 200, "trials_per_alpha": 1, "alphas": [0.1]}, fh)
with open(out + "/panel.json", "w") as fh:
    json.dump({"budget": 3, "threshold": 1.2, "n_scen": 40, "m_cert": 200}, fh)
assert main(["sim", "--config", out + "/sim.json", "--out", out + "/sim"]) == 0
assert main(["panel", "--detections", fixture + "/detections.csv",
             "--clusters", fixture + "/clusters.csv",
             "--weights", fixture + "/weights.csv",
             "--config", out + "/panel.json", "--out", out + "/panel"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


class TestImportSet:
    def test_commands_load_no_unused_stack(self, tmp_path):
        fixture = Path(__file__).resolve().parent / "data" / "panel_binding"
        proc = subprocess.run(
            [sys.executable, "-c", COMMANDS_IN_PROCESS, str(tmp_path), str(fixture)],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert (tmp_path / "sim" / "trials.csv").exists()
        assert (tmp_path / "panel" / "certificate.json").exists()
        assert sorted(loaded.intersection(UNUSED_STACKS)) == []

    @pytest.mark.parametrize("text", [
        "plain", "a & b", "<tag>", "x > y < z", "&amp; stays &amp;amp;",
        "'single' and \"double\" quotes", "α ≤ 0.05 — ü", "", "&<>&<>",
    ])
    def test_svg_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        from postfeas.svg import _escape

        assert _escape(text) == escape(text)
