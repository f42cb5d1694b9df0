"""tools/bench_log.py: parsing a benchmark run and appending its record."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_log.py"
_spec = importlib.util.spec_from_file_location("bench_log", TOOL)
bench_log = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_log)

RESULT = {"correct": True, "attempted": 600, "failed": 0, "metrics": {
    "setup_s": {"value": 0.2312, "unit": "s"},
    "op_p50_ms": {"value": 6.87, "unit": "ms"},
    "peak_rss_mb": {"value": 43.7, "unit": "MB"},
}}

CANNED = "\n".join([
    "workload robust_lp  seed 1  seconds 15.0  trace 0",
    "env: cpus 2 (usable 1)  python 3.11.7  numpy 2.4.6  "
    "blas scipy-openblas 0.3.31.188.0",
    "env: threads OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=None",
    "ops: 200 per round x 3 rounds = 600 attempted, 0 failed; 600 timed untraced",
    "  setup_s                                     0.2312 s   raw 0.2254",
    json.dumps(RESULT),
]) + "\n"


def test_parse_reads_environment_and_result():
    parsed = bench_log.parse_run_output(CANNED)
    assert parsed["environment"] == {
        "cpu_count": 2, "cpus_usable": 1, "python": "3.11.7",
        "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "None"},
    }
    assert parsed["result"] == RESULT


@pytest.mark.parametrize("stdout", [
    "",
    CANNED.rsplit("\n", 2)[0] + "\n",  # no JSON line
    "\n".join(line for line in CANNED.splitlines()
              if not line.startswith("env:")),
])
def test_parse_rejects_incomplete_output(stdout):
    with pytest.raises(ValueError):
        bench_log.parse_run_output(stdout)


def test_append_keeps_earlier_records(tmp_path):
    path = tmp_path / "BENCH_robust_lp.json"
    assert bench_log.append_record(path, {"label": "parent"}) == 1
    assert bench_log.append_record(path, {"label": "change"}) == 2
    assert json.loads(path.read_text()) == [{"label": "parent"},
                                            {"label": "change"}]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("text", ["{not json", '{"records": []}'])
def test_malformed_log_left_untouched(tmp_path, text):
    path = tmp_path / "BENCH_robust_lp.json"
    path.write_text(text)
    with pytest.raises(bench_log.MalformedLog):
        bench_log.append_record(path, {"label": "change"})
    assert path.read_text() == text
    rc = bench_log.main(["--label", "change", "--workload", "robust_lp",
                         "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert path.read_text() == text


def fake_checkout(directory, stdout, exit_code):
    """A checkout whose perfbench/run.py prints stdout and exits."""
    (directory / "perfbench").mkdir(parents=True)
    (directory / "perfbench" / "run.py").write_text(
        f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({exit_code})\n")
    return directory


def test_main_appends_one_record_per_run(tmp_path, monkeypatch):
    checkout = fake_checkout(tmp_path / "parent", CANNED, 0)
    monkeypatch.setattr(bench_log, "_commit", lambda path: "abc123")
    argv = ["--label", "parent", "--workload", "robust_lp", "--seed", "11",
            "--checkout", str(checkout), "--out", str(tmp_path)]
    assert bench_log.main(argv) == 0
    assert bench_log.main(argv) == 0
    records = json.loads((tmp_path / "BENCH_robust_lp.json").read_text())
    assert len(records) == 2
    assert records[0] == {
        "commit": "abc123", "label": "parent", "workload": "robust_lp",
        "seed": 11, "seconds": bench_log.SECONDS, "trace": 0,
        "environment": bench_log.parse_run_output(CANNED)["environment"],
        **RESULT,
    }


def test_main_records_nothing_without_a_result(tmp_path, monkeypatch):
    checkout = fake_checkout(tmp_path / "change", "error: boom\n", 2)
    monkeypatch.setattr(bench_log, "_commit", lambda path: "abc123")
    rc = bench_log.main(["--label", "change", "--workload", "sim_study",
                         "--seed", "1", "--checkout", str(checkout),
                         "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "BENCH_sim_study.json").exists()


def test_main_passes_on_a_failed_check(tmp_path, monkeypatch):
    failed = CANNED.replace('"correct": true', '"correct": false')
    checkout = fake_checkout(tmp_path / "change", failed, 1)
    monkeypatch.setattr(bench_log, "_commit", lambda path: "abc123")
    rc = bench_log.main(["--label", "change", "--workload", "sim_study",
                         "--seed", "1", "--checkout", str(checkout),
                         "--out", str(tmp_path)])
    assert rc == 1
    records = json.loads((tmp_path / "BENCH_sim_study.json").read_text())
    assert records[0]["correct"] is False


def git(checkout, *args):
    subprocess.run(["git", "-C", str(checkout), "-c", "user.name=bench",
                    "-c", "user.email=bench@example.com", *args],
                   check=True, stdout=subprocess.PIPE)


def test_appending_to_a_tracked_log_leaves_the_tree_clean(tmp_path):
    # the logs live in the checkout and are committed: appending one must
    # not stamp the next run -dirty, while a change to the code must
    checkout = fake_checkout(tmp_path / "repo", CANNED, 0)
    (checkout / "BENCH_robust_lp.json").write_text("[]\n")
    git(checkout, "init", "-q")
    git(checkout, "add", ".")
    git(checkout, "commit", "-q", "-m", "seed")
    head = bench_log._git(checkout, "rev-parse", "HEAD").strip()
    argv = ["--label", "change", "--workload", "robust_lp", "--seed", "1",
            "--checkout", str(checkout), "--out", str(checkout)]
    assert bench_log.main(argv) == 0
    assert bench_log.main(argv) == 0
    (checkout / "perfbench" / "run.py").write_text(
        (checkout / "perfbench" / "run.py").read_text() + "# edited\n")
    assert bench_log.main(argv) == 0
    records = json.loads((checkout / "BENCH_robust_lp.json").read_text())
    assert [r["commit"] for r in records] == [head, head, head + "-dirty"]
    assert {(r["seconds"], r["trace"]) for r in records} == {
        (bench_log.SECONDS, 0)}
