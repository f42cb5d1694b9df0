"""tools/bench_log.py: parsing a benchmark run and appending its record."""

import importlib.util
import json
import subprocess
import sys
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


def test_main_byte_compiles_the_checkout(tmp_path, monkeypatch):
    # a clone run with bytecode writing off would compile its sources
    # anew in every run, which reads as a slower setup_s
    checkout = fake_checkout(tmp_path / "change", CANNED, 0)
    module = checkout / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")
    monkeypatch.setattr(bench_log, "_commit", lambda path: "abc123")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert bench_log.main(["--label", "change", "--workload", "robust_lp",
                           "--seed", "1", "--checkout", str(checkout),
                           "--out", str(tmp_path)]) == 0
    for source in (module, checkout / "perfbench" / "run.py"):
        assert Path(importlib.util.cache_from_source(str(source))).is_file()


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


PAIRS_TOOL = TOOL.with_name("bench_pairs.py")
_pairs_spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_TOOL)
bench_pairs = importlib.util.module_from_spec(_pairs_spec)
_pairs_spec.loader.exec_module(bench_pairs)


def synthetic_record(label, commit, seed, op_p50_ms, peak_rss_mb=40.0,
                     failed=0):
    """A logged run whose other end-to-end metrics read as the parent's."""
    values = {"setup_s": 0.2, "wall_s": 1.5, "ops_per_s": 130.0,
              "op_p50_ms": op_p50_ms, "op_p90_ms": 13.0,
              "peak_rss_mb": peak_rss_mb}
    return {"commit": commit, "label": label, "seed": seed,
            "attempted": 1000, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def metric_rows(pairs):
    return {m["name"]: bench_pairs.compare(pairs, m)
            for m in bench_pairs.END_TO_END}


def test_pairs_by_seed_and_reports_leftovers():
    records = [synthetic_record("parent", "aaa111", 2, 6.0),
               synthetic_record("change", "bbb222-dirty", 1, 5.0),
               synthetic_record("parent", "aaa111", 1, 6.5),
               synthetic_record("change", "bbb222", 2, 5.5),
               synthetic_record("change", "bbb222", 2, 5.4),  # second run
               synthetic_record("parent", "ccc333", 3, 9.0),  # other commit
               synthetic_record("change", "aaa111", 1, 1.0)]  # wrong label
    pairs, unpaired = bench_pairs.pair_records(records, "aaa", "bbb")
    assert [(p["seed"], p["metrics"]["op_p50_ms"]["value"],
             c["metrics"]["op_p50_ms"]["value"]) for p, c in pairs] == [
        (1, 6.5, 5.0), (2, 6.0, 5.5)]
    assert unpaired == [records[4]]


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_parent_spread():
    parent = [6.0, 6.1, 6.2, 6.3, 6.4, 6.5, 6.6, 6.7, 6.8, 6.9]
    clear = [(synthetic_record("parent", "p", s, v),
              synthetic_record("change", "c", s, v - 1.0))
             for s, v in enumerate(parent)]
    row = metric_rows(clear)["op_p50_ms"]
    assert (row["wins"], row["gain"], row["bound"]) == (10, True, "ok")
    # one pair lost of ten still gains; two do not
    one_lost = clear[:9] + [(clear[9][0], synthetic_record("change", "c", 9, 7.0))]
    assert metric_rows(one_lost)["op_p50_ms"]["gain"] is True
    two_lost = one_lost[:8] + [(clear[8][0], synthetic_record("change", "c", 8, 7.0)),
                               one_lost[9]]
    assert metric_rows(two_lost)["op_p50_ms"]["gain"] is False
    # every pair won, but by less than the parent's interquartile range
    near = [(p, synthetic_record("change", "c", p["seed"],
                                 p["metrics"]["op_p50_ms"]["value"] - 0.05))
            for p, _ in clear]
    row = metric_rows(near)["op_p50_ms"]
    assert (row["wins"], row["gain"]) == (10, False)
    # ties count for neither side; an unchanged metric gains nothing
    assert metric_rows(clear)["setup_s"]["wins"] == 0
    assert metric_rows(clear)["setup_s"]["gain"] is False


def test_bound_verdicts():
    tight = [(synthetic_record("parent", "p", s, 6.0, peak_rss_mb=40.0 + 0.1 * s),
              synthetic_record("change", "c", s, 6.0, peak_rss_mb=43.0 + 0.1 * s))
             for s in range(5)]
    # 43.2 against 40.2 is 7.5% worse, beyond the 5% bound
    assert metric_rows(tight)["peak_rss_mb"]["bound"] == "worse"
    wide = [(synthetic_record("parent", "p", s, 4.0 + 1.5 * s),
             synthetic_record("change", "c", s, 4.5 + 1.5 * s)) for s in range(5)]
    assert metric_rows(wide)["op_p50_ms"]["bound"] == "unresolved"
    apart = [(p, synthetic_record("change", "c", p["seed"], 1.0))
             for p, _ in wide]
    assert metric_rows(apart)["op_p50_ms"]["bound"] == "ok"


def test_main_exit_codes(tmp_path, capsys):
    def log(records):
        (tmp_path / "BENCH_robust_lp.json").write_text(json.dumps(records))
        return bench_pairs.main(["--workload", "robust_lp", "--parent", "p",
                                 "--change", "c", "--dir", str(tmp_path)])

    faster = [synthetic_record(label, label[0], s, 6.0 if label == "parent" else 5.0)
              for s in range(3) for label in ("parent", "change")]
    assert log(faster) == 0
    out = capsys.readouterr().out
    assert "3 pairs" in out and "failed ops: parent 0/3000, change 0/3000" in out
    failing = faster[:-1] + [synthetic_record("change", "c", 2, 5.0, failed=1)]
    assert log(failing) == 1
    slower = [synthetic_record(label, label[0], s, 6.0 if label == "parent" else 9.0)
              for s in range(3) for label in ("parent", "change")]
    assert log(slower) == 1
    assert log([r for r in faster if r["label"] == "parent"]) == 2
