"""tools/replay_digest.py: one sha256 per family of the program's outputs."""

import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli import child_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_digest.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], env=child_env(),
                          capture_output=True, text=True, timeout=600)


def test_prints_one_digest_per_family():
    proc = run_tool()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    digests = json.loads(lines[0])
    assert list(digests) == ["sim", "panel", "demos", "robust_lp"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    assert len(set(digests.values())) == 4


def test_checkout_without_postfeas_exits_2(tmp_path):
    proc = run_tool("--checkout", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == "" and "has no src/postfeas" in proc.stderr
