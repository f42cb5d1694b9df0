"""Smoke test: every demo script runs to completion.

Each demo runs in a subprocess whose ``PYTHONPATH`` points at the
directory of the ``postfeas`` this process imported, as in
``test_cli.py``, so the demos exercise the code under test without an
install.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS="1"), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
