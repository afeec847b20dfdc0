"""Smoke tests in a fresh interpreter against the package in src/: every
script in demos/ runs to completion, and importing the package and its
CLI does not load numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_src(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script):
    proc = run_src([str(script)])
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_numpy():
    proc = run_src(["-c", "import sys, subrec, subrec.cli; assert 'numpy' not in sys.modules"])
    assert proc.returncode == 0, proc.stderr
