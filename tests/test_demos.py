"""Smoke test: every demo script runs to completion without stderr output."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
