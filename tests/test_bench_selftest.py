"""The benchmark's self-test (bench/selftest.py) passes against this checkout.

The self-test runs every workload at tiny sizes, end to end and traced in
process with every bench/tracer.py wrapper installed, so a rename that drops
a name the tracer wraps (such as b92.clone) fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    res = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
