"""The benchmark harness in perfbench/ still runs against the program.

Its self-test runs one short pass of each workload and checks that every
counter the harness expects to be nonzero is, so a change that stops a
counted call fails here and not only when the self-test is run by hand.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
