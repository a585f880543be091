"""The benchmark's self-test runs against this tree.

The benchmark traces library functions by name (for example
``simulator._advance`` and ``reachability.solve_one``); renaming or
deleting one of them breaks the benchmark, and this test catches it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks passed" in proc.stdout
