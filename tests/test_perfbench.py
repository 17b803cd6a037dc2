"""The benchmark's own self-test, so a source change that breaks the
benchmark's correctness checks fails here and not only when it is run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
