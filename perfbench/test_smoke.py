"""The benchmark's own test: ``run.py --smoke`` on tiny workloads.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
