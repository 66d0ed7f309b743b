"""The benchmark's quick mode: every workload small, every roundtrip gate."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_quick_mode_passes_every_gate():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
