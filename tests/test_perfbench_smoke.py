"""Guard for the benchmark harness: a traced smoke run of every workload must
finish with no failed operation.

The tracer (``perfbench/layertrace.py``) wraps functions and methods of
``dprsim`` by name, so renaming or moving one of them breaks the benchmark;
this test catches that in the ordinary test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_has_no_failures():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0
