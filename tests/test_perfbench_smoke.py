"""Guard for the benchmark harness: a traced smoke run of every workload must
finish with no failed operation, and count the work of the layers it traces.

The tracer (``perfbench/layertrace.py``) wraps functions and methods of
``dprsim`` by name, so renaming or moving one of them breaks the benchmark,
and calling one other than through its module global (a table built at
import time, say) hides it from the tracer and zeroes its counts; this test
catches both in the ordinary test suite.
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
    # Each count is made by a post-hook on one traced function: the sifts,
    # the detector model and the readings decoders.
    metrics = summary["metrics"]
    for name in (
        "dps-backflash-cli/protocols.sifted_bits",
        "dps-backflash-cli/detectors.clicks",
        "cow-blinding-sim/protocols.sifted_bits",
        "cow-blinding-sim/attacks.readings",
        "cow-blinding-sim/detectors.linear_slots",
    ):
        assert metrics[name]["value"] > 0, name
