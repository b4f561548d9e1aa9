"""1e3-symbol smoke run of ``benchmarks/matrix.py``: every cell runs and the
result file has its documented shape."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_matrix_smoke_writes_every_cell(tmp_path):
    out = tmp_path / "BENCH_matrix.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "matrix.py"), "--sizes", "1000", "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["format"] == "dprsim-bench-matrix/3"
    assert set(result["environment"]) == {"nproc", "cpu_model", "python", "numpy", "pyyaml"}
    assert result["settings"] == {"sizes": [1000], "repeats": 1, "seed": 1}
    cells = result["cells"]
    noisy = {
        "dark-1e-5": {"dark_count_prob": 1e-5},
        "dead-3": {"dead_time_slots": 3},
        "afterpulse-1e-2": {"afterpulse_prob": 0.01},
    }
    kinds = [(a, "ideal") for a in ("none", "backflash", "trojan", "blinding")]
    kinds += [(a, d) for a in ("none", "blinding") for d in noisy]
    assert sorted((c["protocol"], c["attack"], c["detector"]) for c in cells) == sorted(
        (p, a, d) for p in ("dps", "cow") for a, d in kinds
    )
    for cell in cells:
        assert cell["n_symbols"] == 1000
        assert cell["scenario"].get("detector") == noisy.get(cell["detector"])
        for entry in ("run_scenario_s", "cli_run_s", "read_s"):
            assert len(cell[entry]["runs"]) == 1
            assert cell[entry]["median"] == cell[entry]["runs"][0] > 0.0
        assert cell["run_scenario_us_per_symbol"] > 0.0
        assert cell["run_scenario_peak_bytes"] >= cell["record_array_bytes"] > 0
        assert cell["peak_to_record"] == cell["run_scenario_peak_bytes"] / cell["record_array_bytes"]
        assert cell["cli_exit_codes"] == [0]
