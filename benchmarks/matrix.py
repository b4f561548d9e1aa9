"""Time dprsim over every protocol x attack kind at several sizes.

For each cell the tool times ``run_scenario`` (the simulation alone),
``dprsim run`` end to end (in-process ``cli.main``: simulation, record
assembly, hashing and every output file) and the read side of the record
that run wrote (``load_record``, ``content_hash`` and ``summarize``), each
``--repeats`` times.  The
repeats are interleaved: each one runs every cell once before the next
starts, so drift of the host spreads over all cells instead of landing on
whole ones.  One more, untimed ``run_scenario`` per cell records its peak
memory as traced by ``tracemalloc`` and the bytes of its record's arrays.  The tool writes the
medians, every run, the memory figures and the environment to one JSON file:

    python benchmarks/matrix.py                              # 1e3, 1e5, 1e6 symbols, 5 repeats
    python benchmarks/matrix.py --sizes 1000 --repeats 1     # smoke run, seconds

Run it from the root of a checkout; it imports ``dprsim`` from ``src/`` next
to this directory, so the same file measures any checkout it is copied into.
Every attack kind runs with ideal detectors; the clean run also runs with
each detector imperfection of ``NOISY``, and a cell's ``detector`` names its
set.  Blinding cells turn the photocurrent monitor on, and COW blinding cells
use ``t_b`` 0.5, the splitter at which the detection-control inequalities
hold; every other setting is the scenario default.  One process, one run at a
time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import yaml  # noqa: E402

from dprsim import cli  # noqa: E402
from dprsim.config import scenario_from_dict  # noqa: E402
from dprsim.report import load_record, summarize  # noqa: E402
from dprsim.scenario import run_scenario  # noqa: E402

PROTOCOLS = ("dps", "cow")
ATTACKS = ("none", "backflash", "trojan", "blinding")
# Detector sections of the noisy clean cells, by the label a cell's ``detector`` holds.
NOISY = {
    "dark-1e-5": {"dark_count_prob": 1e-5},
    "dead-3": {"dead_time_slots": 3},
    "afterpulse-1e-2": {"afterpulse_prob": 0.01},
}
FORMAT = "dprsim-bench-matrix/3"
SEED = 1


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


def scenario(protocol: str, attack: str, n_symbols: int, detector: str = "ideal") -> dict:
    doc = {"protocol": protocol, "n_symbols": n_symbols, "seed": SEED, "attack": {"kind": attack}}
    if detector != "ideal":
        doc["detector"] = dict(NOISY[detector])
    if attack == "blinding":
        doc["countermeasures"] = {"photocurrent_monitor": {"enabled": True}}
        if protocol == "cow":
            doc["t_b"] = 0.5
    return doc


def _summary(times: list[float]) -> dict:
    return {"median": statistics.median(times), "runs": times}


def time_sim(doc: dict) -> float:
    cfg = scenario_from_dict(doc)
    started = time.perf_counter()
    run_scenario(cfg)
    return time.perf_counter() - started


def time_cli(config: Path, outdir: Path) -> tuple[float, float, int]:
    """Seconds of one ``dprsim run``, seconds to verify the record it wrote,
    and its exit code."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(outdir)])
    elapsed = time.perf_counter() - started
    started = time.perf_counter()
    loaded = load_record(outdir / "record.json")
    loaded.content_hash()
    summarize(loaded)
    read = time.perf_counter() - started
    del loaded
    shutil.rmtree(outdir)
    return elapsed, read, code


def memory(doc: dict) -> tuple[int, int]:
    """Peak traced bytes of one ``run_scenario`` and its record's array bytes."""
    tracemalloc.start()
    try:
        record = run_scenario(scenario_from_dict(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(arr.nbytes for arr in record._hashed()[1])


def cell_result(
    doc: dict, detector: str, sim: list[float], end_to_end: list[float], read: list[float], codes: list[int]
) -> dict:
    peak, record_bytes = memory(doc)
    n = doc["n_symbols"]
    return {
        "protocol": doc["protocol"],
        "attack": doc["attack"]["kind"],
        "detector": detector,
        "n_symbols": n,
        "scenario": doc,
        "run_scenario_s": _summary(sim),
        "run_scenario_us_per_symbol": statistics.median(sim) / n * 1e6,
        "run_scenario_peak_bytes": peak,
        "record_array_bytes": record_bytes,
        "peak_to_record": peak / record_bytes,
        "cli_run_s": _summary(end_to_end),
        "read_s": _summary(read),
        "cli_exit_codes": codes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000, 100_000, 1_000_000], help="symbols per run")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per cell and entry point")
    parser.add_argument("--out", default="BENCH_matrix.json", help="result file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    kinds = [(attack, "ideal") for attack in ATTACKS] + [("none", detector) for detector in NOISY]
    plan = [(scenario(p, a, n, d), d) for n in args.sizes for p in PROTOCOLS for a, d in kinds]
    sim, end_to_end, read, codes = ([[] for _ in plan] for _ in range(4))
    with tempfile.TemporaryDirectory(prefix="dprsim-matrix-") as tmp:
        configs = []
        for i, (doc, _) in enumerate(plan):
            configs.append(Path(tmp) / f"cell{i}.yaml")
            configs[i].write_text(yaml.safe_dump(doc), encoding="utf-8")
        # Each repeat runs every cell once, so that drift of the host spreads over all cells.
        for repeat in range(args.repeats):
            for i, (doc, _) in enumerate(plan):
                sim[i].append(time_sim(doc))
                seconds, verify, code = time_cli(configs[i], Path(tmp) / "run")
                end_to_end[i].append(seconds)
                read[i].append(verify)
                codes[i].append(code)
            print(f"repeat {repeat + 1} of {args.repeats} done", flush=True)
    cells = []
    for (doc, detector), *runs in zip(plan, sim, end_to_end, read, codes):
        cell = cell_result(doc, detector, *runs)
        cells.append(cell)
        print(
            f"{cell['protocol']:3} {cell['attack']:9} {detector:9} n={cell['n_symbols']:<8}"
            f" run_scenario {cell['run_scenario_s']['median']:8.3f} s"
            f" ({cell['run_scenario_us_per_symbol']:6.2f} us/symbol)"
            f"  dprsim run {cell['cli_run_s']['median']:8.3f} s"
            f"  read {cell['read_s']['median']:7.4f} s"
            f"  peak/record {cell['peak_to_record']:5.2f}",
            flush=True,
        )
    result = {
        "format": FORMAT,
        "environment": environment(),
        "settings": {"sizes": args.sizes, "repeats": args.repeats, "seed": SEED},
        "cells": cells,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
