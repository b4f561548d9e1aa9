#!/usr/bin/env python3
"""dprsim benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a dprsim checkout; the simulator is imported from its
``src/`` directory, never from an installed copy.

    python3 perfbench/run.py --workload cow-blinding-sim --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0   # table for every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1      # quick check at ~1e3 symbols

One run is one closed-loop client in one process: the next operation starts
when the last one has returned and been checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates pairs of untraced and traced
operations and reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced median operation time).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run writes its details (environment, every
operation time and, when traced, every span) under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
MIN_OPS = {0: 3, 1: 4}
# A traced run traces operations 2, 3, 6, 7, ...: pairs, so that workloads
# that alternate two inputs trace and leave untraced both of them.  Counts
# come from the first traced pair alone, so they do not depend on how many
# operations fit in the run and repeat exactly for the same seed.
FIRST_TRACED = 2
COUNTED_OPS = 2


def import_dprsim():
    """Import ``dprsim`` from the checkout's ``src``; returns it and the import time."""
    src = ROOT / "src"
    if not (src / "dprsim" / "__init__.py").is_file():
        raise RuntimeError(f"no dprsim sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import dprsim

    elapsed = time.perf_counter() - start
    if Path(dprsim.__file__).resolve().parent != (src / "dprsim").resolve():
        raise RuntimeError(f"dprsim was imported from {dprsim.__file__}, not from {src}")
    return dprsim, elapsed


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
    import numpy
    import yaml

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


def run_workload(args) -> tuple[dict, dict]:
    """One run of one workload: its result line and the environment."""
    dprsim, import_s = import_dprsim()
    from layertrace import Tracer, per_layer_names
    from reference import Reference
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](dprsim, args.seed, workdir, args.smoke)
    reference = None if args.trace else Reference()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        if hasattr(wl, "expect"):
            wl.expect()

        tracer = Tracer(dprsim) if args.trace else None
        rerun_index = FIRST_TRACED if tracer else 0
        times: list[float] = []
        traced_times: list[float] = []
        failures: list[str] = []
        ref_times = [reference.timed()] if reference else []
        ratios: list[float] = []
        failed = 0
        first_result = None
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < MIN_OPS[args.trace] or time.perf_counter() < deadline:
            traced = tracer is not None and index // 2 % 2 == 1
            result, errors, elapsed = _timed_op(wl, index, tracer if traced else None)
            (traced_times if traced else times).append(elapsed)
            if reference is not None:
                ref_times.append(reference.timed())
                ratios.append(elapsed / ((ref_times[-2] + ref_times[-1]) / 2))
            if result is not None:
                try:
                    errors += wl.check(result)
                except (OSError, ValueError, KeyError) as exc:
                    errors.append(f"output check raised {type(exc).__name__}: {exc}")
                if index == rerun_index:
                    first_result = result
                else:
                    wl.release(result)
            if errors:
                failed += 1
                failures += [f"op {index}: {e}" for e in errors]
            index += 1
        attempted = index
        # Read before the re-run and its hashing, which are the benchmark's own work.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # One operation re-run untimed: same content hash, and when traced the
        # same counts, or the run is not reproducible.
        result, errors, _ = _timed_op(wl, rerun_index, tracer)
        attempted += 1
        if result is not None and first_result is not None:
            try:
                if wl.content_hash(result) != wl.content_hash(first_result):
                    errors.append("content hash differs from the first run")
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"content hash raised {type(exc).__name__}: {exc}")
        for kept in (result, first_result):
            if kept is not None:
                wl.release(kept)
        if tracer is not None:
            first = next(e for e in tracer.ops if e["op"] == rerun_index)
            if tracer.counts_of(first) != tracer.counts_of(tracer.ops[-1]):
                errors.append("counts differ from the first run")
        if errors:
            failed += 1
            failures += [f"re-run of op {rerun_index}: {e}" for e in errors]

        op_p50 = statistics.median(times)
        # Wall times, printed and kept in the results file but not gated:
        # they carry the host's speed drift (see reference.py).
        wall = {"op_s.p50": op_p50, "symbols_per_s": wl.symbols_per_op / op_p50}
        if tracer is None:
            wall["reference_s.p50"] = statistics.median(ref_times)
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "op_ref.p50": (statistics.median(ratios), "ref"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            per_op = [tracer.op_metrics(e) for e in tracer.ops[:-1]]
            metrics = {}
            for name in per_layer_names():
                unit = _unit(name)
                if unit == "s":
                    metrics[name] = (statistics.median(m[name] for m in per_op), unit)
                else:
                    metrics[name] = (sum(m[name] for m in per_op[:COUNTED_OPS]) / COUNTED_OPS, unit)
            overhead = statistics.median(traced_times) - statistics.median(times)
            metrics["trace.overhead_s"] = (overhead, "s")
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(),
            "import_s": import_s,
            "setup_times_s": setup_times,
            "untraced_op_times_s": times,
            "traced_op_times_s": traced_times,
            "reference_times_s": ref_times,
            "op_ref_ratios": ratios,
            "wall": wall,
            "failures": failures,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        (results / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
        if tracer is not None:
            tracer.write_spans(results / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, details


def _timed_op(wl, index: int, tracer):
    gc.collect()
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        result, errors = wl.op(index), []
    except Exception as exc:  # a failed operation counts against error_ratio
        result, errors = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    return result, errors, elapsed


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".bytes" in name or name.endswith("_bytes"):
        return "B"
    return "count"


def run_all(args) -> dict:
    """Every workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    print("environment " + json.dumps(environment(), sort_keys=True))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            if line.endswith("(wall, not gated)"):
                key, value, _ = line.split(" ", 2)
                print(f"  {key:28s} {float(value):>16.6g} (wall, not gated)")
        for key, m in result["metrics"].items():
            print(f"  {key:28s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
        print(f"  {'error_ratio':28s} {result['failed'] / result['attempted']:>16.6g} ({result['failed']}/{result['attempted']})")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="about 1e3 symbols per operation")
    args = parser.parse_args()
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, details = run_workload(args)
            print("environment " + json.dumps(details["environment"], sort_keys=True))
            for key, value in details["wall"].items():
                print(f"{key} {value!r} (wall, not gated)")
            for key, m in result["metrics"].items():
                print(f"{key} {m['value']!r} {m['unit']}")
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
