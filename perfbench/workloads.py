"""The three benchmark workloads.

Each workload is one closed-loop client: ``setup`` builds its inputs from the
benchmark seed, ``op`` is the timed operation, ``check`` validates one
operation's outputs (untimed) and ``content_hash`` gives the record hash of an
operation's result, so that a re-run can be compared with the first run.
Every call into the simulator goes through the ``dprsim`` package or its
submodules, looked up at call time, so the tracer's wrappers see them.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

# Headline statistic of the paper's statistical backflash run.
BACKFLASH_CAPTURE = 0.0648


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Deterministic 63-bit scenario seed for operation ``index``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _cow_blinding(n_symbols: int, style: str) -> dict:
    return {
        "protocol": "cow",
        "n_symbols": n_symbols,
        "t_b": 0.5,
        "attack": {"kind": "blinding", "blinding": {"style": style}},
        "countermeasures": {"photocurrent_monitor": {"enabled": True}},
    }


class DpsBackflashCli:
    """``dprsim attack --golden dps-backflash-stat`` in-process, all files written."""

    name = "dps-backflash-cli"

    def __init__(self, dprsim, seed: int, workdir: Path, smoke: bool):
        self.dprsim, self.seed, self.workdir, self.smoke = dprsim, seed, workdir, smoke
        self.symbols_per_op = 1001 if smoke else 100_001
        self.runs = 0

    def setup(self) -> None:
        import dprsim.cli  # noqa: F401  (the package does not import its CLI module)

        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        if self.smoke:
            scenario = self.workdir / "smoke.yaml"
            scenario.write_text(f"golden_name: dps-backflash-stat\nn_symbols: {self.symbols_per_op}\n")
            self.source = ["--config", str(scenario)]
        else:
            self.source = ["--golden", "dps-backflash-stat"]

    def op(self, index: int):
        self.runs += 1  # a re-run of an operation gets its own directory
        outdir = self.workdir / f"op{index}-{self.runs}"
        argv = ["attack", *self.source, "--seed", str(derive_seed(self.seed, self.name, index)), "--out", str(outdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.dprsim.cli.main(argv)
        return code, outdir

    def check(self, result) -> list[str]:
        code, outdir = result
        if code != 0:
            return [f"exit code {code}"]
        errors = []
        metrics = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
        n = metrics["sifted_length"]
        frac = metrics["capture_fraction"]
        stderr = math.sqrt(BACKFLASH_CAPTURE * (1 - BACKFLASH_CAPTURE) / n)
        if not abs(frac - BACKFLASH_CAPTURE) <= 5 * stderr:
            errors.append(f"capture fraction {frac} over 5 standard errors from {BACKFLASH_CAPTURE} (n={n})")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.dprsim.cli.main(["report", "--record", str(outdir / "record.json")])
        if code != 0 or json.loads(buf.getvalue()) != metrics:
            errors.append("dprsim report --record differs from metrics.json")
        return errors

    def content_hash(self, result) -> str:
        return self.dprsim.load_record(result[1] / "record.json").content_hash()

    def release(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


class CowBlindingSim:
    """``run_scenario`` + ``summarize`` for derived COW blinding, no files."""

    name = "cow-blinding-sim"
    STYLES = ("pulsed", "cw")

    def __init__(self, dprsim, seed: int, workdir: Path, smoke: bool):
        self.dprsim, self.seed, self.smoke = dprsim, seed, smoke
        self.symbols_per_op = 1000 if smoke else 100_000

    def setup(self) -> None:
        self.configs = {s: self.dprsim.scenario_from_dict(_cow_blinding(self.symbols_per_op, s)) for s in self.STYLES}

    def op(self, index: int):
        style = self.STYLES[index % 2]
        record = self.dprsim.run_scenario(self.configs[style], seed=derive_seed(self.seed, self.name, index))
        return style, record, self.dprsim.summarize(record)

    def check(self, result) -> list[str]:
        style, _, summary = result
        errors = []
        if summary.capture_fraction != 1.0:
            errors.append(f"capture fraction {summary.capture_fraction} != 1.0")
        if summary.bob_record_equals_eve_readings is not True:
            errors.append("Bob's readings differ from Eve's")
        if summary.alarms.get("photocurrent_monitor") != (style == "cw"):
            errors.append(f"photocurrent alarm {summary.alarms.get('photocurrent_monitor')} under {style} blinding")
        return errors

    def content_hash(self, result) -> str:
        return result[1].content_hash()

    def release(self, result) -> None:
        pass


class CowRecordVerify:
    """``load_record`` + ``content_hash`` + ``summarize`` on a written COW record."""

    name = "cow-record-verify"

    def __init__(self, dprsim, seed: int, workdir: Path, smoke: bool):
        self.dprsim, self.seed, self.workdir, self.smoke = dprsim, seed, workdir, smoke
        self.symbols_per_op = 1000 if smoke else 100_000
        self.path = workdir / "record.json"

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        cfg = self.dprsim.scenario_from_dict(_cow_blinding(self.symbols_per_op, "pulsed"))
        self.record = self.dprsim.run_scenario(cfg, seed=derive_seed(self.seed, self.name, 0))
        self.dprsim.save_record(self.record, self.path)

    def expect(self) -> None:
        """Reference values of the in-memory record, computed once after set-up."""
        self.expected_hash = self.record.content_hash()
        self.expected_summary = self.dprsim.summarize(self.record).to_dict()

    def op(self, index: int):
        loaded = self.dprsim.load_record(self.path)
        return loaded.content_hash(), self.dprsim.summarize(loaded)

    def check(self, result) -> list[str]:
        digest, summary = result
        errors = []
        if digest != self.expected_hash:
            errors.append("reloaded record hash differs from the in-memory record")
        if summary.to_dict() != self.expected_summary:
            errors.append("reloaded summary differs from the in-memory summary")
        return errors

    def content_hash(self, result) -> str:
        return result[0]

    def release(self, result) -> None:
        pass


WORKLOADS = {w.name: w for w in (DpsBackflashCli, CowBlindingSim, CowRecordVerify)}
