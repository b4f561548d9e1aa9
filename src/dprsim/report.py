"""Result emission: per-slot event tables, key files and metric summaries.

Formats are versioned through a header line (events) or a ``format``
key (metrics, records) and chosen so that every emitted file parses back into
the in-memory values exactly: floats are written with ``repr``, which
round-trips IEEE doubles.  ``record.json`` is ``dprsim-record/2``: one compact
JSON header in which every array is ``{"dtype", "shape"}`` with its
little-endian bytes inline as base64 ``data`` (``<i8``, ``<f8``, ``|u1`` for
booleans).  A record's content hash is SHA-256 over that header without the
``data`` strings, followed by the raw bytes of each array in header key order;
it excludes ``wall_time_s``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .detectors import GEIGER, LINEAR
from .scenario import RunRecord

__all__ = [
    "MetricsSummary",
    "summarize",
    "emit_outputs",
    "save_record",
    "load_record",
    "read_events",
    "read_key",
    "load_metrics",
]

EVENTS_HEADER = "# dprsim-events/1"
METRICS_FORMAT = "dprsim-metrics/1"


@dataclass(eq=False)
class MetricsSummary:
    """Everything derived from one run record; recomputation is idempotent."""

    protocol: str
    qber: float | None
    sifted_length: int
    visibility_overall: float | None
    visibility_per_class: dict[str, float | None]
    capture_fraction: float | None
    induced_qber: float | None
    induced_visibility_drop: float | None
    bob_record_equals_eve_readings: bool | None = None
    alarms: dict[str, bool] = field(default_factory=dict)
    feasibility: dict[str, bool] | None = None
    detector_counts: dict[str, int] = field(default_factory=dict)
    detected_intensity: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"format": METRICS_FORMAT, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MetricsSummary":
        if d.get("format") != METRICS_FORMAT:
            raise ValueError(f"unsupported metrics format {d.get('format')!r}")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def summarize(record: RunRecord) -> MetricsSummary:
    """Recompute the metric summary from a run record alone."""
    run = record.protocol_run
    vis = run.visibility_report
    per_class: dict[str, float | None] = {}
    overall = None
    if vis is not None:
        per_class = {s: c.visibility for s, c in vis.per_class.items()}
        overall = vis.overall_visibility
    outcome = record.attack
    counts = {name: run.record[name].click_count for name in run.record.names}
    detected = {name: run.record[name].detected_intensity for name in run.record.names}
    readings_match = None
    if outcome is not None and outcome.bob_readings is not None:
        readings_match = outcome.bob_readings == outcome.eve_readings
    return MetricsSummary(
        protocol=run.protocol,
        qber=run.qber,
        sifted_length=run.sifted_length,
        visibility_overall=overall,
        visibility_per_class=per_class,
        capture_fraction=None if outcome is None else outcome.capture_fraction,
        induced_qber=None if outcome is None else outcome.induced_qber,
        induced_visibility_drop=None if outcome is None else outcome.induced_visibility_drop,
        bob_record_equals_eve_readings=readings_match,
        alarms={} if outcome is None else dict(outcome.alarms),
        feasibility=None if outcome is None else outcome.feasibility,
        detector_counts=counts,
        detected_intensity=detected,
    )


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def _float_column(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``repr`` of each distinct float64 bit pattern, and each element's index
    into that table.

    Bit patterns keep ``-0.0``, ``0.0`` and NaNs apart; a pulse-level trace
    holds only a few distinct values, so each is formatted once.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    patterns, codes = np.unique(bits, return_inverse=True)
    return [repr(v) for v in patterns.view(np.float64).tolist()], codes


def _rows(slots: list[str], table: list[str], codes: np.ndarray) -> str:
    """One line per slot: its number followed by the table entry of its code."""
    cells = np.array(table, dtype=object)[codes].tolist()
    return "".join(itertools.chain.from_iterable(zip(slots, cells)))


def _write_key(path: Path, bits) -> None:
    path.write_bytes((np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes() + b"\n")


def emit_outputs(record: RunRecord, directory: str | Path) -> list[Path]:
    """Write the full output set for one run into ``directory``.

    * ``events.tsv``: slot, detector, intensity, click, mode per detector
      slot; :func:`read_events` parses it into per-detector arrays, ready to
      plot.
    * ``alice.key`` / ``bob.key`` (and ``eve.key`` under attack): the sifted
      keys as ASCII bit strings, one line each.
    * ``metrics.json``: the recomputed :class:`MetricsSummary`.
    * ``record.json``: the full serialized run record.
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    run = record.protocol_run
    names = run.record.names
    written: list[Path] = []
    slots = list(map(str, range(max((len(run.record[name]) for name in names), default=0))))

    events = outdir / "events.tsv"
    with events.open("w", encoding="utf-8") as fh:
        fh.write(EVENTS_HEADER + "\n")
        fh.write("slot\tdetector\tintensity\tclick\tmode\n")
        for name in names:
            trace = run.record[name]
            texts, codes = _float_column(trace.intensity)
            table = [f"\t{name}\t{t}\t{c}\t{m}\n" for t in texts for c in (0, 1) for m in (GEIGER, LINEAR)]
            fh.write(_rows(slots, table, codes * 4 + trace.clicks * 2 + trace.linear_mode))
    written.append(events)

    alice_key = outdir / "alice.key"
    _write_key(alice_key, run.sifted_alice)
    written.append(alice_key)
    bob_key = outdir / "bob.key"
    _write_key(bob_key, run.sifted_bob)
    written.append(bob_key)
    if record.attack is not None:
        eve_key = outdir / "eve.key"
        _write_key(eve_key, record.attack.eve_key)
        written.append(eve_key)

    metrics = outdir / "metrics.json"
    metrics.write_text(json.dumps(summarize(record).to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(metrics)

    record_path = outdir / "record.json"
    save_record(record, record_path)
    written.append(record_path)
    return written


def save_record(record: RunRecord, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> RunRecord:
    return RunRecord.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def load_metrics(path: str | Path) -> MetricsSummary:
    return MetricsSummary.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def read_key(path: str | Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").strip()
    return np.array([int(c) for c in text], dtype=np.int64)


def read_events(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Parse an events table back into per-detector arrays (round-trip exact)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != EVENTS_HEADER:
        raise ValueError(f"{path}: not an events table (missing {EVENTS_HEADER!r})")
    out: dict[str, dict[str, list]] = {}
    for line in lines[2:]:
        slot, name, intensity, click, mode = line.split("\t")
        d = out.setdefault(name, {"slot": [], "intensity": [], "click": [], "mode": []})
        d["slot"].append(int(slot))
        d["intensity"].append(float(intensity))
        d["click"].append(bool(int(click)))
        d["mode"].append(mode)
    return {
        name: {
            "slot": np.array(d["slot"], dtype=np.int64),
            "intensity": np.array(d["intensity"], dtype=np.float64),
            "click": np.array(d["click"], dtype=bool),
            "mode": np.array(d["mode"]),
        }
        for name, d in out.items()
    }
