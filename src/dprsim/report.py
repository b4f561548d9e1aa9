"""Result emission: per-slot event tables, key files and metric summaries.

Text formats are versioned through a header line (events) or a ``format``
key (metrics) and chosen so that every emitted file parses back into the
in-memory values exactly: floats are written with ``repr``, which round-trips
IEEE doubles.  ``record.json`` is ``dprsim-record/3``, the bytes that the
record's content hash covers, framed by two text lines (see ``RunRecord``):
a version line, the canonical JSON header (arrays as ``{"dtype", "shape"}``:
``<i8``, ``<f8``, ``|u1`` for booleans), then the raw little-endian bytes of
each array in header key order and a one-line JSON trailer holding
``wall_time_s``, the one value outside the hash.  The arrays are written and
read as they are, with no text encoding.  The file keeps its ``.json`` name,
although only its header and trailer are JSON, so that scripts and tools that
open ``record.json`` in a run directory still find it.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .detectors import GEIGER, LINEAR
from .scenario import RunRecord, _record_chunks, _record_from_bytes

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
        readings_match = np.array_equal(outcome.bob_readings, outcome.eve_readings)
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
    * ``record.json``: the full run record, ``dprsim-record/3``.
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
    with Path(path).open("wb") as fh:
        fh.writelines(_record_chunks(record))


def load_record(path: str | Path) -> RunRecord:
    """Read a record file; its arrays are writable views into one buffer."""
    with Path(path).open("rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]
    return _record_from_bytes(data)


def load_metrics(path: str | Path) -> MetricsSummary:
    return MetricsSummary.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def read_key(path: str | Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").strip()
    return np.array([int(c) for c in text], dtype=np.int64)


def read_events(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Parse an events table back into per-detector arrays (round-trip exact).

    The table is parsed whole-array: its body is split into cells, five to a
    row, and each column is converted at once (``float`` of each intensity
    cell, so every ``repr`` comes back bit for bit).
    """
    head, _, rest = Path(path).read_text(encoding="utf-8").partition("\n")
    if head != EVENTS_HEADER:
        raise ValueError(f"{path}: not an events table (missing {EVENTS_HEADER!r})")
    cells = np.array(rest.partition("\n")[2].split(), dtype=object).reshape(-1, 5)
    names = cells[:, 1]
    columns = {
        "slot": cells[:, 0].astype(np.int64),
        "intensity": cells[:, 2].astype(np.float64),
        "click": cells[:, 3].astype(np.int64) != 0,
    }
    # Rows come in runs of one detector; a detector may have several runs.
    bounds = [0, *(np.flatnonzero(names[1:] != names[:-1]) + 1).tolist(), len(names)]
    rows: dict[str, list[np.ndarray]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            rows.setdefault(names[lo], []).append(np.arange(lo, hi))
    out = {}
    for name, runs in rows.items():
        idx = np.concatenate(runs)
        out[name] = {key: column[idx] for key, column in columns.items()}
        out[name]["mode"] = cells[idx, 4].astype(str)
    return out
