"""Result emission: key files, metric summaries and the run record.

Every emitted file parses back into the in-memory values exactly.
``metrics.json`` carries a ``format`` key.  ``record.json`` is a record file
of format ``record.RECORD_FORMAT``, laid out as :class:`RunRecord` states:
the bytes that the record's content hash covers, framed.  It is the one
per-slot output.  :func:`load_record` decodes it as aligned, writable views of
a private copy-on-write mapping, with no copy; :func:`save_record` replaces the
file whole.  Rewriting one in place by other means (``cp`` onto it) while a
loaded record maps it is unsupported: Linux raises SIGBUS.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .record import RunRecord, _record_chunks, _record_from_bytes

__all__ = [
    "MetricsSummary",
    "summarize",
    "emit_outputs",
    "save_record",
    "load_record",
]

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
    run, vis, outcome = record.protocol_run, record.protocol_run.visibility_report, record.attack
    traces = run.record.detectors
    readings_match = None
    if outcome is not None and outcome.bob_readings is not None:
        readings_match = np.array_equal(outcome.bob_readings, outcome.eve_readings)
    return MetricsSummary(
        protocol=run.protocol,
        qber=run.qber,
        sifted_length=run.sifted_length,
        visibility_overall=None if vis is None else vis.overall_visibility,
        visibility_per_class={} if vis is None else {s: c.visibility for s, c in vis.per_class.items()},
        capture_fraction=None if outcome is None else outcome.capture_fraction,
        induced_qber=None if outcome is None else outcome.induced_qber,
        induced_visibility_drop=None if outcome is None else outcome.induced_visibility_drop,
        bob_record_equals_eve_readings=readings_match,
        alarms={} if outcome is None else dict(outcome.alarms),
        feasibility=None if outcome is None else outcome.feasibility,
        detector_counts={name: t.click_count for name, t in traces.items()},
        detected_intensity={name: t.detected_intensity for name, t in traces.items()},
    )


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def emit_outputs(record: RunRecord, directory: str | Path) -> list[Path]:
    """Write the full output set for one run into ``directory``.

    * ``alice.key`` / ``bob.key`` (and ``eve.key`` under attack): the sifted
      keys as ASCII bit strings, one line each.
    * ``metrics.json``: the recomputed :class:`MetricsSummary`.
    * ``record.json``: the full run record (:class:`RunRecord`), which holds
      every per-detector slot trace; :func:`load_record` reads it back.
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    keys = {"alice": record.protocol_run.sifted_alice, "bob": record.protocol_run.sifted_bob}
    if record.attack is not None:
        keys["eve"] = record.attack.eve_key
    written: list[Path] = []
    for who, bits in keys.items():
        path = outdir / f"{who}.key"
        path.write_bytes((np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes() + b"\n")
        written.append(path)

    metrics = outdir / "metrics.json"
    metrics.write_text(json.dumps(summarize(record).to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(metrics)

    record_path = outdir / "record.json"
    save_record(record, record_path)
    written.append(record_path)
    return written


def save_record(record: RunRecord, path: str | Path) -> None:
    """Write a record file whole: a sibling temporary file replaces ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(_record_chunks(record))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_record(path: str | Path) -> RunRecord:
    """Read a record file; its arrays are writable, aligned views of one private
    copy-on-write mapping of the file (an empty file, which mmap refuses, reads
    as no bytes).  Only :func:`save_record` may rewrite the file meanwhile.  Before
    Python 3.13, each live loaded record holds the mapping's open file descriptor."""
    with Path(path).open("rb") as fh:
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if os.fstat(fh.fileno()).st_size else bytearray()
    return _record_from_bytes(buf)
