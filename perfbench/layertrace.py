"""Layer spans and counts for the traced benchmark run.

The tracer never edits ``src/``.  ``install`` replaces, in the module
namespaces of a loaded ``dprsim``, every public function of one layer by a
timing wrapper wherever another ``dprsim`` module (or the ``dprsim`` package
itself) imported it.  Calls inside a layer therefore stay untraced; only the
boundaries between layers, and the benchmark's own calls into the package,
become spans.  A few functions and methods that the per-layer metrics name are
also wrapped where they are defined, so that their calls from inside their
own module are seen too.  ``uninstall`` puts every original back.

Spans are kept in memory as ``(name, start, end, parent, op)`` and written out
once, when the run ends.  Counts are taken from return values after the span
has closed, so counting costs no span time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "config", "goldens", "scenario", "optics", "detectors", "protocols", "attacks", "report")

# Function-level spans: metric name -> span name.
FUNCTION_SPANS = {
    "scenario.to_dict_s": "scenario.RunRecord.to_dict",
    "scenario.hash_s": "scenario.RunRecord.content_hash",
    "report.emit_s": "report.emit_outputs",
    "report.save_record_s": "report.save_record",
    "report.load_record_s": "report.load_record",
    "report.summarize_s": "report.summarize",
}

COUNTS = (
    "detectors.slots",
    "detectors.clicks",
    "detectors.linear_slots",
    "protocols.sifted_bits",
    "attacks.readings",
    "scenario.rng_streams",
    "scenario.hashed_bytes",
    "report.bytes.events",
    "report.bytes.traces",
    "report.bytes.record",
    "report.bytes.keys",
    "report.bytes.metrics",
    "report.bytes_read",
)

# Methods reached through instances, so they are wrapped on their class.
METHODS = (
    ("scenario", "RunRecord", "to_dict"),
    ("scenario", "RunRecord", "from_dict"),
    ("scenario", "RunRecord", "canonical_json"),
    ("scenario", "RunRecord", "content_hash"),
    ("scenario", "RngFactory", "get"),
    ("config", "ScenarioConfig", "validate"),
    ("config", "ScenarioConfig", "to_dict"),
)

# Functions also wrapped in their own module, for the function-level spans.
DEFINITION_SITES = (("cli", "main"), ("report", "emit_outputs"), ("report", "save_record"), ("report", "summarize"))


def _count_detection(op, result, args, kwargs):
    counts = op["counts"]
    for name in result.names:
        trace = result[name]
        counts["detectors.slots"] += len(trace)
        counts["detectors.clicks"] += int(trace.clicks.sum())
        counts["detectors.linear_slots"] += int(trace.linear_mode.sum())


def _count_sifted(op, result, args, kwargs):
    op["counts"]["protocols.sifted_bits"] += int(result.sifted_length)


def _count_readings(op, result, args, kwargs):
    op["counts"]["attacks.readings"] += len(result)


def _count_hashed(op, result, args, kwargs):
    # canonical_json dumps with ensure_ascii, so characters are bytes.
    if not kwargs.get("include_volatile", args[1] if len(args) > 1 else False):
        op["counts"]["scenario.hashed_bytes"] += len(result)


def _file_kind(path: Path) -> str:
    if path.name == "events.tsv":
        return "events"
    if path.name.startswith("trace_"):
        return "traces"
    if path.name == "record.json":
        return "record"
    if path.suffix == ".key":
        return "keys"
    return "metrics"


def _volatile_bytes(record) -> int:
    """Bytes of a record file taken by its wall time, its one volatile value.

    Record byte counts leave them out, so that they repeat exactly.
    """
    return len(json.dumps(record.wall_time_s))


def _count_emitted(op, result, args, kwargs):
    counts = op["counts"]
    for path in result:
        counts[f"report.bytes.{_file_kind(Path(path))}"] += os.path.getsize(path)
    counts["report.bytes.record"] -= _volatile_bytes(args[0])


def _count_read(op, result, args, kwargs):
    op["counts"]["report.bytes_read"] += os.path.getsize(args[0]) - _volatile_bytes(result)


def _count_rng(op, result, args, kwargs):
    op["rng_names"].add(args[1])


POST_HOOKS = {
    "scenario.RngFactory.get": _count_rng,
    "detectors.apd_detect": _count_detection,
    "protocols.dps_sift": _count_sifted,
    "protocols.cow_sift": _count_sifted,
    "attacks.decode_dps_readings": _count_readings,
    "attacks.decode_cow_readings": _count_readings,
    "scenario.RunRecord.canonical_json": _count_hashed,
    "report.emit_outputs": _count_emitted,
    "report.load_record": _count_read,
}


class Tracer:
    """Spans and counts of the traced operations of one benchmark run."""

    def __init__(self, package):
        self._package = package
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._op = -1
        self.ops: list[dict] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        layer = span_name.split(".", 1)[0]
        post = POST_HOOKS.get(span_name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((span_name, 0.0, 0.0, parent, self._op))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                    self._current["errors"][layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self._op)
            if post is not None:
                post(self._current, result, args, kwargs)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self._package.__name__}.{layer}") for layer in LAYERS}
        importers = [*modules.values(), self._package]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for importer in importers:
                    if importer is module and (layer, attr) not in DEFINITION_SITES:
                        continue
                    if importer.__dict__.get(attr) is fn:
                        self._set(importer, attr, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(f"{layer}.{cls_name}.{attr}", raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._current = {
            "op": op,
            "first_span": len(self.spans),
            "counts": defaultdict(int),
            "errors": defaultdict(int),
            "rng_names": set(),
        }
        self.ops.append(self._current)
        self.install()

    def end_op(self) -> None:
        self.uninstall()
        self._current["last_span"] = len(self.spans)
        self._op = -1

    def op_metrics(self, entry: dict) -> dict[str, float]:
        """Per-layer metrics of one traced operation."""
        spans = self.spans[entry["first_span"]:entry["last_span"]]
        base = entry["first_span"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= base:
                child_time[parent - base] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = entry["errors"][layer]
        for metric in FUNCTION_SPANS:
            out[metric] = 0.0
        by_span = {span: metric for metric, span in FUNCTION_SPANS.items()}
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start) - child_time[i]
            out[f"{layer}.calls"] += 1
            if name in by_span:
                out[by_span[name]] += end - start
        counts = entry["counts"]
        counts["scenario.rng_streams"] = len(entry["rng_names"])
        for name in COUNTS:
            out[name] = counts[name]
        return out

    def counts_of(self, entry: dict) -> dict[str, int]:
        metrics = self.op_metrics(entry)
        return {k: v for k, v in metrics.items() if k in COUNTS or k.endswith((".calls", ".errors"))}

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def per_layer_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors"]
    return names + list(FUNCTION_SPANS) + list(COUNTS)
