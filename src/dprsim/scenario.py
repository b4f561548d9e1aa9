"""Seeded deterministic execution of scenario configs into run records.

``run_scenario`` builds the component graph for the configured protocol and
attack and evaluates it slot-synchronously: whole-train transforms in dataflow
order, with the reverse paths of the probe and backflash attacks handled as a
second backward pass.  Every random draw comes from a named substream of the
run seed, so adding a consumer never perturbs the others and re-running a
config reproduces every byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import typing
import zlib
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Sequence

import numpy as np
import yaml

from .attacks import (
    AttackOutcome,
    _window,
    blinding_feasible,
    capture_fraction,
    decode_cow_readings,
    decode_dps_readings,
    fsg_cow_drive,
    fsg_dps_phases,
    trojan_decode,
    trojan_probe,
)
from .config import (
    _SCALARS,
    BackflashSettings,
    BlindingSettings,
    ConfigError,
    ScenarioConfig,
    _at,
    _inner,
    _type_hints,
    _typed,
    scenario_from_dict,
)
from .detectors import (
    DetectionRecord,
    DetectorTrace,
    backflash_emit,
    photocurrent_monitor,
    watchdog,
)
from .goldens import golden_config_dict
from .optics import PulseTrain, cw_laser, phase_modulator
from .protocols import (
    _CODE,
    ProtocolRun,
    _Port,
    _cow_half_slots,
    cow_encode,
    cow_occupancy,
    cow_sift,
    dps_encode,
    dps_sift,
    receive,
    visibility,
)

__all__ = [
    "RngFactory",
    "RunRecord",
    "load_config",
    "run_scenario",
    "run_golden",
    "sweep",
    "derive_sweep_seed",
]


class RngFactory:
    """Named deterministic substreams of one run seed.

    Each consumer asks for its stream by name; the stream is derived from
    ``(seed, crc32(name))`` so the set of consumers can grow without
    perturbing anyone else's draws.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            key = zlib.crc32(name.encode("utf-8"))
            ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            self._streams[name] = np.random.default_rng(ss)
        return self._streams[name]


def derive_sweep_seed(base_seed: int, index: int) -> int:
    """Deterministic per-point seed of a parameter sweep."""
    state = np.random.SeedSequence(entropy=[int(base_seed), int(index)]).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


# ---------------------------------------------------------------------------
# Pipeline execution
# ---------------------------------------------------------------------------


def _alice_material(cfg: ScenarioConfig, rngs: RngFactory) -> np.ndarray:
    """Alice's codes (see ``ProtocolRun``): the config's pinned bits or
    symbols, or else ``n_symbols`` draws from the ``alice-source`` stream."""
    if cfg.protocol == "dps" and cfg.bits is not None:
        return np.array(cfg.bits, dtype=np.int64)
    if cfg.protocol == "cow" and cfg.symbols is not None:
        return _CODE[np.frombuffer(cfg.symbols.encode("ascii"), dtype=np.uint8)]
    return rngs.get("alice-source").integers(0, 2 if cfg.protocol == "dps" else 3, cfg.n_symbols, dtype=np.int64)


def _transmit(cfg: ScenarioConfig, codes: np.ndarray) -> tuple[PulseTrain, np.ndarray]:
    """Alice's encoder and the channel: the train arriving at Bob, coded (see
    ``receive``).  The channel's phase tamper modulates slot ``k`` by the
    pattern's ``k``-th phase and the slots past the pattern's end by 0.  The
    modulator is slot-local, so it runs once on each pair of Alice's field
    and distinct phase, and each slot takes its pair's code: bit for bit the
    modulation of the full-length train."""
    if cfg.protocol == "dps":
        train, slot_codes = dps_encode(codes, cfg.amplitude, cfg.slot_period)
    else:
        train, slot_codes = cow_encode(codes, cfg.amplitude, cfg.slot_period)
    pattern = cfg.channel.phase_tamper_half_turns
    if pattern is None:
        return train, slot_codes
    n = slot_codes.shape[0]
    m = min(n, len(pattern))
    phases = np.append(np.asarray(pattern[:m], dtype=np.float64) * np.pi, 0.0)
    distinct, inverse = np.unique(phases, return_inverse=True)
    phase_codes = np.full(n, inverse[m])
    phase_codes[:m] = inverse[:m]
    j = distinct.size
    pairs = train.with_slots(np.repeat(train.slots, j))  # field a * j + p: Alice's field a at phase p
    return phase_modulator(pairs, np.tile(distinct, len(train))), slot_codes * j + phase_codes


def _receive(
    cfg: ScenarioConfig,
    train: PulseTrain,
    codes: np.ndarray,
    rngs: RngFactory,
    stream: str,
    blinding: BlindingSettings | None = None,
    background: np.ndarray | None = None,
) -> tuple[DetectionRecord, dict[str, _Port]]:
    """Bob's receiver, or Eve's replica of it, at the scenario's detector
    settings and nominal level ``amplitude**2``, on a train coded by
    ``codes``; detector ``X`` draws from the stream ``<stream>-X``."""
    return receive(
        cfg.protocol,
        train,
        codes,
        cfg.detector,
        cfg.amplitude**2,
        t_b=cfg.t_b,
        rng=lambda name: rngs.get(f"{stream}-{name}"),
        blinding=blinding,
        background=background,
    )


def _sift(cfg: ScenarioConfig, codes: np.ndarray, record: DetectionRecord) -> ProtocolRun:
    """Bob's sifting of a record on Alice's slot grid; COW adds visibility."""
    if cfg.protocol == "dps":
        return dps_sift(codes, record)
    return cow_sift(codes, record, visibility(record, codes))


# ---------------------------------------------------------------------------
# Attack orchestration
# ---------------------------------------------------------------------------


def _dps_eve_key(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's DPS key from her per-slot D1 and D2 clicks: the slots where
    exactly one detector clicked, and the bit it names (1 for D2)."""
    slots = np.flatnonzero(d1 != d2)
    return slots, d2[slots]


def _cow_eve_key(codes: np.ndarray, clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's COW key from her per-grid-slot D_B clicks over Alice's codes: the
    data symbols where exactly one half-slot clicked, and the bit that
    half-slot names."""
    kept, bits, both = _cow_half_slots(codes, clicks)
    return kept[~both], bits[~both]


def _backflash_replica_clicks(
    trace: DetectorTrace, port: _Port, bf: BackflashSettings, rng: np.random.Generator, threshold: float
) -> np.ndarray:
    """Eve's replica clicks on the re-emission of Bob's detector ``trace`` at
    ``port``, one per port slot.  A lossless circulator routes the emission to her replica
    detector, which is noise-free: it clicks where the intensity exceeds
    ``threshold`` (>= 0).  A vacuum slot never does, so only the emitting
    slots are evaluated."""
    slots, field = backflash_emit(trace, *port, bf, rng=rng)
    power = np.abs(field)
    power **= 2
    clicks = np.zeros(len(trace), dtype=bool)
    clicks[slots[power > threshold]] = True
    return clicks


def _run_backflash(
    cfg: ScenarioConfig,
    rngs: RngFactory,
    run: ProtocolRun,
    ports: dict[str, _Port],
) -> AttackOutcome:
    """Reverse pass: re-emission from Bob's clicked detectors, routed to Eve by
    the channel circulator, decoded with her replica of the corresponding
    detector."""
    bf = cfg.attack.backflash

    def eve_clicks(detector: str, threshold: float) -> np.ndarray:
        rng = rngs.get(f"backflash-{detector}")
        return _backflash_replica_clicks(run.record[detector], ports[detector], bf, rng, threshold)

    level = cfg.detector.click_threshold_rel * bf.emission_gain**2
    nominal = cfg.amplitude**2
    if cfg.protocol == "dps":
        eve_slots, eve_bits = _dps_eve_key(eve_clicks("D1", level * nominal), eve_clicks("D2", level * nominal))
    else:
        eve_slots, eve_bits = _cow_eve_key(run.alice_codes, eve_clicks("D_B", level * cfg.t_b * nominal))

    frac = capture_fraction(run.sifted_slots, run.sifted_bob, eve_slots, eve_bits)
    return AttackOutcome(
        attack="backflash",
        eve_key=eve_bits,
        capture_fraction=frac,
        induced_qber=0.0,
        induced_visibility_drop=0.0 if cfg.protocol == "cow" else None,
    )


def _run_trojan(cfg: ScenarioConfig, run: ProtocolRun) -> AttackOutcome:
    """Backward probe pass: watchdog tap at Alice's entrance, reflection off her
    modulator, wavelength separation and Eve's replica decode.  The forward
    signal is untouched; Bob's entrance filter keeps the probe band away from
    his detectors."""
    s = cfg.attack.trojan
    wd_alarm = False
    probe_amplitude = s.probe_amplitude
    cm = cfg.countermeasures.watchdog
    if cm.enabled:
        # The probe is continuous-wave, so one slot of it shows the watchdog its peak.
        probe_in = cw_laser(1, s.probe_amplitude, cfg.slot_period)
        wd_alarm = watchdog(probe_in, cm.tap_fraction, cm.intensity_threshold)
        probe_amplitude = s.probe_amplitude * float(np.sqrt(1.0 - cm.tap_fraction))

    modulation = run.alice_codes if cfg.protocol == "dps" else cow_occupancy(run.alice_codes)
    probe_cfg = s if probe_amplitude == s.probe_amplitude else replace(s, probe_amplitude=probe_amplitude)
    reflected, codes = trojan_probe(
        cfg.protocol,
        modulation,
        probe_cfg,
        cfg.slot_period,
        excess_loss_db=cfg.channel.excess_loss_for(s.probe_wavelength_nm),
        signal_wavelength=cfg.wavelength_nm,
    )
    # Both bands co-propagate back up Alice's output fiber; Eve's ideal
    # bandpass filter strips the signal band and passes the probe band whole.
    eve = trojan_decode(reflected, codes, cfg.protocol, s.eve_min_intensity)
    if cfg.protocol == "dps":
        eve_slots, eve_bits = _dps_eve_key(eve.clicks("D1"), eve.clicks("D2"))
    else:
        eve_slots, eve_bits = _cow_eve_key(run.alice_codes, eve.clicks("D_B"))

    frac = capture_fraction(run.sifted_slots, run.sifted_bob, eve_slots, eve_bits)
    return AttackOutcome(
        attack="trojan",
        eve_key=eve_bits,
        capture_fraction=frac,
        induced_qber=0.0,
        induced_visibility_drop=0.0 if cfg.protocol == "cow" else None,
        alarms={"watchdog": wd_alarm, "photocurrent_monitor": False},
    )


def _blinding_background(style: str, level: float, period: int, n_slots: int) -> np.ndarray:
    if style == "cw":
        return np.full(n_slots, level, dtype=np.float64)
    bg = np.zeros(n_slots, dtype=np.float64)
    bg[::period] = level
    return bg


def _on_grid(record: DetectionRecord, offset: int, n_slots: int) -> DetectionRecord:
    """The ``n_slots`` slots of ``record`` from ``offset`` on; slots past its
    end are silent."""
    traces = {
        name: DetectorTrace(*(_window(getattr(trace, f.name), offset, n_slots) for f in fields(trace)))
        for name, trace in record.detectors.items()
    }
    return DetectionRecord(traces, record.slot_period)


def _eve_readings(
    cfg: ScenarioConfig, rngs: RngFactory, train: PulseTrain, codes: np.ndarray, clean: DetectionRecord
) -> tuple[np.ndarray, int]:
    """The blinding attack's first stage: the readings Eve replays, pinned or
    measured by her replica of Bob on Alice's train (coded by ``codes``, see
    ``_receive``), and the slots of Alice's grid that Bob sifts, one more than
    the train's.  Detectors that draw nothing record the same train alike, so
    then her replica's record is Bob's ``clean`` one."""
    n_slots = codes.size + 1
    readings = cfg.attack.blinding.readings
    if readings is not None:
        return np.array(readings, dtype=np.int64), n_slots
    record = clean
    if cfg.detector.afterpulse_prob > 0.0 or cfg.detector.dark_count_prob > 0.0:
        record = _receive(cfg, train, codes, rngs, "eve-stage1")[0]
    decode = decode_dps_readings if cfg.protocol == "dps" else decode_cow_readings
    # A double click of Eve's replica (DPS reading -1) names no detector:
    # she replays it as a vacuum event.
    return np.maximum(decode(record, 0, n_slots), 0), n_slots


def _run_blinding(
    cfg: ScenarioConfig,
    rngs: RngFactory,
    clean: ProtocolRun,
    readings: np.ndarray,
    n_slots: int,
) -> tuple[ProtocolRun, AttackOutcome]:
    """The faked-state plan for Eve's ``readings`` (see ``_eve_readings``) and
    its replay into Bob's blinded detectors with the photocurrent monitor
    watching.

    Bob sifts the blinded record as he sifts a clean one, over the
    ``n_slots`` slots of Alice's grid, which start at the plan's
    ``readings_slot_offset``; the stored record is the whole blinded one.
    Of ``clean`` only Alice's codes, the QBER and the visibility are read.
    Pinned readings are sifted against Alice's material too: they do not
    come from her train, so a QBER near 1/2 is the honest result.  Derived
    COW blinding has no visibility: every interface slot is also a D_B pulse
    slot, and a reading names one detector only, so Bob's monitors never
    click at an interface.  Eve's key is her readings: D1/D2 readings for
    DPS, her D_B readings decided like a backflash key for COW.
    """
    s = cfg.attack.blinding
    rails = cfg.detector
    decode = decode_dps_readings if cfg.protocol == "dps" else decode_cow_readings

    if cfg.protocol == "dps":
        plan = fsg_dps_phases(readings, s.policy, launch_intensity=rails.p_always)
        feasibility = {"rail_gap": blinding_feasible(rails, cfg.t_b).rail_gap}
        eve_slots, eve_bits = _dps_eve_key(readings == 1, readings == 2)
    else:
        plan = fsg_cow_drive(readings, cfg.t_b, rails)
        feasibility = blinding_feasible(rails, cfg.t_b).as_dict()
        eve_slots, eve_bits = _cow_eve_key(clean.alice_codes, _window(readings == 3, 0, n_slots))

    trigger, trigger_codes = plan.trigger(cfg.slot_period)
    background = _blinding_background(s.style, s.illumination_level, s.pulse_period_slots, trigger_codes.size + 1)
    record = _receive(cfg, trigger, trigger_codes, rngs, "bob", blinding=s, background=background)[0]

    monitor_alarm = False
    cm = cfg.countermeasures.photocurrent_monitor
    if cm.enabled:
        for name in record.names:
            result = photocurrent_monitor(record[name].photocurrent, cm.window_slots, cm.alarm_threshold)
            monitor_alarm = monitor_alarm or result.alarm

    grid = _on_grid(record, plan.readings_slot_offset, n_slots)
    run = replace(_sift(cfg, clean.alice_codes, grid), record=record)
    drop = None
    if cfg.protocol == "cow":
        before, after = clean.visibility_report.overall_visibility, run.visibility_report.overall_visibility
        drop = None if before is None or after is None else before - after
    outcome = AttackOutcome(
        attack="blinding",
        eve_key=eve_bits,
        capture_fraction=capture_fraction(run.sifted_slots, run.sifted_bob, eve_slots, eve_bits),
        induced_qber=run.qber - clean.qber,
        induced_visibility_drop=drop,
        alarms={"watchdog": False, "photocurrent_monitor": monitor_alarm},
        feasibility=feasibility,
        eve_readings=readings,
        bob_readings=decode(record, plan.readings_slot_offset, readings.size),
    )
    return run, outcome


# ---------------------------------------------------------------------------
# Record assembly and serialization
# ---------------------------------------------------------------------------

# The record format: the file's version line and its header's ``format``.
RECORD_FORMAT = "dprsim-record/5"
# Formats of older record files, which are no longer read.
_RETIRED_FORMATS = ("dprsim-record/1", "dprsim-record/2", "dprsim-record/3", "dprsim-record/4")

# ``X`` of an ``NDArray[X]`` hint -> stored little-endian dtype (bools as bytes, the same on every platform).
_STORED = {np.bool_: "|u1", np.int64: "<i8", np.float64: "<f8"}


def _field_hints(cls: type) -> dict[str, Any]:
    hints = _type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _scalar(hint: Any) -> Any:
    """The ``X`` of an ``NDArray[X]`` hint; None for any other hint."""
    return typing.get_args(typing.get_args(hint)[1])[0] if typing.get_origin(hint) is np.ndarray else None


def _expect(node: Any, kinds: tuple[type, ...], what: str, path: str) -> None:
    if not isinstance(node, kinds) or (isinstance(node, bool) and bool not in kinds):
        raise ValueError(f"{path}: expected {what}, got {type(node).__name__}")


def _tree(value: Any, hint: Any) -> Any:
    """Plain tree of a record value, led by its type hint: dataclasses become
    field mappings, arrays become contiguous arrays of their hint's stored
    dtype, everything else stays as it is."""
    if value is None:
        return None
    hint = _inner(hint)
    if is_dataclass(hint):
        return {name: _tree(getattr(value, name), t) for name, t in _field_hints(hint).items()}
    scalar = _scalar(hint)
    if scalar is not None:
        arr = np.ascontiguousarray(value, dtype=scalar)
        return arr.view(np.uint8) if scalar is np.bool_ else arr.astype(_STORED[scalar], copy=False)
    if typing.get_origin(hint) is dict:
        return {k: _tree(v, typing.get_args(hint)[1]) for k, v in value.items()}
    return value


def _untree(node: Any, hint: Any, path: str) -> Any:
    """Inverse of ``_tree``, checking each node against its hint (an array: its
    stored dtype, one dimension) and each dataclass against its invariants;
    errors name the field.  Arrays are not copied: ``|u1`` is viewed as bool."""
    inner = _inner(hint)
    if node is None and inner is not hint:
        return None
    if is_dataclass(inner):
        _expect(node, (dict,), "a mapping", path)
        hints = _field_hints(inner)
        missing, unknown = [name for name in hints if name not in node], sorted(node.keys() - hints.keys())
        if missing or unknown:
            raise ValueError(f"{'missing' if missing else 'unknown'} field {_at(path, (missing or unknown)[0])!r}")
        values = {name: _untree(node[name], t, _at(path, name)) for name, t in hints.items()}
        try:
            return inner(**values)
        except ValueError as exc:
            raise ValueError(_at(path, str(exc))) from exc
    scalar = _scalar(inner)
    if scalar is not None:
        _expect(node, (np.ndarray,), "an array", path)
        if node.dtype.str != _STORED[scalar] or node.ndim != 1:
            raise ValueError(f"{path}: unsupported array dtype {node.dtype.str!r} or shape {list(node.shape)}")
        if scalar is np.bool_ and node.size and node.max() > 1:
            raise ValueError(f"{path}: byte {node.max()} is not a boolean (0 or 1)")
        return node.view(np.bool_) if scalar is np.bool_ else node.astype(scalar, copy=False)
    if typing.get_origin(inner) is dict:
        _expect(node, (dict,), "a mapping", path)
        return {k: _untree(v, typing.get_args(inner)[1], _at(path, k)) for k, v in node.items()}
    if inner is not Any:
        _expect(node, _SCALARS[inner][0], inner.__name__, path)
    return node


def _header(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace each array of a tree by its dtype and shape; append the arrays
    to ``arrays`` in sorted-key order."""
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return {"dtype": node.dtype.str, "shape": list(node.shape)}
    if isinstance(node, dict):
        return {k: _header(node[k], arrays) for k in sorted(node)}
    return node


def _map_arrays(node: Any, data: bytearray, offset: int, path: str) -> tuple[Any, int]:
    """Inverse of ``_header`` over a record file: each ``{"dtype", "shape"}``
    leaf becomes a view of ``data`` from ``offset`` on, in sorted-key order;
    returns the tree and the offset past its last array."""
    if isinstance(node, dict) and node.keys() == {"dtype", "shape"}:
        dtype, shape = node["dtype"], node["shape"]
        if not isinstance(dtype, str) or dtype not in _STORED.values():
            raise ValueError(f"{path}: unsupported array dtype {dtype!r}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: expected a list of sizes as shape, got {shape!r}")
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(data):
            raise ValueError(f"{path}: array bytes end at byte {end}, past the end of the file ({len(data)} bytes)")
        return np.frombuffer(data, dtype, count, offset).reshape(shape), end
    if isinstance(node, dict):
        out = {}
        for key in sorted(node):
            out[key], offset = _map_arrays(node[key], data, offset, _at(path, key))
        return out, offset
    return node, offset


def _canonical(header: dict[str, Any]) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")


@dataclass(eq=False)
class RunRecord:
    """Everything one run produced: the config snapshot, Bob's records and
    sifting outcome, the attack outcome when present, and the wall time.

    Each run value is stored once.  Bob's key is ``protocol_run.sifted_bob``
    only; a detector trace keeps a ``photocurrent`` only under blinding (the
    stored current), since otherwise it is the ``intensity``; key bits
    (``sifted_alice``, ``sifted_bob``, ``eve_key``) are booleans.  Alice's
    material is ``protocol_run.alice_codes``: DPS phase bits, or COW symbol
    codes 0, 1 and 2 for ``0``, ``1`` and ``d``.

    ``to_dict`` gives the record as a plain tree in which every array is
    little-endian (``<i8`` for Alice's codes, slots and readings, ``<f8`` for
    intensities and photocurrents, ``|u1`` for booleans: clicks, modes and key
    bits); ``from_dict`` checks and inverts it.  The content hash is SHA-256
    over the canonical header (that tree with sorted keys, compact, each array
    as ``{"dtype", "shape"}``, no wall time) followed by the raw bytes of each
    array in header key order; the wall time, the only non-reproducible
    field, is left out.

    A record file (``dprsim-record/5``, also the header's ``format``) holds
    exactly those hashed bytes between a version line and a trailer::

        dprsim-record/5
        <canonical header>
        <raw array bytes, in header key order>{"wall_time_s": <seconds>}

    so SHA-256 over the file minus its version line, the header's newline and
    the trailer is ``content_hash()``.  Run directories still call it
    ``record.json``, although only its header and trailer are JSON, so that
    tools that open a run's record by that name keep working.
    """

    config: dict[str, Any]
    protocol_run: ProtocolRun
    attack: AttackOutcome | None
    wall_time_s: float

    def to_dict(self) -> dict[str, Any]:
        """The plain tree; its arrays share memory with the record's where
        the stored dtype is the in-memory one."""
        tree = _tree(self, RunRecord)
        tree["format"] = RECORD_FORMAT
        return tree

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        """The record of a plain tree, checked field by field; it keeps the
        tree's arrays where no conversion is needed."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != RECORD_FORMAT:
            raise ValueError(f"unsupported record format {fmt!r}")
        return _untree({k: v for k, v in d.items() if k != "format"}, cls, "")

    def _hashed(self) -> tuple[bytes, list[np.ndarray]]:
        """The canonical header and the arrays hashed after it."""
        tree = self.to_dict()
        del tree["wall_time_s"]
        arrays: list[np.ndarray] = []
        return _canonical(_header(tree, arrays)), arrays

    def canonical_json(self) -> str:
        return self._hashed()[0].decode("ascii")

    def content_hash(self) -> str:
        header, arrays = self._hashed()
        digest = hashlib.sha256(header)
        for arr in arrays:
            digest.update(arr)
        return digest.hexdigest()

    @property
    def any_alarm(self) -> bool:
        return self.attack is not None and self.attack.any_alarm


def _record_chunks(record: RunRecord) -> list[Any]:
    """The byte strings of a record file, in order (see ``RunRecord``)."""
    header, arrays = record._hashed()
    trailer = json.dumps({"wall_time_s": record.wall_time_s}) + "\n"
    return [f"{RECORD_FORMAT}\n".encode("ascii"), header, b"\n", *arrays, trailer.encode("ascii")]


def _version_error(data: bytearray, end: int) -> str:
    version = bytes(data[:end]).decode("ascii", "replace") if end >= 0 else None
    fmt = version
    if data[:1] == b"{":  # /1 and /2 record files are one JSON document
        try:
            fmt = json.loads(data).get("format")
        except (ValueError, AttributeError):
            fmt = None
    if fmt in _RETIRED_FORMATS:
        return f"a {fmt} file, which is no longer read; regenerate it by re-running its scenario"
    if version is None:
        return f"missing version line {RECORD_FORMAT!r}"
    return f"unsupported record version {version!r}"


def _record_from_bytes(data: bytearray) -> RunRecord:
    """Decode a record file; its arrays are writable views into ``data``."""
    version_end = data.find(b"\n", 0, 64)
    if version_end < 0 or data[:version_end] != RECORD_FORMAT.encode("ascii"):
        raise ValueError(_version_error(data, version_end))
    header_end = data.find(b"\n", version_end + 1)
    if header_end < 0:
        raise ValueError("missing header line")
    try:
        header = json.loads(data[version_end + 1 : header_end])
    except ValueError as exc:
        raise ValueError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != RECORD_FORMAT:
        raise ValueError(f"the header must be a JSON object of format {RECORD_FORMAT!r}")
    # The header is hashed as stored, so it must be the canonical text.
    if _canonical(header) != data[version_end + 1 : header_end] or "wall_time_s" in header:
        raise ValueError("the header is not canonical (sorted keys, compact JSON, no wall_time_s)")
    start = header_end + 1
    tree, end = _map_arrays(header, data, start, "")

    line, newline, extra = bytes(data[end:]).partition(b"\n")
    try:
        trailer = json.loads(line)
    except ValueError:
        trailer = None
    if not (newline and not extra and isinstance(trailer, dict) and trailer.keys() == {"wall_time_s"}):
        found = data.find(b'{"wall_time_s"', start)
        if found >= 0 and found != end:
            raise ValueError(f"array bytes: the header's shapes take {end - start}, the file holds {found - start}")
        if not line and not newline:
            raise ValueError("missing trailer")
        if newline and extra:
            raise ValueError(f"{len(extra)} extra bytes after the trailer")
        raise ValueError(f"malformed trailer {line[:80]!r}; expected {{\"wall_time_s\": <seconds>}}")
    tree["wall_time_s"] = trailer["wall_time_s"]
    return RunRecord.from_dict(tree)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_config(text: str) -> ScenarioConfig:
    """Parse a scenario document.

    ``golden_name`` pulls in the pinned scenario of that name; any other keys
    in the document overlay it section by section.  Unknown keys and domain
    violations are rejected with the offending field path; parse errors carry
    the line number.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"scenario parse error{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("scenario document must be a mapping")
    name = data.get("golden_name")
    if name is not None:
        try:
            base = golden_config_dict(_typed(name, str, "golden_name"))
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        overlay = {k: v for k, v in data.items() if k != "golden_name"}
        data = _merge(base, overlay)
    return scenario_from_dict(data)


def _merge(base: dict[str, Any], overlay: dict[str, Any]) -> dict[str, Any]:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def run_scenario(cfg: ScenarioConfig, seed: int | None = None) -> RunRecord:
    """Execute one scenario deterministically; ``seed`` overrides the config seed.

    The config is read once through the config walker, the override folded in,
    so a config built in Python is typed and checked as a document is.
    """
    cfg = scenario_from_dict({**cfg.to_dict(), "seed": cfg.seed if seed is None else seed})
    started = time.perf_counter()
    rngs = RngFactory(cfg.seed)
    codes = _alice_material(cfg, rngs)
    train, slot_codes = _transmit(cfg, codes)
    record, ports = _receive(cfg, train, slot_codes, rngs, "bob")
    run = _sift(cfg, codes, record)

    kind = cfg.attack.kind
    # Drop what no later stage reads: Alice's train serves only Eve's
    # blinding replica, and the port fields only the backflash pass.
    if kind == "blinding":
        stage1 = _eve_readings(cfg, rngs, train, slot_codes, record)
    del train, slot_codes, record
    if kind != "backflash":
        del ports
    outcome = None
    if kind == "backflash":
        outcome = _run_backflash(cfg, rngs, run, ports)
    elif kind == "trojan":
        outcome = _run_trojan(cfg, run)
    elif kind == "blinding":
        # Bob's blinded receive is where a run peaks; the clean record is not read again.
        run = replace(run, record=DetectionRecord({}))
        run, outcome = _run_blinding(cfg, rngs, run, *stage1)
    elif kind != "none":  # pragma: no cover - config validation rejects this
        raise ConfigError(f"attack.kind: unknown kind {kind!r}")

    wall = time.perf_counter() - started
    return RunRecord(config=cfg.to_dict(), protocol_run=run, attack=outcome, wall_time_s=wall)


def run_golden(name: str, seed: int | None = None) -> RunRecord:
    cfg = scenario_from_dict(golden_config_dict(name))
    return run_scenario(cfg, seed=seed)


def sweep(cfg: ScenarioConfig, parameter_path: str, values: Sequence[Any]) -> list[RunRecord]:
    """Independent seeded runs, one per value of a numeric config parameter.

    The parameter is addressed by its dotted path (e.g.
    ``attack.backflash.photons_per_electron``); each point runs with a seed
    derived deterministically from the base seed and the point index, so the
    results do not depend on execution order and ``seed`` itself cannot be
    swept.  An integral float given for an integer parameter runs as an int.
    Every point is read and checked before the first one runs.
    """
    cfg.validate()
    keys = parameter_path.split(".")
    if keys == ["seed"]:
        raise ConfigError("seed: cannot be swept; each point's seed is derived from the base seed")
    hint: Any = ScenarioConfig
    for k in keys:
        hints = _type_hints(hint) if is_dataclass(hint) else {}
        if k not in hints:
            raise ConfigError(f"{parameter_path}: no such parameter")
        hint = _inner(hints[k])
    if hint not in (int, float):
        raise ConfigError(f"{parameter_path}: not a numeric parameter")
    base = cfg.to_dict()
    points = []
    for index, value in enumerate(values):
        point = json.loads(json.dumps(base))
        target = point
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = int(value) if hint is int and isinstance(value, float) and value.is_integer() else value
        point["seed"] = derive_sweep_seed(cfg.seed, index)
        points.append(scenario_from_dict(point))
    return [run_scenario(point) for point in points]
