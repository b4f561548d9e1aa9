"""Seeded deterministic execution of scenario configs into run records.

``run_scenario`` builds the component graph for the configured protocol and
attack and evaluates it slot-synchronously: whole-train transforms in dataflow
order, with the reverse paths of the probe and backflash attacks handled as a
second backward pass.  Every random draw comes from a named substream of the
run seed, so adding a consumer never perturbs the others and re-running a
config reproduces every byte.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
import types
import typing
import zlib
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Sequence

import numpy as np
import yaml

from .attacks import (
    AttackOutcome,
    BlindingThresholds,
    blinding_feasible,
    capture_fraction,
    decode_cow_readings,
    decode_dps_readings,
    fsg_cow_drive,
    fsg_dps_phases,
    trojan_decode,
    trojan_probe,
)
from .config import ConfigError, ScenarioConfig, scenario_from_dict
from .detectors import (
    ApdConfig,
    BackflashConfig,
    BlindingState,
    DetectionRecord,
    DetectorTrace,
    apd_detect,
    backflash_emit,
    photocurrent_monitor,
    watchdog,
)
from .goldens import golden_config_dict
from .optics import PulseTrain, circulator, cw_laser, optical_filter, phase_modulator, select_channel
from .protocols import (
    COW_SYMBOLS,
    ProtocolRun,
    cow_encode,
    cow_occupancy,
    cow_sift,
    dps_encode,
    dps_reference_bits,
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


def _alice_material(cfg: ScenarioConfig, rngs: RngFactory) -> tuple[np.ndarray | None, str | None]:
    if cfg.protocol == "dps":
        if cfg.bits is not None:
            return np.array(cfg.bits, dtype=np.int64), None
        return rngs.get("alice-source").integers(0, 2, cfg.n_symbols).astype(np.int64), None
    if cfg.symbols is not None:
        return None, cfg.symbols
    idx = rngs.get("alice-source").integers(0, 3, cfg.n_symbols)
    return None, "".join(COW_SYMBOLS[i] for i in idx)


def _transmit(cfg: ScenarioConfig, alice_bits: np.ndarray | None, alice_symbols: str | None) -> PulseTrain:
    """Alice's encoder and the channel: the train arriving at Bob."""
    if cfg.protocol == "dps":
        train = dps_encode(alice_bits, cfg.amplitude, cfg.slot_period, cfg.wavelength_nm)
    else:
        train = cow_encode(alice_symbols, cfg.amplitude, cfg.slot_period, cfg.wavelength_nm)
    pattern = cfg.channel.phase_tamper_half_turns
    if pattern is None:
        return train
    phases = np.zeros(len(train), dtype=np.float64)
    m = min(len(train), len(pattern))
    phases[:m] = np.asarray(pattern[:m], dtype=np.float64) * np.pi
    return phase_modulator(train, phases)


def _receive(
    cfg: ScenarioConfig,
    train: PulseTrain,
    rngs: RngFactory,
    stream: str,
    **blinding: Any,
) -> tuple[DetectionRecord, dict[str, PulseTrain]]:
    """Bob's receiver, or Eve's replica of it, at the scenario's detector
    settings and nominal level ``amplitude**2``; detector ``X`` draws from the
    stream ``<stream>-X``."""
    return receive(
        cfg.protocol,
        train,
        cfg.detector,
        cfg.amplitude**2,
        t_b=cfg.t_b,
        rng=lambda name: rngs.get(f"{stream}-{name}"),
        **blinding,
    )


# ---------------------------------------------------------------------------
# Attack orchestration
# ---------------------------------------------------------------------------


def _run_backflash(
    cfg: ScenarioConfig,
    rngs: RngFactory,
    run: ProtocolRun,
    ports: dict[str, PulseTrain],
) -> AttackOutcome:
    """Reverse pass: re-emission from Bob's clicked detectors, routed to Eve by
    the channel circulator, decoded with her replica of the corresponding
    detector."""
    s = cfg.attack.backflash
    bf = BackflashConfig(
        electrons_per_avalanche=s.electrons_per_avalanche,
        photons_per_electron=s.photons_per_electron,
        ideal_mode=s.ideal,
        emission_gain=s.emission_gain,
    )
    gain2 = bf.emission_gain**2

    def eve_detect(detector: str, threshold: float) -> DetectorTrace:
        emission = backflash_emit(
            DetectionRecord.single(detector, run.record[detector], cfg.slot_period),
            ports[detector],
            bf,
            rng=rngs.get(f"backflash-{detector}"),
        )
        _, _, toward_eve = circulator(port2_in=emission)
        cfg_eve = ApdConfig(mode="geiger", click_threshold=threshold)
        rec = apd_detect(toward_eve, cfg_eve, f"EVE_{detector}", rng=rngs.get(f"eve-{detector}"))
        return rec[f"EVE_{detector}"]

    rel = cfg.detector.click_threshold_rel
    nominal = cfg.amplitude**2
    if cfg.protocol == "dps":
        eve_d1 = eve_detect("D1", rel * gain2 * nominal)
        eve_d2 = eve_detect("D2", rel * gain2 * nominal)
        one = np.logical_xor(eve_d1.clicks, eve_d2.clicks)
        eve_slots = np.nonzero(one)[0]
        eve_bits = eve_d2.clicks[eve_slots].astype(np.int64)
    else:
        eve_db = eve_detect("D_B", rel * gain2 * cfg.t_b * nominal)
        sym = run.alice_symbols
        eve_slots_list: list[int] = []
        eve_bits_list: list[int] = []
        for i, s_i in enumerate(sym):
            if s_i == "d":
                continue
            early, late = bool(eve_db.clicks[2 * i]), bool(eve_db.clicks[2 * i + 1])
            if early != late:
                eve_slots_list.append(i)
                eve_bits_list.append(int(late))
        eve_slots = np.array(eve_slots_list, dtype=np.int64)
        eve_bits = np.array(eve_bits_list, dtype=np.int64)

    frac = capture_fraction(run.sifted_slots, run.sifted_bob, eve_slots, eve_bits)
    return AttackOutcome(
        attack="backflash",
        eve_key=eve_bits,
        bob_key=run.sifted_bob,
        capture_fraction=frac,
        induced_qber=0.0,
        induced_visibility_drop=0.0 if cfg.protocol == "cow" else None,
    )


def _run_trojan(cfg: ScenarioConfig, run: ProtocolRun, train: PulseTrain) -> AttackOutcome:
    """Backward probe pass: watchdog tap at Alice's entrance, reflection off her
    modulator, wavelength separation and Eve's replica decode.  The forward
    signal is untouched; Bob's entrance filter keeps the probe band away from
    his detectors."""
    s = cfg.attack.trojan
    probe_in = cw_laser(len(train), s.probe_amplitude, s.probe_wavelength_nm, cfg.slot_period)

    wd_alarm = False
    probe_amplitude = s.probe_amplitude
    cm = cfg.countermeasures.watchdog
    if cm.enabled:
        wd = watchdog(probe_in, cm.tap_fraction, cm.intensity_threshold)
        wd_alarm = wd.alarm
        probe_amplitude = s.probe_amplitude * float(np.sqrt(1.0 - cm.tap_fraction))

    if cfg.protocol == "dps":
        modulation: Sequence[int] = run.alice_bits
    else:
        modulation = cow_occupancy(run.alice_symbols)
    probe_cfg = s if probe_amplitude == s.probe_amplitude else replace(s, probe_amplitude=probe_amplitude)
    reflected = trojan_probe(
        cfg.protocol,
        modulation,
        probe_cfg,
        cfg.slot_period,
        excess_loss_db=cfg.channel.excess_loss_for(s.probe_wavelength_nm),
        signal_wavelength=cfg.wavelength_nm,
    )
    # Both bands co-propagate back up Alice's output fiber; Eve's bandpass
    # filter strips the signal band and keeps the probe band for her decoder.
    channels = optical_filter([train, reflected], s.probe_wavelength_nm)
    eve_channel = select_channel(channels, s.probe_wavelength_nm)

    if cfg.protocol == "dps":
        decoded = trojan_decode(eve_channel, "dps", s.eve_min_intensity)
        eve_slots = np.nonzero(decoded >= 0)[0] + 1
        eve_bits = decoded[decoded >= 0].astype(np.int64)
    else:
        sym = trojan_decode(eve_channel, "cow", s.eve_min_intensity)
        eve_slots_list: list[int] = []
        eve_bits_list: list[int] = []
        decoys = {i for i, c in enumerate(run.alice_symbols) if c == "d"}
        for i, c in enumerate(sym):
            if i in decoys or c not in ("0", "1"):
                continue
            eve_slots_list.append(i)
            eve_bits_list.append(int(c))
        eve_slots = np.array(eve_slots_list, dtype=np.int64)
        eve_bits = np.array(eve_bits_list, dtype=np.int64)

    frac = capture_fraction(run.sifted_slots, run.sifted_bob, eve_slots, eve_bits)
    return AttackOutcome(
        attack="trojan",
        eve_key=eve_bits,
        bob_key=run.sifted_bob,
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


def _run_blinding(
    cfg: ScenarioConfig,
    rngs: RngFactory,
    clean: ProtocolRun,
    train: PulseTrain,
) -> tuple[ProtocolRun, AttackOutcome]:
    """Three stages: Eve's replica measurement (or pinned readings), the
    faked-state plan, and the replay into Bob's blinded detectors with the
    photocurrent monitor watching."""
    s = cfg.attack.blinding
    th = BlindingThresholds.from_detector_settings(cfg.detector)
    decode = decode_dps_readings if cfg.protocol == "dps" else decode_cow_readings

    derived = s.readings is None
    if derived:
        replica, _ = _receive(cfg, train, rngs, "eve-stage1")
        # A double click of the replica (DPS reading -1) names no detector:
        # Eve replays it as a vacuum event.
        readings = [max(r, 0) for r in decode(replica, 0, len(train) + 1)]
    else:
        readings = list(s.readings)

    if cfg.protocol == "dps":
        plan = fsg_dps_phases(readings, s.policy, launch_intensity=th.p_always)
        feasibility = {"rail_gap": th.p_always < 2.0 * th.p_never}
    else:
        plan = fsg_cow_drive(readings, cfg.t_b, th, allow_infeasible=True)
        feasibility = blinding_feasible(th, cfg.t_b).as_dict()

    trigger = plan.to_train(cfg.slot_period, cfg.wavelength_nm)
    blind = BlindingState(0.0, s.decay_per_slot, s.blind_threshold)
    background = _blinding_background(s.style, s.illumination_level, s.pulse_period_slots, len(trigger) + 1)
    record, _ = _receive(cfg, trigger, rngs, "bob", blind=blind, background=background)
    bob_readings = decode(record, plan.readings_slot_offset, len(readings))

    monitor_alarm = False
    cm = cfg.countermeasures.photocurrent_monitor
    if cm.enabled:
        for name in record.names:
            result = photocurrent_monitor(record[name].photocurrent, cm.window_slots, cm.alarm_threshold)
            monitor_alarm = monitor_alarm or result.alarm

    # Keys follow the monitoring-detector readings (bit 0 constructive, bit 1
    # destructive for DPS); COW detector control is judged on record equality.
    if cfg.protocol == "dps":
        eve_idx = [j for j, r in enumerate(readings) if r in (1, 2)]
        eve_bits = np.array([readings[j] - 1 for j in eve_idx], dtype=np.int64)
        bob_idx = [j for j, r in enumerate(bob_readings) if r in (1, 2)]
        bob_bits = np.array([bob_readings[j] - 1 for j in bob_idx], dtype=np.int64)
    else:
        eve_idx = [j for j, r in enumerate(readings) if r == 3]
        eve_bits = np.array([1] * len(eve_idx), dtype=np.int64)
        bob_idx = [j for j, r in enumerate(bob_readings) if r == 3]
        bob_bits = np.array([1] * len(bob_idx), dtype=np.int64)

    frac = capture_fraction(
        np.array(bob_idx, dtype=np.int64), bob_bits, np.array(eve_idx, dtype=np.int64), eve_bits
    )

    if derived and cfg.protocol == "dps":
        # Bob's sifted bits map back to Alice's key stream through Eve's
        # faithful replica measurement: reading j sits at his slot j + offset
        # and carries Alice's difference bit j - 1.
        diff = dps_reference_bits(clean.alice_bits)
        sifted_alice = np.array([diff[j - 1] for j in bob_idx if 1 <= j <= diff.size], dtype=np.int64)
        qber = float(np.mean(sifted_alice != bob_bits[: sifted_alice.size])) if sifted_alice.size else 0.0
        run_alice = sifted_alice
        run_qber = qber
    else:
        run_alice = np.array([], dtype=np.int64)
        run_qber = None

    attacked_run = ProtocolRun(
        protocol=cfg.protocol,
        alice_bits=clean.alice_bits,
        alice_symbols=clean.alice_symbols,
        record=record,
        sifted_alice=run_alice,
        sifted_bob=bob_bits,
        sifted_slots=np.array(bob_idx, dtype=np.int64),
        qber=run_qber,
    )
    outcome = AttackOutcome(
        attack="blinding",
        eve_key=eve_bits,
        bob_key=bob_bits,
        capture_fraction=frac,
        induced_qber=(run_qber - clean.qber) if run_qber is not None and clean.qber is not None else None,
        induced_visibility_drop=None,
        alarms={"watchdog": False, "photocurrent_monitor": monitor_alarm},
        feasibility=feasibility,
        eve_readings=list(readings),
        bob_readings=list(bob_readings),
    )
    return attacked_run, outcome


# ---------------------------------------------------------------------------
# Record assembly and serialization
# ---------------------------------------------------------------------------

RECORD_FORMAT = "dprsim-record/2"

# Array dtype kind in memory -> stored little-endian dtype, and back.  Booleans
# are stored as bytes, so every platform hashes and writes the same bits.
_STORED = {"b": "|u1", "i": "<i8", "f": "<f8"}
_LOADED = {"|u1": np.bool_, "<i8": np.int64, "<f8": np.float64}


def _field_hints(cls: type) -> list[tuple[str, Any]]:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def _inner(hint: Any) -> Any:
    """The ``X`` of an ``X | None`` hint; any other hint unchanged."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and len(args) == 1:
        return args[0]
    return hint


def _tree(value: Any, hint: Any) -> Any:
    """Plain tree of a record value, led by its type hint: dataclasses become
    field mappings, arrays and ``list[int]`` become contiguous arrays of a
    stored dtype, everything else stays as it is."""
    if value is None:
        return None
    hint = _inner(hint)
    if is_dataclass(hint):
        return {name: _tree(getattr(value, name), t) for name, t in _field_hints(hint)}
    origin = typing.get_origin(hint)
    if hint is np.ndarray or origin is list:
        arr = np.asarray(value, dtype=np.int64 if origin is list else None)
        return np.ascontiguousarray(arr.astype(_STORED[arr.dtype.kind], copy=False))
    if origin is dict:
        return {k: _tree(v, typing.get_args(hint)[1]) for k, v in value.items()}
    return value


def _untree(node: Any, hint: Any) -> Any:
    """Inverse of ``_tree`` composed with ``_header(inline=True)``."""
    if node is None:
        return None
    hint = _inner(hint)
    if is_dataclass(hint):
        return hint(**{name: _untree(node[name], t) for name, t in _field_hints(hint)})
    origin = typing.get_origin(hint)
    if hint is np.ndarray or origin is list:
        dtype = node["dtype"]
        if dtype not in _LOADED:
            raise ValueError(f"unsupported array dtype {dtype!r}")
        data = bytearray(base64.b64decode(node["data"], validate=True))
        arr = np.frombuffer(data, dtype=dtype).reshape(node["shape"]).astype(_LOADED[dtype], copy=False)
        return arr.tolist() if origin is list else arr
    if origin is dict:
        return {k: _untree(v, typing.get_args(hint)[1]) for k, v in node.items()}
    return node


def _header(node: Any, arrays: list[np.ndarray], inline: bool) -> Any:
    """Replace each array of a tree by its dtype and shape, plus its bytes in
    base64 when ``inline``; append the arrays to ``arrays`` in sorted-key order."""
    if isinstance(node, np.ndarray):
        arrays.append(node)
        leaf = {"dtype": node.dtype.str, "shape": list(node.shape)}
        if inline:
            leaf["data"] = base64.b64encode(node).decode("ascii")
        return leaf
    if isinstance(node, dict):
        return {k: _header(node[k], arrays, inline) for k in sorted(node)}
    return node


def _canonical(header: dict[str, Any]) -> str:
    return json.dumps(header, sort_keys=True, separators=(",", ":"))


@dataclass(eq=False)
class RunRecord:
    """Everything one run produced: the config snapshot, Bob's records and
    sifting outcome, the attack outcome when present, and the wall time.

    The serialized form (``dprsim-record/2``) is a JSON tree in which every
    array is ``{"dtype", "shape"}`` with its little-endian bytes inline as
    base64 ``data``.  The content hash is SHA-256 over the canonical header
    (sorted keys, compact, arrays without ``data``, no wall time) followed by
    the raw bytes of each array in header key order; the wall time, the only
    non-reproducible field, is left out.
    """

    config: dict[str, Any]
    protocol_run: ProtocolRun
    attack: AttackOutcome | None
    wall_time_s: float

    def _split(self, inline: bool, include_volatile: bool) -> tuple[dict[str, Any], list[np.ndarray]]:
        tree = _tree(self, RunRecord)
        tree["format"] = RECORD_FORMAT
        if not include_volatile:
            del tree["wall_time_s"]
        arrays: list[np.ndarray] = []
        return _header(tree, arrays, inline), arrays

    def to_dict(self) -> dict[str, Any]:
        return self._split(inline=True, include_volatile=True)[0]

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != RECORD_FORMAT:
            if fmt == "dprsim-record/1":
                raise ValueError("a dprsim-record/1 file, which is no longer read; regenerate it by re-running its scenario")
            raise ValueError(f"unsupported record format {fmt!r}")
        try:
            return _untree(d, cls)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed record: {exc}") from exc

    def canonical_json(self, include_volatile: bool = False) -> str:
        header, _ = self._split(inline=False, include_volatile=include_volatile)
        return _canonical(header)

    def content_hash(self) -> str:
        header, arrays = self._split(inline=False, include_volatile=False)
        digest = hashlib.sha256(_canonical(header).encode("utf-8"))
        for arr in arrays:
            digest.update(arr)
        return digest.hexdigest()

    @property
    def any_alarm(self) -> bool:
        return self.attack is not None and self.attack.any_alarm


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
            base = golden_config_dict(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
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
    """Execute one scenario deterministically; ``seed`` overrides the config seed."""
    cfg.validate()
    if seed is not None:
        cfg = scenario_from_dict({**cfg.to_dict(), "seed": int(seed)})
    started = time.perf_counter()
    rngs = RngFactory(cfg.seed)
    alice_bits, alice_symbols = _alice_material(cfg, rngs)
    train = _transmit(cfg, alice_bits, alice_symbols)
    record, ports = _receive(cfg, train, rngs, "bob")
    if cfg.protocol == "dps":
        run = dps_sift(alice_bits, record)
    else:
        run = cow_sift(alice_symbols, record, visibility(record, alice_symbols))

    kind = cfg.attack.kind
    outcome = None
    if kind == "backflash":
        outcome = _run_backflash(cfg, rngs, run, ports)
    elif kind == "trojan":
        outcome = _run_trojan(cfg, run, train)
    elif kind == "blinding":
        run, outcome = _run_blinding(cfg, rngs, run, train)
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
    results do not depend on execution order.
    """
    cfg.validate()
    base = cfg.to_dict()
    keys = parameter_path.split(".")
    node = base
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"{parameter_path}: no such parameter")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"{parameter_path}: no such parameter")
    current = node[leaf]
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise ConfigError(f"{parameter_path}: not a numeric parameter (current value {current!r})")
    records: list[RunRecord] = []
    for index, value in enumerate(values):
        point = json.loads(json.dumps(base))
        target = point
        for k in keys[:-1]:
            target = target[k]
        target[leaf] = value
        point["seed"] = derive_sweep_seed(cfg.seed, index)
        records.append(run_scenario(scenario_from_dict(point)))
    return records
