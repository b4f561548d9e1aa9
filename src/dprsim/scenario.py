"""Seeded deterministic execution of scenario configs into run records.

``run_scenario`` builds the component graph for the configured protocol and
attack and evaluates it slot-synchronously: whole-train transforms in dataflow
order, with the reverse paths of the probe and backflash attacks handled as a
second backward pass.  Every random draw comes from a named substream of the
run seed, so adding a consumer never perturbs the others and re-running a
config reproduces every byte.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import is_dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .attacks import (
    AttackOutcome,
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
    BlindingSettings,
    ConfigError,
    ScenarioConfig,
    _inner,
    _launch_levels,
    _type_hints,
    _typed,
    scenario_from_dict,
)
from .detectors import DetectionRecord, PhotocurrentMonitor, _window, backflash_emit, watchdog
from .goldens import golden_config_dict
from .optics import PulseTrain, cw_laser, phase_modulator
from .protocols import (
    _CODE,
    ProtocolRun,
    _DECOY,
    cow_encode,
    cow_sift,
    dps_encode,
    dps_sift,
    receive,
    visibility,
)
from .record import RunRecord

__all__ = [
    "RngFactory",
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
            ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(zlib.crc32(name.encode("utf-8")),))
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
    """Alice's int8 codes (see ``ProtocolRun``): the config's pinned bits or
    symbols (each valid for its own protocol only), or else ``n_symbols``
    draws from the ``alice-source`` stream (``_bounded_codes``)."""
    if cfg.bits is not None:
        return np.array(cfg.bits, dtype=np.int8)
    if cfg.symbols is not None:
        return _CODE[np.frombuffer(cfg.symbols.encode("ascii"), dtype=np.uint8)]
    return _bounded_codes(rngs.get("alice-source"), 2 if cfg.protocol == "dps" else 3, cfg.n_symbols)


# Raw 64-bit words per block of ``_bounded_codes``.
_WORD_BLOCK = 1 << 12


def _bounded_codes(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """``rng.integers(0, m, n, dtype=np.int64)`` as int8, drawn as numpy draws it:
    32-bit Lemire on the halves ``x`` of each raw word, low half first, rejecting
    ``(x * m) mod 2**32 < (2**32 - m) mod m`` (for m = 3, ``x == 0``), else drawing
    ``(x * m) >> 32``.  A power of two ``m = 2**k`` rejects nothing, and draws
    the top ``k`` bits of ``x``.  A half left at the end is dropped: nothing
    draws again."""
    out, done, reject = np.empty(n, dtype=np.int8), 0, (2**32 - m) % m
    while done < n:
        words = rng.bit_generator.random_raw(min(_WORD_BLOCK, (n - done + 1) // 2))
        halves = words.astype("<u8", copy=False).view("<u4")
        if reject:
            product = halves[halves * np.uint32(m) >= reject][: n - done] * np.uint64(m)
            product >>= np.uint64(32)
        else:
            product = halves[: n - done]
            product >>= np.uint32(33 - m.bit_length())
        out[done : done + product.shape[0]] = product
        done += product.shape[0]
    return out


def _encode(cfg: ScenarioConfig, codes: np.ndarray, amplitude: float) -> tuple[PulseTrain, np.ndarray]:
    """Alice's encoder driven by her ``codes`` and lit at ``amplitude``: her
    coded train (see ``receive``), the fields of her values and one code per
    slot."""
    if cfg.protocol == "dps":
        return dps_encode(codes, amplitude)
    return cow_encode(codes, amplitude)


def _transmit(cfg: ScenarioConfig, codes: np.ndarray) -> tuple[PulseTrain, np.ndarray]:
    """Alice's encoder and the channel: the train arriving at Bob, coded (see
    ``receive``).  The channel's phase tamper modulates slot ``k`` by the
    pattern's ``k``-th phase and the slots past the pattern's end by 0.  The
    modulator is slot-local, so it runs once on each pair of Alice's field
    and distinct phase, and each slot takes its pair's code: bit for bit the
    modulation of the full-length train."""
    train, slot_codes = _encode(cfg, codes, cfg.amplitude)
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
    # In int64: Alice's codes are int8, and a tamper of many phases takes
    # ``j`` past what int8 holds.
    codes = np.multiply(slot_codes, j, dtype=np.int64)
    codes += phase_codes
    return phase_modulator(pairs, np.tile(distinct, len(train))), codes


def _receive(
    cfg: ScenarioConfig,
    train: PulseTrain,
    codes: np.ndarray,
    rngs: RngFactory,
    stream: str,
    blinding: BlindingSettings | None = None,
    monitor: Callable[[str], PhotocurrentMonitor] | None = None,
) -> DetectionRecord:
    """Bob's receiver, or Eve's replica of it, at the scenario's detector
    settings and nominal level ``amplitude**2``, on a train coded by
    ``codes``; detector ``X`` draws from the stream ``<stream>-X`` and, under
    ``blinding``, is watched by ``monitor("X")``."""
    return receive(
        cfg.protocol, train, codes, cfg.detector, cfg.amplitude**2, t_b=cfg.t_b,
        rng=lambda name: rngs.get(f"{stream}-{name}"), blinding=blinding, monitor=monitor,
    )


def _sift(cfg: ScenarioConfig, codes: np.ndarray, record: DetectionRecord, offset: int = 0) -> ProtocolRun:
    """Bob's sifting of a record on Alice's slot grid, which starts at the
    record's slot ``offset``; COW adds visibility."""
    if cfg.protocol == "dps":
        return dps_sift(codes, record, offset)
    return cow_sift(codes, record, visibility(record, codes, offset), offset)


# ---------------------------------------------------------------------------
# Attack orchestration
# ---------------------------------------------------------------------------


def _decoder(cfg: ScenarioConfig) -> Callable[[DetectionRecord, int, int], np.ndarray]:
    """The readings decoder of the scenario's receiver (``decode_dps_readings``
    or ``decode_cow_readings``), looked up when called."""
    return decode_dps_readings if cfg.protocol == "dps" else decode_cow_readings


def _eve_key(
    cfg: ScenarioConfig, codes: np.ndarray, clicks: Callable[[str], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's key over Alice's ``codes`` from ``clicks(name)``, the per-slot
    clicks of her detector ``name``, as two masks over the positions Bob
    sifts: where she holds a bit, and the bit.  DPS: she holds the slots
    where exactly one of D1 and D2 clicked, D2 meaning bit 1.  COW: she holds
    the data symbols where exactly one D_B half-slot clicked, the late one
    meaning bit 1; slots past the end of the clicks are silent."""
    if cfg.protocol == "dps":
        d1, d2 = clicks("D1"), clicks("D2")
        return d1 != d2, d2
    d_b = _window(clicks("D_B"), 0, 2 * codes.size)
    early, late = d_b[::2], d_b[1::2]
    held = early != late
    held &= codes != _DECOY
    return held, late


def _run_backflash(cfg: ScenarioConfig, rngs: RngFactory, run: ProtocolRun) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass: re-emission from Bob's clicked detectors, routed to Eve by
    the channel circulator, decoded with her replica of the corresponding
    detector, whose threshold scales with that detector's share of the
    nominal level (``t_b`` for COW's D_B); returns Eve's key."""
    bf = cfg.attack.backflash
    level = cfg.detector.click_threshold_rel * bf.emission_gain**2

    def clicks(name: str) -> np.ndarray:
        share = cfg.t_b if name == "D_B" else 1.0
        return backflash_emit(run.record[name], bf, level * share * cfg.amplitude**2, rngs.get(f"backflash-{name}"))

    return _eve_key(cfg, run.alice_codes, clicks)


def _run_trojan(cfg: ScenarioConfig, run: ProtocolRun) -> tuple[tuple[np.ndarray, np.ndarray], dict[str, Any]]:
    """Backward probe pass: watchdog tap at Alice's entrance, reflection off her
    modulator, wavelength separation and Eve's replica decode; returns Eve's
    key and the alarms.  Past the tap the probe passes back through Alice's
    encoder, so its reflection is her coded train at the probe's amplitude,
    which ``trojan_probe`` shifts and attenuates.  The forward signal is
    untouched; Bob's entrance filter keeps the probe band away from his
    detectors."""
    s, cm = cfg.attack.trojan, cfg.countermeasures.watchdog
    wd_alarm, probe_amplitude = False, s.probe_amplitude
    if cm.enabled:
        # The probe is continuous-wave, so one slot of it shows the watchdog its peak.
        probe_in = cw_laser(1, s.probe_amplitude)
        wd_alarm = watchdog(probe_in, cm.tap_fraction, cm.intensity_threshold)
        probe_amplitude = s.probe_amplitude * float(np.sqrt(1.0 - cm.tap_fraction))

    reflected, codes = trojan_probe(
        *_encode(cfg, run.alice_codes, probe_amplitude),
        s,
        excess_loss_db=cfg.channel.excess_loss_for(s.probe_wavelength_nm),
    )
    # Both bands co-propagate back up Alice's output fiber; Eve's ideal
    # bandpass filter strips the signal band and passes the probe band whole.
    eve = trojan_decode(reflected, codes, cfg.protocol, s.eve_min_intensity)
    alarms = {"watchdog": wd_alarm, "photocurrent_monitor": False}
    return _eve_key(cfg, run.alice_codes, eve.clicks), {"alarms": alarms}


def _eve_readings(cfg: ScenarioConfig, record: DetectionRecord, n_slots: int) -> np.ndarray:
    """The blinding attack's first stage: the readings Eve replays, pinned or
    decoded from the ``record`` of her replica of Bob on Alice's train over
    its ``n_slots`` slots, one more than the train's."""
    readings = cfg.attack.blinding.readings
    if readings is not None:
        return np.array(readings, dtype=np.int8)
    # A double click of Eve's replica (DPS reading -1) names no detector:
    # she replays it as a vacuum event.
    return np.maximum(_decoder(cfg)(record, 0, n_slots), 0)


def _run_blinding(
    cfg: ScenarioConfig, rngs: RngFactory, codes: np.ndarray, readings: np.ndarray
) -> tuple[ProtocolRun, tuple[np.ndarray, np.ndarray], dict[str, Any], Callable[[], np.ndarray]]:
    """Eve's coded trigger for her ``readings`` (see ``_eve_readings``) and
    its replay into Bob's blinded detectors with the photocurrent monitor
    watching; ``codes`` are Alice's.  Returns Bob's blinded run, Eve's key,
    the outcome's alarms, feasibility and Eve's readings, and a call that
    decodes Bob's readings.

    Bob sifts the blinded record as he sifts a clean one, on Alice's grid,
    which starts where Eve's reading 0 lands, at the trigger's pulse count
    minus her reading count; the run keeps the whole blinded record.
    Pinned readings are sifted against Alice's material too: they do not
    come from her train, so a QBER near 1/2 is the honest result.  Derived
    COW blinding has no visibility: every interface slot is also a D_B pulse
    slot, and a reading names one detector only, so Bob's monitors never
    click at an interface.  Eve's key is her readings, each read as a click
    of the detector it names.
    """
    s = cfg.attack.blinding
    rails = cfg.detector

    if cfg.protocol == "dps":
        [level] = _launch_levels(rails, None).values()
        trigger, trigger_codes = fsg_dps_phases(readings, s.policy, launch_intensity=level)
        feasibility = blinding_feasible(rails, None)
    else:
        trigger, trigger_codes = fsg_cow_drive(readings, cfg.t_b, rails)
        feasibility = blinding_feasible(rails, cfg.t_b)
    offset = trigger_codes.size - readings.size

    cm = cfg.countermeasures.photocurrent_monitor
    monitors: dict[str, PhotocurrentMonitor] = {}

    def monitor(name: str) -> PhotocurrentMonitor:
        return monitors.setdefault(name, PhotocurrentMonitor(cm.window_slots, cm.alarm_threshold))

    record = _receive(cfg, trigger, trigger_codes, rngs, "bob", blinding=s, monitor=monitor if cm.enabled else None)
    del trigger, trigger_codes
    alarms = {"watchdog": False, "photocurrent_monitor": any(m.alarm for m in monitors.values())}

    key = _eve_key(cfg, codes, lambda name: readings == {"D1": 1, "D2": 2, "D_B": 3}[name])
    run = _sift(cfg, codes, record, offset)
    fields = {"alarms": alarms, "feasibility": feasibility, "eve_readings": readings}
    return run, key, fields, lambda: _decoder(cfg)(record, offset, readings.size)


def _overall_visibility(run: ProtocolRun) -> float | None:
    """A run's overall visibility: None for DPS, or where it is undefined."""
    return None if run.visibility_report is None else run.visibility_report.overall_visibility


def _outcome(
    kind: str,
    run: ProtocolRun,
    clean_qber: float,
    clean_visibility: float | None,
    key: tuple[np.ndarray, np.ndarray],
    fields: dict[str, Any],
) -> AttackOutcome:
    """Every attack's score: the share of Bob's sifted bits in ``run`` that
    Eve's ``key`` holds at the same slot, the QBER ``run`` adds to the clean
    run's and the visibility it takes from it (None where either run has
    none), with the attack's own ``fields``.  A passive attack's ``run`` is
    the clean one.  ``key`` is Eve's two masks (``_eve_key``); the outcome
    keeps the bits she holds."""
    eve_held, eve_bits = key
    frac = capture_fraction(run.sifted_slots, run.sifted_bob, eve_held, eve_bits)
    after = _overall_visibility(run)
    drop = None if clean_visibility is None or after is None else clean_visibility - after
    return AttackOutcome(kind, eve_bits[eve_held], frac, run.qber - clean_qber, drop, **fields)


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
    import yaml  # only documents are parsed: a golden or Python config leaves it unloaded

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
    record = _receive(cfg, train, slot_codes, rngs, "bob")
    run = _sift(cfg, codes, record)

    kind = cfg.attack.kind
    outcome = None
    if kind != "none":
        clean_qber, clean_visibility = run.qber, _overall_visibility(run)
    if kind == "blinding":
        # Eve's replica of Bob and his blinded receive are where a run
        # peaks: of his clean run only its QBER and visibility are read
        # again.  Detectors that draw nothing record Alice's train alike, so
        # his record is her replica's; else it goes before her receive.
        del run
        detector = cfg.detector
        if cfg.attack.blinding.readings is None and (detector.afterpulse_prob > 0.0 or detector.dark_count_prob > 0.0):
            del record
            record = _receive(cfg, train, slot_codes, rngs, "eve-stage1")
        readings = _eve_readings(cfg, record, slot_codes.size + 1)
    # Drop what no later stage reads: Alice's train serves only Eve's
    # blinding replica.
    del train, slot_codes, record
    if kind != "none":
        bob_readings = None
        if kind == "backflash":
            key, fields = _run_backflash(cfg, rngs, run), {}
        elif kind == "trojan":
            key, fields = _run_trojan(cfg, run)
        else:
            run, key, fields, bob_readings = _run_blinding(cfg, rngs, codes, readings)
        outcome = _outcome(kind, run, clean_qber, clean_visibility, key, fields)
        if bob_readings is not None:
            # Bob's readings are decoded once Eve's masks are freed: held
            # with them, they would set the run's peak memory.
            del key
            outcome.bob_readings = bob_readings()

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
    cfg = scenario_from_dict(cfg.to_dict())
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
