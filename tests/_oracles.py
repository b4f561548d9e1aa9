"""Independent brute-force references used by the tests.

These deliberately avoid the package's vectorised component code: everything
is scalar complex arithmetic expanding the coupler / delay / coupler
composition slot by slot, so the simulator and the oracle can only agree if
both are right.  ``record_v1_hash`` keeps the retired list-based record
serializer, so that record values can still be compared with hashes pinned
before the array codec; it reads Bob's key from where the record now keeps
it, and derives each detector's photocurrent from its intensity and the
run's blinding settings (``DetectorTrace.photocurrent``), as the record no
longer stores it.  ``split_record_file``
and ``join_record_file`` read and write the layout of a record file, its
padded arrays included, independently of the package's codec,
``record_file_hash`` computes a record's content hash from its file alone, and
``load_record_copied`` keeps the record loader as it read the file into one
buffer of its own before it mapped the file.  The ``*_loop`` functions keep the per-slot and
per-symbol Python loops that whole-array code replaced, so the replacements
can be compared with them on random inputs.  The ``*_chain`` functions keep
Alice's transmitters as they ran over every slot of the train, before the
encoders evaluated the chain once per symbol value, ``dli_chain`` keeps the
interferometer as the coupler -> delay line -> coupler composition it was
before it computed its two ports in place, with ``coupler_two_inputs``, the
coupler as it stood when both of its inputs could be lit;
``backflash_emit_where`` keeps the emission as it multiplied every slot's
intensity, and ``backflash_replica_dense`` keeps the backflash reverse pass
as it ran Eve's replica detector over every slot of that emission, before
the replica was decided on the level codes, both in the intensity model the
package emits by (gain squared times the detected intensity), ``apd_clicks_dense`` the
detector's threshold decisions as it took them on one intensity per slot
before it took them on codes, and ``boxcar_concatenate`` the photocurrent
monitor's filter before it filled one buffer, ``monitor_alarm_whole``
the monitor's alarm as it judged a whole trace, and ``apd_detect_whole``
the detector as it ran on whole traces before it ran blocks of slots.  ``receive_dense`` is the
receiver as it ran on a train with one field per slot, before every input
reached it coded (the encoders' trains, the channel's tamper, the probe and
Eve's faked-state trigger): the ``gathered`` train, the splitter, the
full-length interferometer and one ``apd_detect`` per line, each line's
intensity ``coded`` by ``np.unique`` over its slots, the canonical coding a
detector trace keeps.  ``on_grid`` keeps the padded record a blinded run was
sifted on, before each sift read its clicks through a window of the record.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from dprsim.config import DetectorSettings, scenario_from_dict
from dprsim.detectors import _RAIL_TOL, DetectionRecord, DetectorTrace, _code_dtype, _coded, apd_detect
from dprsim.optics import PulseTrain, attenuate, coupler_2x2, cw_laser, dli, phase_modulator, pulse_carver
from dprsim.record import _record_from_bytes


def brute_force_dli_ports(amplitudes, delay: int = 1) -> tuple[list[float], list[float]]:
    """Per-slot (constructive, destructive) output intensities of a delay-line
    interferometer, expanded slot by slot.

    Conventions match the simulator: 50:50 couplers with ``1j`` on the cross
    port and the delay in the cross arm; the constructive port is the second
    output of the second coupler.
    """
    amps = [complex(a) for a in amplitudes]
    n = len(amps)
    r = 1.0 / math.sqrt(2.0)
    arm_a = [a * r for a in amps]
    arm_b = [a * r * 1j for a in amps]
    constructive: list[float] = []
    destructive: list[float] = []
    for k in range(n + delay):
        ua = arm_a[k] if k < n else 0j
        ub = arm_b[k - delay] if 0 <= k - delay < n else 0j
        out_a = ua * r + ub * r * 1j
        out_b = ua * r * 1j + ub * r
        destructive.append(abs(out_a) ** 2)
        constructive.append(abs(out_b) ** 2)
    return constructive, destructive


def brute_force_cow_monitor(
    occupancy,
    phases,
    amplitude: float,
    t_b: float,
    threshold_rel: float = 0.5,
) -> tuple[list[bool], list[bool]]:
    """Per-slot click pattern of the two monitoring detectors of a COW receiver.

    The monitoring line is the cross port of Bob's input splitter
    (``1j * sqrt(1 - t_b)`` per slot), interfered in a one-slot interferometer;
    a detector clicks when its output intensity exceeds ``threshold_rel`` of
    the nominal monitoring-line level.
    """
    amps = [
        amplitude * occ * cmath.exp(1j * ph) * math.sqrt(1.0 - t_b) * 1j
        for occ, ph in zip(occupancy, phases)
    ]
    constructive, destructive = brute_force_dli_ports(amps, delay=1)
    threshold = threshold_rel * (1.0 - t_b) * amplitude**2
    m1 = [v > threshold for v in constructive]
    m2 = [v > threshold for v in destructive]
    return m1, m2


def _v1_trace(trace, blinding) -> dict:
    # The record keeps no photocurrent: it is derived from the intensity and
    # the run's blinding settings (the intensity itself where there are none).
    return {
        "clicks": [int(v) for v in trace.clicks],
        "intensity": [float(v) for v in trace.intensity],
        "photocurrent": [float(v) for v in trace.photocurrent(blinding)],
        "linear_mode": [int(v) for v in trace.linear_mode],
    }


def _v1_visibility(report) -> dict | None:
    if report is None:
        return None
    return {
        "per_class": {s: {"d_m1": c.d_m1, "d_m2": c.d_m2} for s, c in report.per_class.items()},
        "overall": {"d_m1": report.overall.d_m1, "d_m2": report.overall.d_m2},
    }


def _v1_run(run, blinding) -> dict:
    # v1 kept DPS phase bits as ``alice_bits`` and COW symbols as the string ``alice_symbols``.
    dps = run.protocol == "dps"
    return {
        "protocol": run.protocol,
        "alice_bits": [int(b) for b in run.alice_codes] if dps else None,
        "alice_symbols": None if dps else "".join(COW_SYMBOLS[c] for c in run.alice_codes),
        "record": {
            # v1 kept the slot period: 1.0 for DPS and 0.5 for COW, since no config ever set one.
            "slot_period": 1.0 if dps else 0.5,
            "detectors": {name: _v1_trace(run.record[name], blinding) for name in run.record.names},
        },
        "sifted_alice": [int(b) for b in run.sifted_alice],
        "sifted_bob": [int(b) for b in run.sifted_bob],
        "sifted_slots": [int(v) for v in run.sifted_slots],
        "qber": run.qber,
        "visibility": _v1_visibility(run.visibility_report),
    }


def _v1_outcome(outcome, run) -> dict | None:
    if outcome is None:
        return None
    return {
        "attack": outcome.attack,
        "eve_key": [int(b) for b in outcome.eve_key],
        # Bob's key, which the outcome no longer repeats.
        "bob_key": [int(b) for b in run.sifted_bob],
        "capture_fraction": outcome.capture_fraction,
        "induced_qber": outcome.induced_qber,
        "induced_visibility_drop": outcome.induced_visibility_drop,
        "alarms": dict(outcome.alarms),
        "feasibility": None if outcome.feasibility is None else dict(outcome.feasibility),
        "eve_readings": None if outcome.eve_readings is None else [int(r) for r in outcome.eve_readings],
        "bob_readings": None if outcome.bob_readings is None else [int(r) for r in outcome.bob_readings],
    }


def record_v1_hash(record) -> str:
    """Content hash of a run record under the retired ``dprsim-record/1``
    serializer: every array as a JSON list of Python numbers, the whole record
    minus its wall time dumped with sorted keys and hashed as one string.

    Kept as the reference that pins the simulated values across the change of
    record format: equal v1 hashes mean equal values.
    """
    cfg = scenario_from_dict(record.config)
    # Bob's record is blinded exactly when the run is a blinding attack.
    blinding = cfg.attack.blinding if cfg.attack.kind == "blinding" else None
    payload = {
        "format": "dprsim-record/1",
        "config": {**record.config, "slot_period_s": None},
        "protocol_run": _v1_run(record.protocol_run, blinding),
        "attack": _v1_outcome(record.attack, record.protocol_run),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The dprsim-record/9 file layout, read and written without the package's codec
# ---------------------------------------------------------------------------


def array_leaves(node, path=()):
    """Paths and nodes of the ``{"dtype", "shape"}`` leaves of a record header, in file order."""
    if isinstance(node, dict) and node.keys() == {"dtype", "shape"}:
        yield path, node
    elif isinstance(node, dict):
        for key in sorted(node):
            yield from array_leaves(node[key], (*path, key))


def _array_bytes(leaf) -> int:
    try:
        itemsize = np.dtype(leaf["dtype"]).itemsize
    except TypeError:
        return 0  # not a dtype: the loader rejects the leaf before it reads a byte
    return itemsize * math.prod(leaf["shape"])


def split_record_file(data: bytes):
    """A record file's version line, its header tree, the file offset of each
    array by header path, the arrays' unpadded bytes and what follows the
    last array (the trailer): each array starts at the first multiple of 8
    bytes from the file's start at or past the end of the one before it."""
    version, header, _ = data.split(b"\n", 2)
    tree = json.loads(header)
    at = len(version) + len(header) + 2
    offsets, raw = {}, []
    for path, leaf in array_leaves(tree):
        at += -at % 8
        offsets[path] = at
        raw.append(data[at : at + _array_bytes(leaf)])
        at += _array_bytes(leaf)
    return version, tree, offsets, b"".join(raw), data[at:]


def record_file_hash(data: bytes) -> str:
    """The content hash of a record file's bytes: SHA-256 over its header
    line, then over the SHA-256 digest of each array's span of the file, in
    file order, on one thread."""
    header = data.split(b"\n", 2)[1]
    _, tree, offsets, _, _ = split_record_file(data)
    digest = hashlib.sha256(header)
    for path, leaf in array_leaves(tree):
        digest.update(hashlib.sha256(data[offsets[path] : offsets[path] + _array_bytes(leaf)]).digest())
    return digest.hexdigest()


def join_record_file(version: bytes, tree: dict, raw: bytes, trailer: bytes) -> bytes:
    """The record file of a version line, a header tree (written canonical),
    the arrays' unpadded bytes, each array zero-padded to start at a multiple
    of 8 bytes, and a trailer; raw bytes past the header's shapes go before
    the trailer."""
    out = bytearray(version + b"\n" + json.dumps(tree, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    at = 0
    for _, leaf in array_leaves(tree):
        out += bytes(-len(out) % 8)
        out += raw[at : at + _array_bytes(leaf)]
        at += _array_bytes(leaf)
    return bytes(out + raw[at:] + trailer)


def load_record_copied(path):
    """``report.load_record`` as it copied the file: one read into a buffer of
    the file's size, then the package's decoder.  The buffer is a bytearray,
    not the ``np.empty`` it was, because the decoder now searches its buffer
    with ``find``."""
    with Path(path).open("rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]
    return _record_from_bytes(data)


# ---------------------------------------------------------------------------
# Retired per-slot loops.  Each body is the loop as it stood in the package;
# record arguments are replaced by their click arrays, and key bits come out
# as booleans, the dtype the package keeps them in.
# ---------------------------------------------------------------------------

COW_SYMBOLS = ("0", "1", "d")
VISIBILITY_CLASSES = ("d", "01", "0d", "d1", "dd")
_OCCUPANCY = {"0": (1, 0), "1": (0, 1), "d": (1, 1)}
DPS_PHASE_STEP = {0: 1, 1: 0, 2: 2}
COW_PHASE_STEP = {0: 1, 1: 2, 2: 0, 3: 1}


def cow_occupancy_loop(sym: str) -> np.ndarray:
    occ = np.empty(2 * len(sym), dtype=np.int8)
    for i, s in enumerate(sym):
        occ[2 * i], occ[2 * i + 1] = _OCCUPANCY[s]
    return occ


def cow_interfaces_loop(sym: str) -> list[tuple[int, str]]:
    occ = cow_occupancy_loop(sym)
    out: list[tuple[int, str]] = []
    for k in range(1, occ.size):
        if not (occ[k - 1] and occ[k]):
            continue
        if k % 2 == 1:
            # Intra-symbol pair: only the decoy occupies both of its slots.
            out.append((k, "d"))
        else:
            earlier = sym[k // 2 - 1]
            later = sym[k // 2]
            out.append((k, later + earlier))
    return out


def visibility_loop(m1, m2, sym: str) -> tuple[dict[str, list[int]], list[int]]:
    """Per-class and overall ``[d_m1, d_m2]`` counts."""
    per_class = {s: [0, 0] for s in VISIBILITY_CLASSES}
    overall = [0, 0]
    for slot, cls in cow_interfaces_loop(sym):
        counts = per_class[cls]
        if m1[slot]:
            counts[0] += 1
            overall[0] += 1
        if m2[slot]:
            counts[1] += 1
            overall[1] += 1
    return per_class, overall


def cow_sift_loop(sym: str, clicks) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(sifted_alice, sifted_bob, sifted_slots, qber)``."""
    kept: list[int] = []
    bob: list[int] = []
    for i, s in enumerate(sym):
        if s == "d":
            continue
        early, late = bool(clicks[2 * i]), bool(clicks[2 * i + 1])
        if early or late:
            kept.append(i)
            bob.append(int(late) if early != late else 1 - int(s))
    alice = np.array([int(sym[i]) for i in kept], dtype=bool)
    bob_bits = np.array(bob, dtype=bool)
    qber = int(np.sum(alice != bob_bits)) / len(kept) if kept else 0.0
    return alice, bob_bits, np.array(kept, dtype=np.int64), float(qber)


def decode_dps_readings_loop(d1, d2, offset: int, n_readings: int) -> list[int]:
    out: list[int] = []
    for j in range(n_readings):
        s = offset + j
        c1 = bool(d1[s]) if s < d1.shape[0] else False
        c2 = bool(d2[s]) if s < d2.shape[0] else False
        if c1 and c2:
            out.append(-1)
        elif c1:
            out.append(1)
        elif c2:
            out.append(2)
        else:
            out.append(0)
    return out


def decode_cow_readings_loop(d_b, m1, m2, offset: int, n_readings: int) -> list[int]:
    out: list[int] = []
    for j in range(n_readings):
        s = offset + j
        if s < d_b.shape[0] and d_b[s]:
            out.append(3)
        elif s < m1.shape[0] and m1[s]:
            out.append(2)
        elif s < m2.shape[0] and m2[s]:
            out.append(1)
        else:
            out.append(0)
    return out


def fsg_dps_canonical_phases_loop(readings) -> tuple[int, ...]:
    phases = [0]
    for r in readings:
        phases.append((phases[-1] + DPS_PHASE_STEP[r]) % 4)
    return tuple(phases)


def fsg_cow_drive_loop(readings, base: float, data: float) -> tuple[tuple[int, ...], np.ndarray]:
    """``(phase_units, intensity_per_slot)``."""
    phases = [0]
    levels = [base]
    for r in readings:
        phases.append((phases[-1] + COW_PHASE_STEP[r]) % 4)
        levels.append(data if r == 3 else base)
    return tuple(phases), np.array(levels, dtype=np.float64)


def trojan_decode_dps_loop(d1, d2, n: int) -> np.ndarray:
    bits = np.full(n - 1, -1, dtype=np.int64)
    for j in range(1, n):
        if d1[j] != d2[j]:
            bits[j - 1] = int(d2[j])
    return bits


def trojan_decode_cow_loop(clicks) -> str:
    occ = clicks.astype(np.int64)
    pattern = {(1, 0): "0", (0, 1): "1", (1, 1): "d"}
    out = []
    for i in range(occ.size // 2):
        pair = (int(occ[2 * i]), int(occ[2 * i + 1]))
        out.append(pattern.get(pair, "?"))
    return "".join(out)


def capture_fraction_loop(bob_slots, bob_bits, eve_slots, eve_bits) -> float:
    if bob_slots.size == 0:
        return 0.0
    eve_map = {int(s): int(b) for s, b in zip(eve_slots, eve_bits)}
    hits = sum(1 for s, b in zip(bob_slots, bob_bits) if eve_map.get(int(s)) == int(b))
    return hits / bob_slots.size


def alice_symbols_loop(idx) -> str:
    return "".join(COW_SYMBOLS[i] for i in idx)


def backflash_cow_key_loop(sym: str, clicks) -> tuple[np.ndarray, np.ndarray]:
    eve_slots_list: list[int] = []
    eve_bits_list: list[int] = []
    for i, s_i in enumerate(sym):
        if s_i == "d":
            continue
        early, late = bool(clicks[2 * i]), bool(clicks[2 * i + 1])
        if early != late:
            eve_slots_list.append(i)
            eve_bits_list.append(int(late))
    return np.array(eve_slots_list, dtype=np.int64), np.array(eve_bits_list, dtype=bool)


def trojan_cow_key_loop(alice_symbols: str, sym: str) -> tuple[np.ndarray, np.ndarray]:
    eve_slots_list: list[int] = []
    eve_bits_list: list[int] = []
    decoys = {i for i, c in enumerate(alice_symbols) if c == "d"}
    for i, c in enumerate(sym):
        if i in decoys or c not in ("0", "1"):
            continue
        eve_slots_list.append(i)
        eve_bits_list.append(int(c))
    return np.array(eve_slots_list, dtype=np.int64), np.array(eve_bits_list, dtype=bool)


def blinding_key_loop(protocol: str, readings, symbols: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eve's key positions and bits from her blinding readings: her D1/D2
    readings for DPS; for COW her D_B readings (3) as per-grid-slot clicks,
    decided over Alice's ``symbols`` like a backflash key."""
    if protocol == "dps":
        idx = [j for j, r in enumerate(readings) if r in (1, 2)]
        return np.array(idx, dtype=np.int64), np.array([readings[j] - 1 for j in idx], dtype=bool)
    clicks = [r == 3 for r in readings] + [False] * (2 * len(symbols))
    return backflash_cow_key_loop(symbols, clicks)


def blinding_sifted_alice_loop(diff, bob_idx) -> np.ndarray:
    return np.array([diff[j - 1] for j in bob_idx if 1 <= j <= diff.size], dtype=bool)


def blinding_trace_loop(stored_photocurrent: float, decay_per_slot: float, incident) -> np.ndarray:
    stored = np.empty(incident.shape[0], dtype=np.float64)
    s = stored_photocurrent
    d = decay_per_slot
    for k in range(incident.shape[0]):
        s = s * d + incident[k]
        stored[k] = s
    return stored


def dps_encode_chain(bits, amplitude: float) -> PulseTrain:
    bits = np.asarray(bits, dtype=np.int64)
    source = cw_laser(bits.size, amplitude)
    carved = pulse_carver(source, np.ones(bits.size))
    return phase_modulator(carved, np.pi * bits)


def cow_encode_chain(sym: str, amplitude: float) -> PulseTrain:
    occ = cow_occupancy_loop(sym)
    source = cw_laser(occ.size, amplitude)
    return pulse_carver(source, occ)


def trojan_probe_chain(protocol: str, modulation, probe, excess_loss_db: float) -> PulseTrain:
    """The probe's reflection with the modulator run over every slot: a CW
    probe through Alice's modulator, driven by her per-slot ``modulation``
    shifted by the timing offset, then attenuated."""
    mod = np.asarray(modulation, dtype=np.float64)
    n = mod.size
    shifted = np.zeros(n, dtype=np.float64)
    for k in range(n):
        src = k - probe.timing_offset_slots
        if 0 <= src < n:
            shifted[k] = mod[src]
    source = cw_laser(n, probe.probe_amplitude)
    if protocol == "dps":
        reflected = phase_modulator(source, np.pi * shifted)
    else:
        reflected = pulse_carver(source, shifted)
    return attenuate(reflected, probe.reflection_db + excess_loss_db)


def detected_intensity_dense(trace) -> float:
    """A trace's ``detected_intensity`` as it summed one float per click."""
    return float(np.sum(trace.levels.take(trace.level_codes[trace.clicks])))


def alice_codes_numpy(rng, m: int, n: int) -> np.ndarray:
    """Alice's drawn codes as numpy's bounded-integer draw gave them, narrowed."""
    return rng.integers(0, m, n, dtype=np.int64).astype(np.int8)


def bounded_integers_loop(words, m: int, n: int) -> list[int]:
    """``n`` draws in ``[0, m)`` by 32-bit Lemire over the halves of raw
    64-bit ``words``, low half first, as numpy's ``integers`` takes them."""
    out = []
    halves = (half for word in words for half in (int(word) & 0xFFFFFFFF, int(word) >> 32))
    for x in halves:
        if len(out) == n:
            break
        product = x * m
        if product & 0xFFFFFFFF >= (2**32 - m) % m:
            out.append(product >> 32)
    return out


def coded(intensity) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot intensities in the coded form a detector takes and its trace
    keeps: the sorted distinct values and one unsigned code per slot, one
    byte wide up to 256 values, two up to 65536, else four."""
    levels, codes = np.unique(np.asarray(intensity, dtype=np.float64), return_inverse=True)
    width = np.uint8 if levels.size <= 256 else np.uint16 if levels.size <= 65536 else np.uint32
    return levels, codes.astype(width)


def blinding_light(blinding, n_slots: int) -> np.ndarray:
    """The light of ``blinding`` on each of a detector's ``n_slots`` slots,
    one value per slot: ``illumination_level`` on every slot (``cw``) or on
    every ``pulse_period_slots``-th from slot 0 (``pulsed``), else 0."""
    light = np.zeros(n_slots)
    light[:: 1 if blinding.style == "cw" else blinding.pulse_period_slots] = blinding.illumination_level
    return light


def apd_clicks_dense(intensity, click_threshold: float, rails: tuple[float, float], linear):
    """``apd_detect``'s clicks without dead time, afterpulses or dark counts,
    as it decided them on one intensity per slot: the Geiger threshold on a
    slot in Geiger mode, the always rail on a linear one.  Also whether a
    linear slot lies strictly between the rails, where it would draw."""
    p_never, p_always = rails
    always_rail, never_rail = p_always * (1.0 - _RAIL_TOL), p_never * (1.0 + _RAIL_TOL)
    clicks = (~linear & (intensity > click_threshold)) | (linear & (intensity >= always_rail))
    return clicks, bool(np.any(linear & (intensity > never_rail) & (intensity < always_rail)))


def boxcar_concatenate(trace, window: int) -> np.ndarray:
    """The photocurrent monitor's full-window boxcar means over a prepended
    zero and the running sum, as it computed them before it filled one buffer."""
    csum = np.concatenate([[0.0], np.cumsum(trace)])
    return (csum[window:] - csum[:-window]) / window


def monitor_alarm_whole(trace, window: int, threshold: float) -> bool:
    """The photocurrent monitor's alarm over a whole trace: whether a
    full-window boxcar mean reaches the threshold, or the trace's mean
    where it is shorter than the window."""
    trace = np.asarray(trace, dtype=np.float64)
    filtered = boxcar_concatenate(trace, window) if trace.size >= window else np.array([np.mean(trace)])
    return bool(np.any(filtered >= threshold))


def apd_detect_whole(levels, level_codes, click_threshold: float, rails, detector, blinding=None, rng=None):
    """``apd_detect`` as it ran on whole traces: the stored current of the
    whole trace (``blinding_trace_loop`` over the intensity plus the
    ``blinding_light``), every mode, and the clicks by one threshold compare,
    or else by the per-slot loop over every slot, whenever a slot may draw.
    Returns the clicks, the modes and the stored current (None without
    blinding)."""
    n = level_codes.shape[0]
    if blinding is None:
        photocurrent = None
        linear = np.zeros(n, dtype=bool)
    else:
        incident = levels[level_codes] + blinding_light(blinding, n)
        photocurrent = blinding_trace_loop(0.0, blinding.decay_per_slot, incident)
        linear = photocurrent >= blinding.blind_threshold
    p_never, p_always = rails
    dead, afterpulse, dark = detector.dead_time_slots, detector.afterpulse_prob, detector.dark_count_prob
    always_rail = p_always * (1.0 - _RAIL_TOL)
    never_rail = p_never * (1.0 + _RAIL_TOL)
    geiger = int(np.searchsorted(levels, click_threshold, side="right"))
    always = int(np.searchsorted(levels, always_rail, side="left"))
    never = int(np.searchsorted(levels, never_rail, side="right"))
    needs_rng = afterpulse > 0.0 or dark > 0.0
    if blinding is not None and never < always:
        needs_rng = needs_rng or bool(np.any(linear & (level_codes >= never) & (level_codes < always)))
    stateful = dead > 0 or afterpulse > 0.0 or dark > 0.0
    if not stateful and not needs_rng:
        clicks = level_codes >= geiger
        if blinding is not None:
            clicks = (~linear & clicks) | (linear & (level_codes >= always))
        return clicks, linear, photocurrent
    if needs_rng and rng is None:
        raise ValueError("draws random clicks: pass an rng")
    intensity = levels[level_codes]
    clicks = np.zeros(n, dtype=bool)
    live_from = 0
    afterpulse_at = -1
    span = p_always - p_never
    for k in range(n):
        if k < live_from:
            continue
        fired = False
        if linear[k]:
            if intensity[k] >= always_rail:
                fired = True
            elif intensity[k] > never_rail:
                p = min(1.0, max(0.0, (intensity[k] - p_never) / span))
                fired = bool(rng.random() < p)
        else:
            if k == afterpulse_at and afterpulse > 0.0 and rng.random() < afterpulse:
                fired = True
            if not fired and intensity[k] > click_threshold:
                fired = True
            if not fired and dark > 0.0 and rng.random() < dark:
                fired = True
        if fired:
            clicks[k] = True
            live_from = k + 1 + dead
            afterpulse_at = live_from
    return clicks, linear, photocurrent


def backflash_emit_where(emit, gain: float, intensity) -> np.ndarray:
    """The emitted intensity of every slot: gain squared times its incident
    intensity where ``emit``, else 0."""
    return np.where(emit, gain**2 * intensity, 0.0)


def backflash_emitting(clicks, cfg, rng) -> np.ndarray:
    """The clicks that re-emit: below certainty, one draw per slot from ``rng``
    decides each."""
    emit = clicks.copy()
    if not cfg.ideal and cfg.emission_probability < 1.0:
        emit &= rng.random(len(clicks)) < cfg.emission_probability
    return emit


def backflash_replica_dense(clicks, intensity, cfg, rng, threshold: float) -> np.ndarray:
    """Eve's replica clicks on the re-emission of a detector's ``clicks`` over
    its incident ``intensity``: the slot-length emitted intensity, then a
    noise-free ``apd_detect`` over all of it."""
    emission = backflash_emit_where(backflash_emitting(clicks, cfg, rng), cfg.emission_gain, intensity)
    eve = DetectorSettings()
    return apd_detect(*coded(emission), threshold, (eve.p_never, eve.p_always), eve, "EVE")["EVE"].clicks


def transmit_dense(protocol: str, alice, amplitude: float, pattern) -> PulseTrain:
    """Alice's train, one field per slot, through the channel's phase tamper:
    ``pattern`` (half turns) on its leading slots and phase 0 on the rest."""
    alice = np.asarray(alice, dtype=np.int64)
    if protocol == "dps":
        train = dps_encode_chain(alice, amplitude)
    else:
        train = cow_encode_chain("".join(COW_SYMBOLS[c] for c in alice), amplitude)
    if pattern is None:
        return train
    phases = np.zeros(len(train), dtype=np.float64)
    m = min(len(train), len(pattern))
    phases[:m] = np.asarray(pattern[:m], dtype=np.float64) * np.pi
    return phase_modulator(train, phases)


_QUARTER_TURNS = np.exp(1j * (np.pi / 2.0) * np.arange(4))


def fsg_train(phase_units, intensity) -> PulseTrain:
    """Eve's faked-state trigger with one field per pulse: pulse ``k`` at
    quarter turn ``phase_units[k]`` and launch intensity ``intensity[k]``."""
    return PulseTrain(np.sqrt(intensity) * _QUARTER_TURNS[np.asarray(phase_units) % 4])


def coupler_two_inputs(in_a: PulseTrain, in_b: PulseTrain, transmittance: float = 0.5) -> tuple[PulseTrain, PulseTrain]:
    """The 2x2 coupler with light at both inputs, the shorter padded with
    vacuum: ``out_a = sqrt(t)*in_a + 1j*sqrt(1-t)*in_b`` and ``out_b =
    1j*sqrt(1-t)*in_a + sqrt(t)*in_b``."""
    t = math.sqrt(transmittance)
    k = 1j * math.sqrt(1.0 - transmittance)
    a, b = np.zeros((2, max(len(in_a), len(in_b))), dtype=np.complex128)
    a[: len(in_a)], b[: len(in_b)] = in_a.slots, in_b.slots
    return in_a.with_slots(t * a + k * b), in_a.with_slots(k * a + t * b)


def dli_chain(train: PulseTrain, delay_slots: int) -> tuple[PulseTrain, PulseTrain]:
    """``(constructive, destructive)``: a 50:50 coupler, the cross arm delayed
    by ``delay_slots`` vacuum slots and both arms padded to the output length,
    then a second 50:50 coupler."""
    arm_a, arm_b = coupler_2x2(train)
    delayed = np.zeros(len(arm_b) + delay_slots, dtype=np.complex128)
    delayed[delay_slots:] = arm_b.slots
    destructive, constructive = coupler_two_inputs(arm_a, arm_b.with_slots(delayed))
    return constructive, destructive


def gathered(train: PulseTrain, codes) -> PulseTrain:
    """A coded train with one field per slot: slot ``k`` takes ``train.slots[codes[k]]``."""
    return train.with_slots(train.slots[np.asarray(codes)])


def receive_dense(
    protocol: str,
    train: PulseTrain,
    codes,
    detector: DetectorSettings,
    nominal: float,
    t_b: float = 0.9,
    rng=None,
    blinding=None,
) -> tuple[DetectionRecord, dict[str, PulseTrain]]:
    """``protocols.receive`` of a coded train, run on its gathered train: the
    record and the full-length train incident on each detector."""
    train = gathered(train, codes)
    if protocol == "dps":
        constructive, destructive = dli(train)
        pair = (detector.p_never, detector.p_always)
        lines = {"D1": (constructive, 1.0, pair), "D2": (destructive, 1.0, pair)}
    else:
        data_line, monitor_line = coupler_2x2(train, t_b)
        constructive, destructive = dli(monitor_line)
        monitor, pair = 1.0 - t_b, (detector.p_never_m, detector.p_always_m)
        lines = {
            "D_B": (data_line, t_b, (detector.p_never_b, detector.p_always_b)),
            "D_M1": (constructive, monitor, pair),
            "D_M2": (destructive, monitor, pair),
        }
    traces = {}
    for name, (port, share, rails) in lines.items():
        traces[name] = apd_detect(
            *coded(port.intensities),
            detector.click_threshold_rel * share * nominal,
            rails,
            detector,
            name,
            blinding=blinding,
            rng=None if rng is None else rng(name),
        )[name]
    return DetectionRecord(traces), {name: line[0] for name, line in lines.items()}


def _padded(values, offset: int, n: int) -> np.ndarray:
    """The ``n`` values from ``offset``, zero past the end of ``values``."""
    out = np.zeros(n, dtype=values.dtype)
    part = values[offset : offset + n]
    out[: part.size] = part
    return out


def on_grid(record: DetectionRecord, offset: int, n_slots: int) -> DetectionRecord:
    """The ``n_slots`` slots of ``record`` from ``offset`` on; slots past its
    end are silent and dark: no click, zero intensity, Geiger mode."""
    traces = {}
    for name, t in record.detectors.items():
        levels, codes = t.levels, t.level_codes[offset : offset + n_slots]
        if offset + n_slots > len(t):  # code 0 need not be intensity 0: recode, a padded slot by a zero level
            n = t.levels.shape[0]
            codes = _padded(t.level_codes.astype(_code_dtype(n + 1)), offset, n_slots)
            codes[max(0, len(t) - offset) :] = n
            [(levels, codes)] = _coded([np.append(t.levels, 0.0)], codes)
        clicks, linear = _padded(t.clicks, offset, n_slots), _padded(t.linear_mode, offset, n_slots)
        traces[name] = DetectorTrace(clicks, levels, codes, linear)
    return DetectionRecord(traces)
