"""Independent brute-force references used by the tests.

These deliberately avoid the package's vectorised component code: everything
is scalar complex arithmetic expanding the coupler / delay / coupler
composition slot by slot, so the simulator and the oracle can only agree if
both are right.  ``record_v1_hash`` keeps the retired list-based record
serializer, so that record values can still be compared with hashes pinned
before the array codec.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math


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


def _v1_trace(trace) -> dict:
    return {
        "clicks": [int(v) for v in trace.clicks],
        "intensity": [float(v) for v in trace.intensity],
        "photocurrent": [float(v) for v in trace.photocurrent],
        "linear_mode": [int(v) for v in trace.linear_mode],
    }


def _v1_visibility(report) -> dict | None:
    if report is None:
        return None
    return {
        "per_class": {s: {"d_m1": c.d_m1, "d_m2": c.d_m2} for s, c in report.per_class.items()},
        "overall": {"d_m1": report.overall.d_m1, "d_m2": report.overall.d_m2},
    }


def _v1_run(run) -> dict:
    return {
        "protocol": run.protocol,
        "alice_bits": None if run.alice_bits is None else [int(b) for b in run.alice_bits],
        "alice_symbols": run.alice_symbols,
        "record": {
            "slot_period": run.record.slot_period,
            "detectors": {name: _v1_trace(run.record[name]) for name in run.record.names},
        },
        "sifted_alice": [int(b) for b in run.sifted_alice],
        "sifted_bob": [int(b) for b in run.sifted_bob],
        "sifted_slots": [int(v) for v in run.sifted_slots],
        "qber": run.qber,
        "visibility": _v1_visibility(run.visibility_report),
    }


def _v1_outcome(outcome) -> dict | None:
    if outcome is None:
        return None
    return {
        "attack": outcome.attack,
        "eve_key": [int(b) for b in outcome.eve_key],
        "bob_key": [int(b) for b in outcome.bob_key],
        "capture_fraction": outcome.capture_fraction,
        "induced_qber": outcome.induced_qber,
        "induced_visibility_drop": outcome.induced_visibility_drop,
        "alarms": dict(outcome.alarms),
        "feasibility": None if outcome.feasibility is None else dict(outcome.feasibility),
        "eve_readings": outcome.eve_readings,
        "bob_readings": outcome.bob_readings,
    }


def record_v1_hash(record) -> str:
    """Content hash of a run record under the retired ``dprsim-record/1``
    serializer: every array as a JSON list of Python numbers, the whole record
    minus its wall time dumped with sorted keys and hashed as one string.

    Kept as the reference that pins the simulated values across the change of
    record format: equal v1 hashes mean equal values.
    """
    payload = {
        "format": "dprsim-record/1",
        "config": record.config,
        "protocol_run": _v1_run(record.protocol_run),
        "attack": _v1_outcome(record.attack),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
