"""Eavesdropper building blocks: faked-state generation against blinded
detectors, the reflection of a counter-propagating probe off Alice's encoder,
and detection-control feasibility checks.

Reading alphabets (per grid slot) follow the conventional faked-state
bookkeeping of each receiver and differ between the two protocols on purpose:

* DPS: ``0`` no detection, ``1`` click in D1 (constructive), ``2`` click in D2
  (destructive).
* COW: ``0`` no detection, ``1`` click in D_M2 (destructive), ``2`` click in
  D_M1 (constructive), ``3`` click in the data detector D_B.

To force a detector choice in slot ``k`` the generator picks the phase
difference to the previous pulse: ``2*N*pi`` steers the constructive port,
``(2*N+1)*pi`` the destructive port and ``(N + 1/2)*pi`` splits the pulse
evenly so neither monitor detector reaches its always-click rail (a vacuum
event).  Phases are tracked in quarter-turn units (pi/2), i.e. integers mod 4:
constructive needs a step of 0 mod 4, destructive 2 mod 4, vacuum an odd step.
The canonical policy fixes ``N = 0``; the worked-example policy reproduces a
known published drive table for one specific reading sequence where ``N``
varies slot to slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .config import DetectorSettings, TrojanSettings
from .detectors import DetectionRecord, _coded, apd_detect
from .optics import PulseTrain, attenuate
from .protocols import receive

__all__ = [
    "DPS_PHASE_STEP",
    "COW_PHASE_STEP",
    "WORKED_EXAMPLE_PHASES",
    "FsgPlan",
    "AttackOutcome",
    "fsg_dps_phases",
    "fsg_cow_drive",
    "decode_dps_readings",
    "decode_cow_readings",
    "blinding_feasible",
    "trojan_probe",
    "trojan_decode",
    "capture_fraction",
]

# Quarter-turn phase step per reading (canonical policy, N = 0).
DPS_PHASE_STEP = {0: 1, 1: 0, 2: 2}
COW_PHASE_STEP = {0: 1, 1: 2, 2: 0, 3: 1}
_DPS_STEPS = np.array([DPS_PHASE_STEP[r] for r in range(3)], dtype=np.int8)
_COW_STEPS = np.array([COW_PHASE_STEP[r] for r in range(4)], dtype=np.int8)
# The phase factor of each quarter turn, computed once instead of once per pulse.
_QUARTER_TURNS = np.exp(1j * (np.pi / 2.0) * np.arange(4))

# The drive table that reproduces the worked-example readings with slot-varying
# N.  The first reading is the interferometer edge slot of the first pulse,
# which is always a vacuum event, so the table has exactly one phase per
# reading.
WORKED_EXAMPLE_PHASES = (0, 0, 2, 1, 1, 3, 1, 2, 0, 2, 1, 3, 2, 1, 2)


@dataclass(frozen=True, eq=False)
class FsgPlan:
    """A faked-state drive plan: per-pulse phases (quarter turns) and launch
    intensities, pulse ``k`` at ``levels[level_codes[k]]``, plus where the
    first reading lands in Bob's interferometer output
    (``readings_slot_offset``)."""

    phase_units: npt.NDArray[np.int8]
    levels: npt.NDArray[np.float64]
    level_codes: npt.NDArray[np.int8]
    readings_slot_offset: int

    def trigger(self) -> tuple[PulseTrain, np.ndarray]:
        """Eve's trigger train, coded (see ``protocols.receive``): the field
        ``sqrt(level) * i**q`` of each (launch level, quarter turn) pair, 4
        for DPS and 8 for COW, and the code of each pulse's pair."""
        fields = np.sqrt(self.levels)[:, np.newaxis] * _QUARTER_TURNS
        return PulseTrain(fields.reshape(-1)), 4 * self.level_codes + self.phase_units % 4


def _phase_plan(readings: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Quarter-turn phases of an anchor pulse (phase 0) and one pulse per
    reading, each stepping from the previous one by its reading's step.  The
    int8 running sum wraps modulo 256, a multiple of 4, so its value modulo 4
    is exact."""
    phases = np.zeros(readings.size + 1, dtype=np.int8)
    np.cumsum(steps[readings], dtype=np.int8, out=phases[1:])
    phases %= 4
    return phases


def fsg_dps_phases(
    eve_readings: Sequence[int],
    n_policy: str = "canonical",
    launch_intensity: float = 0.39,
) -> FsgPlan:
    """Phase plan that makes a linear-mode DPS receiver reproduce ``eve_readings``.

    The canonical policy prepends an anchor pulse (phase 0) so that every
    reading, including the first, is encoded in a phase step; reading ``j``
    then appears at interferometer slot ``j + 1``.  The worked-example policy
    returns the published drive table whatever ``eve_readings`` are: the
    table replays one published sequence, ``config.WORKED_EXAMPLE_READINGS``
    (its first reading is the edge slot of the first pulse, hence necessarily
    a vacuum event), and the config admits the policy only with those
    readings pinned.
    """
    if n_policy == "canonical":
        phases = _phase_plan(np.asarray(eve_readings, dtype=np.int8), _DPS_STEPS)
        offset = 1
    else:
        phases = np.array(WORKED_EXAMPLE_PHASES, dtype=np.int8)
        offset = 0
    levels = np.array([launch_intensity], dtype=np.float64)
    return FsgPlan(phases, levels, np.zeros(len(phases), dtype=np.int8), offset)


def fsg_cow_drive(
    eve_readings: Sequence[int],
    t_b: float,
    detector: DetectorSettings = DetectorSettings(),
) -> FsgPlan:
    """Drive plan for a blinded COW receiver.

    The baseline launch intensity ``p_always_m / (1 - t_b)`` puts exactly the
    always-click level into the monitoring interferometer; data slots are
    raised to ``p_always_b / t_b`` and take a quarter-turn phase step so the
    leaked light splits evenly between the two monitoring detectors, each
    staying below its never-click rail when the threshold inequalities hold.
    """
    readings = np.asarray(eve_readings, dtype=np.int8)
    levels = np.array([detector.p_always_m / (1.0 - t_b), detector.p_always_b / t_b])  # base, data
    level_codes = np.zeros(readings.size + 1, dtype=np.int8)
    np.equal(readings, 3, out=level_codes[1:])
    return FsgPlan(_phase_plan(readings, _COW_STEPS), levels, level_codes, 1)


def _window(values: np.ndarray, offset: int, n: int) -> np.ndarray:
    """Values of the ``n`` slots from ``offset``: a view where they lie inside
    ``values``, else a copy whose slots past the end are zero (no click)."""
    part = values[offset : offset + n]
    if part.size == n:
        return part
    out = np.zeros(n, dtype=values.dtype)
    out[: part.size] = part
    return out


def decode_dps_readings(record: DetectionRecord, offset: int, n_readings: int) -> np.ndarray:
    """Readings observed by a DPS receiver, int8: 0 none, 1 D1, 2 D2 (-1 if
    both), that is ``d1 + 2 * d2 - 4 * (d1 & d2)``."""
    d1, d2 = (_window(record.clicks(name), offset, n_readings) for name in ("D1", "D2"))
    readings = np.add(d1, d2, dtype=np.int8)
    readings += d2
    readings -= np.multiply(d1 & d2, 4, dtype=np.int8)
    return readings


def decode_cow_readings(record: DetectionRecord, offset: int, n_readings: int) -> np.ndarray:
    """Readings observed by a COW receiver, int8: 0 none, 1 D_M2, 2 D_M1, 3 D_B.

    A data click takes precedence when it coincides with a monitor click (the
    single-symbol alphabet cannot carry both), and D_M1 over D_M2: the
    reading is the greatest of ``3 * d_b``, ``2 * d_m1`` and ``d_m2``.
    """
    d_b, m1, m2 = (_window(record.clicks(name), offset, n_readings) for name in ("D_B", "D_M1", "D_M2"))
    readings = np.multiply(d_b, 3, dtype=np.int8)
    np.maximum(readings, np.multiply(m1, 2, dtype=np.int8), out=readings)
    np.maximum(readings, m2, out=readings)
    return readings


# ---------------------------------------------------------------------------
# Detection-control feasibility
# ---------------------------------------------------------------------------


def blinding_feasible(detector: DetectorSettings, t_b: float | None) -> dict[str, bool]:
    """The detection-control inequalities of a detector's rails, as
    ``AttackOutcome.feasibility`` holds them.

    * ``rail_gap``: ``p_always < 2 * p_never`` on the rails of the pair over
      which a vacuum reading splits evenly (flawless control of the pair):
      D1 and D2 on the plain rails for DPS, which has no splitter (``t_b``
      None) and reports this flag alone; D_M1 and D_M2 on the ``_m`` rails
      for COW.
    * ``monitor_drive_hidden_from_data``: the monitor-level trigger leaking
      into the data line stays below the data never-click rail,
      ``t_b/(1-t_b) * p_always_m < p_never_b``.
    * ``data_drive_hidden_from_monitor``: the data-level trigger leaking into
      the monitoring line, split over its two detectors, stays below the
      monitor never-click rail, ``(1-t_b)/t_b * p_always_b < 2 * p_never_m``.
    * ``marginal``: any of the three sits exactly at its boundary.
    """
    if t_b is None:
        return {"rail_gap": detector.p_always < 2.0 * detector.p_never}
    lhs1, rhs1 = detector.p_always_m, 2.0 * detector.p_never_m
    lhs2, rhs2 = t_b / (1.0 - t_b) * detector.p_always_m, detector.p_never_b
    lhs3, rhs3 = (1.0 - t_b) / t_b * detector.p_always_b, 2.0 * detector.p_never_m
    return {
        "rail_gap": lhs1 < rhs1,
        "monitor_drive_hidden_from_data": lhs2 < rhs2,
        "data_drive_hidden_from_monitor": lhs3 < rhs3,
        "marginal": (lhs1 == rhs1) or (lhs2 == rhs2) or (lhs3 == rhs3),
    }


# ---------------------------------------------------------------------------
# Counter-propagating probe (Trojan horse)
# ---------------------------------------------------------------------------


def trojan_probe(
    encoded: PulseTrain,
    codes: np.ndarray,
    probe: TrojanSettings,
    excess_loss_db: float = 0.0,
) -> tuple[PulseTrain, np.ndarray]:
    """Back-reflection of Eve's probe off Alice's modulator.

    The probe passes back through Alice's encoder, so its reflection is her
    encoder's output at the probe's amplitude: ``encoded`` and ``codes``, in
    coded form (see ``protocols.receive``), as ``dps_encode`` or
    ``cow_encode`` give it.  A nonzero timing offset shifts which of Alice's
    slots each probe pulse picks up: probe slot ``k`` takes the code of
    Alice's slot ``k - timing_offset_slots``, and code 0 where it meets none.
    Total attenuation is the reflection loss plus the wavelength-dependent
    excess loss of the probe band.

    Returns the reflected fields, one per value, and the shifted codes, one
    int8 code per slot.  The attenuation is slot-local, so each value's
    reflection equals that of every slot that carries it, bit for bit.
    """
    n = codes.shape[0]
    # Probe slot k picks up Alice's slot k - offset, where that slot exists.
    off = probe.timing_offset_slots
    lo, hi = max(off, 0), min(n, n + off)
    shifted = np.zeros(n, dtype=np.int8)
    if lo < hi:
        shifted[lo:hi] = codes[lo - off : hi - off]
    return attenuate(encoded, probe.reflection_db + excess_loss_db), shifted


def trojan_decode(
    reflected: PulseTrain,
    codes: np.ndarray,
    protocol: str,
    min_intensity: float = 1e-15,
) -> DetectionRecord:
    """Eve's read-out of the reflected probe, given in coded form as
    :func:`trojan_probe` returns it: the record of her noise-free replica of
    Bob's receiver, with thresholds set by the probe's peak over its slots.

    DPS: the one-slot interferometer with D1 and D2, one slot longer than the
    train; a phase difference clicks one of them at each interior slot.  COW:
    the arrival-time detector D_B alone, one slot per train slot, which reads
    the intensity pattern.  A probe at or below ``min_intensity`` clicks no
    detector.  Eve's key comes from these clicks as in the other attacks.
    """
    power = reflected.intensities
    # The peak over the values some slot carries: the codes are 0 and 1, so
    # those from the least code to the greatest.
    peak = float(np.max(power[codes.min() : codes.max() + 1]))
    # Below Eve's sensitivity her thresholds are out of reach.
    nominal = peak if peak > min_intensity else math.inf
    eve = DetectorSettings()
    if protocol == "dps":
        return receive("dps", reflected, codes, eve, nominal)
    rails = (eve.p_never_b, eve.p_always_b)
    return apd_detect(*_coded([power], codes)[0], eve.click_threshold_rel * nominal, rails, eve, "D_B")


# ---------------------------------------------------------------------------
# Outcome bookkeeping
# ---------------------------------------------------------------------------


def capture_fraction(
    bob_slots: np.ndarray,
    bob_bits: np.ndarray,
    eve_slots: np.ndarray,
    eve_bits: np.ndarray,
) -> float:
    """Fraction of Bob's sifted bits that Eve holds.

    Matches by slot: Bob's bit at slot ``s`` counts when Eve holds the same
    bit at ``s``.  Where Eve lists a slot more than once, her last entry for
    it wins.  Slots are grid indices (>= 0); bits are booleans (or 0 and 1).
    """
    if bob_slots.size == 0 or eve_slots.size == 0:
        return 0.0
    # Eve's bit per grid slot, -1 where she has none.  An assignment through
    # one index array runs in index order, so her last entry for a slot wins.
    held = np.full(max(bob_slots.max(), eve_slots.max()) + 1, -1, dtype=np.int8)
    held[eve_slots] = eve_bits
    return int(np.count_nonzero(held[bob_slots] == bob_bits)) / bob_slots.size


@dataclass(eq=False)
class AttackOutcome:
    """What the eavesdropper got and what it cost: Eve's key estimate (Bob's
    key is the run's ``sifted_bob``), the learned fraction, the disturbance
    induced on the legitimate run and which countermeasure alarms fired."""

    attack: str
    eve_key: npt.NDArray[np.bool_]
    capture_fraction: float
    induced_qber: float | None = None
    induced_visibility_drop: float | None = None
    alarms: dict[str, bool] | None = None
    feasibility: dict[str, bool] | None = None
    eve_readings: npt.NDArray[np.int8] | None = None
    bob_readings: npt.NDArray[np.int8] | None = None

    def __post_init__(self) -> None:
        if self.alarms is None:
            self.alarms = {"watchdog": False, "photocurrent_monitor": False}
        if not (0.0 <= self.capture_fraction <= 1.0):
            raise ValueError("capture_fraction must be within [0, 1]")

    @property
    def any_alarm(self) -> bool:
        return any(self.alarms.values())
