"""Eavesdropper building blocks: faked-state generation against blinded
detectors, counter-propagating probe reflections, and detection-control
feasibility checks.

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

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DetectorSettings, TrojanSettings
from .detectors import ApdConfig, DetectionRecord, apd_detect
from .optics import PulseTrain, attenuate, cw_laser, phase_modulator, pulse_carver
from .protocols import receive

__all__ = [
    "DPS_PHASE_STEP",
    "COW_PHASE_STEP",
    "WORKED_EXAMPLE_READINGS",
    "WORKED_EXAMPLE_PHASES",
    "FsgPlan",
    "BlindingThresholds",
    "FeasibilityReport",
    "AttackOutcome",
    "fsg_dps_phases",
    "fsg_cow_drive",
    "fsg_replay_dps",
    "fsg_replay_cow",
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

# One specific reading sequence and the drive table that reproduces it with
# slot-varying N.  The first reading is the interferometer edge slot of the
# first pulse, which is always a vacuum event, so the table has exactly one
# phase per reading.
WORKED_EXAMPLE_READINGS = (0, 1, 2, 0, 1, 2, 2, 0, 2, 2, 0, 2, 0, 0, 0)
WORKED_EXAMPLE_PHASES = (0, 0, 2, 1, 1, 3, 1, 2, 0, 2, 1, 3, 2, 1, 2)


@dataclass(frozen=True, eq=False)
class FsgPlan:
    """A faked-state drive plan: per-pulse phases (quarter turns) and launch
    intensities, plus where the first reading lands in Bob's interferometer
    output (``readings_slot_offset``)."""

    readings: tuple[int, ...]
    phase_units: tuple[int, ...]
    intensity_per_slot: np.ndarray
    readings_slot_offset: int

    def __post_init__(self) -> None:
        if len(self.phase_units) != self.intensity_per_slot.shape[0]:
            raise ValueError("one intensity per pulse required")

    def __len__(self) -> int:
        return len(self.phase_units)

    def phase_steps(self) -> list[int]:
        """Consecutive phase differences mod 4, one per pulse after the first."""
        p = self.phase_units
        return [(p[k] - p[k - 1]) % 4 for k in range(1, len(p))]

    def to_train(self, slot_period: float = 1.0, wavelength: float = 1550.0) -> PulseTrain:
        amps = np.sqrt(self.intensity_per_slot) * np.exp(1j * (np.pi / 2.0) * np.asarray(self.phase_units))
        return PulseTrain(amps, slot_period, wavelength)


def _check_readings(readings, allowed: tuple[int, ...]) -> tuple[int, ...]:
    readings = tuple(int(r) for r in readings)
    if not readings:
        raise ValueError("need at least one reading")
    for i, r in enumerate(readings):
        if r not in allowed:
            raise ValueError(f"readings[{i}] = {r} not in {allowed}")
    return readings


def fsg_dps_phases(
    eve_readings: Sequence[int],
    n_policy: str = "canonical",
    launch_intensity: float = 0.39,
) -> FsgPlan:
    """Phase plan that makes a linear-mode DPS receiver reproduce ``eve_readings``.

    The canonical policy prepends an anchor pulse (phase 0) so that every
    reading, including the first, is encoded in a phase step; reading ``j``
    then appears at interferometer slot ``j + 1``.  The worked-example policy
    returns the published drive table and is defined only for
    :data:`WORKED_EXAMPLE_READINGS` (its first reading is the edge slot of the
    first pulse, hence necessarily a vacuum event).
    """
    readings = _check_readings(eve_readings, (0, 1, 2))
    if launch_intensity <= 0.0:
        raise ValueError("launch_intensity must be > 0")
    if n_policy == "canonical":
        phases = [0]
        for r in readings:
            phases.append((phases[-1] + DPS_PHASE_STEP[r]) % 4)
        offset = 1
    elif n_policy == "worked-example":
        if readings != WORKED_EXAMPLE_READINGS:
            raise ValueError("the worked-example policy is defined only for its published reading sequence")
        phases = list(WORKED_EXAMPLE_PHASES)
        offset = 0
    else:
        raise ValueError(f"unknown policy {n_policy!r}")
    intensity = np.full(len(phases), launch_intensity, dtype=np.float64)
    return FsgPlan(readings, tuple(phases), intensity, offset)


def fsg_cow_drive(
    eve_readings: Sequence[int],
    t_b: float,
    thresholds: "BlindingThresholds",
    allow_infeasible: bool = False,
) -> FsgPlan:
    """Drive plan for a blinded COW receiver.

    The baseline launch intensity ``p_always_m / (1 - t_b)`` puts exactly the
    always-click level into the monitoring interferometer; data slots are
    raised to ``p_always_b / t_b`` and take a quarter-turn phase step so the
    leaked light splits evenly between the two monitoring detectors, each
    staying below its never-click rail when the threshold inequalities hold.
    """
    readings = _check_readings(eve_readings, (0, 1, 2, 3))
    report = blinding_feasible(thresholds, t_b)
    if not (report.all_satisfied or allow_infeasible):
        failed = [k for k, v in report.as_dict().items() if k != "marginal" and not v]
        raise ValueError(f"infeasible blinding thresholds: {', '.join(failed)} violated")
    base = thresholds.p_always_m / (1.0 - t_b)
    data = thresholds.p_always_b / t_b
    phases = [0]
    levels = [base]
    for r in readings:
        phases.append((phases[-1] + COW_PHASE_STEP[r]) % 4)
        levels.append(data if r == 3 else base)
    return FsgPlan(readings, tuple(phases), np.array(levels, dtype=np.float64), 1)


def decode_dps_readings(record: DetectionRecord, offset: int, n_readings: int) -> list[int]:
    """Readings observed by a DPS receiver: 0 none, 1 D1, 2 D2 (-1 if both)."""
    d1 = record.clicks("D1")
    d2 = record.clicks("D2")
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


def decode_cow_readings(record: DetectionRecord, offset: int, n_readings: int) -> list[int]:
    """Readings observed by a COW receiver: 0 none, 1 D_M2, 2 D_M1, 3 D_B.

    A data click takes precedence when it coincides with a monitor click (the
    single-symbol alphabet cannot carry both).
    """
    d_b = record.clicks("D_B")
    m1 = record.clicks("D_M1")
    m2 = record.clicks("D_M2")
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


def fsg_replay_dps(
    plan: FsgPlan,
    p_never: float = 0.2,
    p_always: float = 0.39,
    slot_period: float = 1.0,
    rng: Callable[[str], np.random.Generator] | None = None,
) -> list[int]:
    """Send the plan into a linear-mode replica of the DPS receiver and decode
    which detector fired per reading slot; ``rng`` is as in :func:`receive`."""
    rails = DetectorSettings(p_never=p_never, p_always=p_always)
    record, _ = receive("dps", plan.to_train(slot_period), rails, mode="linear", rng=rng)
    return decode_dps_readings(record, plan.readings_slot_offset, len(plan.readings))


def fsg_replay_cow(
    plan: FsgPlan,
    t_b: float,
    thresholds: "BlindingThresholds",
    slot_period: float = 0.5,
    rng: Callable[[str], np.random.Generator] | None = None,
) -> list[int]:
    """Send the plan into a linear-mode replica of the COW receiver and decode
    the three-detector outcome per reading slot; ``rng`` is as in
    :func:`receive`."""
    rails = DetectorSettings(**asdict(thresholds))
    record, _ = receive("cow", plan.to_train(slot_period), rails, t_b=t_b, mode="linear", rng=rng)
    return decode_cow_readings(record, plan.readings_slot_offset, len(plan.readings))


# ---------------------------------------------------------------------------
# Detection-control feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindingThresholds:
    """Trigger-pulse rails per detector family: plain pair for a DPS receiver,
    ``_b`` for the COW data detector, ``_m`` for the COW monitoring detectors."""

    p_always: float = 0.39
    p_never: float = 0.2
    p_always_b: float = 0.398
    p_never_b: float = 0.392
    p_always_m: float = 0.39
    p_never_m: float = 0.2

    def __post_init__(self) -> None:
        for name in ("p_always", "p_never", "p_always_b", "p_never_b", "p_always_m", "p_never_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def from_detector_settings(cls, ds: DetectorSettings) -> "BlindingThresholds":
        return cls(
            p_always=ds.p_always,
            p_never=ds.p_never,
            p_always_b=ds.p_always_b,
            p_never_b=ds.p_never_b,
            p_always_m=ds.p_always_m,
            p_never_m=ds.p_never_m,
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Truth of the three detection-control inequalities.

    * ``rail_gap``: ``p_always < 2 * p_never`` (flawless control of one
      detector pair; the even split of a vacuum event stays under the
      never-click rail).
    * ``monitor_drive_hidden_from_data``: the monitor-level trigger leaking
      into the data line stays below the data never-click rail,
      ``t_b/(1-t_b) * p_always_m < p_never_b``.
    * ``data_drive_hidden_from_monitor``: the data-level trigger leaking into
      the monitoring line, split over its two detectors, stays below the
      monitor never-click rail, ``(1-t_b)/t_b * p_always_b < 2 * p_never_m``.

    ``marginal`` flags any inequality sitting exactly at its boundary.
    """

    rail_gap: bool
    monitor_drive_hidden_from_data: bool
    data_drive_hidden_from_monitor: bool
    marginal: bool

    @property
    def all_satisfied(self) -> bool:
        return self.rail_gap and self.monitor_drive_hidden_from_data and self.data_drive_hidden_from_monitor

    def as_dict(self) -> dict[str, bool]:
        return {
            "rail_gap": self.rail_gap,
            "monitor_drive_hidden_from_data": self.monitor_drive_hidden_from_data,
            "data_drive_hidden_from_monitor": self.data_drive_hidden_from_monitor,
            "marginal": self.marginal,
        }


def blinding_feasible(thresholds: BlindingThresholds, t_b: float) -> FeasibilityReport:
    """Evaluate the detection-control inequalities for a splitter transmittance."""
    if not (0.0 < t_b < 1.0):
        raise ValueError(f"t_b must be strictly within (0, 1), got {t_b}")
    lhs1, rhs1 = thresholds.p_always, 2.0 * thresholds.p_never
    lhs2, rhs2 = t_b / (1.0 - t_b) * thresholds.p_always_m, thresholds.p_never_b
    lhs3, rhs3 = (1.0 - t_b) / t_b * thresholds.p_always_b, 2.0 * thresholds.p_never_m
    return FeasibilityReport(
        rail_gap=lhs1 < rhs1,
        monitor_drive_hidden_from_data=lhs2 < rhs2,
        data_drive_hidden_from_monitor=lhs3 < rhs3,
        marginal=(lhs1 == rhs1) or (lhs2 == rhs2) or (lhs3 == rhs3),
    )


# ---------------------------------------------------------------------------
# Counter-propagating probe (Trojan horse)
# ---------------------------------------------------------------------------


def trojan_probe(
    protocol: str,
    alice_modulation: Sequence[int],
    probe: TrojanSettings,
    slot_period: float,
    excess_loss_db: float = 0.0,
    signal_wavelength: float = 1550.0,
) -> PulseTrain:
    """Back-reflection of Eve's probe off Alice's modulator.

    ``alice_modulation`` is Alice's per-slot drive: phase bits for DPS, slot
    occupancy for COW.  The reflected train carries the same modulation when
    the timing offset is zero; a nonzero offset shifts which slot's modulation
    each probe pulse picks up.  Total attenuation is the reflection loss plus
    the wavelength-dependent excess loss of the probe band.
    """
    if probe.probe_wavelength_nm == signal_wavelength:
        raise ValueError("probe wavelength must differ from the signal wavelength")
    if probe.probe_amplitude <= 0.0:
        raise ValueError("zero-amplitude probe")
    mod = np.asarray(alice_modulation, dtype=np.float64)
    n = mod.size
    shifted = np.zeros(n, dtype=np.float64)
    off = probe.timing_offset_slots
    if off >= 0:
        shifted[off:] = mod[: n - off] if off < n else []
    else:
        shifted[: n + off] = mod[-off:]
    source = cw_laser(n, probe.probe_amplitude, probe.probe_wavelength_nm, slot_period)
    if protocol == "dps":
        reflected = phase_modulator(source, np.pi * shifted)
    elif protocol == "cow":
        reflected = pulse_carver(source, shifted)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return attenuate(reflected, probe.reflection_db + excess_loss_db)


def trojan_decode(
    reflected: PulseTrain,
    protocol: str,
    min_intensity: float = 1e-15,
) -> np.ndarray | str:
    """Eve's read-out of the reflected probe with a replica of Bob's receiver.

    DPS: interferometric decode of the phase differences; the result has one
    entry per interior slot, ``-1`` where no single detector fired.  COW:
    arrival-time read of the intensity pattern, returned as the symbol string
    (``?`` for an unrecognisable pair).  A probe too weak to detect yields an
    empty estimate.
    """
    peak = float(np.max(reflected.intensities)) if len(reflected) else 0.0
    if peak <= min_intensity:
        return np.array([], dtype=np.int64) if protocol == "dps" else ""
    if protocol == "dps":
        record, _ = receive("dps", reflected, nominal=peak)
        n = len(reflected)
        bits = np.full(n - 1, -1, dtype=np.int64)
        d1 = record.clicks("D1")
        d2 = record.clicks("D2")
        for j in range(1, n):
            if d1[j] != d2[j]:
                bits[j - 1] = int(d2[j])
        return bits
    if protocol == "cow":
        cfg = ApdConfig(mode="geiger", click_threshold=0.5 * peak)
        record = apd_detect(reflected, cfg, "EVE_B")
        occ = record["EVE_B"].clicks.astype(np.int64)
        pattern = {(1, 0): "0", (0, 1): "1", (1, 1): "d"}
        out = []
        for i in range(occ.size // 2):
            pair = (int(occ[2 * i]), int(occ[2 * i + 1]))
            out.append(pattern.get(pair, "?"))
        return "".join(out)
    raise ValueError(f"unknown protocol {protocol!r}")


# ---------------------------------------------------------------------------
# Outcome bookkeeping
# ---------------------------------------------------------------------------


def capture_fraction(
    bob_slots: np.ndarray,
    bob_bits: np.ndarray,
    eve_slots: np.ndarray,
    eve_bits: np.ndarray,
) -> float:
    """Fraction of Bob's sifted bits that Eve holds, matching by slot position."""
    if bob_slots.size == 0:
        return 0.0
    eve_map = {int(s): int(b) for s, b in zip(eve_slots, eve_bits)}
    hits = sum(1 for s, b in zip(bob_slots, bob_bits) if eve_map.get(int(s)) == int(b))
    return hits / bob_slots.size


@dataclass(eq=False)
class AttackOutcome:
    """What the eavesdropper got and what it cost: Eve's key estimate next to
    Bob's, the learned fraction, the disturbance induced on the legitimate run
    and which countermeasure alarms fired."""

    attack: str
    eve_key: np.ndarray
    bob_key: np.ndarray
    capture_fraction: float
    induced_qber: float | None = None
    induced_visibility_drop: float | None = None
    alarms: dict[str, bool] | None = None
    feasibility: dict[str, bool] | None = None
    eve_readings: list[int] | None = None
    bob_readings: list[int] | None = None

    def __post_init__(self) -> None:
        if self.alarms is None:
            self.alarms = {"watchdog": False, "photocurrent_monitor": False}
        if not (0.0 <= self.capture_fraction <= 1.0):
            raise ValueError("capture_fraction must be within [0, 1]")

    @property
    def any_alarm(self) -> bool:
        return any(self.alarms.values())
