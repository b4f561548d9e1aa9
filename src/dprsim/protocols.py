"""Differential-phase-shift and coherent-one-way protocol pipelines.

DPS: the key bit sits in the phase difference between successive pulses
(0 -> bit 0, pi -> bit 1).  Bob interferes neighbours in a one-slot delay-line
interferometer; the constructive port is D1 (bit 0), the destructive port D2
(bit 1).  Edge slots of the interferometer output involve a vacuum neighbour
and carry no phase-difference information, so sifting uses interior slots
only.

COW: a symbol occupies two consecutive grid slots.  ``0`` is pulse-vacuum,
``1`` is vacuum-pulse and the decoy ``d`` is pulse-pulse; all pulses share one
phase.  Bob splits the train into a data line (through port, transmittance
``t_b``, arrival-time detector D_B) and a monitoring line (one-slot
interferometer with D_M1 constructive / D_M2 destructive) that checks the
coherence of neighbouring pulses via the visibility statistic.

Each protocol has an encoder and a sifting step; both share one receiver,
:func:`receive`, which also serves every replica of Bob in the attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DetectorSettings
from .detectors import ApdConfig, BlindingState, DetectionRecord, apd_detect
from .optics import (
    CouplerRatio,
    MzmParams,
    PulseTrain,
    coupler_2x2,
    cw_laser,
    dli,
    phase_modulator,
    pulse_carver,
)

__all__ = [
    "COW_SYMBOLS",
    "VISIBILITY_CLASSES",
    "ClassCounts",
    "VisibilityReport",
    "ProtocolRun",
    "receive",
    "dps_encode",
    "dps_sift",
    "dps_reference_bits",
    "cow_occupancy",
    "cow_encode",
    "cow_interfaces",
    "visibility",
    "cow_sift",
]

COW_SYMBOLS = ("0", "1", "d")

# Interface classes between neighbouring occupied slots.  "d" is the pair
# inside one decoy; the two-letter labels name the (later, earlier) symbols of
# a cross-boundary pair, e.g. "01" is a bit 1 followed by a bit 0.
VISIBILITY_CLASSES = ("d", "01", "0d", "d1", "dd")


@dataclass(eq=False)
class ProtocolRun:
    """One executed protocol pipeline: Alice's source material, Bob's detector
    records and the sifting outcome, handed to the scenario engine."""

    protocol: str
    alice_bits: np.ndarray | None
    alice_symbols: str | None
    record: DetectionRecord
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    sifted_slots: np.ndarray
    qber: float | None
    visibility_report: VisibilityReport | None = None

    @property
    def sifted_length(self) -> int:
        return int(self.sifted_bob.shape[0])


# ---------------------------------------------------------------------------
# Bob's receiver
# ---------------------------------------------------------------------------


def receive(
    protocol: str,
    train: PulseTrain,
    detector: DetectorSettings = DetectorSettings(),
    nominal: float | None = None,
    t_b: float = 0.9,
    mode: str = "geiger",
    rng: Callable[[str], np.random.Generator] | None = None,
    blind: BlindingState | None = None,
    background: np.ndarray | None = None,
) -> tuple[DetectionRecord, dict[str, PulseTrain]]:
    """Bob's receiver, or any replica of it.

    DPS: one-slot DLI, constructive port to D1, destructive to D2.  COW:
    splitter with transmittance ``t_b`` to the data line (arrival-time
    detector D_B), the rest into a one-slot DLI with D_M1 (constructive) and
    D_M2 (destructive).

    Each Geiger threshold is ``detector.click_threshold_rel`` times the
    nominal intensity of its line: ``nominal`` (default: the peak intensity of
    ``train``) on the DPS lines, times ``t_b`` on D_B and ``1 - t_b`` on the
    monitoring line.  At 0.5 a lone pulse still clicks the data line while the
    quarter-intensity interferometer edges, where a pulse meets a vacuum
    neighbour, stay silent.  The linear-mode rails are the plain ``p_*`` pair
    for DPS and the ``_b``/``_m`` pairs for COW; ``mode`` fixes the regime of
    every detector unless ``blind`` is given.  ``rng`` maps a detector name
    to its generator.
    ``blind`` and ``background`` drive every detector into blinding;
    ``background`` must cover the longest port, ``len(train) + 1`` slots, and
    each detector sees its leading part.

    Returns the merged record and the field incident on each detector.
    """
    if nominal is None:
        nominal = float(np.max(train.intensities)) if len(train) else 1.0
    if protocol == "dps":
        if len(train) < 2:
            raise ValueError("DPS measurement needs at least two slots")
        constructive, destructive = dli(train, 1)
        lines = {"D1": (constructive, 1.0, ""), "D2": (destructive, 1.0, "")}
    elif protocol == "cow":
        if not (0.0 < t_b < 1.0):
            raise ValueError(f"t_b must be within (0, 1), got {t_b}")
        data_line, monitor_line = coupler_2x2(train, train.vacuum_like(), CouplerRatio(t_b))
        constructive, destructive = dli(monitor_line, 1)
        monitor = 1.0 - t_b
        lines = {"D_B": (data_line, t_b, "_b"), "D_M1": (constructive, monitor, "_m"), "D_M2": (destructive, monitor, "_m")}
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    records = []
    for name, (port, share, rails) in lines.items():
        cfg = ApdConfig(
            mode=mode,
            click_threshold=detector.click_threshold_rel * share * nominal,
            p_never=getattr(detector, f"p_never{rails}"),
            p_always=getattr(detector, f"p_always{rails}"),
            dead_time_slots=detector.dead_time_slots,
            afterpulse_prob=detector.afterpulse_prob,
            dark_count_prob=detector.dark_count_prob,
        )
        records.append(
            apd_detect(
                port,
                cfg,
                name,
                blind=blind,
                background=None if background is None else background[: len(port)],
                rng=None if rng is None else rng(name),
            )
        )
    return DetectionRecord.merged(*records), {name: line[0] for name, line in lines.items()}


# ---------------------------------------------------------------------------
# DPS
# ---------------------------------------------------------------------------


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty one-dimensional bit sequence")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    return arr


def dps_encode(
    phase_bits,
    pulse_amplitude: float = 1.0,
    slot_period: float = 1.0,
    wavelength: float = 1550.0,
    mzm: MzmParams | None = None,
) -> PulseTrain:
    """Alice's transmitter: CW laser, pulse carver, then a common-drive phase
    modulator applying 0 or pi per slot according to the bit."""
    bits = _as_bits(phase_bits)
    source = cw_laser(bits.size, pulse_amplitude, wavelength, slot_period)
    carved = pulse_carver(source, np.ones(bits.size), mzm)
    return phase_modulator(carved, np.pi * bits, mzm)


def dps_reference_bits(phase_bits) -> np.ndarray:
    """Alice's key stream: XOR of neighbouring phase bits (one per interior slot)."""
    bits = _as_bits(phase_bits)
    return np.bitwise_xor(bits[1:], bits[:-1])


def dps_sift(alice_bits, record: DetectionRecord) -> ProtocolRun:
    """Keep interior slots where exactly one detector clicked.

    Bob's bit is 0 for D1 and 1 for D2; Alice's matching bit is the XOR of the
    two phase bits interfering at that slot.  Slots with no click or a double
    click are discarded.  QBER is the mismatch fraction (0 when nothing was
    sifted).
    """
    bits = _as_bits(alice_bits)
    n = bits.size
    d1 = record.clicks("D1")
    d2 = record.clicks("D2")
    if d1.shape[0] != n + 1:
        raise ValueError(f"record not aligned to the slot clock: {d1.shape[0]} slots for {n} pulses")
    interior = slice(1, n)
    one_click = np.logical_xor(d1[interior], d2[interior])
    slots = np.nonzero(one_click)[0] + 1
    bob = d2[slots].astype(np.int64)
    alice = dps_reference_bits(bits)[slots - 1]
    errors = int(np.sum(bob != alice))
    qber = errors / slots.size if slots.size else 0.0
    return ProtocolRun(
        protocol="dps",
        alice_bits=bits,
        alice_symbols=None,
        record=record,
        sifted_alice=alice,
        sifted_bob=bob,
        sifted_slots=slots,
        qber=float(qber),
    )


# ---------------------------------------------------------------------------
# COW
# ---------------------------------------------------------------------------


def _as_symbols(symbols) -> str:
    if not isinstance(symbols, str):
        symbols = "".join(symbols)
    if not symbols:
        raise ValueError("need a nonempty symbol sequence")
    bad = set(symbols) - set(COW_SYMBOLS)
    if bad:
        raise ValueError(f"invalid COW symbols {sorted(bad)}; allowed: {COW_SYMBOLS}")
    return symbols


_OCCUPANCY = {"0": (1, 0), "1": (0, 1), "d": (1, 1)}


def cow_occupancy(symbols) -> np.ndarray:
    """Per-grid-slot pulse occupancy, two slots per symbol."""
    sym = _as_symbols(symbols)
    occ = np.empty(2 * len(sym), dtype=np.int64)
    for i, s in enumerate(sym):
        occ[2 * i], occ[2 * i + 1] = _OCCUPANCY[s]
    return occ


def cow_encode(
    symbols,
    amplitude: float = 1.0,
    slot_period: float = 0.5,
    wavelength: float = 1550.0,
    mzm: MzmParams | None = None,
) -> PulseTrain:
    """Alice's transmitter: CW laser carved into the two-slot occupancy pattern;
    all pulses stay mutually coherent (common phase 0)."""
    occ = cow_occupancy(symbols)
    source = cw_laser(occ.size, amplitude, wavelength, slot_period)
    return pulse_carver(source, occ, mzm)


def cow_interfaces(symbols) -> list[tuple[int, str]]:
    """All neighbouring-pulse interfaces as ``(interferometer slot, class)``.

    The slot index is where the later pulse interferes with the earlier one in
    the one-slot-delay interferometer.  Every adjacent occupied pair maps to
    exactly one class of :data:`VISIBILITY_CLASSES`.
    """
    sym = _as_symbols(symbols)
    occ = cow_occupancy(sym)
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


@dataclass
class ClassCounts:
    """Detection counts of the two monitoring detectors for one interface class."""

    d_m1: int = 0
    d_m2: int = 0

    @property
    def total(self) -> int:
        return self.d_m1 + self.d_m2

    @property
    def visibility(self) -> float | None:
        """Normalised count imbalance; None when the class saw no detections."""
        if self.total == 0:
            return None
        return abs(self.d_m1 - self.d_m2) / self.total


@dataclass
class VisibilityReport:
    """Visibility per interface class plus the overall figure."""

    per_class: dict[str, ClassCounts] = field(default_factory=dict)
    overall: ClassCounts = field(default_factory=ClassCounts)

    @property
    def populated_classes(self) -> list[str]:
        return [s for s, c in self.per_class.items() if c.total > 0]

    @property
    def defined(self) -> bool:
        return self.overall.total > 0

    @property
    def overall_visibility(self) -> float | None:
        return self.overall.visibility


def visibility(monitor: DetectionRecord, symbols) -> VisibilityReport:
    """Count threshold-crossing detections per interface class.

    Only interface slots enter the statistic; apparatus edges where a pulse
    meets a vacuum neighbour are not interfaces.
    """
    sym = _as_symbols(symbols)
    m1 = monitor.clicks("D_M1")
    m2 = monitor.clicks("D_M2")
    n_slots = 2 * len(sym)
    if m1.shape[0] < n_slots:
        raise ValueError(f"monitor record too short ({m1.shape[0]} slots) for {len(sym)} symbols")
    report = VisibilityReport(per_class={s: ClassCounts() for s in VISIBILITY_CLASSES})
    for slot, cls in cow_interfaces(sym):
        counts = report.per_class[cls]
        if m1[slot]:
            counts.d_m1 += 1
            report.overall.d_m1 += 1
        if m2[slot]:
            counts.d_m2 += 1
            report.overall.d_m2 += 1
    return report


def cow_sift(
    symbols,
    record: DetectionRecord,
    report: VisibilityReport | None = None,
) -> ProtocolRun:
    """Drop decoy positions and decide each remaining bit from which half-slot
    of the pair D_B clicked.

    A pair clicking in both half-slots is inconsistent with any data symbol and
    is counted as an error; a pair with no click is discarded.  QBER is 0 when
    nothing was sifted.  The visibility report rides along as the
    eavesdropping witness.
    """
    sym = _as_symbols(symbols)
    clicks = record.clicks("D_B")
    if clicks.shape[0] < 2 * len(sym):
        raise ValueError(f"data record too short ({clicks.shape[0]} slots) for {len(sym)} symbols")
    kept: list[int] = []
    bob: list[int] = []
    for i, s in enumerate(sym):
        if s == "d":
            continue
        early, late = bool(clicks[2 * i]), bool(clicks[2 * i + 1])
        if early or late:
            kept.append(i)
            bob.append(int(late) if early != late else 1 - int(s))
    alice = np.array([int(sym[i]) for i in kept], dtype=np.int64)
    bob_bits = np.array(bob, dtype=np.int64)
    qber = int(np.sum(alice != bob_bits)) / len(kept) if kept else 0.0
    return ProtocolRun(
        protocol="cow",
        alice_bits=None,
        alice_symbols=sym,
        record=record,
        sifted_alice=alice,
        sifted_bob=bob_bits,
        sifted_slots=np.array(kept, dtype=np.int64),
        qber=float(qber),
        visibility_report=report,
    )
