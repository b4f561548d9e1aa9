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
:func:`receive`, which also serves every replica of Bob in the attacks.  An
encoder gives Alice's train coded: the field of each value once, and one
code per slot that picks it.
Alice's material is one int8 code per symbol: a DPS phase bit (0 or 1), or
a COW symbol code, 0, 1 and 2 for ``0``, ``1`` and ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.typing as npt

from .config import BlindingSettings, DetectorSettings
from .detectors import DetectionRecord, PhotocurrentMonitor, _coded, apd_detect
from .optics import PulseTrain, coupler_2x2, cw_laser, dli, phase_modulator, pulse_carver

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
    """One executed protocol pipeline: Alice's codes, Bob's detector records
    and the sifting outcome, handed to the scenario engine."""

    protocol: str
    alice_codes: npt.NDArray[np.int8]
    record: DetectionRecord
    sifted_alice: npt.NDArray[np.bool_]
    sifted_bob: npt.NDArray[np.bool_]
    sifted_slots: npt.NDArray[np.int64]
    qber: float | None
    visibility_report: VisibilityReport | None = None

    def __post_init__(self) -> None:
        n = len(self.sifted_slots)
        for name in ("sifted_alice", "sifted_bob"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name}: {len(getattr(self, name))} bits for {n} sifted_slots")
        slots, grid = self.sifted_slots, len(self.alice_codes)
        if np.any(slots[1:] <= slots[:-1]):  # every sift takes them by ``flatnonzero``
            raise ValueError("sifted_slots: slots are not strictly increasing")
        if n and not (0 <= slots[0] and slots[-1] < grid):
            raise ValueError(f"sifted_slots: a slot lies outside Alice's grid of {grid}")

    @property
    def sifted_length(self) -> int:
        return int(self.sifted_bob.shape[0])


# ---------------------------------------------------------------------------
# Bob's receiver
# ---------------------------------------------------------------------------


def _interfere(train: PulseTrain, codes: np.ndarray) -> tuple[PulseTrain, PulseTrain, np.ndarray]:
    """The one-slot interferometer's constructive and destructive ports of the
    coded train ``train``, ``codes`` (see :func:`receive`), as the fields at
    each port and the index of each slot's field, which the two share.

    Output slot ``k`` of :func:`dli` reads only input slots ``k - 1`` and
    ``k``, so the output fields are those of the (previous, current) pairs of
    the train's K fields and the vacuum around it, field K, and slot ``k``'s
    pair has index ``(K + 1) * previous + current``.  The unchanged ``dli``
    runs once on the pairs laid out two slots each, and output slot ``2p + 1``
    is the field of pair ``p``: the same arithmetic on the same operands as
    the full-length interferometer, bit for bit.  The pairs are all
    ``(K + 1)**2`` of them while they fit in the port, else the ones that
    occur (``np.unique``): on a train shorter than its pair table, or under
    a long tamper of many distinct phases.
    """
    k = len(train)
    n = codes.shape[0]
    # As narrow as the pair table allows, one byte up to 15 fields: the
    # index lives beside every detector's codes while they are built.  The
    # codes lie in 0..k - 1, so the unsafe casts wrap nothing.
    index = np.empty(n + 1, dtype=np.uint8 if (k + 1) ** 2 <= 256 else np.intp)
    np.multiply(codes, k + 1, out=index[1:], dtype=index.dtype, casting="unsafe")
    index[0] = (k + 1) * k
    np.add(index[:n], codes, out=index[:n], casting="unsafe")
    index[n] += k
    if (k + 1) ** 2 <= n + 1:
        pairs = np.arange((k + 1) ** 2)
    else:
        pairs, index = np.unique(index, return_inverse=True)
    fields = np.append(train.slots, 0j)
    layout = np.empty(2 * pairs.size, dtype=np.complex128)
    layout[0::2] = fields[pairs // (k + 1)]
    layout[1::2] = fields[pairs % (k + 1)]
    constructive, destructive = dli(train.with_slots(layout))
    return constructive.with_slots(constructive.slots[1::2]), destructive.with_slots(destructive.slots[1::2]), index


def receive(
    protocol: str,
    train: PulseTrain,
    codes: np.ndarray,
    detector: DetectorSettings,
    nominal: float,
    t_b: float = 0.9,
    rng: Callable[[str], np.random.Generator] | None = None,
    blinding: BlindingSettings | None = None,
    monitor: Callable[[str], PhotocurrentMonitor] | None = None,
) -> DetectionRecord:
    """Bob's receiver, or any replica of it.

    DPS: one-slot DLI, constructive port to D1, destructive to D2.  COW:
    splitter with transmittance ``t_b`` to the data line (arrival-time
    detector D_B), the rest into a one-slot DLI with D_M1 (constructive) and
    D_M2 (destructive).

    The train is coded: ``train`` holds a few distinct fields and slot ``k``
    carries ``train.slots[codes[k]]``, as Alice's encoders, the channel's
    tamper, the trojan probe and Eve's faked-state trigger give it (a train
    with one field per slot is coded by ``arange``).  The splitter acts on
    the fields and the interferometer runs once per neighbour pair
    (``_interfere``): each detector's intensity is a gather from a small
    table, bit for bit that of the full-length train, and no slot-length
    field is built.  The detectors take it coded as their traces keep it
    (``detectors._coded``): the table's distinct values that some slot takes,
    sorted, and one narrow code per slot.  The two ports of the
    interferometer share one pair index, which is counted once for both.

    Each Geiger threshold is ``detector.click_threshold_rel`` times the
    nominal intensity of its line: ``nominal`` on the DPS lines, times ``t_b``
    on D_B and ``1 - t_b`` on the monitoring line.  At 0.5 a lone pulse still
    clicks the data line while the quarter-intensity interferometer edges,
    where a pulse meets a vacuum neighbour, stay silent.  Every detector runs
    in Geiger mode unless ``blinding`` is given, whose light then falls on
    every detector (``detectors.apd_detect``); a detector in linear mode
    clicks by the plain ``p_*`` rails for DPS and the ``_b``/``_m`` pairs for
    COW.  ``rng`` maps a detector name to its generator, and ``monitor`` to
    the photocurrent monitor that watches its stored current under blinding.

    Returns the record of every detector and nothing of the fields: a
    detector sees intensity, not phase, and every later pass reads the traces
    alone.  Eve's backflash replica, for one, decides on a trace's level
    codes (``detectors.backflash_emit``).
    """
    codes = _as_codes(codes, len(train) - 1)
    if protocol == "dps":
        constructive, destructive, index = _interfere(train, codes)
        pair = (detector.p_never, detector.p_always)
        groups = [(index, {"D1": (constructive, 1.0, pair), "D2": (destructive, 1.0, pair)})]
    else:
        data_line, monitor_line = coupler_2x2(train, t_b)
        constructive, destructive, index = _interfere(monitor_line, codes)
        monitoring, pair = 1.0 - t_b, (detector.p_never_m, detector.p_always_m)
        groups = [
            (codes, {"D_B": (data_line, t_b, (detector.p_never_b, detector.p_always_b))}),
            (index, {"D_M1": (constructive, monitoring, pair), "D_M2": (destructive, monitoring, pair)}),
        ]
    traces = {}
    for index, lines in groups:
        coded = _coded([field.intensities for field, _, _ in lines.values()], index)
        for (name, (_, share, rails)), (levels, level_codes) in zip(lines.items(), coded):
            threshold = detector.click_threshold_rel * share * nominal
            traces[name] = apd_detect(
                levels, level_codes, threshold, rails, detector, name, blinding=blinding,
                rng=None if rng is None else rng(name), monitor=None if monitor is None else monitor(name),
            )[name]
    return DetectionRecord(traces)


# ---------------------------------------------------------------------------
# DPS
# ---------------------------------------------------------------------------


def _as_codes(codes, top: int) -> np.ndarray:
    """Codes as an integer array (int64 unless they are one already),
    checked to be a nonempty one-dimensional sequence of values in
    ``0..top``: 1 for DPS phase bits, 2 for COW symbol codes, one less than
    its train's fields for a coded train."""
    arr = np.asarray(codes)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty one-dimensional code sequence")
    if arr.min() < 0 or arr.max() > top:
        raise ValueError(f"codes must lie in 0..{top}, got {arr[(arr < 0) | (arr > top)][0]}")
    return arr


def dps_encode(phase_bits, pulse_amplitude: float = 1.0) -> tuple[PulseTrain, np.ndarray]:
    """Alice's transmitter: CW laser, pulse carver, then a common-drive phase
    modulator applying 0 or pi per slot according to the bit.

    Returns the train in coded form (see :func:`receive`): the fields of bits
    0 and 1, and the checked bits, one code per slot.  Every component is
    slot-local, so running the chain once over bits 0 and 1 gives each slot
    its bit's value of the chain over the whole train, bit for bit."""
    bits = _as_codes(phase_bits, 1)
    source = cw_laser(2, pulse_amplitude)
    carved = pulse_carver(source, np.ones(2))
    return phase_modulator(carved, np.pi * np.arange(2)), bits


def dps_reference_bits(phase_bits) -> np.ndarray:
    """Alice's key stream: XOR of neighbouring phase bits (one boolean per
    interior slot)."""
    bits = _as_codes(phase_bits, 1)
    return bits[1:] != bits[:-1]


def dps_sift(phase_bits, record: DetectionRecord) -> ProtocolRun:
    """Keep interior slots where exactly one detector clicked.

    Bob's bit is 0 (``False``) for D1 and 1 for D2; Alice's matching bit is
    the XOR of the two phase bits interfering at that slot.  Slots with no
    click or a double click are discarded.  QBER is the mismatch fraction (0
    when nothing was sifted).
    """
    bits = _as_codes(phase_bits, 1)
    reference = dps_reference_bits(bits)
    n = bits.size
    d1, d2 = record.clicks("D1"), record.clicks("D2")
    if d1.shape[0] != n + 1:
        raise ValueError(f"record not aligned to the slot clock: {d1.shape[0]} slots for {n} pulses")
    one_click = np.logical_xor(d1[1:n], d2[1:n])  # the interior slots
    slots = np.flatnonzero(one_click)
    slots += 1
    bob = d2[slots]
    alice = reference[one_click]
    qber = np.count_nonzero(bob != alice) / slots.size if slots.size else 0.0
    return ProtocolRun(
        protocol="dps", alice_codes=bits, record=record, sifted_alice=alice, sifted_bob=bob, sifted_slots=slots,
        qber=float(qber),
    )


# ---------------------------------------------------------------------------
# COW
# ---------------------------------------------------------------------------


# Byte -> symbol code: 0 and 1 the bits, 2 the decoy, -1 any other byte.
_CODE = np.full(256, -1, dtype=np.int8)
_CODE[[ord(s) for s in COW_SYMBOLS]] = (0, 1, 2)
_DECOY = 2

# Symbol code -> pulse occupancy of its (early, late) slots.
_PULSES = np.array([(1, 0), (0, 1), (1, 1)], dtype=np.int8)


def cow_occupancy(codes) -> np.ndarray:
    """Per-grid-slot pulse occupancy of COW symbol codes, two slots per symbol."""
    return _PULSES[_as_codes(codes, 2)].reshape(-1)


def _cow_half_slots(codes: np.ndarray, clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival-time decision on each data symbol of Alice's checked ``codes``
    from per-grid-slot clicks.

    Returns the indices of the data symbols (decoys dropped) whose pair of
    half-slots clicked at all, the bit each one names (``True`` for a late
    click, ``False`` for an early one) and whether both half-slots clicked, in
    which case the bit is undecided.
    """
    n = codes.size
    if clicks.shape[0] < 2 * n:
        raise ValueError(f"click record too short ({clicks.shape[0]} slots) for {n} symbols")
    pairs = clicks[: 2 * n].astype(bool).reshape(n, 2)
    early, late = pairs[:, 0], pairs[:, 1]
    kept = np.flatnonzero((codes != _DECOY) & (early | late))
    return kept, late[kept], early[kept] & late[kept]


def cow_encode(codes, amplitude: float = 1.0) -> tuple[PulseTrain, np.ndarray]:
    """Alice's transmitter: CW laser carved into the two-slot occupancy pattern;
    all pulses stay mutually coherent (common phase 0).

    Returns the train in coded form (see :func:`receive`): the fields of an
    extinguished slot and of a pulse, and the grid's occupancy
    (:func:`cow_occupancy`), one code per slot.  Laser and carver are
    slot-local, so carving the two values once equals carving the whole
    train, bit for bit."""
    occupancy = cow_occupancy(codes)
    source = cw_laser(2, amplitude)
    return pulse_carver(source, np.arange(2)), occupancy


# Cross-boundary interface class by (later, earlier) symbol code, as an index
# into VISIBILITY_CLASSES; -1 where the two slots are not both occupied.
_CROSS_CLASS = np.full((3, 3), -1, dtype=np.int8)
_CROSS_CLASS[(0, 0, 2, 2), (1, 2, 1, 2)] = (1, 2, 3, 4)  # "01", "0d", "d1", "dd"


def _interfaces(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interferometer slots of all interfaces and their class indices.

    The slot is where the later pulse interferes with the earlier one in the
    one-slot-delay interferometer; every adjacent occupied pair has exactly
    one class of :data:`VISIBILITY_CLASSES`.
    """
    cls = np.full(2 * codes.size, -1, dtype=np.int8)
    # Intra-symbol pair at odd slots: only the decoy occupies both of its slots.
    cls[1::2] = np.where(codes == _DECOY, 0, -1)
    cls[2::2] = _CROSS_CLASS[codes[1:], codes[:-1]]
    slots = np.flatnonzero(cls >= 0)
    return slots, cls[slots]


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
    def overall_visibility(self) -> float | None:
        return self.overall.visibility


def visibility(monitor: DetectionRecord, codes, interfaces: tuple[np.ndarray, ...] | None = None) -> VisibilityReport:
    """Count threshold-crossing detections per interface class.

    Only interface slots enter the statistic; apparatus edges where a pulse
    meets a vacuum neighbour are not interfaces.  ``interfaces`` are those of
    ``codes`` (``_interfaces``), found here unless given: a run that sifts
    twice over the same codes finds them once.
    """
    codes = _as_codes(codes, 2)
    m1, m2 = monitor.clicks("D_M1"), monitor.clicks("D_M2")
    if m1.shape[0] < 2 * codes.size:
        raise ValueError(f"monitor record too short ({m1.shape[0]} slots) for {codes.size} symbols")
    slots, classes = _interfaces(codes) if interfaces is None else interfaces
    n1 = np.bincount(classes[m1[slots].astype(bool)], minlength=len(VISIBILITY_CLASSES))
    n2 = np.bincount(classes[m2[slots].astype(bool)], minlength=len(VISIBILITY_CLASSES))
    return VisibilityReport(
        per_class={s: ClassCounts(int(a), int(b)) for s, a, b in zip(VISIBILITY_CLASSES, n1, n2)},
        overall=ClassCounts(int(n1.sum()), int(n2.sum())),
    )


def cow_sift(
    codes,
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
    codes = _as_codes(codes, 2)
    kept, late, both = _cow_half_slots(codes, record.clicks("D_B"))
    alice = codes[kept] == 1
    bob_bits = np.where(both, ~alice, late)
    qber = np.count_nonzero(alice != bob_bits) / kept.size if kept.size else 0.0
    return ProtocolRun(
        protocol="cow", alice_codes=codes, record=record, sifted_alice=alice, sifted_bob=bob_bits, sifted_slots=kept,
        qber=float(qber), visibility_report=report,
    )
