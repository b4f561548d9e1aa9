"""Avalanche photodiode click models, blinding dynamics and countermeasure monitors.

A detector runs in Geiger mode: any slot whose intensity exceeds the click
threshold fires, subject to dead time and an optional afterpulse in the first
live slot after a click.

Only bright illumination takes it out of that regime, as in the faked-state
attack.  Under the run's blinding settings, blinding light of
``illumination_level`` falls on every slot (``cw``), or on slots 0, p, 2p, ...
of the detector's own clock (``pulsed``, p = ``pulse_period_slots``).  It
adds to the signal intensity in a stored photocurrent, which accumulates
slot by slot with a one-pole (geometric) decay, but never reaches the click
discriminator.  The detector is in linear mode whenever the stored current
sits at or above the blind threshold.  There the trigger-pulse rails
``p_always`` / ``p_never`` decide clicks: at or above ``p_always`` the
detector always clicks, at or below ``p_never`` it never does, and strictly
between the rails the click probability interpolates linearly.  The stored
trace is also what the photocurrent monitor countermeasure low-pass filters.

A blinded detector runs a block of slots at a time, and the monitor consumes
each block as it comes, so no run holds a whole stored-current trace.  A
trace does not keep it either: its levels, codes and the run's blinding
settings derive it bit for bit (``DetectorTrace.photocurrent``).

Clicks are decided on whole blocks of level codes wherever no click depends
on the one before: thresholds alone, and unblinded dark counts without dead
time or afterpulses.  Only dead time, afterpulses and blinding with any draw
(a dark count, or a linear-mode slot between the rails) step slot by slot.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.typing as npt

from .config import BackflashSettings, BlindingSettings, DetectorSettings
from .optics import PulseTrain

__all__ = [
    "DetectorTrace",
    "DetectionRecord",
    "PhotocurrentMonitor",
    "apd_detect",
    "backflash_emit",
    "watchdog",
]

# Relative guard band on the linear-mode rails: an intensity engineered to sit
# exactly on a rail may land one ulp off after propagating through the
# interferometer arithmetic, and the rails are decision boundaries.
_RAIL_TOL = 1e-9


# Bits by which a wrong lane start must decay to fall below the last bit of the
# values it feeds; a block spans twice the slots that takes.
_FORGET_BITS = 60
# Below about this many lanes the per-step numpy calls cost more than the loop
# saves, whatever the decay: the scan's steps and the loop's slots both grow
# with the lane length.
_MIN_LANES = 24


def _decay_loop(s: float, d: float, incident: np.ndarray, out: np.ndarray) -> None:
    """``out[k] = s = s * d + incident[k]``, one slot at a time."""
    # Python floats do the same IEEE double arithmetic as numpy scalars,
    # faster; 1024 slots at a time, so that the trace is never all Python floats.
    for b in range(0, incident.shape[0], 1024):
        out[b : b + 1024] = [s := s * d + x for x in incident[b : b + 1024].tolist()]


def _decay_scan(s: float, d: float, incident: np.ndarray, out: np.ndarray) -> None:
    """``_decay_loop`` into ``out``, by an exact lane-parallel scan.

    The stored current ``s[k] = s[k-1] * d + incident[k]`` splits into about
    ``sqrt(n)`` lanes of ``block`` consecutive slots, which one whole-row
    ``multiply`` and ``add`` step at once.  Lane 0 starts from ``s``, every
    other lane from a guess: its predecessor's block filtered from zero.  A
    repair pass restarts each lane whose start differs from its
    predecessor's last value and steps it until its row equals the stored one
    bit for bit; passes repeat until no start changes.

    Exact: each value takes the loop's two IEEE roundings, a multiply and then
    an add, which numpy never fuses and neither does CPython, so a lane that
    meets the loop's trajectory stays on it.  A block of at least
    ``2 * _FORGET_BITS / -log2(d)`` slots lets a lane forget a wrong start
    within it, so one repair pass is the rule.  The plain loop runs instead on
    traces shorter than ``_MIN_LANES`` such blocks (slow decays need long
    ones), and from the first lane still inexact after two repair passes on (a
    stretch of pure decay never forgets its start): the worst case is the loop
    plus the scan and two passes.  No slot-length array is allocated beyond
    ``out``.
    """
    n = incident.shape[0]
    block = max(math.isqrt(n), 2 * math.ceil(_FORGET_BITS / -math.log2(d)))
    lanes = n // block
    if lanes < _MIN_LANES:
        _decay_loop(s, d, incident, out)
        return
    m = lanes * block
    xs = incident[:m].reshape(lanes, block)
    ss = out[:m].reshape(lanes, block)
    starts = np.empty(lanes)
    starts[0] = s
    # Whatever came before the predecessor's block has decayed by d**block < 2**-120.
    # einsum, not matmul: a threaded BLAS leaves workers spinning against the steps below.
    starts[1:] = np.einsum("ij,j->i", xs[:-1], d ** np.arange(block - 1, -1, -1.0))
    row = starts
    # A lane is a strided column of ``ss``, and an op on a whole row of columns
    # touches one page per lane: step the lanes in contiguous panels of 64 slots.
    panel = np.empty((2, 64, lanes))
    for t0 in range(0, block, 64):
        xp, sp = panel[:, : block - t0]
        np.copyto(xp, xs[:, t0 : t0 + 64].T)
        for x_t, s_t in zip(xp, sp):
            np.multiply(row, d, out=s_t)
            np.add(s_t, x_t, out=s_t)
            row = s_t
        ss[:, t0 : t0 + 64] = sp.T
    for repairs in range(3):
        ends = ss[:-1, -1]
        changed = np.flatnonzero(ends.view(np.uint64) != starts[1:].view(np.uint64))
        if changed.size == 0:
            break
        lo = int(changed[0]) + 1
        if repairs == 2:
            _decay_loop(float(ends[lo - 1]), d, incident[lo * block :], out[lo * block :])
            return
        starts[lo:] = ends[lo - 1 :]
        row = starts[lo:]
        for t in range(block):
            step = row * d
            step += xs[lo:, t]
            if np.array_equal(step.view(np.uint64), ss[lo:, t].view(np.uint64)):
                break
            ss[lo:, t] = row = step
    _decay_loop(float(out[m - 1]), d, incident[m:], out[m:])


def _stored_current(
    levels: np.ndarray, level_codes: np.ndarray, blinding: BlindingSettings, start: int, s: float, out: np.ndarray
) -> None:
    """The stored current of a blinded detector's slots ``start`` on, one
    per entry of ``out``, from ``s``, the stored current of slot ``start - 1``
    (0.0 before slot 0): each slot's incident intensity, coded as the trace
    keeps it, plus the blinding light that falls on it (see the module
    docstring), integrated by ``_decay_scan``.  The scan is exact, so any
    split of the slots into such blocks gives the whole trace bit for bit."""
    incident = levels.take(level_codes[start : start + out.shape[0]])
    period = 1 if blinding.style == "cw" else blinding.pulse_period_slots
    incident[-start % period :: period] += blinding.illumination_level
    _decay_scan(s, blinding.decay_per_slot, incident, out)


def _code_dtype(n_levels: int) -> np.dtype:
    """The code width of a table of ``n_levels`` levels: one byte up to 256
    levels, two up to 65536, else four."""
    return np.dtype(np.uint8 if n_levels <= 1 << 8 else np.uint16 if n_levels <= 1 << 16 else np.uint32)


# Slots per ``np.bincount`` of one-byte codes: it widens each to ``intp``.
_COUNT_BLOCK = 1 << 13


def _coded(tables: list[np.ndarray], index: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The canonical coding of the values ``table[index]`` of each of
    ``tables``, which share ``index``: their sorted distinct values, and one
    code per slot of the width ``_code_dtype`` gives (see ``DetectorTrace``).
    Only the entries some slot takes enter the levels, so the coding is a
    function of the slot values alone, whatever the table holds besides.
    The index is counted once, however many tables share it.

    A one-byte index takes one-byte codes, since it takes at most 256
    entries: it is counted a block at a time and gathered by
    ``bytes.translate``, so no slot-length array wider than a byte is made."""
    one_byte = index.dtype.itemsize == 1
    if one_byte:
        index = index.view(np.uint8)
        taken = np.zeros(256, dtype=bool)
        for start in range(0, index.shape[0], _COUNT_BLOCK):
            taken |= np.bincount(index[start : start + _COUNT_BLOCK], minlength=256).astype(bool)
        source = bytearray(index)
    else:
        taken = np.bincount(index).astype(bool)
    coded = []
    for table in tables:
        used = taken[: table.shape[0]]
        levels, inverse = np.unique(table[: used.shape[0]][used], return_inverse=True)
        lookup = np.zeros(taken.shape[0], dtype=_code_dtype(levels.shape[0]))
        lookup[: used.shape[0]][used] = inverse
        codes = np.frombuffer(source.translate(lookup.tobytes()), dtype=np.uint8) if one_byte else lookup.take(index)
        coded.append((levels, codes))
    return coded


@dataclass(eq=False)
class DetectorTrace:
    """Per-slot outcome of one detector: clicks, incident signal intensity
    and the Geiger/linear mode actually in force.

    The intensity is coded: ``levels`` holds the sorted distinct intensities
    of the line and ``level_codes`` the index of each slot's one, unsigned
    and one byte wide up to 256 levels (two up to 65536, else four), so that
    slot ``k`` saw ``levels[level_codes[k]]``.  The photocurrent is not
    kept: ``photocurrent`` derives it from the intensity and the run's
    blinding settings."""

    clicks: npt.NDArray[np.bool_]
    levels: npt.NDArray[np.float64]
    level_codes: npt.NDArray[np.unsignedinteger]
    linear_mode: npt.NDArray[np.bool_]

    def __post_init__(self) -> None:
        for name in ("level_codes", "linear_mode"):
            values = getattr(self, name)
            if len(values) != len(self.clicks):
                raise ValueError(f"{name}: {len(values)} slots, but clicks has {len(self.clicks)}")
        n, codes = self.levels.shape[0], self.level_codes
        if codes.dtype != _code_dtype(n):
            raise ValueError(f"level_codes: {codes.dtype.name} codes for {n} levels, expected {_code_dtype(n).name}")
        if codes.size and codes.max() >= n:
            raise ValueError(f"level_codes: code {codes.max()} is past the {n} levels")
        if np.any(self.levels[1:] <= self.levels[:-1]):
            raise ValueError("levels: not sorted distinct intensities")

    def __len__(self) -> int:
        return self.clicks.shape[0]

    @property
    def intensity(self) -> np.ndarray:
        """Incident intensity of each slot."""
        return self.levels[self.level_codes]

    def photocurrent(self, blinding: BlindingSettings | None) -> np.ndarray:
        """The photocurrent of each slot of a detector that ``apd_detect``
        ran under ``blinding``: bit for bit the stored current it computed,
        or the intensity when ``blinding`` is None."""
        if blinding is None:
            return self.intensity
        stored = np.empty(len(self))
        _stored_current(self.levels, self.level_codes, blinding, 0, 0.0, stored)
        return stored

    @property
    def click_count(self) -> int:
        return int(np.count_nonzero(self.clicks))

    @property
    def detected_intensity(self) -> float:
        """Total incident intensity over clicked slots only, with no float per
        click: bit for bit ``float(np.sum(levels.take(level_codes[clicks])))``
        (``_pairwise_sum``).  Where every click is at one level, as where the
        thresholds alone decide them, a run's sum depends on its length alone."""
        return self._detected_intensity(self.click_count)

    def _detected_intensity(self, n: int) -> float:
        """``detected_intensity`` of a trace of ``n`` clicks."""
        codes = self.level_codes
        if not n:
            return 0.0
        first = codes[np.argmax(self.clicks)]
        if np.count_nonzero(operator.iand(codes == first, self.clicks)) == n:  # one slot mask, ANDed in place
            same = functools.cache(lambda m: self.levels[first : first + 1].repeat(m).sum())
            return float(_pairwise_sum(n, lambda lo, m: same(m)))
        clicked = np.compress(self.clicks, codes)
        return float(_pairwise_sum(n, lambda lo, m: self.levels.take(clicked[lo : lo + m]).sum()))


# Values per leaf of ``_pairwise_sum``: numpy sums a leaf whole, with no float per click besides.
_SUM_BLOCK = 1 << 13


def _pairwise_sum(n: int, leaf: Callable[[int, int], np.floating], lo: int = 0) -> np.floating:
    """The sum of ``n`` values split as numpy's pairwise sum splits them, from
    ``leaf(lo, m)``, numpy's sum of the ``m`` values from the ``lo``-th on: past
    ``_SUM_BLOCK`` values, ``[0, h)`` and ``[h, n)`` at ``h = n // 2 - (n // 2)
    % 8``, each split alike, added.  Each subtotal is numpy's, so the total is."""
    if n <= _SUM_BLOCK:
        return leaf(lo, n)
    h = n // 2 - (n // 2) % 8
    return _pairwise_sum(h, leaf, lo) + _pairwise_sum(n - h, leaf, lo + h)


@dataclass(eq=False)
class DetectionRecord:
    """Click traces for a named set of detectors sharing one slot grid."""

    detectors: dict[str, DetectorTrace]

    def __getitem__(self, name: str) -> DetectorTrace:
        return self.detectors[name]

    @property
    def names(self) -> list[str]:
        return list(self.detectors)

    def clicks(self, name: str) -> np.ndarray:
        return self.detectors[name].clicks


def _window(values: np.ndarray, offset: int, n: int) -> np.ndarray:
    """Values of the ``n`` slots from ``offset``: a view where they lie inside
    ``values``, else a copy whose slots past the end are zero (no click)."""
    part = values[offset : offset + n]
    if part.size == n:
        return part
    out = np.zeros(n, dtype=values.dtype)
    out[: part.size] = part
    return out


# Slots per block of a detector that is blinded or may draw: a quarter of its
# trace, but at least this many.
_BLOCK = 1 << 13


def apd_detect(
    levels: np.ndarray,
    level_codes: np.ndarray,
    click_threshold: float,
    rails: tuple[float, float],
    detector: DetectorSettings,
    detector_id: str = "D",
    blinding: BlindingSettings | None = None,
    rng: np.random.Generator | None = None,
    monitor: PhotocurrentMonitor | None = None,
) -> DetectionRecord:
    """Detect light with one APD, from its per-slot incident intensity: an
    APD sees power, not phase.  The intensity comes coded, as the trace
    keeps it (``DetectorTrace``): slot ``k`` sees ``levels[level_codes[k]]``,
    ``levels`` sorted ascending.

    ``click_threshold`` is the Geiger-mode intensity above which a live slot
    fires, ``rails`` the line's ``(p_never, p_always)`` pair and ``detector``
    the run's dead time, afterpulsing and dark counts.  The detector runs in
    Geiger mode unless ``blinding`` is given: then its light (see the module
    docstring) falls on the detector, and the per-slot mode follows the
    stored photocurrent, which ``monitor``, if given, watches.  Raises
    ``ValueError`` when the detector may draw (afterpulses, dark counts, a
    linear-mode slot between the rails) and no ``rng`` is given.

    A blinded detector, or one that may draw, runs a block of slots at a
    time (``_BLOCK``): the stored current, the modes, the monitor and the
    clicks of one block, then the next, carrying the stored current, the
    dead time and the afterpulse across.  A block's clicks are one compare
    of its codes when nothing draws, and, for unblinded dark counts alone,
    that compare plus one draw per silent slot, in slot order as the loop
    draws.  Dead time, afterpulses and a blinded detector that draws step
    through the block slot by slot.  No slot-length array wider than a byte
    is made, and the trace keeps no photocurrent.
    """
    n = level_codes.shape[0]
    p_never, p_always = rails
    dead, afterpulse, dark = detector.dead_time_slots, detector.afterpulse_prob, detector.dark_count_prob
    always_rail = p_always * (1.0 - _RAIL_TOL)
    never_rail = p_never * (1.0 + _RAIL_TOL)
    # The levels are sorted, so each test of an intensity against a bound
    # holds from some code on: the Geiger click from ``geiger`` on, the
    # always rail from ``always`` on, and the never rail from ``never`` on.
    geiger = int(np.searchsorted(levels, click_threshold, side="right"))
    always = int(np.searchsorted(levels, always_rail, side="left"))
    never = int(np.searchsorted(levels, never_rail, side="right"))
    stateful = dead > 0 or afterpulse > 0.0 or dark > 0.0
    linear = np.zeros(n, dtype=bool)
    if blinding is None and not stateful:
        # Deterministic fast path: one threshold compare, and no slot is linear.
        return DetectionRecord({detector_id: DetectorTrace(level_codes >= geiger, levels, level_codes, linear)})

    clicks = np.zeros(n, dtype=bool)
    size = max(_BLOCK, n // 4)
    stored = np.empty(0 if blinding is None else min(size, n))
    s = 0.0
    live_from, afterpulse_at = 0, -1
    span = p_always - p_never
    for start in range(0, n, size):
        codes, lin, out = level_codes[start : start + size], linear[start : start + size], clicks[start : start + size]
        if blinding is not None:
            current = stored[: codes.shape[0]]
            _stored_current(levels, level_codes, blinding, start, s, current)
            s = float(current[-1])
            np.greater_equal(current, blinding.blind_threshold, out=lin)
            if monitor is not None:
                monitor.update(current)
        draws = afterpulse > 0.0 or dark > 0.0
        if blinding is not None and never < always:
            draws = draws or bool(np.any(lin & (codes >= never) & (codes < always)))
        if not stateful and not draws:
            # Thresholds only: Geiger slots by the click threshold, linear ones by the always rail.
            np.bitwise_or(~lin & (codes >= geiger), lin & (codes >= always), out=out)
            continue
        if draws and rng is None:
            raise ValueError(f"detector {detector_id} draws random clicks: pass an rng")
        if blinding is None and dead == 0 and afterpulse == 0.0:
            # Dark counts alone: the loop draws once at each silent slot, in
            # slot order, so one draw per silent slot of the block does too.
            np.greater_equal(codes, geiger, out=out)
            silent = ~out
            out[silent] = rng.random(np.count_nonzero(silent)) < dark
            continue
        # Slot by slot, on Python floats (the same IEEE arithmetic, faster),
        # 1024 slots at a time, so that the block is never all Python floats.
        for at in range(0, codes.shape[0], 1024):
            chunk = zip(levels.take(codes[at : at + 1024]).tolist(), lin[at : at + 1024].tolist())
            for k, (x, linear_k) in enumerate(chunk, start + at):
                if k < live_from:
                    continue
                fired = False
                if linear_k:
                    if x >= always_rail:
                        fired = True
                    elif x > never_rail:
                        p = min(1.0, max(0.0, (x - p_never) / span))
                        fired = bool(rng.random() < p)
                else:
                    if k == afterpulse_at and afterpulse > 0.0 and rng.random() < afterpulse:
                        fired = True
                    if not fired and x > click_threshold:
                        fired = True
                    if not fired and dark > 0.0 and rng.random() < dark:
                        fired = True
                if fired:
                    clicks[k] = True
                    live_from = k + 1 + dead
                    afterpulse_at = live_from

    return DetectionRecord({detector_id: DetectorTrace(clicks, levels, level_codes, linear)})


# ---------------------------------------------------------------------------
# Backflash emission
# ---------------------------------------------------------------------------

# Uniforms drawn per block of emission decisions.
_DRAW_BLOCK = 1 << 12


def backflash_emit(
    trace: DetectorTrace,
    cfg: BackflashSettings,
    threshold: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Eve's replica clicks on the re-emission of a detector's clicks, one per
    trace slot.  A click re-emits the emission gain squared times the
    intensity its avalanche detected, and a lossless circulator routes it to
    her replica detector, which is noise-free and sees intensity only: it
    clicks where the emitted intensity exceeds ``threshold`` (>= 0).  The
    levels are sorted, so the emitted levels that exceed it are the last
    ones, from code ``k`` on, and the decision is one compare of the codes.

    Unless ``ideal`` forces emission on every click, an emission probability
    below 1 draws one number per slot from ``rng``, and a click re-emits
    where its draw falls below it.  ``rng`` may be left out only where no
    draw is made.  No slot-length array is made besides the result."""
    levels = trace.levels
    k = levels.shape[0] - int(np.count_nonzero(levels * cfg.emission_gain**2 > threshold))
    replica = trace.level_codes >= k
    replica &= trace.clicks
    if not cfg.ideal and cfg.emission_probability < 1.0:
        # Drawn a block at a time, which leaves the stream where one draw of
        # ``len(trace)`` leaves it, without a slot-length array of floats.
        for start in range(0, len(trace), _DRAW_BLOCK):
            block = replica[start : start + _DRAW_BLOCK]
            block &= rng.random(block.shape[0]) < cfg.emission_probability
    return replica


# ---------------------------------------------------------------------------
# Countermeasure monitors
# ---------------------------------------------------------------------------


class PhotocurrentMonitor:
    """Low-frequency photocurrent watchdog against blinding, fed a blinded
    detector's stored current a block of slots at a time (``update``, which
    ``apd_detect`` calls, at least once); ``alarm`` then reads the verdict.

    The trace is smoothed with a boxcar moving average and the alarm fires if
    any filtered value reaches the threshold.  Only full windows are
    classified (a partially-filled window would mistake one bright pulse for a
    sustained current); a trace shorter than the window is judged by its
    overall mean.  A constant current ``c`` therefore filters to ``c`` for
    every window size and alarms exactly when ``c`` reaches the threshold.

    The window of ``w`` slots from slot ``j`` filters to
    ``(c[j + w] - c[j]) / w`` over the running sum ``c`` (``c[0] = 0``,
    ``c[k + 1] = c[k] + x[k]``).  A block's buffer holds the last ``w + 1``
    sums, then the block, and ``np.cumsum`` runs over the block from the last
    sum, in slot order: every sum, filtered value and alarm is bit for bit
    that of one pass over the whole trace.  Between blocks only those ``w +
    1`` sums are kept, and once the alarm fires, later blocks are not read.
    """

    def __init__(self, lowpass_window_slots: int, alarm_threshold: float) -> None:
        self.window, self.threshold = lowpass_window_slots, alarm_threshold
        self._slots = 0
        self._sums = np.zeros(1)  # the last running sums: ``c[k - w]`` to ``c[k]``, or from ``c[0]`` while k < w
        self._head: list[np.ndarray] = []  # the current seen so far, while it is shorter than the window
        self._fired = False

    def update(self, current: np.ndarray) -> None:
        """Take the stored current of the next ``len(current)`` slots."""
        if self._fired:
            return
        w, held, b = self.window, self._sums.shape[0], current.shape[0]
        sums = np.empty(held + b)
        sums[:held] = self._sums
        sums[held:] = current
        np.cumsum(sums[held - 1 :], out=sums[held - 1 :])
        self._slots += b
        self._head = [*self._head, current.copy()] if self._slots < w else []
        first = max(held, w)  # the first sum that ends a full window
        if first < held + b:
            filtered = sums[first:] - sums[first - w : held + b - w]
            filtered /= w
            self._fired = bool(np.any(filtered >= self.threshold))
        self._sums = sums[-(w + 1) :].copy()

    @property
    def alarm(self) -> bool:
        """Whether the current seen so far raises the alarm."""
        if self._slots < self.window:
            return bool(np.mean(np.concatenate(self._head)) >= self.threshold)
        return self._fired


def watchdog(train: PulseTrain, tap_fraction: float, intensity_threshold: float) -> bool:
    """Entrance monitor tapping a fraction of all incoming radiation.

    Returns the alarm: whether the tapped peak intensity reaches the threshold.
    """
    peak = float(np.max(train.intensities)) if len(train) else 0.0
    return tap_fraction * peak >= intensity_threshold
