"""Avalanche photodiode click models, blinding dynamics and countermeasure monitors.

Two detection regimes:

* Geiger mode: any slot whose intensity exceeds the click threshold fires,
  subject to dead time and an optional afterpulse in the first live slot after
  a click.
* Linear mode (a blinded detector): the trigger-pulse rails ``p_always`` /
  ``p_never`` decide clicks.  At or above ``p_always`` the detector always
  clicks, at or below ``p_never`` it never does, and strictly between the rails
  the click probability interpolates linearly.

Bright illumination drives the transition between the regimes through
:class:`BlindingState`: stored photocurrent accumulates slot by slot with a
one-pole (geometric) decay, and the detector is linear whenever the stored
current sits at or above the blind threshold.  The stored trace is also what
the photocurrent monitor countermeasure low-pass filters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .optics import PulseTrain

__all__ = [
    "ApdConfig",
    "BlindingState",
    "BackflashConfig",
    "DetectorTrace",
    "DetectionRecord",
    "MonitorResult",
    "WatchdogResult",
    "apd_detect",
    "blinding_update",
    "backflash_emit",
    "photocurrent_monitor",
    "watchdog",
]

GEIGER = "geiger"
LINEAR = "linear"

# Relative guard band on the linear-mode rails: an intensity engineered to sit
# exactly on a rail may land one ulp off after propagating through the
# interferometer arithmetic, and the rails are decision boundaries.
_RAIL_TOL = 1e-9


@dataclass(frozen=True)
class ApdConfig:
    """Click rules for one avalanche photodiode.

    ``click_threshold`` is the Geiger-mode intensity above which a live slot
    fires.  ``p_never`` and ``p_always`` are the linear-mode rails.  Dead time,
    afterpulsing and dark counts are disabled by default.
    """

    mode: str = GEIGER
    click_threshold: float = 0.5
    p_never: float = 0.2
    p_always: float = 0.4
    dead_time_slots: int = 0
    afterpulse_prob: float = 0.0
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in (GEIGER, LINEAR):
            raise ValueError(f"mode must be '{GEIGER}' or '{LINEAR}'")
        if self.click_threshold < 0.0:
            raise ValueError("click_threshold must be >= 0")
        if not (0.0 <= self.p_never < self.p_always):
            raise ValueError(f"need 0 <= p_never < p_always, got {self.p_never}, {self.p_always}")
        if self.dead_time_slots < 0:
            raise ValueError("dead_time_slots must be >= 0")
        for name in ("afterpulse_prob", "dark_count_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be within [0, 1]")


@dataclass(frozen=True)
class BlindingState:
    """Stored photocurrent of a detector under bright illumination.

    Per slot the stored current decays geometrically and then absorbs the
    incident intensity; the detector is in linear mode while the stored value
    is at or above ``blind_threshold``, so it stays blinded for a while after
    the illumination stops.
    """

    stored_photocurrent: float = 0.0
    decay_per_slot: float = 0.8
    blind_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.stored_photocurrent < 0.0:
            raise ValueError("stored_photocurrent must be >= 0")
        if not (0.0 < self.decay_per_slot < 1.0):
            raise ValueError("decay_per_slot must be within (0, 1)")
        if self.blind_threshold <= 0.0:
            raise ValueError("blind_threshold must be > 0")


def _blinding_trace(state: BlindingState, incident: np.ndarray) -> tuple[np.ndarray, np.ndarray, BlindingState]:
    """Stored-current trace, per-slot linear-mode mask and final state."""
    stored = np.empty(incident.shape[0], dtype=np.float64)
    s = state.stored_photocurrent
    d = state.decay_per_slot
    for k in range(incident.shape[0]):
        s = s * d + incident[k]
        stored[k] = s
    linear = stored >= state.blind_threshold
    return stored, linear, replace(state, stored_photocurrent=float(s))


def blinding_update(state: BlindingState, incident_intensity_per_slot: np.ndarray) -> tuple[BlindingState, np.ndarray]:
    """Advance the stored photocurrent; returns the new state and the per-slot
    mode trace (True = linear / blinded)."""
    incident = np.asarray(incident_intensity_per_slot, dtype=np.float64)
    if np.any(incident < 0.0):
        raise ValueError("incident intensities must be >= 0")
    _, linear, new_state = _blinding_trace(state, incident)
    return new_state, linear


@dataclass(eq=False)
class DetectorTrace:
    """Per-slot outcome of one detector: clicks, incident signal intensity,
    photocurrent and the Geiger/linear mode actually in force."""

    clicks: np.ndarray
    intensity: np.ndarray
    photocurrent: np.ndarray
    linear_mode: np.ndarray

    def __len__(self) -> int:
        return self.clicks.shape[0]

    @property
    def click_count(self) -> int:
        return int(np.sum(self.clicks))

    @property
    def avalanche_intensity(self) -> np.ndarray:
        """Incident intensity at each click slot, in click order."""
        return self.intensity[self.clicks]

    @property
    def detected_intensity(self) -> float:
        """Total incident intensity over clicked slots only."""
        return float(np.sum(self.avalanche_intensity))

    def mode_labels(self) -> list[str]:
        return [LINEAR if m else GEIGER for m in self.linear_mode]


@dataclass(eq=False)
class DetectionRecord:
    """Click traces for a named set of detectors sharing one slot clock."""

    detectors: dict[str, DetectorTrace]
    slot_period: float = 1.0

    def __contains__(self, name: str) -> bool:
        return name in self.detectors

    def __getitem__(self, name: str) -> DetectorTrace:
        return self.detectors[name]

    @property
    def names(self) -> list[str]:
        return list(self.detectors)

    def clicks(self, name: str) -> np.ndarray:
        return self.detectors[name].clicks

    @classmethod
    def single(cls, name: str, trace: DetectorTrace, slot_period: float = 1.0) -> "DetectionRecord":
        return cls({name: trace}, slot_period)

    @classmethod
    def merged(cls, *records: "DetectionRecord") -> "DetectionRecord":
        out: dict[str, DetectorTrace] = {}
        period = records[0].slot_period
        for rec in records:
            if rec.slot_period != period:
                raise ValueError("cannot merge records with different slot periods")
            for name, trace in rec.detectors.items():
                if name in out:
                    raise ValueError(f"duplicate detector id {name!r}")
                out[name] = trace
        return cls(out, period)


def apd_detect(
    train: PulseTrain,
    cfg: ApdConfig,
    detector_id: str = "D",
    blind: BlindingState | None = None,
    background: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> DetectionRecord:
    """Detect a pulse train with one APD.

    ``background`` is per-slot illumination (blinding light) that feeds the
    photocurrent and the blinding dynamics but not the click discriminator;
    clicks are decided from the signal train alone.  When ``blind`` is given
    the per-slot mode follows the stored photocurrent, otherwise the mode is
    fixed by ``cfg.mode``.  Raises ``ValueError`` when the detector may draw
    (afterpulses, dark counts, a linear-mode slot between the rails) and no
    ``rng`` is given.
    """
    intensity = train.intensities
    n = intensity.shape[0]
    if background is not None:
        background = np.asarray(background, dtype=np.float64)
        if background.shape[0] != n:
            raise ValueError("background length must match the train")
        if np.any(background < 0.0):
            raise ValueError("background must be >= 0")
        total = intensity + background
    else:
        total = intensity

    if blind is not None:
        photocurrent, linear, _ = _blinding_trace(blind, total)
    else:
        photocurrent = total.copy()
        linear = np.full(n, cfg.mode == LINEAR)

    clicks = np.zeros(n, dtype=bool)
    always_rail = cfg.p_always * (1.0 - _RAIL_TOL)
    never_rail = cfg.p_never * (1.0 + _RAIL_TOL)
    needs_rng = (
        cfg.afterpulse_prob > 0.0
        or cfg.dark_count_prob > 0.0
        or bool(np.any(linear & (intensity > never_rail) & (intensity < always_rail)))
    )
    stateful = cfg.dead_time_slots > 0 or cfg.afterpulse_prob > 0.0 or cfg.dark_count_prob > 0.0

    if not stateful and not needs_rng:
        # Deterministic fast path: thresholds only.
        geiger_clicks = ~linear & (intensity > cfg.click_threshold)
        linear_clicks = linear & (intensity >= always_rail)
        clicks = geiger_clicks | linear_clicks
    else:
        if needs_rng and rng is None:
            raise ValueError(f"detector {detector_id} draws random clicks: pass an rng")
        live_from = 0
        afterpulse_at = -1
        span = cfg.p_always - cfg.p_never
        for k in range(n):
            if k < live_from:
                continue
            fired = False
            if linear[k]:
                if intensity[k] >= always_rail:
                    fired = True
                elif intensity[k] > never_rail:
                    p = min(1.0, max(0.0, (intensity[k] - cfg.p_never) / span))
                    fired = bool(rng.random() < p)
            else:
                # The afterpulse draw is taken even at zero probability, so a
                # stream's draw order does not depend on that setting.
                if k == afterpulse_at and rng is not None and rng.random() < cfg.afterpulse_prob:
                    fired = True
                if not fired and intensity[k] > cfg.click_threshold:
                    fired = True
                if not fired and cfg.dark_count_prob > 0.0 and rng.random() < cfg.dark_count_prob:
                    fired = True
            if fired:
                clicks[k] = True
                live_from = k + 1 + cfg.dead_time_slots
                afterpulse_at = live_from

    trace = DetectorTrace(clicks=clicks, intensity=intensity, photocurrent=photocurrent, linear_mode=linear)
    return DetectionRecord.single(detector_id, trace, train.slot_period)


# ---------------------------------------------------------------------------
# Backflash emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackflashConfig:
    """Avalanche re-emission model of a modified APD.

    The per-avalanche emission probability is the product of the avalanche
    charge and the per-electron photon yield, capped at 1.  ``ideal_mode``
    forces emission on every click.
    """

    electrons_per_avalanche: float = 2.7e8
    photons_per_electron: float = 2.4e-10
    ideal_mode: bool = False
    emission_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.electrons_per_avalanche < 0.0 or self.photons_per_electron < 0.0:
            raise ValueError("backflash constants must be >= 0")
        if self.emission_gain < 0.0:
            raise ValueError("emission_gain must be >= 0")

    @property
    def emission_probability(self) -> float:
        return min(1.0, self.electrons_per_avalanche * self.photons_per_electron)


def backflash_emit(
    record: DetectionRecord,
    incident: PulseTrain,
    cfg: BackflashConfig,
    rng: np.random.Generator | None = None,
    detector_id: str | None = None,
) -> PulseTrain:
    """Re-emit, for each click, the incident slot amplitude (phase preserved)
    scaled by the emission gain; all other slots stay vacuum.  A non-ideal
    emission probability below 1 draws from ``rng``, which must then be given."""
    if detector_id is None:
        if len(record.detectors) != 1:
            raise ValueError("record holds several detectors; pass detector_id")
        detector_id = next(iter(record.detectors))
    trace = record[detector_id]
    if len(trace) != len(incident):
        raise ValueError("record and incident train lengths differ")
    emit = trace.clicks.copy()
    if not cfg.ideal_mode and cfg.emission_probability < 1.0:
        if rng is None:
            raise ValueError("backflash emission below certainty draws from an rng: pass one")
        draws = rng.random(len(incident))
        emit &= draws < cfg.emission_probability
    out = np.where(emit, cfg.emission_gain * incident.slots, 0.0 + 0.0j)
    return incident.with_slots(out)


# ---------------------------------------------------------------------------
# Countermeasure monitors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MonitorResult:
    alarm: bool
    filtered: np.ndarray


def photocurrent_monitor(
    photocurrent: np.ndarray,
    lowpass_window_slots: int,
    alarm_threshold: float,
) -> MonitorResult:
    """Low-frequency photocurrent watchdog against blinding.

    The trace is smoothed with a boxcar moving average and the alarm fires if
    any filtered value reaches the threshold.  Only full windows are
    classified (a partially-filled window would mistake one bright pulse for a
    sustained current); a trace shorter than the window is judged by its
    overall mean.  A constant current ``c`` therefore filters to ``c`` for
    every window size and alarms exactly when ``c`` reaches the threshold.
    """
    trace = np.asarray(photocurrent, dtype=np.float64)
    if trace.size == 0:
        raise ValueError("photocurrent trace is empty")
    if lowpass_window_slots < 1:
        raise ValueError("lowpass window must be >= 1 slot")
    w = lowpass_window_slots
    if trace.size < w:
        filtered = np.array([float(np.mean(trace))])
    else:
        csum = np.concatenate([[0.0], np.cumsum(trace)])
        filtered = (csum[w:] - csum[:-w]) / w
    alarm = bool(np.any(filtered >= alarm_threshold))
    return MonitorResult(alarm=alarm, filtered=filtered)


@dataclass(frozen=True, eq=False)
class WatchdogResult:
    alarm: bool


def watchdog(train: PulseTrain, tap_fraction: float, intensity_threshold: float) -> WatchdogResult:
    """Entrance monitor tapping a fraction of all incoming radiation.

    Alarms when the tapped peak intensity reaches the threshold.
    """
    if not (0.0 < tap_fraction < 1.0):
        raise ValueError("tap_fraction must be within (0, 1)")
    peak = float(np.max(train.intensities)) if len(train) else 0.0
    return WatchdogResult(alarm=tap_fraction * peak >= intensity_threshold)
