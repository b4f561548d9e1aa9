"""Slot-synchronous optical signal model and passive/active component transfer functions.

The universal signal is a :class:`PulseTrain`: one complex field amplitude per
time slot, intensity ``|a|**2`` in arbitrary units.  There is no intra-slot
waveform; every protocol decision downstream depends only on per-slot presence
and phase.  All components are pure functions over value types, so a component
graph can be evaluated in any dataflow order and identical inputs always give
bit-identical outputs.

Conventions fixed here (other unitary choices exist, but port labelling
downstream depends on these):

* 2x2 coupler: ``out_a = sqrt(t)*in_a + 1j*sqrt(1-t)*in_b`` and
  ``out_b = 1j*sqrt(1-t)*in_a + sqrt(t)*in_b`` (the cross port picks up ``1j``).
* Delay-line interferometer built from two 50:50 couplers with the delay in the
  cross arm.  With that convention the *second* output port is the constructive
  one: ``constructive_k = 1j*(a_k + a_{k-d})/2`` and
  ``destructive_k = (a_k - a_{k-d})/2``.
* Mach-Zehnder modulator: ``E_out = N * E_in * (exp(1j*phi1) + exp(1j*phi2))``
  with ``phi_{1,2} = pi*(V_{1,2}/V_pi_rf + V_bias_{1,2}/V_pi_dc)``.  The default
  normalization ``N = 1/2`` keeps pure phase modulation amplitude-preserving;
  ``N = 1`` ("unnormalized") is the raw two-arm sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PulseTrain",
    "MzmParams",
    "DriveProfile",
    "CouplerRatio",
    "IncompatibleTrains",
    "cw_laser",
    "mzm_transfer",
    "phase_modulator",
    "pulse_carver",
    "coupler_2x2",
    "delay_line",
    "dli",
    "circulator",
    "attenuate",
    "optical_filter",
    "select_channel",
]


class IncompatibleTrains(ValueError):
    """Raised when an operation combines trains with mismatched grid or channel."""


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Complex field amplitudes on a uniform slot grid for one wavelength channel.

    ``slot_period`` is the grid spacing in seconds (for a two-bin coherent
    one-way symbol this is the half-slot).  ``wavelength`` is a channel label in
    nanometers; channels never mix except inside explicitly multi-wavelength
    components (filters).
    """

    slots: np.ndarray
    slot_period: float = 1.0
    wavelength: float = 1550.0

    def __post_init__(self) -> None:
        # Own copy, frozen: trains are value types and never alias caller data.
        slots = np.array(self.slots, dtype=np.complex128)
        if slots.ndim != 1:
            raise ValueError(f"slots must be one-dimensional, got shape {slots.shape}")
        if not np.all(np.isfinite(slots)):
            raise ValueError("slot amplitudes must be finite")
        if not (self.slot_period > 0.0):
            raise ValueError(f"slot_period must be > 0, got {self.slot_period}")
        if not (self.wavelength > 0.0):
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return self.slots.shape[0]

    @property
    def intensities(self) -> np.ndarray:
        """Per-slot optical power ``|a|**2``."""
        return np.abs(self.slots) ** 2

    @property
    def total_power(self) -> float:
        return float(np.sum(self.intensities))

    @classmethod
    def vacuum(cls, n_slots: int, slot_period: float = 1.0, wavelength: float = 1550.0) -> "PulseTrain":
        return cls(np.zeros(n_slots, dtype=np.complex128), slot_period, wavelength)

    def vacuum_like(self, n_slots: int | None = None) -> "PulseTrain":
        return PulseTrain.vacuum(len(self) if n_slots is None else n_slots, self.slot_period, self.wavelength)

    def with_slots(self, slots: np.ndarray) -> "PulseTrain":
        return PulseTrain(slots, self.slot_period, self.wavelength)

    def padded_to(self, n_slots: int) -> "PulseTrain":
        """Extend with trailing vacuum slots; never truncates."""
        if n_slots < len(self):
            raise ValueError("padded_to never truncates")
        if n_slots == len(self):
            return self
        out = np.zeros(n_slots, dtype=np.complex128)
        out[: len(self)] = self.slots
        return self.with_slots(out)


def _aligned(a: PulseTrain, b: PulseTrain, same_wavelength: bool = True) -> tuple[PulseTrain, PulseTrain]:
    """Check grid/channel compatibility and pad the shorter train with vacuum."""
    if a.slot_period != b.slot_period:
        raise IncompatibleTrains(f"slot_period mismatch: {a.slot_period} vs {b.slot_period}")
    if same_wavelength and a.wavelength != b.wavelength:
        raise IncompatibleTrains(f"wavelength mismatch: {a.wavelength} nm vs {b.wavelength} nm")
    n = max(len(a), len(b))
    return a.padded_to(n), b.padded_to(n)


def cw_laser(
    n_slots: int,
    amplitude: float = 1.0,
    wavelength: float = 1550.0,
    slot_period: float = 1.0,
    phase: float = 0.0,
) -> PulseTrain:
    """Constant-amplitude, constant-phase source: the single-frequency CW laser."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    a = amplitude * np.exp(1j * phase)
    return PulseTrain(np.full(n_slots, a, dtype=np.complex128), slot_period, wavelength)


# ---------------------------------------------------------------------------
# Mach-Zehnder modulator
# ---------------------------------------------------------------------------

_MZM_NORMALIZATIONS = {"halved": 0.5, "unnormalized": 1.0}


@dataclass(frozen=True)
class MzmParams:
    """Voltage-to-phase model of a dual-arm Mach-Zehnder modulator.

    ``normalization`` selects the recombination factor: ``"halved"`` (default,
    amplitude-preserving under common drive) or ``"unnormalized"`` (raw two-arm
    sum, which doubles the field under common drive).
    """

    v_pi_rf: float = 4.0
    v_pi_dc: float = 4.0
    v_bias_1: float = 0.0
    v_bias_2: float = 0.0
    normalization: str = "halved"

    def __post_init__(self) -> None:
        if not (self.v_pi_rf > 0.0):
            raise ValueError(f"v_pi_rf must be > 0, got {self.v_pi_rf}")
        if not (self.v_pi_dc > 0.0):
            raise ValueError(f"v_pi_dc must be > 0, got {self.v_pi_dc}")
        if self.normalization not in _MZM_NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {sorted(_MZM_NORMALIZATIONS)}")

    @property
    def scale(self) -> float:
        return _MZM_NORMALIZATIONS[self.normalization]


_DRIVE_MODES = ("balanced-single-drive", "common-drive", "independent")


@dataclass(frozen=True, eq=False)
class DriveProfile:
    """Per-slot RF voltage pairs applied to the two modulator arms."""

    v1: np.ndarray
    v2: np.ndarray
    mode: str = "independent"

    def __post_init__(self) -> None:
        v1 = np.array(self.v1, dtype=np.float64)
        v2 = np.array(self.v2, dtype=np.float64)
        if v1.shape != v2.shape or v1.ndim != 1:
            raise ValueError("v1 and v2 must be equal-length one-dimensional arrays")
        if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
            raise ValueError("drive voltages must be finite")
        if self.mode not in _DRIVE_MODES:
            raise ValueError(f"mode must be one of {_DRIVE_MODES}")
        if self.mode == "balanced-single-drive" and not np.array_equal(v2, -v1):
            raise ValueError("balanced-single-drive requires v2 == -v1")
        if self.mode == "common-drive" and not np.array_equal(v2, v1):
            raise ValueError("common-drive requires v2 == v1")
        v1.setflags(write=False)
        v2.setflags(write=False)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    def __len__(self) -> int:
        return self.v1.shape[0]

    @classmethod
    def balanced(cls, v: Sequence[float] | np.ndarray) -> "DriveProfile":
        v = np.asarray(v, dtype=np.float64)
        return cls(v, -v, "balanced-single-drive")

    @classmethod
    def common(cls, v: Sequence[float] | np.ndarray) -> "DriveProfile":
        v = np.asarray(v, dtype=np.float64)
        return cls(v, v.copy(), "common-drive")


def mzm_transfer(train: PulseTrain, drive: DriveProfile, params: MzmParams | None = None) -> PulseTrain:
    """Dual-arm interference of the modulator: split, phase-shift, recombine.

    Per slot, ``phi_{1,2} = pi*(V_{1,2}/v_pi_rf + v_bias_{1,2}/v_pi_dc)`` and the
    output amplitude is ``scale * a * (exp(1j*phi1) + exp(1j*phi2))``.
    """
    params = params or MzmParams()
    if len(drive) != len(train):
        raise ValueError(f"drive length {len(drive)} != train length {len(train)}")
    phi1 = np.pi * (drive.v1 / params.v_pi_rf + params.v_bias_1 / params.v_pi_dc)
    phi2 = np.pi * (drive.v2 / params.v_pi_rf + params.v_bias_2 / params.v_pi_dc)
    out = params.scale * train.slots * (np.exp(1j * phi1) + np.exp(1j * phi2))
    return train.with_slots(out)


def phase_modulator(train: PulseTrain, phases: Sequence[float] | np.ndarray, params: MzmParams | None = None) -> PulseTrain:
    """Pure phase modulation: an MZM in common-drive mode with ``V = phi/pi * v_pi_rf``."""
    params = params or MzmParams()
    phases = np.asarray(phases, dtype=np.float64)
    return mzm_transfer(train, DriveProfile.common(phases / np.pi * params.v_pi_rf), params)


def pulse_carver(train: PulseTrain, occupancy: Sequence[int] | np.ndarray, params: MzmParams | None = None) -> PulseTrain:
    """Intensity modulation: balanced single drive, full transmission where
    ``occupancy`` is 1 and extinction (``V = +-v_pi_rf/2`` on the arms) where 0."""
    params = params or MzmParams()
    occ = np.asarray(occupancy, dtype=np.float64)
    v = (1.0 - occ) * (params.v_pi_rf / 2.0)
    return mzm_transfer(train, DriveProfile.balanced(v), params)


# ---------------------------------------------------------------------------
# Passive components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplerRatio:
    """Power transmittance of the through port of a 2x2 coupler."""

    transmittance: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.transmittance <= 1.0):
            raise ValueError(f"transmittance must be within [0, 1], got {self.transmittance}")


def coupler_2x2(in_a: PulseTrain, in_b: PulseTrain, ratio: CouplerRatio | float = CouplerRatio()) -> tuple[PulseTrain, PulseTrain]:
    """Unitary 2x2 coupler; the cross port carries a ``1j`` phase factor."""
    if not isinstance(ratio, CouplerRatio):
        ratio = CouplerRatio(ratio)
    a, b = _aligned(in_a, in_b)
    t = math.sqrt(ratio.transmittance)
    k = 1j * math.sqrt(1.0 - ratio.transmittance)
    out_a = t * a.slots + k * b.slots
    out_b = k * a.slots + t * b.slots
    return a.with_slots(out_a), a.with_slots(out_b)


def delay_line(train: PulseTrain, delay_slots: int) -> PulseTrain:
    """Shift the train later by ``delay_slots``; leading slots are vacuum and the
    length grows by the delay so no energy is lost."""
    if delay_slots < 0:
        raise ValueError("delay_slots must be >= 0")
    if delay_slots == 0:
        return train
    out = np.zeros(len(train) + delay_slots, dtype=np.complex128)
    out[delay_slots:] = train.slots
    return train.with_slots(out)


def dli(train: PulseTrain, delay_slots: int = 1) -> tuple[PulseTrain, PulseTrain]:
    """Delay-line interferometer: 50:50 coupler, delay in the cross arm, 50:50 coupler.

    Returns ``(constructive, destructive)``: equal-phase consecutive pulses exit
    entirely at the constructive port.  Output length is ``len(train) + delay``.
    """
    if delay_slots < 1:
        raise ValueError("delay_slots must be >= 1")
    if delay_slots >= len(train):
        warnings.warn(
            f"DLI delay {delay_slots} >= train length {len(train)}: no slot pair interferes",
            stacklevel=2,
        )
    arm_a, arm_b = coupler_2x2(train, train.vacuum_like(), CouplerRatio(0.5))
    arm_b = delay_line(arm_b, delay_slots)
    arm_a = arm_a.padded_to(len(arm_b))
    destructive, constructive = coupler_2x2(arm_a, arm_b, CouplerRatio(0.5))
    return constructive, destructive


def circulator(
    port1_in: PulseTrain | None = None,
    port2_in: PulseTrain | None = None,
    port3_in: PulseTrain | None = None,
) -> tuple[PulseTrain, PulseTrain, PulseTrain]:
    """Lossless three-port circulator with 1->2, 2->3, 3->1 routing.

    Missing inputs are vacuum.  Outputs are padded to a common length.
    """
    present = [p for p in (port1_in, port2_in, port3_in) if p is not None]
    if not present:
        raise ValueError("circulator needs at least one input train")
    n = max(len(p) for p in present)
    ref = present[0]
    for p in present[1:]:
        _aligned(ref, p)
    filled = [p.padded_to(n) if p is not None else ref.vacuum_like(n) for p in (port1_in, port2_in, port3_in)]
    return filled[2], filled[0], filled[1]


def attenuate(train: PulseTrain, db: float) -> PulseTrain:
    """Power attenuation by ``db`` decibels (amplitude factor ``10**(-db/20)``)."""
    if db < 0.0:
        raise ValueError("attenuation must be >= 0 dB")
    return train.with_slots(train.slots * 10.0 ** (-db / 20.0))


# ---------------------------------------------------------------------------
# Wavelength handling
# ---------------------------------------------------------------------------


def optical_filter(
    channels: Iterable[PulseTrain],
    passband_nm: float,
    extinction_db: float = math.inf,
) -> list[PulseTrain]:
    """Bandpass filter over a group of co-propagating channels.

    The in-band channel passes with 0 dB loss; every out-of-band channel is
    attenuated by ``extinction_db``.  If no channel sits at the passband, the
    result gains an empty (vacuum) train at that wavelength.
    """
    chans = list(channels)
    if not chans:
        raise ValueError("optical_filter needs at least one channel")
    if extinction_db < 0.0:
        raise ValueError("extinction must be >= 0 dB")
    out: list[PulseTrain] = []
    seen_passband = False
    factor = 10.0 ** (-extinction_db / 20.0) if math.isfinite(extinction_db) else 0.0
    for ch in chans:
        if ch.wavelength == passband_nm:
            seen_passband = True
            out.append(ch)
        elif extinction_db == 0.0:
            out.append(ch)
        else:
            out.append(ch.with_slots(ch.slots * factor))
    if not seen_passband:
        n = max(len(c) for c in chans)
        out.append(PulseTrain.vacuum(n, chans[0].slot_period, passband_nm))
    return out


def select_channel(channels: Iterable[PulseTrain], wavelength: float) -> PulseTrain:
    for ch in channels:
        if ch.wavelength == wavelength:
            return ch
    raise KeyError(f"no channel at {wavelength} nm")

