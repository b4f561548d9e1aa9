"""Slot-synchronous optical signal model and passive/active component transfer functions.

The universal signal is a :class:`PulseTrain`: one complex field amplitude per
time slot, intensity ``|a|**2`` in arbitrary units.  There is no intra-slot
waveform; every protocol decision downstream depends only on per-slot presence
and phase.  All components are pure functions over value types, so a component
graph can be evaluated in any dataflow order and identical inputs always give
bit-identical outputs.  A train is checked once, where it enters from outside
the pipeline (:func:`cw_laser`, a direct ``PulseTrain(...)``); components hand
the arrays they compute to :meth:`PulseTrain.with_slots` unchecked.

Conventions fixed here (other unitary choices exist, but port labelling
downstream depends on these):

* 2x2 coupler: ``out_a = sqrt(t)*in_a + 1j*sqrt(1-t)*in_b`` and
  ``out_b = 1j*sqrt(1-t)*in_a + sqrt(t)*in_b`` (the cross port picks up ``1j``).
* Every coupler of the pipeline takes light at one input only, its other
  input is vacuum and costs no arithmetic: :func:`coupler_2x2` gives
  ``sqrt(t)*in_a`` and ``1j*sqrt(1-t)*in_a``, equal to an all-zero ``in_b``
  up to the sign of an exactly-zero component.
* Delay-line interferometer built from two 50:50 couplers with a one-slot
  delay in the cross arm.  With that convention the *second* output port is
  the constructive one: ``constructive_k = 1j*(a_k + a_{k-1})/2`` and
  ``destructive_k = (a_k - a_{k-1})/2``.
* Mach-Zehnder modulator: ``E_out = E_in * (exp(1j*phi1) + exp(1j*phi2)) / 2``
  with ``phi_{1,2} = pi*V_{1,2}/V_pi`` and ``V_pi = 4`` volts on both arms; the
  factor ``1/2`` keeps pure phase modulation amplitude-preserving.  The phase
  modulator drives both arms with ``V = phi/pi * V_pi``, the pulse carver
  drives them with ``+-V`` (``V_pi/2`` extinguishes a slot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PulseTrain",
    "cw_laser",
    "mzm_transfer",
    "phase_modulator",
    "pulse_carver",
    "coupler_2x2",
    "dli",
    "attenuate",
]

# Half-wave voltage of each modulator arm.
_V_PI_RF = 4.0


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Complex field amplitudes, one per slot."""

    slots: np.ndarray

    def __post_init__(self) -> None:
        # Own copy, frozen: trains are value types and never alias caller data.
        slots = np.array(self.slots, dtype=np.complex128)
        if slots.ndim != 1:
            raise ValueError(f"slots must be one-dimensional, got shape {slots.shape}")
        if not np.all(np.isfinite(slots)):
            raise ValueError("slot amplitudes must be finite")
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return self.slots.shape[0]

    @property
    def intensities(self) -> np.ndarray:
        """Per-slot optical power ``|a|**2``."""
        power = np.abs(self.slots)
        power **= 2
        return power

    def with_slots(self, slots: np.ndarray) -> "PulseTrain":
        """A train that takes ownership of ``slots``: the one-dimensional
        complex array a component has just computed from checked trains.  It
        is frozen in place, neither copied nor checked, so the caller must
        hold no other reference to it."""
        slots.setflags(write=False)
        train = object.__new__(PulseTrain)
        object.__setattr__(train, "slots", slots)
        return train


def cw_laser(n_slots: int, amplitude: float = 1.0) -> PulseTrain:
    """Constant-amplitude, phase-0 source: the single-frequency CW laser."""
    return PulseTrain(np.full(n_slots, amplitude, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Mach-Zehnder modulator
# ---------------------------------------------------------------------------


def mzm_transfer(train: PulseTrain, v1: Sequence[float] | np.ndarray, v2: Sequence[float] | np.ndarray) -> PulseTrain:
    """Dual-arm interference of the modulator: split, phase-shift, recombine.

    ``v1`` and ``v2`` are the per-slot RF voltages on the two arms.  Per slot,
    ``phi_{1,2} = pi*V_{1,2}/V_pi`` and the output amplitude is
    ``0.5 * a * (exp(1j*phi1) + exp(1j*phi2))``.
    """
    v1, v2 = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    if v1.shape != train.slots.shape or v2.shape != train.slots.shape:
        raise ValueError(f"drive shapes {v1.shape}, {v2.shape} != train shape {train.slots.shape}")
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise ValueError("drive voltages must be finite")
    phi1 = np.pi * (v1 / _V_PI_RF)
    phi2 = np.pi * (v2 / _V_PI_RF)
    return train.with_slots(0.5 * train.slots * (np.exp(1j * phi1) + np.exp(1j * phi2)))


def phase_modulator(train: PulseTrain, phases: Sequence[float] | np.ndarray) -> PulseTrain:
    """Pure phase modulation: both modulator arms driven with ``V = phi/pi * V_pi``."""
    v = np.asarray(phases, dtype=np.float64) / np.pi * _V_PI_RF
    return mzm_transfer(train, v, v)


def pulse_carver(train: PulseTrain, occupancy: Sequence[int] | np.ndarray) -> PulseTrain:
    """Intensity modulation: balanced single drive, full transmission where
    ``occupancy`` is 1 and extinction (``V = +-V_pi/2`` on the arms) where 0."""
    v = (1.0 - np.asarray(occupancy, dtype=np.float64)) * (_V_PI_RF / 2.0)
    return mzm_transfer(train, v, -v)


# ---------------------------------------------------------------------------
# Passive components
# ---------------------------------------------------------------------------


def coupler_2x2(in_a: PulseTrain, transmittance: float = 0.5) -> tuple[PulseTrain, PulseTrain]:
    """Unitary 2x2 coupler with through-port power ``transmittance``, lit at
    one input, the other vacuum: the through and cross ports, the cross port
    with a ``1j`` phase factor."""
    t = math.sqrt(transmittance)
    k = 1j * math.sqrt(1.0 - transmittance)
    return in_a.with_slots(t * in_a.slots), in_a.with_slots(k * in_a.slots)


def dli(train: PulseTrain) -> tuple[PulseTrain, PulseTrain]:
    """One-slot delay-line interferometer: 50:50 coupler, one-slot delay in the
    cross arm, 50:50 coupler.

    Returns ``(constructive, destructive)``: equal-phase consecutive pulses exit
    entirely at the constructive port.  Output length is ``len(train) + 1``.
    Each slot takes the two-input coupler arithmetic of the conventions above
    on the two arms, so output slot ``k`` depends on input slots ``k - 1`` and
    ``k`` alone (vacuum outside the train).  That lets the receiver of a coded
    train run it once on a short train that holds each neighbour pair and
    gather from there.
    """
    n, t, k = len(train), math.sqrt(0.5), 1j * math.sqrt(0.5)
    # First coupler; the cross arm is delayed, and both are padded with vacuum.
    arm_a, arm_b = np.zeros((2, n + 1), dtype=np.complex128)
    np.multiply(t, train.slots, out=arm_a[:n])
    np.multiply(k, train.slots, out=arm_b[1:])
    # Second coupler, in four slot-length arrays: destructive t*a + k*b, constructive k*a + t*b.
    destructive, constructive = t * arm_a, k * arm_a
    destructive += np.multiply(k, arm_b, out=arm_a)
    constructive += np.multiply(t, arm_b, out=arm_b)
    return train.with_slots(constructive), train.with_slots(destructive)


def attenuate(train: PulseTrain, db: float) -> PulseTrain:
    """Power attenuation by ``db`` decibels (amplitude factor ``10**(-db/20)``)."""
    return train.with_slots(train.slots * 10.0 ** (-db / 20.0))
