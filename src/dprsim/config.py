"""Declarative scenario configuration: typed sections, defaults and validation.

A scenario document is a nested key-value mapping (YAML on disk).  Each
field's type hint is the one place that states its type: the document is read
against the hints, unknown keys are rejected, and every type or domain
violation names the offending field path, so a config either loads into a
fully-populated :class:`ScenarioConfig` or fails loudly.  Identical configs
plus the same seed give bit-identical runs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

__all__ = [
    "ConfigError",
    "DetectorSettings",
    "ChannelSettings",
    "BackflashSettings",
    "TrojanSettings",
    "BlindingSettings",
    "AttackSettings",
    "WatchdogSettings",
    "MonitorSettings",
    "CountermeasureSettings",
    "ScenarioConfig",
]

PROTOCOLS = ("dps", "cow")
ATTACK_KINDS = ("none", "backflash", "trojan", "blinding")
FSG_POLICIES = ("canonical", "worked-example")
BLINDING_STYLES = ("cw", "pulsed")
# The one reading sequence that the worked-example policy replays against DPS.
WORKED_EXAMPLE_READINGS = (0, 1, 2, 0, 1, 2, 2, 0, 2, 2, 0, 2, 0, 0, 0)


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending field path."""


@dataclass(frozen=True)
class DetectorSettings:
    """Bob's detector parameters.

    ``click_threshold_rel`` scales the Geiger threshold relative to the nominal
    interference intensity of each line.  The ``p_*`` pairs are the linear-mode
    rails: the plain pair serves DPS detectors, the ``_b``/``_m`` pairs the COW
    data and monitoring detectors.
    """

    click_threshold_rel: float = 0.5
    dead_time_slots: int = 0
    afterpulse_prob: float = 0.0
    dark_count_prob: float = 0.0
    p_never: float = 0.2
    p_always: float = 0.39
    p_never_b: float = 0.392
    p_always_b: float = 0.398
    p_never_m: float = 0.2
    p_always_m: float = 0.39

    def validate(self, path: str) -> None:
        if not (0.0 < self.click_threshold_rel < 1.0):
            raise ConfigError(f"{path}.click_threshold_rel: must be within (0, 1), got {self.click_threshold_rel}")
        if self.dead_time_slots < 0:
            raise ConfigError(f"{path}.dead_time_slots: must be >= 0, got {self.dead_time_slots}")
        for name in ("afterpulse_prob", "dark_count_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{path}.{name}: must be within [0, 1], got {v}")
        for suffix in ("", "_b", "_m"):
            lo = getattr(self, f"p_never{suffix}")
            hi = getattr(self, f"p_always{suffix}")
            if not (0.0 <= lo < hi):
                raise ConfigError(f"{path}.p_never{suffix}/p_always{suffix}: need 0 <= p_never < p_always, got {lo}, {hi}")


@dataclass(frozen=True)
class ChannelSettings:
    """Quantum-channel effects between the modules.

    ``phase_tamper_half_turns`` is an in-channel phase modulator profile in
    units of pi, applied per grid slot from slot 0.  ``excess_loss_db`` maps a
    wavelength to extra one-way loss relative to the signal band.
    """

    phase_tamper_half_turns: tuple[float, ...] | None = None
    excess_loss_db: tuple[tuple[float, float], ...] = ((1924.0, 20.0),)

    def validate(self, path: str) -> None:
        for nm, db in self.excess_loss_db:
            if nm <= 0 or db < 0:
                raise ConfigError(f"{path}.excess_loss_db[{nm}]: wavelength must be > 0 and loss >= 0 dB")

    def excess_loss_for(self, wavelength: float) -> float:
        for nm, db in self.excess_loss_db:
            if nm == wavelength:
                return db
        return 0.0


@dataclass(frozen=True)
class BackflashSettings:
    """Avalanche re-emission model of a modified APD.

    The per-avalanche emission probability is the product of the avalanche
    charge and the per-electron photon yield, capped at 1.  ``ideal`` forces
    emission on every click.
    """

    electrons_per_avalanche: float = 2.7e8
    photons_per_electron: float = 2.4e-10
    ideal: bool = False
    emission_gain: float = 1.0

    @property
    def emission_probability(self) -> float:
        return min(1.0, self.electrons_per_avalanche * self.photons_per_electron)

    def validate(self, path: str) -> None:
        for name in ("electrons_per_avalanche", "photons_per_electron", "emission_gain"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{path}.{name}: must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrojanSettings:
    probe_wavelength_nm: float = 1000.0
    probe_amplitude: float = 1.0
    timing_offset_slots: int = 0
    reflection_db: float = 0.0
    eve_min_intensity: float = 1e-15

    def validate(self, path: str) -> None:
        if self.probe_wavelength_nm <= 0:
            raise ConfigError(f"{path}.probe_wavelength_nm: must be > 0, got {self.probe_wavelength_nm}")
        if self.probe_amplitude <= 0:
            raise ConfigError(f"{path}.probe_amplitude: must be > 0, got {self.probe_amplitude}")
        if self.reflection_db < 0:
            raise ConfigError(f"{path}.reflection_db: must be >= 0, got {self.reflection_db}")
        if self.eve_min_intensity < 0:
            raise ConfigError(f"{path}.eve_min_intensity: must be >= 0")


@dataclass(frozen=True)
class BlindingSettings:
    """Faked-state attack parameters.

    ``readings`` pins the detection sequence Eve replays; when absent the run
    derives it by measuring Alice's train with Eve's replica of Bob.  The
    illumination keeps Bob's detectors in linear mode; ``detectors`` gives the
    pattern that ``style``, ``illumination_level`` and ``pulse_period_slots`` set.
    """

    readings: tuple[int, ...] | None = None
    policy: str = "canonical"
    style: str = "pulsed"
    illumination_level: float = 20.0
    pulse_period_slots: int = 8
    decay_per_slot: float = 0.8
    blind_threshold: float = 4.0

    def validate(self, path: str) -> None:
        if self.policy not in FSG_POLICIES:
            raise ConfigError(f"{path}.policy: must be one of {FSG_POLICIES}, got {self.policy!r}")
        if self.style not in BLINDING_STYLES:
            raise ConfigError(f"{path}.style: must be one of {BLINDING_STYLES}, got {self.style!r}")
        if self.illumination_level <= 0:
            raise ConfigError(f"{path}.illumination_level: must be > 0")
        if self.pulse_period_slots < 1:
            raise ConfigError(f"{path}.pulse_period_slots: must be >= 1")
        if not (0.0 < self.decay_per_slot < 1.0):
            raise ConfigError(f"{path}.decay_per_slot: must be within (0, 1)")
        if self.blind_threshold <= 0:
            raise ConfigError(f"{path}.blind_threshold: must be > 0")
        if self.readings is not None:
            if not self.readings:
                raise ConfigError(f"{path}.readings: must be nonempty when given")
            for i, r in enumerate(self.readings):
                if r not in (0, 1, 2, 3):
                    raise ConfigError(f"{path}.readings[{i}]: must be 0..3, got {r}")


@dataclass(frozen=True)
class AttackSettings:
    kind: str = "none"
    backflash: BackflashSettings = field(default_factory=BackflashSettings)
    trojan: TrojanSettings = field(default_factory=TrojanSettings)
    blinding: BlindingSettings = field(default_factory=BlindingSettings)

    def validate(self, path: str) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"{path}.kind: must be one of {ATTACK_KINDS}, got {self.kind!r}")
        self.backflash.validate(f"{path}.backflash")
        self.trojan.validate(f"{path}.trojan")
        self.blinding.validate(f"{path}.blinding")


@dataclass(frozen=True)
class WatchdogSettings:
    enabled: bool = False
    tap_fraction: float = 0.1
    intensity_threshold: float = 0.05

    def validate(self, path: str) -> None:
        if not (0.0 < self.tap_fraction < 1.0):
            raise ConfigError(f"{path}.tap_fraction: must be within (0, 1), got {self.tap_fraction}")
        if self.intensity_threshold < 0:
            raise ConfigError(f"{path}.intensity_threshold: must be >= 0")


@dataclass(frozen=True)
class MonitorSettings:
    enabled: bool = False
    window_slots: int = 8
    alarm_threshold: float = 40.0

    def validate(self, path: str) -> None:
        if self.window_slots < 1:
            raise ConfigError(f"{path}.window_slots: must be >= 1, got {self.window_slots}")
        if self.alarm_threshold < 0:
            raise ConfigError(f"{path}.alarm_threshold: must be >= 0")


@dataclass(frozen=True)
class CountermeasureSettings:
    watchdog: WatchdogSettings = field(default_factory=WatchdogSettings)
    photocurrent_monitor: MonitorSettings = field(default_factory=MonitorSettings)

    def validate(self, path: str) -> None:
        self.watchdog.validate(f"{path}.watchdog")
        self.photocurrent_monitor.validate(f"{path}.photocurrent_monitor")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified run: protocol, parameters, attack and countermeasures."""

    protocol: str = "dps"
    n_symbols: int = 128
    seed: int = 1
    amplitude: float = 1.0
    wavelength_nm: float = 1550.0
    t_b: float = 0.9
    bits: tuple[int, ...] | None = None
    symbols: str | None = None
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    channel: ChannelSettings = field(default_factory=ChannelSettings)
    attack: AttackSettings = field(default_factory=AttackSettings)
    countermeasures: CountermeasureSettings = field(default_factory=CountermeasureSettings)
    golden_name: str | None = None

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.n_symbols < 2:
            raise ConfigError(f"n_symbols: must be >= 2, got {self.n_symbols}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed: must be an unsigned 64-bit integer, got {self.seed}")
        if self.amplitude <= 0:
            raise ConfigError(f"amplitude: must be > 0, got {self.amplitude}")
        # The optics square these field amplitudes into intensities, and a run's summary sums
        # them over its slots: no trace is longer than 2 * (n + 2) slots for n symbols or readings.
        n = max(self.n_symbols, *(len(v or ()) for v in (self.bits, self.symbols, self.attack.blinding.readings)))
        slots = 2 * (n + 2)
        gain = self.attack.backflash.emission_gain
        for where, a in (
            ("amplitude", self.amplitude),
            ("attack.backflash.emission_gain", max(gain, gain * self.amplitude)),
            ("attack.trojan.probe_amplitude", self.attack.trojan.probe_amplitude),
        ):
            if not math.isfinite(a * a * slots):
                raise ConfigError(f"{where}: too large: the field amplitude it sets, {a}, squares to an intensity "
                                  f"whose sum over {slots} slots is infinite")
        if self.amplitude * self.amplitude < sys.float_info.min:  # subnormal thresholds lose their digits
            raise ConfigError(f"amplitude: too small: it squares to {self.amplitude**2}, under the smallest normal float")
        if self.wavelength_nm <= 0:
            raise ConfigError(f"wavelength_nm: must be > 0, got {self.wavelength_nm}")
        if not (0.0 < self.t_b < 1.0):
            raise ConfigError(f"t_b: must be within (0, 1), got {self.t_b}")
        if self.bits is not None:
            if self.protocol != "dps":
                raise ConfigError(f"bits: pins DPS phase bits; a {self.protocol} run takes no bits")
            if len(self.bits) < 2:
                raise ConfigError("bits: need at least two")
            for i, b in enumerate(self.bits):
                if b not in (0, 1):
                    raise ConfigError(f"bits[{i}]: must be 0 or 1, got {b}")
        if self.symbols is not None:
            if self.protocol != "cow":
                raise ConfigError(f"symbols: pins COW symbols; a {self.protocol} run takes no symbols")
            if not self.symbols:
                raise ConfigError("symbols: must be nonempty when given")
            bad = set(self.symbols) - {"0", "1", "d"}
            if bad:
                raise ConfigError(f"symbols: invalid entries {sorted(bad)}; allowed: 0, 1, d")
        self.detector.validate("detector")
        self.channel.validate("channel")
        self.attack.validate("attack")
        self.countermeasures.validate("countermeasures")
        if self.attack.kind == "trojan" and self.attack.trojan.probe_wavelength_nm == self.wavelength_nm:
            raise ConfigError("attack.trojan.probe_wavelength_nm: probe must differ from the signal wavelength")
        if self.attack.kind == "blinding":
            self._check_blinding(slots)

    def _check_blinding(self, slots: int) -> None:
        d, b = self.detector, self.attack.blinding
        # Eve's trigger pulses launch at intensities the always-click rails set, and a blinded
        # detector stores them and the blinding light over about 1 / (1 - decay_per_slot) slots;
        # the run's summary sums what it stores over its slots.
        launched = {"detector.p_always": d.p_always} if self.protocol == "dps" else {
            "detector.p_always_m": d.p_always_m / (1.0 - self.t_b), "detector.p_always_b": d.p_always_b / self.t_b}
        for where, level in {**launched, "attack.blinding.illumination_level": b.illumination_level}.items():
            if not level / (1.0 - b.decay_per_slot) * slots <= sys.float_info.max / 3:
                raise ConfigError(f"{where}: too large: a blinded detector stores {level} / (1 - decay_per_slot) of it, "
                                  f"which summed over {slots} slots overflows")
        if self.protocol == "dps" and b.policy == "worked-example" and tuple(b.readings or ()) != WORKED_EXAMPLE_READINGS:
            raise ConfigError(f"attack.blinding.policy: worked-example replays only the readings "
                              f"{list(WORKED_EXAMPLE_READINGS)}; set attack.blinding.readings to them or use canonical")
        allowed = (0, 1, 2) if self.protocol == "dps" else (0, 1, 2, 3)
        for i, r in enumerate(b.readings or ()):
            if r not in allowed:
                raise ConfigError(f"attack.blinding.readings[{i}]: must be in {allowed} for {self.protocol}, got {r}")

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data snapshot (defaults materialised, tuples as lists)."""
        return _plain(self)


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing
# ---------------------------------------------------------------------------


def _plain(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    return obj


_type_hints = functools.cache(typing.get_type_hints)

# Scalar hint -> the Python types it accepts (never a bool, unless the hint is bool) and its name in errors.
_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"), bool: ((bool,), "a boolean"),
            str: ((str,), "a string")}


def _inner(hint: Any) -> Any:
    """The ``X`` of an ``X | None`` hint; any other hint unchanged."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and len(args) == 1:
        return args[0]
    return hint


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _typed(value: Any, hint: Any, path: str) -> Any:
    """``value`` read as a field of type ``hint``; every error names the field path.

    A dataclass comes from a mapping: unknown keys are rejected and missing
    keys take their defaults.  ``X | None`` accepts null.  ``tuple[X, ...]``
    comes from a list, each element read as ``X``; a tuple of pairs also
    comes from a mapping, as its sorted items.  A float accepts an int, must
    be finite and is stored as a float; an int, a bool and a str accept only
    their own type.  (PyYAML reads ``1e-5`` as a string; ``1.0e-5`` is the
    float.)
    """
    inner = _inner(hint)
    if value is None and inner is not hint:
        return None
    if dataclasses.is_dataclass(inner):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path or 'scenario document'}: must be a mapping, got {value!r}")
        hints = _type_hints(inner)
        for key in value:
            if key not in hints:
                raise ConfigError(f"{_at(path, key)}: unknown key (allowed: {', '.join(sorted(hints))})")
        return inner(**{key: _typed(v, hints[key], _at(path, key)) for key, v in value.items()})
    if typing.get_origin(inner) is tuple:
        args = typing.get_args(inner)
        if isinstance(value, Mapping) and typing.get_origin(args[0]) is tuple:
            return tuple(sorted(_typed(list(value.items()), inner, path)))
        sized = args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or (sized and len(value) != len(args)):
            raise ConfigError(f"{path}: must be a list{f' of {len(args)}' if sized else ''}, got {value!r}")
        kinds = args if sized else args[:1] * len(value)
        return tuple(_typed(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, kinds)))
    kinds, name = _SCALARS[inner]
    if not isinstance(value, kinds) or (isinstance(value, bool) and inner is not bool):
        raise ConfigError(f"{path}: must be {name}, got {value!r}")
    if inner is float:
        # Compared, not converted: an int too large for a float is not finite either.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite, got {value}")
        return float(value)
    return value


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build and validate a config from a plain mapping; unknown keys rejected."""
    cfg = _typed(data, ScenarioConfig, "")
    cfg.validate()
    return cfg
