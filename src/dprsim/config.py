"""Declarative scenario configuration: typed sections, defaults and validation.

A scenario document is a nested key-value mapping (YAML on disk).  Each
field's type hint is the one place that states its type and its domain, as
``Annotated`` metadata: a tuple of choices, or an interval such as
``"[0, inf)"``.  The document is read against the hints, unknown keys are
rejected, and every type or domain violation names the offending field path,
so a config either loads into a fully-populated :class:`ScenarioConfig` or
fails loudly.  Identical configs plus the same seed give bit-identical runs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from typing import Annotated, Any, Callable, Mapping

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

    click_threshold_rel: Annotated[float, "(0, 1)"] = 0.5
    dead_time_slots: Annotated[int, "[0, inf)"] = 0
    afterpulse_prob: Annotated[float, "[0, 1]"] = 0.0
    dark_count_prob: Annotated[float, "[0, 1]"] = 0.0
    p_never: Annotated[float, "[0, inf)"] = 0.2
    p_always: float = 0.39
    p_never_b: Annotated[float, "[0, inf)"] = 0.392
    p_always_b: float = 0.398
    p_never_m: Annotated[float, "[0, inf)"] = 0.2
    p_always_m: float = 0.39


@dataclass(frozen=True)
class ChannelSettings:
    """Quantum-channel effects between the modules.

    ``phase_tamper_half_turns`` is an in-channel phase modulator profile in
    units of pi, applied per grid slot from slot 0.  ``excess_loss_db`` maps a
    wavelength to extra one-way loss relative to the signal band.
    """

    # The modulator is driven at 4 V per half turn, and a drive past the
    # largest float is infinite: about 4.5e307 half turns overflow it.
    phase_tamper_half_turns: tuple[Annotated[float, "[-4e307, 4e307]"], ...] | None = None
    excess_loss_db: tuple[tuple[Annotated[float, "(0, inf)"], Annotated[float, "[0, inf)"]], ...] = ((1924.0, 20.0),)

    def excess_loss_for(self, wavelength: float) -> float:
        return next((db for nm, db in self.excess_loss_db if nm == wavelength), 0.0)


@dataclass(frozen=True)
class BackflashSettings:
    """Avalanche re-emission model of a modified APD.

    The per-avalanche emission probability is the product of the avalanche
    charge and the per-electron photon yield, capped at 1.  ``ideal`` forces
    emission on every click.
    """

    electrons_per_avalanche: Annotated[float, "[0, inf)"] = 2.7e8
    photons_per_electron: Annotated[float, "[0, inf)"] = 2.4e-10
    ideal: bool = False
    emission_gain: Annotated[float, "[0, inf)"] = 1.0

    @property
    def emission_probability(self) -> float:
        return min(1.0, self.electrons_per_avalanche * self.photons_per_electron)


@dataclass(frozen=True)
class TrojanSettings:
    probe_wavelength_nm: Annotated[float, "(0, inf)"] = 1000.0
    probe_amplitude: Annotated[float, "(0, inf)"] = 1.0
    timing_offset_slots: int = 0
    reflection_db: Annotated[float, "[0, inf)"] = 0.0
    eve_min_intensity: Annotated[float, "[0, inf)"] = 1e-15


@dataclass(frozen=True)
class BlindingSettings:
    """Faked-state attack parameters.

    ``readings`` pins the detection sequence Eve replays; when absent the run
    derives it by measuring Alice's train with Eve's replica of Bob.  The
    illumination keeps Bob's detectors in linear mode; ``detectors`` gives the
    pattern that ``style``, ``illumination_level`` and ``pulse_period_slots`` set.
    """

    readings: tuple[Annotated[int, (0, 1, 2, 3)], ...] | None = None
    policy: Annotated[str, FSG_POLICIES] = "canonical"
    style: Annotated[str, BLINDING_STYLES] = "pulsed"
    illumination_level: Annotated[float, "(0, inf)"] = 20.0
    pulse_period_slots: Annotated[int, "[1, inf)"] = 8
    decay_per_slot: Annotated[float, "(0, 1)"] = 0.8
    blind_threshold: Annotated[float, "(0, inf)"] = 4.0


@dataclass(frozen=True)
class AttackSettings:
    kind: Annotated[str, ATTACK_KINDS] = "none"
    backflash: BackflashSettings = field(default_factory=BackflashSettings)
    trojan: TrojanSettings = field(default_factory=TrojanSettings)
    blinding: BlindingSettings = field(default_factory=BlindingSettings)


@dataclass(frozen=True)
class WatchdogSettings:
    enabled: bool = False
    tap_fraction: Annotated[float, "(0, 1)"] = 0.1
    intensity_threshold: Annotated[float, "[0, inf)"] = 0.05


@dataclass(frozen=True)
class MonitorSettings:
    enabled: bool = False
    window_slots: Annotated[int, "[1, inf)"] = 8
    alarm_threshold: Annotated[float, "[0, inf)"] = 40.0


@dataclass(frozen=True)
class CountermeasureSettings:
    watchdog: WatchdogSettings = field(default_factory=WatchdogSettings)
    photocurrent_monitor: MonitorSettings = field(default_factory=MonitorSettings)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified run: protocol, parameters, attack and countermeasures."""

    protocol: Annotated[str, PROTOCOLS] = "dps"
    n_symbols: Annotated[int, "[2, inf)"] = 128
    seed: Annotated[int, "[0, 18446744073709551616)"] = 1  # an unsigned 64-bit integer
    amplitude: Annotated[float, "(0, inf)"] = 1.0
    wavelength_nm: Annotated[float, "(0, inf)"] = 1550.0
    t_b: Annotated[float, "(0, 1)"] = 0.9
    bits: tuple[Annotated[int, (0, 1)], ...] | None = None
    symbols: str | None = None
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    channel: ChannelSettings = field(default_factory=ChannelSettings)
    attack: AttackSettings = field(default_factory=AttackSettings)
    countermeasures: CountermeasureSettings = field(default_factory=CountermeasureSettings)
    golden_name: str | None = None

    def validate(self) -> None:
        """Check every field against the domain its hint states, then the checks that span fields."""
        _domain_check(ScenarioConfig)(self, "")
        for suffix in ("", "_b", "_m"):
            lo, hi = getattr(self.detector, f"p_never{suffix}"), getattr(self.detector, f"p_always{suffix}")
            if not lo < hi:
                raise ConfigError(f"detector.p_never{suffix}/p_always{suffix}: need 0 <= p_never < p_always, got {lo}, {hi}")
        if self.bits is not None:
            if self.protocol != "dps":
                raise ConfigError(f"bits: pins DPS phase bits; a {self.protocol} run takes no bits")
            if len(self.bits) < 2:
                raise ConfigError("bits: need at least two")
        if self.symbols is not None:
            if self.protocol != "cow":
                raise ConfigError(f"symbols: pins COW symbols; a {self.protocol} run takes no symbols")
            if not self.symbols:
                raise ConfigError("symbols: must be nonempty when given")
            bad = set(self.symbols) - {"0", "1", "d"}
            if bad:
                raise ConfigError(f"symbols: invalid entries {sorted(bad)}; allowed: 0, 1, d")
        readings = self.attack.blinding.readings
        if readings is not None and not readings:
            raise ConfigError("attack.blinding.readings: must be nonempty when given")
        # The optics square these field amplitudes into intensities, and a run's summary sums
        # them over its slots: no trace is longer than 2 * (n + 2) slots for n symbols or readings.
        n = max(self.n_symbols, *(len(v or ()) for v in (self.bits, self.symbols, readings)))
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


# The hints as types only, their domains stripped.
_type_hints = functools.cache(typing.get_type_hints)

# Scalar hint -> the Python types it accepts (never a bool, unless the hint is bool) and its name in errors.
_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"), bool: ((bool,), "a boolean"),
            str: ((str,), "a string")}


@functools.cache
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


@functools.cache
def _domain_check(hint: Any) -> Callable[[Any, str], None] | None:
    """The check of a value of type ``hint`` against every domain its hint
    states, those of a section's fields and a tuple's elements too; None where
    it states none.  A field left at None has no domain to meet."""
    hint = _inner(hint)
    if typing.get_origin(hint) is Annotated:
        domain = hint.__metadata__[0]
        if isinstance(domain, tuple):
            contains, says = domain.__contains__, f"one of {domain}"
        else:
            lo, hi = (float(end) for end in domain[1:-1].split(","))
            above, below = (operator.lt if end in "()" else operator.le for end in (domain[0], domain[-1]))
            contains, says = (lambda v: above(lo, v) and below(v, hi)), f"within {domain}"

        def scalar(value: Any, path: str) -> None:
            if not contains(value):
                raise ConfigError(f"{path}: must be {says}, got {value!r}")
        return scalar
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint, include_extras=True)
        checks = [(key, check) for key in hints if (check := _domain_check(hints[key])) is not None]

        def section(value: Any, path: str) -> None:
            for key, check in checks:
                if (v := getattr(value, key)) is not None:
                    check(v, f"{path}.{key}" if path else key)
        return section
    if typing.get_origin(hint) is tuple:
        checks = [_domain_check(arg) for arg in typing.get_args(hint) if arg is not Ellipsis]

        def elements(value: Any, path: str) -> None:
            for i, (v, check) in enumerate(zip(value, itertools.cycle(checks))):
                if check is not None:
                    check(v, f"{path}[{i}]")
        return elements if any(checks) else None
    return None


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build and validate a config from a plain mapping; unknown keys rejected."""
    cfg = _typed(data, ScenarioConfig, "")
    cfg.validate()
    return cfg
