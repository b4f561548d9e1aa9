"""Pinned reference scenarios.

Each golden is a complete scenario document (plain data, merged over the
config defaults) that reproduces one reference behaviour of the simulator:
the coherent-one-way run with unit visibility, the in-channel phase-tamper run
with overall visibility 1/5, the ideal and statistical backflash captures, the
counter-propagating probe with and without the entrance watchdog, and the
detector-control runs with pulsed versus continuous blinding illumination.

The goldens are content-addressed: tests pin their hashes, so any drift here
is a test failure, not a silent re-baseline.
"""

from __future__ import annotations

import copy
from typing import Any

from .config import WORKED_EXAMPLE_READINGS

__all__ = ["GOLDENS", "golden_config_dict"]

# In-channel phase pattern of the tamper run, in half turns per grid slot,
# applied from slot 0: five slots unshifted, twelve slots shifted by pi, three
# slots unshifted.  On the "01d10001d1" train this flips exactly two of the
# five neighbouring-pulse interfaces, giving |3 - 2| / 5 = 1/5 overall.
TAMPER_PATTERN: tuple[float, ...] = (0.0,) * 5 + (1.0,) * 12 + (0.0,) * 3

# Reading sequence for the COW detector-control golden (0 none, 1 D_M2,
# 2 D_M1, 3 D_B): covers a leading data slot, repeated data slots, both
# monitor detectors and vacuum events in every neighbourhood.
COW_BLINDING_READINGS: tuple[int, ...] = (3, 0, 2, 1, 3, 3, 0, 1, 2, 0, 3, 1, 0, 2, 3, 0)

GOLDENS: dict[str, dict[str, Any]] = {
    "dps-ideal": {
        "description": "Lossless DPS round trip, 256 random phase bits, zero QBER",
        "config": {
            "protocol": "dps",
            "n_symbols": 256,
            "seed": 7,
        },
    },
    "cow-fig2": {
        "description": "COW run 01d10001d1 with a 90:10 splitter; unit visibility on every populated class",
        "config": {
            "protocol": "cow",
            "symbols": "01d10001d1",
            "t_b": 0.9,
            "seed": 3,
        },
    },
    "cow-fig4-tamper": {
        "description": "COW run 01d10001d1 with an in-channel phase tamper; overall visibility 1/5",
        "config": {
            "protocol": "cow",
            "symbols": "01d10001d1",
            "t_b": 0.9,
            "seed": 3,
            "channel": {"phase_tamper_half_turns": list(TAMPER_PATTERN)},
        },
    },
    "dps-backflash-ideal": {
        "description": "Backflash attack on DPS with certain re-emission; Eve's key equals Bob's",
        "config": {
            "protocol": "dps",
            "n_symbols": 128,
            "seed": 11,
            "attack": {"kind": "backflash", "backflash": {"ideal": True}},
        },
    },
    "cow-backflash-ideal": {
        "description": "Backflash attack on COW with certain re-emission; Eve's data record equals Bob's",
        "config": {
            "protocol": "cow",
            "n_symbols": 64,
            "t_b": 0.9,
            "seed": 13,
            "attack": {"kind": "backflash", "backflash": {"ideal": True}},
        },
    },
    "dps-backflash-stat": {
        "description": "Backflash attack on DPS with measured avalanche statistics over 1e5 sifted bits",
        "config": {
            "protocol": "dps",
            "n_symbols": 100_001,
            "seed": 17,
            "attack": {"kind": "backflash"},
        },
    },
    "dps-trojan": {
        "description": "Counter-propagating 1000 nm probe against DPS Alice; full key capture, Bob untouched",
        "config": {
            "protocol": "dps",
            "n_symbols": 128,
            "seed": 19,
            "attack": {"kind": "trojan"},
        },
    },
    "dps-trojan-watchdog": {
        "description": "Same probe with the entrance watchdog enabled; raises the alarm",
        "config": {
            "protocol": "dps",
            "n_symbols": 128,
            "seed": 19,
            "attack": {"kind": "trojan"},
            "countermeasures": {"watchdog": {"enabled": True, "tap_fraction": 0.1, "intensity_threshold": 0.05}},
        },
    },
    "cow-trojan": {
        "description": "Counter-propagating laser probe against COW Alice; Eve reads the occupancy pattern",
        "config": {
            "protocol": "cow",
            "n_symbols": 64,
            "t_b": 0.9,
            "seed": 23,
            "attack": {"kind": "trojan"},
        },
    },
    "dps-blinding": {
        "description": "DPS detector control replaying the worked-example reading sequence under pulsed blinding",
        "config": {
            "protocol": "dps",
            "n_symbols": 16,
            "seed": 29,
            "attack": {
                "kind": "blinding",
                "blinding": {
                    "readings": list(WORKED_EXAMPLE_READINGS),
                    "policy": "worked-example",
                    "style": "pulsed",
                },
            },
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
    },
    "dps-blinding-derived": {
        "description": "DPS detector control with readings taken by Eve's replica receiver",
        "config": {
            "protocol": "dps",
            "n_symbols": 64,
            "seed": 37,
            "attack": {"kind": "blinding", "blinding": {"style": "pulsed"}},
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
    },
    "cow-blinding": {
        "description": "COW detector control at t_b = 0.5 under pulsed blinding; monitor stays silent",
        "config": {
            "protocol": "cow",
            "n_symbols": 16,
            "t_b": 0.5,
            "seed": 31,
            "attack": {
                "kind": "blinding",
                "blinding": {"readings": list(COW_BLINDING_READINGS), "style": "pulsed"},
            },
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
    },
    "cow-blinding-cw": {
        "description": "Same COW detector control under continuous-wave blinding; monitor alarms",
        "config": {
            "protocol": "cow",
            "n_symbols": 16,
            "t_b": 0.5,
            "seed": 31,
            "attack": {
                "kind": "blinding",
                "blinding": {"readings": list(COW_BLINDING_READINGS), "style": "cw"},
            },
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
    },
}


def golden_config_dict(name: str) -> dict[str, Any]:
    """Deep copy of the pinned scenario document for ``name``."""
    try:
        entry = GOLDENS[name]
    except KeyError:
        raise KeyError(f"unknown golden {name!r}; available: {', '.join(GOLDENS)}") from None
    cfg = copy.deepcopy(entry["config"])
    cfg["golden_name"] = name
    return cfg
