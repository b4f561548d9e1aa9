"""Pulse-level simulator for distributed-phase-reference QKD.

Simulates the full optical chains of the differential-phase-shift and
coherent-one-way protocols at desk scale (one complex amplitude per time
slot), together with three eavesdropping attacks against them (backflash
re-emission, counter-propagating probe reflections, detector blinding with
faked states) and the corresponding countermeasure monitors.
"""

from .attacks import (
    AttackOutcome,
    BlindingThresholds,
    FeasibilityReport,
    FsgPlan,
    blinding_feasible,
    fsg_cow_drive,
    fsg_dps_phases,
    fsg_replay_cow,
    fsg_replay_dps,
    trojan_decode,
    trojan_probe,
)
from .config import ConfigError, ScenarioConfig, scenario_from_dict
from .detectors import (
    ApdConfig,
    BackflashConfig,
    BlindingState,
    DetectionRecord,
    DetectorTrace,
    apd_detect,
    backflash_emit,
    blinding_update,
    photocurrent_monitor,
    watchdog,
)
from .goldens import GOLDENS, golden_config_dict, golden_names
from .optics import (
    CouplerRatio,
    DriveProfile,
    IncompatibleTrains,
    MzmParams,
    PulseTrain,
    attenuate,
    circulator,
    coupler_2x2,
    cw_laser,
    delay_line,
    dli,
    mzm_transfer,
    optical_filter,
    phase_modulator,
    pulse_carver,
    select_channel,
)
from .protocols import (
    ProtocolRun,
    VisibilityReport,
    cow_encode,
    cow_sift,
    dps_encode,
    dps_sift,
    receive,
    visibility,
)
from .report import MetricsSummary, emit_outputs, load_record, save_record, summarize
from .scenario import RngFactory, RunRecord, load_config, run_golden, run_scenario, sweep

__version__ = "0.1.0"
