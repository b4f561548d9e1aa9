"""Pulse-level simulator for distributed-phase-reference QKD.

Simulates the full optical chains of the differential-phase-shift and
coherent-one-way protocols at desk scale (one complex amplitude per time
slot), together with three eavesdropping attacks against them (backflash
re-emission, counter-propagating probe reflections, detector blinding with
faked states) and the corresponding countermeasure monitors.

The package exports its entry points: the config, run, sweep, record, report
and golden names.  Components import from their modules (``dprsim.optics``,
``dprsim.detectors``, ``dprsim.protocols``, ``dprsim.attacks``).
"""

from .config import ConfigError, ScenarioConfig, scenario_from_dict
from .goldens import GOLDENS, golden_config_dict
from .record import RunRecord
from .report import MetricsSummary, emit_outputs, load_record, save_record, summarize
from .scenario import load_config, run_golden, run_scenario, sweep

__version__ = "0.1.0"
