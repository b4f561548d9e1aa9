"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

from dprsim.attacks import (
    WORKED_EXAMPLE_PHASES,
    WORKED_EXAMPLE_READINGS,
    fsg_dps_phases,
    fsg_replay_dps,
)
from dprsim.cli import main
from dprsim.optics import PulseTrain, dli
from dprsim.protocols import cow_occupancy, dps_encode, dps_sift, receive
from dprsim.scenario import run_golden

from _oracles import brute_force_cow_monitor, brute_force_dli_ports

QUARTER_PHASES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)


@contextlib.contextmanager
def criterion(name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def test_cow_ideal_visibility():
    with criterion("cow-ideal-visibility"):
        started = time.perf_counter()
        record = run_golden("cow-fig2")
        elapsed = time.perf_counter() - started
        report = record.protocol_run.visibility_report
        assert report.populated_classes == ["d", "01", "d1"]
        for cls in report.populated_classes:
            assert report.per_class[cls].visibility == 1.0
        bob = record.protocol_run.record
        assert bob["D_M2"].detected_intensity < 1e-9 * bob["D_M1"].detected_intensity
        assert elapsed < 1.0


def test_cow_tamper_visibility():
    with criterion("cow-tamper-visibility"):
        record = run_golden("cow-fig4-tamper")
        report = record.protocol_run.visibility_report
        assert report.overall_visibility == pytest.approx(1.0 / 5.0, abs=1e-6)
        # Independent slot-by-slot interference oracle over the 20-slot train.
        cfg = record.config
        occupancy = cow_occupancy(cfg["symbols"])
        phases = np.array(cfg["channel"]["phase_tamper_half_turns"]) * np.pi
        m1, m2 = brute_force_cow_monitor(occupancy, phases[: occupancy.size], cfg["amplitude"], cfg["t_b"])
        bob = record.protocol_run.record
        assert bob["D_M1"].click_count == sum(m1)
        assert bob["D_M2"].click_count == sum(m2)
        assert bob.clicks("D_M1").tolist() == m1
        assert bob.clicks("D_M2").tolist() == m2


def test_dps_round_trip_thousand_runs():
    with criterion("dps-round-trip"):
        rng = np.random.default_rng(20240917)
        started = time.perf_counter()
        for _ in range(1000):
            bits = rng.integers(0, 2, 256)
            record, _ = receive("dps", dps_encode(bits))
            km = dps_sift(bits, record)
            assert km.qber == 0.0
            assert km.sifted_length == 255
        assert time.perf_counter() - started < 10.0


def test_backflash_ideal_capture():
    with criterion("backflash-ideal"):
        for name in ("dps-backflash-ideal", "cow-backflash-ideal"):
            record = run_golden(name)
            assert record.attack.capture_fraction == 1.0
            np.testing.assert_array_equal(record.attack.eve_key, record.attack.bob_key)


def test_backflash_statistics():
    with criterion("backflash-statistics"):
        record = run_golden("dps-backflash-stat")
        n = record.protocol_run.sifted_length
        assert n >= 100_000
        p = 2.7e8 * 2.4e-10
        assert p == pytest.approx(0.0648)
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(record.attack.capture_fraction - p) <= 3.0 * sigma


def test_fsg_sequence_reproduction():
    with criterion("fsg-sequence-reproduction"):
        plan = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
        assert plan.phase_units == WORKED_EXAMPLE_PHASES == (0, 0, 2, 1, 1, 3, 1, 2, 0, 2, 1, 3, 2, 1, 2)
        started = time.perf_counter()
        for readings in itertools.product((0, 1, 2), repeat=8):
            canonical = fsg_dps_phases(readings, launch_intensity=0.39)
            assert fsg_replay_dps(canonical, p_never=0.2, p_always=0.39) == list(readings)
        assert time.perf_counter() - started < 60.0


def test_cow_blinding_control():
    with criterion("cow-blinding"):
        record = run_golden("cow-blinding")
        outcome = record.attack
        # Thresholds in the 0.2 : 0.4 never/always ratio, scaled to strict
        # inequality, satisfy every detection-control requirement at t_b = 0.5.
        assert outcome.feasibility["rail_gap"]
        assert outcome.feasibility["monitor_drive_hidden_from_data"]
        assert outcome.feasibility["data_drive_hidden_from_monitor"]
        assert outcome.bob_readings == outcome.eve_readings
        # Zero spurious clicks: each reading fires exactly its target detector.
        bob = record.protocol_run.record
        readings = outcome.eve_readings
        for j, r in enumerate(readings):
            slot = j + 1  # reading j sits after the anchor pulse
            assert bool(bob.clicks("D_B")[slot]) == (r == 3)
            assert bool(bob.clicks("D_M1")[slot]) == (r == 2)
            assert bool(bob.clicks("D_M2")[slot]) == (r == 1)
        for name in ("D_B", "D_M1", "D_M2"):
            assert not bob.clicks(name)[0]
        assert not bob.clicks("D_M1")[-1] and not bob.clicks("D_M2")[-1]


def test_countermeasure_discrimination():
    with criterion("countermeasure-discrimination"):
        assert run_golden("cow-blinding-cw").attack.alarms["photocurrent_monitor"] is True
        assert run_golden("cow-blinding").attack.alarms["photocurrent_monitor"] is False

        # Property over window sizes >= 8: same per-pulse energy, exact booleans.
        from dprsim.detectors import ApdConfig, BlindingState, apd_detect, photocurrent_monitor

        level, threshold = 20.0, 40.0
        cfg = ApdConfig(mode="geiger", click_threshold=0.5)
        for window in (8, 10, 16):
            n = 8 * window
            cw = np.full(n, level)
            pulsed = np.zeros(n)
            pulsed[::8] = level
            for background, expected in ((cw, True), (pulsed, False)):
                rec = apd_detect(
                    PulseTrain.vacuum(n),
                    cfg,
                    blind=BlindingState(0.0, 0.8, 4.0),
                    background=background,
                )
                result = photocurrent_monitor(rec["D"].photocurrent, window, threshold)
                assert result.alarm is expected


def test_trojan_capture_and_watchdog(tmp_path):
    with criterion("trojan-horse"):
        record = run_golden("dps-trojan")
        assert record.attack.capture_fraction == 1.0
        assert record.attack.alarms["watchdog"] is False

        # The probe leaves Bob's run untouched: same config without the attack.
        from dprsim.config import scenario_from_dict
        from dprsim.goldens import golden_config_dict
        from dprsim.scenario import run_scenario

        clean_cfg = golden_config_dict("dps-trojan")
        clean_cfg["attack"] = {"kind": "none"}
        clean_cfg.pop("golden_name")
        clean = run_scenario(scenario_from_dict(clean_cfg))
        np.testing.assert_array_equal(record.protocol_run.sifted_bob, clean.protocol_run.sifted_bob)
        assert record.protocol_run.qber == clean.protocol_run.qber == 0.0

        # Watchdog at one-tenth tap and a threshold below the tapped probe
        # intensity stops the run: documented alarm exit code.
        assert main(["run", "--golden", "dps-trojan-watchdog", "--out", str(tmp_path)]) == 3


def test_dli_oracle_equivalence():
    with criterion("dli-oracle-equivalence"):
        # Exhaustive over short trains, randomized up to 32 slots.
        for n in range(1, 6):
            for phases in itertools.product(QUARTER_PHASES, repeat=n):
                amps = np.exp(1j * np.array(phases))
                _compare_ports(amps)
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 33))
            phases = rng.choice(QUARTER_PHASES, n)
            occupancy = rng.integers(0, 2, n)
            amps = occupancy * np.exp(1j * phases)
            _compare_ports(amps)


def _compare_ports(amps):
    import warnings

    train = PulseTrain(np.asarray(amps, dtype=np.complex128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        constructive, destructive = dli(train, 1)
    oracle_c, oracle_d = brute_force_dli_ports(train.slots, 1)
    np.testing.assert_allclose(constructive.intensities, oracle_c, atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, oracle_d, atol=1e-12)
