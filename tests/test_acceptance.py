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
    decode_dps_readings,
    fsg_dps_phases,
)
from dprsim.cli import main
from dprsim.config import WORKED_EXAMPLE_READINGS, BlindingSettings, DetectorSettings, scenario_from_dict
from dprsim.optics import PulseTrain, dli
from dprsim.detectors import PhotocurrentMonitor, apd_detect
from dprsim.protocols import _interfaces, cow_encode, dps_encode, dps_sift, receive, visibility
from dprsim.scenario import run_golden, run_scenario

from _oracles import brute_force_cow_monitor, brute_force_dli_ports, coded, cow_occupancy_loop

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
        populated = [cls for cls, counts in report.per_class.items() if counts.total > 0]
        assert populated == ["d", "01", "d1"]
        for cls in populated:
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
        occupancy = cow_occupancy_loop(cfg["symbols"])
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
            train, codes = dps_encode(bits)
            record = receive("dps", train, codes, DetectorSettings(), 1.0)
            km = dps_sift(bits, record)
            assert km.qber == 0.0
            assert km.sifted_length == 255
        assert time.perf_counter() - started < 10.0


def test_backflash_ideal_capture():
    with criterion("backflash-ideal"):
        for name in ("dps-backflash-ideal", "cow-backflash-ideal"):
            record = run_golden(name)
            assert record.attack.capture_fraction == 1.0
            np.testing.assert_array_equal(record.attack.eve_key, record.protocol_run.sifted_bob)


def test_backflash_statistics():
    with criterion("backflash-statistics"):
        record = run_golden("dps-backflash-stat")
        n = record.protocol_run.sifted_length
        assert n >= 100_000
        p = 2.7e8 * 2.4e-10
        assert p == pytest.approx(0.0648)
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(record.attack.capture_fraction - p) <= 3.0 * sigma


@pytest.mark.parametrize("protocol", ["dps", "cow"])
@pytest.mark.parametrize("p", [0.0648, 0.3, 0.702])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_backflash_capture_matches_emission_probability(protocol, p, seed):
    # Closed form: each of Bob's sifted clicks re-emits independently with
    # probability min(1, electrons_per_avalanche * photons_per_electron), and
    # Eve's noise-free replica reads every re-emission, so the captured count
    # is binomial over Bob's sifted length.
    with criterion("backflash-closed-form"):
        electrons = 2.7e8
        backflash = {"electrons_per_avalanche": electrons, "photons_per_electron": p / electrons}
        doc = {"protocol": protocol, "n_symbols": 20_000, "seed": seed}
        record = run_scenario(scenario_from_dict({**doc, "attack": {"kind": "backflash", "backflash": backflash}}))
        emission = min(1.0, electrons * (p / electrons))
        n = record.protocol_run.sifted_length
        sigma = np.sqrt(emission * (1.0 - emission) / n)
        assert abs(record.attack.capture_fraction - emission) <= 5.0 * sigma


@pytest.mark.parametrize("protocol", ["dps", "cow"])
@pytest.mark.parametrize("tap", [None, 0.75])
def test_trojan_capture_steps_at_eve_sensitivity(protocol, tap):
    # Closed form: Eve's reflected peak is probe_amplitude**2 attenuated by
    # reflection_db plus the probe band's excess loss, times 1 - tap_fraction
    # when the watchdog taps the probe.  Above her sensitivity
    # eve_min_intensity her noise-free replica reads every sifted bit; at or
    # below it, none.
    with criterion("trojan-closed-form"):
        doc = {"protocol": protocol, "n_symbols": 2000, "seed": 1}
        if tap is not None:
            doc["countermeasures"] = {"watchdog": {"enabled": True, "tap_fraction": tap}}
        kept = 1.0 - (tap or 0.0)

        def capture(**trojan) -> float:
            record = run_scenario(scenario_from_dict({**doc, "attack": {"kind": "trojan", "trojan": trojan}}))
            assert record.protocol_run.sifted_length > 0
            return record.attack.capture_fraction

        # The step in decibels, against the default sensitivity of 1e-15, with
        # the default probe band (1924 nm) losing 20 dB more in the channel.
        step_db = 10.0 * np.log10(kept / 1e-15) - 20.0
        for side, want in ((-1.0, 1.0), (1.0, 0.0)):
            assert capture(probe_wavelength_nm=1924.0, reflection_db=step_db + side) == want
        # The step itself, at a peak that is exact in binary: 0.5**2 * kept.
        peak = 0.25 * kept
        assert capture(probe_amplitude=0.5, eve_min_intensity=np.nextafter(peak, 0.0)) == 1.0
        assert capture(probe_amplitude=0.5, eve_min_intensity=peak) == 0.0


# Closed forms of the detector imperfections, each over 2e4 of Alice's i.i.d.
# symbols and two seeds, with bounds of five binomial standard deviations.
NOISE_SYMBOLS = 20_000


def _within_five_sigma(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= 5.0 * np.sqrt(trials * p * (1.0 - p))


@pytest.mark.parametrize("seed", [3, 4])
def test_dps_dark_counts_discard_double_clicks(seed):
    # Closed form: at every interior slot one port is bright and clicks, and
    # the dark port clicks with the dark-count probability p.  That dark click
    # makes a double click, which sifting discards, so the sifted length is
    # binomial over the n - 1 interior slots with probability 1 - p, and no
    # sifted bit is ever wrong.
    with criterion("dps-dark-count-closed-form"):
        p = 1e-2
        doc = {"protocol": "dps", "n_symbols": NOISE_SYMBOLS, "seed": seed, "detector": {"dark_count_prob": p}}
        run = run_scenario(scenario_from_dict(doc)).protocol_run
        assert _within_five_sigma(run.sifted_length, NOISE_SYMBOLS - 1, 1.0 - p)
        assert run.qber == 0.0


@pytest.mark.parametrize("dead", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 4])
def test_dps_dead_time_sifts_two_in_dead_plus_two(dead, seed):
    # Closed form: the bright port of each interior slot is a fair i.i.d.
    # choice, and only it can click.  A detector that clicks is dead for d
    # slots, then waits a geometric number of slots, 2 on average, for its
    # port to be bright again; so each detector clicks once per d + 2 slots,
    # and a slot sifts exactly when its bright detector is live: a fraction
    # 2 / (d + 2) of the interior slots, with no error.  The click counts are
    # renewal processes, whose spread is under the binomial one.
    with criterion("dps-dead-time-closed-form"):
        doc = {"protocol": "dps", "n_symbols": NOISE_SYMBOLS, "seed": seed, "detector": {"dead_time_slots": dead}}
        run = run_scenario(scenario_from_dict(doc)).protocol_run
        assert _within_five_sigma(run.sifted_length, NOISE_SYMBOLS - 1, 2.0 / (dead + 2))
        assert run.qber == 0.0


@pytest.mark.parametrize("p", [0.1, 0.3])
@pytest.mark.parametrize("seed", [3, 4])
def test_dps_afterpulses_discard_double_clicks(p, seed):
    # Closed form: the bright port of each interior slot clicks, and the dark
    # one clicks only by an afterpulse, with probability p, which needs it to
    # have clicked one slot earlier.  It did when it was that slot's bright
    # port, a fair i.i.d. choice, or its dark port in a double click; so the
    # stationary double-click rate r solves r = p (1/2 + r/2), r = p / (2 - p).
    # Sifting discards the double clicks, and a lone click is always the
    # bright port's, so no sifted bit is wrong.  The chain's correlation
    # widens the spread a little past the binomial one.
    with criterion("dps-afterpulse-closed-form"):
        doc = {"protocol": "dps", "n_symbols": NOISE_SYMBOLS, "seed": seed, "detector": {"afterpulse_prob": p}}
        run = run_scenario(scenario_from_dict(doc)).protocol_run
        assert _within_five_sigma(run.sifted_length, NOISE_SYMBOLS - 1, 1.0 - p / (2.0 - p))
        assert run.qber == 0.0


@pytest.mark.parametrize("seed", [3, 4])
def test_cow_dark_counts_set_qber_and_the_destructive_monitor(seed):
    # Closed form: D_B clicks at the pulse of every data symbol, so each one is
    # sifted, and its empty half-slot clicks with the dark-count probability
    # p, a double click that counts as an error.  At every interface the
    # constructive monitor D_M1 sees the full interference and clicks, and
    # the destructive D_M2 sees none and clicks only by a dark count.
    with criterion("cow-dark-count-closed-form"):
        p = 0.1
        doc = {"protocol": "cow", "n_symbols": NOISE_SYMBOLS, "seed": seed, "detector": {"dark_count_prob": p}}
        run = run_scenario(scenario_from_dict(doc)).protocol_run
        data = int(np.count_nonzero(run.alice_codes != 2))
        interfaces = _interfaces(run.alice_codes)[0].size
        assert run.sifted_length == data
        assert _within_five_sigma(round(run.qber * data), data, p)
        overall = run.visibility_report.overall
        assert overall.d_m1 == interfaces
        assert _within_five_sigma(overall.d_m2, interfaces, p)


@pytest.mark.parametrize("rails", ["dps", "cow-data"])
@pytest.mark.parametrize("fraction", [0.25, 0.7])
@pytest.mark.parametrize("seed", [3, 4])
def test_linear_mode_clicks_interpolate_between_the_rails(rails, fraction, seed):
    # Closed form: a blinded detector in linear mode clicks at an intensity I
    # strictly between its rails with probability (I - p_never) / (p_always
    # - p_never), one independent draw per slot, so its click count is
    # binomial.  Continuous blinding light holds the stored current above the
    # blind threshold from the first slot on, so every slot is linear.
    with criterion("linear-mode-closed-form"):
        d = DetectorSettings()
        p_never, p_always = (d.p_never, d.p_always) if rails == "dps" else (d.p_never_b, d.p_always_b)
        level = p_never + fraction * (p_always - p_never)
        n = 20_000
        blinding = BlindingSettings(style="cw")
        trace = apd_detect(
            np.array([level]), np.zeros(n, dtype=np.uint8), 0.5 * p_never, (p_never, p_always), d, "D",
            blinding=blinding, rng=np.random.default_rng(seed),
        )["D"]
        assert trace.linear_mode.all()
        assert _within_five_sigma(trace.click_count, n, (level - p_never) / (p_always - p_never))


@pytest.mark.parametrize("t_b", [0.5725, 0.55])
@pytest.mark.parametrize("seed", [3, 4])
def test_cow_splitter_shares_each_pulse_between_the_lines(t_b, seed):
    # Closed form: the splitter passes t_b of each pulse's intensity I to the
    # data line and 1 - t_b to the monitoring line.  Under continuous blinding
    # light every detector is linear and clicks at an intensity J with
    # probability (J - p_never) / (p_always - p_never), clipped to [0, 1], one
    # draw per slot, on rails that do not scale with t_b.  So D_B clicks at a
    # pulse with J = t_b I.  At an interface two equal-phase pulses meet, so
    # D_M1 sees J = (1 - t_b) I and D_M2 sees nothing; where a pulse meets
    # vacuum, each sees a quarter of that, under the rail.  I = 0.69 puts D_B
    # mid-rail at t_b = 0.5725 and under its rail at 0.55.
    with criterion("cow-splitter-closed-form"):
        d, intensity = DetectorSettings(), 0.69
        symbols = np.random.default_rng(seed).integers(0, 3, NOISE_SYMBOLS)
        train, occupancy = cow_encode(symbols, np.sqrt(intensity))
        streams = {name: np.random.default_rng([seed, i]) for i, name in enumerate(("D_B", "D_M1", "D_M2"))}
        record = receive("cow", train, occupancy, d, intensity, t_b=t_b, rng=streams.__getitem__,
                         blinding=BlindingSettings(style="cw"))

        def p_click(j, p_never, p_always):
            return min(max((j - p_never) / (p_always - p_never), 0.0), 1.0)

        pulses = int(np.count_nonzero(occupancy))
        d_b = record["D_B"].clicks
        assert not d_b[occupancy == 0].any()
        assert _within_five_sigma(int(np.count_nonzero(d_b)), pulses, p_click(t_b * intensity, d.p_never_b, d.p_always_b))
        interfaces = _interfaces(symbols)[0].size
        overall = visibility(record, symbols).overall
        assert overall.d_m1 + overall.d_m2 == record["D_M1"].click_count + record["D_M2"].click_count
        assert _within_five_sigma(overall.d_m1, interfaces, p_click((1 - t_b) * intensity, d.p_never_m, d.p_always_m))
        assert overall.d_m2 == 0


def test_fsg_sequence_reproduction():
    with criterion("fsg-sequence-reproduction"):
        _, codes = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
        assert (codes % 4).tolist() == list(WORKED_EXAMPLE_PHASES) == [0, 0, 2, 1, 1, 3, 1, 2, 0, 2, 1, 3, 2, 1, 2]
        rails = DetectorSettings(p_never=0.2, p_always=0.39)
        blinding = BlindingSettings(style="cw", illumination_level=BlindingSettings.blind_threshold)
        started = time.perf_counter()
        for readings in itertools.product((0, 1, 2), repeat=8):
            trigger, codes = fsg_dps_phases(readings, launch_intensity=0.39)
            offset = codes.size - len(readings)
            assert offset == 1  # the anchor pulse
            # Bob's blinded receiver, held in linear mode by blinding light at
            # the blind threshold on every slot, decoded per reading.
            record = receive("dps", trigger, codes, rails, 1.0, blinding=blinding)
            assert record["D1"].linear_mode.all() and record["D2"].linear_mode.all()
            replayed = decode_dps_readings(record, offset, len(readings))
            assert replayed.tolist() == list(readings)
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
        np.testing.assert_array_equal(outcome.bob_readings, outcome.eve_readings)
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
        level, threshold = 20.0, 40.0
        for window in (8, 10, 16):
            n = 8 * window
            for style, expected in (("cw", True), ("pulsed", False)):
                blinding = BlindingSettings(
                    style=style, illumination_level=level, pulse_period_slots=8, decay_per_slot=0.8, blind_threshold=4.0
                )
                monitor = PhotocurrentMonitor(window, threshold)
                rails = (0.2, 0.39)
                apd_detect(*coded(np.zeros(n)), 0.5, rails, DetectorSettings(), blinding=blinding, monitor=monitor)
                assert monitor.alarm is expected


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
    train = PulseTrain(np.asarray(amps, dtype=np.complex128))
    constructive, destructive = dli(train)
    oracle_c, oracle_d = brute_force_dli_ports(train.slots, 1)
    np.testing.assert_allclose(constructive.intensities, oracle_c, atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, oracle_d, atol=1e-12)
