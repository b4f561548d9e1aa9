import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim.attacks import (
    COW_PHASE_STEP,
    DPS_PHASE_STEP,
    WORKED_EXAMPLE_PHASES,
    blinding_feasible,
    capture_fraction,
    decode_cow_readings,
    decode_dps_readings,
    fsg_cow_drive,
    fsg_dps_phases,
    trojan_decode,
    trojan_probe,
)
from dprsim.config import WORKED_EXAMPLE_READINGS, BlindingSettings, DetectorSettings, TrojanSettings, scenario_from_dict
from dprsim.optics import attenuate
from dprsim.protocols import cow_encode, cow_occupancy, dps_encode, dps_reference_bits, receive
from dprsim.report import summarize
from dprsim.scenario import run_scenario

from _oracles import gathered

RAILS = DetectorSettings(p_never=0.2, p_always=0.39)
COW_RAILS = DetectorSettings()

dps_readings = st.lists(st.integers(0, 2), min_size=1, max_size=12)
cow_readings = st.lists(st.integers(0, 3), min_size=1, max_size=12)


def phase_steps(trigger) -> list[int]:
    """Consecutive phase differences of a coded trigger mod 4, one per pulse
    after the first."""
    return (np.diff(trigger[1] % 4) % 4).tolist()


def held_blind(protocol, trigger, rails, t_b=0.9):
    """Bob's record of a coded trigger, as a planner gives it, his detectors
    held in linear mode by blinding light at the blind threshold on every slot."""
    blinding = BlindingSettings(style="cw", illumination_level=BlindingSettings.blind_threshold)
    record = receive(protocol, *trigger, rails, 1.0, t_b=t_b, blinding=blinding)
    assert all(record[name].linear_mode.all() for name in record.names)
    return record


def replay_dps(trigger, readings) -> list[int]:
    """The readings a linear-mode DPS receiver decodes from Eve's trigger for
    ``readings``, reading 0 at its pulse count minus the reading count."""
    record = held_blind("dps", trigger, RAILS)
    return decode_dps_readings(record, trigger[1].size - len(readings), len(readings)).tolist()


def replay_cow(trigger, readings, t_b) -> list[int]:
    """The readings a linear-mode COW receiver decodes from Eve's trigger for
    ``readings``, reading 0 at its pulse count minus the reading count."""
    record = held_blind("cow", trigger, COW_RAILS, t_b)
    return decode_cow_readings(record, trigger[1].size - len(readings), len(readings)).tolist()


# ---------------------------------------------------------------------------
# Faked-state generation, DPS
# ---------------------------------------------------------------------------


def test_worked_example_phase_table():
    _, codes = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
    assert (codes % 4).tolist() == list(WORKED_EXAMPLE_PHASES)
    assert codes.size - len(WORKED_EXAMPLE_READINGS) == 0


def test_canonical_all_constructive_readings_keep_phase_constant():
    _, codes = fsg_dps_phases([1] * 10)
    assert (codes % 4).tolist() == [0] * 11


def test_canonical_plan_has_anchor_pulse():
    readings = [2, 0, 1]
    _, codes = fsg_dps_phases(readings)
    assert codes.size == 4
    assert codes[0] % 4 == 0
    assert codes.size - len(readings) == 1


@settings(max_examples=100, deadline=None)
@given(dps_readings)
def test_canonical_phase_steps_encode_the_readings(readings):
    steps = phase_steps(fsg_dps_phases(readings))
    for r, step in zip(readings, steps):
        if r == 1:
            assert step % 4 == 0
        elif r == 2:
            assert step % 4 == 2
        else:
            assert step % 2 == 1


@settings(max_examples=100, deadline=None)
@given(dps_readings)
def test_fsg_dps_replay_reproduces_readings(readings):
    trigger = fsg_dps_phases(readings, launch_intensity=RAILS.p_always)
    assert replay_dps(trigger, readings) == list(readings)


def test_policies_agree_on_the_worked_example():
    worked = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
    canonical = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="canonical")
    assert replay_dps(worked, WORKED_EXAMPLE_READINGS) == list(WORKED_EXAMPLE_READINGS)
    assert replay_dps(canonical, WORKED_EXAMPLE_READINGS) == list(WORKED_EXAMPLE_READINGS)
    # Same reading, same phase-step class, wherever a step encodes it.
    worked_steps = phase_steps(worked)  # step k encodes reading k+1
    canonical_steps = phase_steps(canonical)  # step k encodes reading k
    for k, step in enumerate(worked_steps):
        assert step % 4 in _allowed_steps(WORKED_EXAMPLE_READINGS[k + 1])
    for k, step in enumerate(canonical_steps):
        assert step % 4 in _allowed_steps(WORKED_EXAMPLE_READINGS[k])


def _allowed_steps(reading):
    return {1: {0}, 2: {2}, 0: {1, 3}}[reading]


# ---------------------------------------------------------------------------
# Faked-state generation, COW
# ---------------------------------------------------------------------------


def test_cow_drive_levels_symmetric_splitter():
    # With t_b = 0.5 and equal always-rails P on both families, both launch
    # levels are 2P.
    th = DetectorSettings(p_always_b=0.39, p_never_b=0.2, p_always_m=0.39, p_never_m=0.2)
    trigger, codes = fsg_cow_drive([2, 3], 0.5, th)
    np.testing.assert_allclose(trigger.intensities[codes], [0.78, 0.78, 0.78])
    trigger, codes = fsg_cow_drive([3], 0.5, th)
    assert trigger.intensities[codes[1]] == pytest.approx(2 * 0.39)


@settings(max_examples=100, deadline=None)
@given(cow_readings)
def test_fsg_cow_replay_reproduces_readings(readings):
    trigger = fsg_cow_drive(readings, 0.5, COW_RAILS)
    assert replay_cow(trigger, readings, 0.5) == list(readings)


@settings(max_examples=60, deadline=None)
@given(cow_readings)
def test_fsg_cow_drive_never_leaks_into_silent_detectors(readings):
    trigger, codes = fsg_cow_drive(readings, 0.5, COW_RAILS)
    record = held_blind("cow", (trigger, codes), COW_RAILS, 0.5)
    offset = codes.size - len(readings)
    assert offset == 1
    for j, r in enumerate(readings):
        slot = offset + j
        assert bool(record.clicks("D_B")[slot]) == (r == 3)
        assert bool(record.clicks("D_M1")[slot]) == (r == 2)
        assert bool(record.clicks("D_M2")[slot]) == (r == 1)
    # The anchor pulse and trailing interferometer edge stay silent.
    assert not record.clicks("D_B")[0]
    assert not record.clicks("D_M1")[0]
    assert not record.clicks("D_M2")[0]
    assert not record.clicks("D_M1")[-1]
    assert not record.clicks("D_M2")[-1]


def test_step_tables_target_the_right_ports():
    assert DPS_PHASE_STEP.dtype == COW_PHASE_STEP.dtype == np.int8
    assert DPS_PHASE_STEP.tolist() == [1, 0, 2]  # 1 = D1 constructive
    assert COW_PHASE_STEP.tolist() == [1, 2, 0, 1]  # 1 = D_M2 destructive


# ---------------------------------------------------------------------------
# Feasibility inequalities
# ---------------------------------------------------------------------------


def test_feasibility_marginal_at_exact_rail_ratio():
    th = DetectorSettings(p_always_m=0.4, p_never_m=0.2)
    report = blinding_feasible(th, 0.5)
    assert not report["rail_gap"]
    assert report["marginal"]
    assert blinding_feasible(DetectorSettings(p_always=0.4, p_never=0.2), None) == {"rail_gap": False}


def test_feasibility_strict_rail_ratio_passes():
    th = DetectorSettings(p_always_m=0.39, p_never_m=0.2)
    report = blinding_feasible(th, 0.5)
    assert report["rail_gap"]
    assert not report["marginal"]
    assert blinding_feasible(DetectorSettings(p_always=0.39, p_never=0.2), None) == {"rail_gap": True}


def test_feasibility_fails_near_unity_transmittance():
    th = DetectorSettings(p_always_m=0.3, p_never_b=0.3)
    report = blinding_feasible(th, 0.9)
    assert not report["monitor_drive_hidden_from_data"]  # 9 * P >= P


def test_feasibility_default_thresholds_work_at_half_transmittance():
    report = blinding_feasible(COW_RAILS, 0.5)
    assert report["rail_gap"] and report["monitor_drive_hidden_from_data"] and report["data_drive_hidden_from_monitor"]


@pytest.mark.parametrize("narrowed, gap", [("p_never", True), ("p_never_m", False)])
def test_cow_rail_gap_is_that_of_the_monitor_rails(narrowed, gap):
    # A vacuum reading splits its monitor-level pulse over D_M1 and D_M2, so
    # COW's gap is p_always_m < 2 * p_never_m; the plain DPS pair plays no
    # part.  Narrowed to 0.15, a pair's never-click rail is under half of
    # 0.39, and where it is the monitors' pair Bob's record departs from
    # Eve's readings.
    cfg = scenario_from_dict({
        "protocol": "cow", "n_symbols": 2000, "t_b": 0.5, "seed": 3, "detector": {narrowed: 0.15},
        "attack": {"kind": "blinding", "blinding": {"style": "pulsed"}},
    })
    record = run_scenario(cfg)
    assert record.attack.feasibility["rail_gap"] is gap
    assert summarize(record).bob_record_equals_eve_readings is gap


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 1.0),
    st.floats(0.01, 0.5),
    st.floats(0.2, 0.8),
)
def test_feasibility_monotone_in_rails(p_always, bump, t_b):
    base = DetectorSettings(
        p_always=p_always, p_never=0.3, p_always_b=p_always, p_never_b=0.3, p_always_m=p_always, p_never_m=0.3
    )
    wider = DetectorSettings(
        p_always=p_always, p_never=0.3 + bump, p_always_b=p_always, p_never_b=0.3 + bump,
        p_always_m=p_always, p_never_m=0.3 + bump,
    )
    narrower = DetectorSettings(
        p_always=p_always + bump, p_never=0.3, p_always_b=p_always + bump, p_never_b=0.3,
        p_always_m=p_always + bump, p_never_m=0.3,
    )
    ok_base = blinding_feasible(base, t_b)
    ok_wide = blinding_feasible(wider, t_b)
    ok_narrow = blinding_feasible(narrower, t_b)
    for key in ("rail_gap", "monitor_drive_hidden_from_data", "data_drive_hidden_from_monitor"):
        assert ok_wide[key] >= ok_base[key]
        assert ok_narrow[key] <= ok_base[key]


# ---------------------------------------------------------------------------
# Counter-propagating probe
# ---------------------------------------------------------------------------


def dps_probe(**kw):
    defaults = dict(probe_wavelength_nm=1000.0, probe_amplitude=1.0, timing_offset_slots=0, reflection_db=0.0)
    defaults.update(kw)
    return TrojanSettings(**defaults)


def dps_reflection(bits, probe, excess_loss_db=0.0):
    """The probe's reflection off a DPS Alice sending ``bits``: her encoder's
    output at the probe's amplitude, shifted and attenuated, coded."""
    return trojan_probe(*dps_encode(np.asarray(bits, dtype=np.int8), probe.probe_amplitude), probe, excess_loss_db)


def cow_reflection(symbol_codes, probe):
    """The probe's reflection off a COW Alice sending ``symbol_codes``."""
    return trojan_probe(*cow_encode(np.asarray(symbol_codes, dtype=np.int8), probe.probe_amplitude), probe)


def dps_readout(coded) -> list[int]:
    """Eve's bit at each interior slot of her replica's record: 1 for a D2
    click, 0 for D1; exactly one of them clicks at each."""
    reflected, codes = coded
    record = trojan_decode(reflected, codes, "dps")
    d1, d2 = (record.clicks(name)[1 : len(codes)] for name in ("D1", "D2"))
    assert np.all(d1 != d2)
    return d2.astype(int).tolist()


def test_probe_reflects_alices_phase_sequence():
    bits = np.array([0, 1, 1, 0, 1])
    reflected = gathered(*dps_reflection(bits, dps_probe()))
    expected = np.exp(1j * np.pi * bits)
    np.testing.assert_allclose(reflected.slots, expected, atol=1e-12)


def test_probe_decode_recovers_the_key():
    bits = np.array([0, 1, 0, 0, 1, 1, 0])
    reflected = dps_reflection(bits, dps_probe())
    assert dps_readout(reflected) == dps_reference_bits(bits).tolist()


def test_probe_timing_offset_shifts_the_decoded_key():
    bits = np.array([0, 1, 0, 0, 1, 1, 0, 1])
    aligned = dps_readout(dps_reflection(bits, dps_probe()))
    shifted = dps_readout(dps_reflection(bits, dps_probe(timing_offset_slots=1)))
    assert shifted != aligned
    # The shifted profile is the same bit stream delayed by one slot with a
    # vacuum-slot lead-in, so the tail of the decoded key matches.
    shifted_profile = np.concatenate([[0], bits[:-1]])
    assert shifted == dps_reference_bits(shifted_profile).tolist()


def test_probe_excess_loss_at_long_wavelength():
    bits = np.array([0, 1, 0])
    base = gathered(*dps_reflection(bits, dps_probe(), excess_loss_db=0.0))
    lossy = gathered(*dps_reflection(bits, dps_probe(probe_wavelength_nm=1924.0), excess_loss_db=20.0))
    ratio = lossy.intensities[0] / base.intensities[0]
    assert ratio == pytest.approx(0.01)


def test_probe_below_eve_sensitivity_gives_empty_estimate():
    bits = np.array([0, 1, 0])
    reflected, codes = dps_reflection(bits, dps_probe())
    record = trojan_decode(attenuate(reflected, 200.0), codes, "dps", min_intensity=1e-15)
    assert record.names == ["D1", "D2"] and len(record["D1"]) == 4
    assert record["D1"].click_count == record["D2"].click_count == 0
    cow, codes = cow_reflection([0, 2], dps_probe())  # occupancy 1, 0, 1, 1
    assert trojan_decode(attenuate(cow, 200.0), codes, "cow", min_intensity=1e-15)["D_B"].click_count == 0


def test_probe_reads_cow_intensity_pattern():
    symbols = [0, 1, 2, 1, 0, 0, 0, 1, 2, 1]  # "01d10001d1"
    reflected, codes = cow_reflection(symbols, dps_probe())
    record = trojan_decode(reflected, codes, "cow")
    assert record.names == ["D_B"]
    assert record.clicks("D_B").tolist() == cow_occupancy(symbols).astype(bool).tolist()


def test_probe_threshold_follows_the_values_its_slots_carry():
    # A timing offset past the train's end leaves every probe slot on the
    # carver's extinguished value, whose faint light Eve's threshold then
    # follows: every slot clicks alike.  A peak over both values would take
    # the pulse level that no slot carries, and nothing would click.
    symbols = [0, 1, 2]
    reflected, codes = cow_reflection(symbols, dps_probe(timing_offset_slots=2 * len(symbols)))
    assert not codes.any() and 0.0 < reflected.intensities[0] < 1e-30
    record = trojan_decode(reflected, codes, "cow", min_intensity=0.0)
    assert record.clicks("D_B").all()


# ---------------------------------------------------------------------------
# Capture bookkeeping
# ---------------------------------------------------------------------------


def test_capture_fraction_bounds_and_matching():
    # Bob's sifted slots and bits against Eve's masks: where she holds a bit, and the bit.
    slots = np.array([1, 2, 3, 4])
    bits = np.array([False, True, False, True])
    held = np.array([False, True, True, True, True])
    eve = np.array([False, False, True, False, True])
    assert capture_fraction(slots, bits, held, eve) == 1.0
    assert capture_fraction(slots, bits, held[:3], eve[:3]) == 0.5  # she holds no slot past her masks
    assert capture_fraction(slots, bits, held, ~eve) == 0.0
    assert capture_fraction(np.array([], dtype=np.int64), np.array([], dtype=bool), held, eve) == 0.0
