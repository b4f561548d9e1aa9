import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim.attacks import (
    COW_PHASE_STEP,
    DPS_PHASE_STEP,
    WORKED_EXAMPLE_PHASES,
    WORKED_EXAMPLE_READINGS,
    BlindingThresholds,
    blinding_feasible,
    capture_fraction,
    fsg_cow_drive,
    fsg_dps_phases,
    fsg_replay_cow,
    fsg_replay_dps,
    trojan_decode,
    trojan_probe,
)
from dprsim.config import TrojanSettings
from dprsim.optics import attenuate
from dprsim.protocols import cow_occupancy, dps_reference_bits

RAILS = dict(p_never=0.2, p_always=0.39)
COW_THRESHOLDS = BlindingThresholds()

dps_readings = st.lists(st.integers(0, 2), min_size=1, max_size=12)
cow_readings = st.lists(st.integers(0, 3), min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# Faked-state generation, DPS
# ---------------------------------------------------------------------------


def test_worked_example_phase_table():
    plan = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
    assert plan.phase_units == WORKED_EXAMPLE_PHASES
    assert plan.readings_slot_offset == 0


def test_worked_example_policy_restricted_to_its_sequence():
    with pytest.raises(ValueError):
        fsg_dps_phases([0, 1, 2], n_policy="worked-example")


def test_canonical_all_constructive_readings_keep_phase_constant():
    plan = fsg_dps_phases([1] * 10)
    assert plan.phase_units == (0,) * 11


def test_canonical_plan_has_anchor_pulse():
    plan = fsg_dps_phases([2, 0, 1])
    assert len(plan) == 4
    assert plan.phase_units[0] == 0
    assert plan.readings_slot_offset == 1


@settings(max_examples=100, deadline=None)
@given(dps_readings)
def test_canonical_phase_steps_encode_the_readings(readings):
    plan = fsg_dps_phases(readings)
    steps = plan.phase_steps()
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
    plan = fsg_dps_phases(readings, launch_intensity=RAILS["p_always"])
    assert fsg_replay_dps(plan, **RAILS) == list(readings)


def test_policies_agree_on_the_worked_example():
    worked = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="worked-example")
    canonical = fsg_dps_phases(WORKED_EXAMPLE_READINGS, n_policy="canonical")
    assert fsg_replay_dps(worked, **RAILS) == list(WORKED_EXAMPLE_READINGS)
    assert fsg_replay_dps(canonical, **RAILS) == list(WORKED_EXAMPLE_READINGS)
    # Same reading, same phase-step class, wherever a step encodes it.
    worked_steps = worked.phase_steps()  # step k encodes reading k+1
    canonical_steps = canonical.phase_steps()  # step k encodes reading k
    for k, step in enumerate(worked_steps):
        assert step % 4 in _allowed_steps(WORKED_EXAMPLE_READINGS[k + 1])
    for k, step in enumerate(canonical_steps):
        assert step % 4 in _allowed_steps(WORKED_EXAMPLE_READINGS[k])


def _allowed_steps(reading):
    return {1: {0}, 2: {2}, 0: {1, 3}}[reading]


def test_fsg_rejects_invalid_reading_symbols():
    with pytest.raises(ValueError):
        fsg_dps_phases([0, 4])
    with pytest.raises(ValueError):
        fsg_dps_phases([])


# ---------------------------------------------------------------------------
# Faked-state generation, COW
# ---------------------------------------------------------------------------


def test_cow_drive_levels_symmetric_splitter():
    # With t_b = 0.5 and equal always-rails P on both families, both launch
    # levels are 2P.
    th = BlindingThresholds(p_always_b=0.39, p_never_b=0.2, p_always_m=0.39, p_never_m=0.2)
    plan = fsg_cow_drive([2, 3], 0.5, th, allow_infeasible=True)
    np.testing.assert_allclose(plan.intensity_per_slot, [0.78, 0.78, 0.78])
    plan_data = fsg_cow_drive([3], 0.5, th, allow_infeasible=True)
    assert plan_data.intensity_per_slot[1] == pytest.approx(2 * 0.39)


def test_cow_drive_rejects_infeasible_thresholds_by_default():
    bad = BlindingThresholds(p_always_m=0.39, p_never_b=0.2)  # monitor drive visible to data line
    with pytest.raises(ValueError, match="monitor_drive_hidden_from_data"):
        fsg_cow_drive([0, 1], 0.5, bad)


@settings(max_examples=100, deadline=None)
@given(cow_readings)
def test_fsg_cow_replay_reproduces_readings(readings):
    plan = fsg_cow_drive(readings, 0.5, COW_THRESHOLDS)
    assert fsg_replay_cow(plan, 0.5, COW_THRESHOLDS) == list(readings)


@settings(max_examples=60, deadline=None)
@given(cow_readings)
def test_fsg_cow_drive_never_leaks_into_silent_detectors(readings):
    from dataclasses import asdict

    from dprsim.config import DetectorSettings
    from dprsim.protocols import receive

    plan = fsg_cow_drive(readings, 0.5, COW_THRESHOLDS)
    rails = DetectorSettings(**asdict(COW_THRESHOLDS))
    record, _ = receive("cow", plan.to_train(0.5), rails, t_b=0.5, mode="linear")
    offset = plan.readings_slot_offset
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
    assert DPS_PHASE_STEP == {0: 1, 1: 0, 2: 2}  # 1 = D1 constructive
    assert COW_PHASE_STEP == {0: 1, 1: 2, 2: 0, 3: 1}  # 1 = D_M2 destructive


# ---------------------------------------------------------------------------
# Feasibility inequalities
# ---------------------------------------------------------------------------


def test_feasibility_marginal_at_exact_rail_ratio():
    th = BlindingThresholds(p_always=0.4, p_never=0.2)
    report = blinding_feasible(th, 0.5)
    assert not report.rail_gap
    assert report.marginal


def test_feasibility_strict_rail_ratio_passes():
    th = BlindingThresholds(p_always=0.39, p_never=0.2)
    report = blinding_feasible(th, 0.5)
    assert report.rail_gap
    assert not report.marginal


def test_feasibility_fails_near_unity_transmittance():
    th = BlindingThresholds(p_always_m=0.3, p_never_b=0.3)
    report = blinding_feasible(th, 0.9)
    assert not report.monitor_drive_hidden_from_data  # 9 * P >= P


def test_feasibility_default_thresholds_work_at_half_transmittance():
    assert blinding_feasible(COW_THRESHOLDS, 0.5).all_satisfied


def test_feasibility_rejects_degenerate_transmittance():
    with pytest.raises(ValueError):
        blinding_feasible(COW_THRESHOLDS, 0.0)
    with pytest.raises(ValueError):
        blinding_feasible(COW_THRESHOLDS, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 1.0),
    st.floats(0.01, 0.5),
    st.floats(0.2, 0.8),
)
def test_feasibility_monotone_in_rails(p_always, bump, t_b):
    base = BlindingThresholds(
        p_always=p_always, p_never=0.3, p_always_b=p_always, p_never_b=0.3, p_always_m=p_always, p_never_m=0.3
    )
    wider = BlindingThresholds(
        p_always=p_always, p_never=0.3 + bump, p_always_b=p_always, p_never_b=0.3 + bump,
        p_always_m=p_always, p_never_m=0.3 + bump,
    )
    narrower = BlindingThresholds(
        p_always=p_always + bump, p_never=0.3, p_always_b=p_always + bump, p_never_b=0.3,
        p_always_m=p_always + bump, p_never_m=0.3,
    )
    ok_base = blinding_feasible(base, t_b).as_dict()
    ok_wide = blinding_feasible(wider, t_b).as_dict()
    ok_narrow = blinding_feasible(narrower, t_b).as_dict()
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


def test_probe_reflects_alices_phase_sequence():
    bits = np.array([0, 1, 1, 0, 1])
    reflected = trojan_probe("dps", bits, dps_probe(), slot_period=1.0)
    assert reflected.wavelength == 1000.0
    expected = np.exp(1j * np.pi * bits)
    np.testing.assert_allclose(reflected.slots, expected, atol=1e-12)


def test_probe_decode_recovers_the_key():
    bits = np.array([0, 1, 0, 0, 1, 1, 0])
    reflected = trojan_probe("dps", bits, dps_probe(), slot_period=1.0)
    decoded = trojan_decode(reflected, "dps")
    assert decoded.tolist() == dps_reference_bits(bits).tolist()


def test_probe_timing_offset_shifts_the_decoded_key():
    bits = np.array([0, 1, 0, 0, 1, 1, 0, 1])
    aligned = trojan_decode(trojan_probe("dps", bits, dps_probe(), 1.0), "dps")
    shifted = trojan_decode(trojan_probe("dps", bits, dps_probe(timing_offset_slots=1), 1.0), "dps")
    assert shifted.tolist() != aligned.tolist()
    # The shifted profile is the same bit stream delayed by one slot with a
    # vacuum-slot lead-in, so the tail of the decoded key matches.
    shifted_profile = np.concatenate([[0], bits[:-1]])
    assert shifted.tolist() == dps_reference_bits(shifted_profile).tolist()


def test_probe_excess_loss_at_long_wavelength():
    bits = np.array([0, 1, 0])
    base = trojan_probe("dps", bits, dps_probe(), 1.0, excess_loss_db=0.0)
    lossy = trojan_probe("dps", bits, dps_probe(probe_wavelength_nm=1924.0), 1.0, excess_loss_db=20.0)
    ratio = lossy.intensities[0] / base.intensities[0]
    assert ratio == pytest.approx(0.01)


def test_probe_below_eve_sensitivity_gives_empty_estimate():
    bits = np.array([0, 1, 0])
    reflected = attenuate(trojan_probe("dps", bits, dps_probe(), 1.0), 200.0)
    decoded = trojan_decode(reflected, "dps", min_intensity=1e-15)
    assert decoded.size == 0


def test_probe_reads_cow_intensity_pattern():
    symbols = "01d10001d1"
    occ = cow_occupancy(symbols)
    reflected = trojan_probe("cow", occ, dps_probe(), slot_period=0.5)
    assert trojan_decode(reflected, "cow") == symbols


def test_probe_rejects_signal_wavelength():
    with pytest.raises(ValueError):
        trojan_probe("dps", np.array([0, 1]), dps_probe(probe_wavelength_nm=1550.0), 1.0)


# ---------------------------------------------------------------------------
# Capture bookkeeping
# ---------------------------------------------------------------------------


def test_capture_fraction_bounds_and_matching():
    slots = np.array([1, 2, 3, 4])
    bits = np.array([0, 1, 0, 1])
    assert capture_fraction(slots, bits, slots, bits) == 1.0
    assert capture_fraction(slots, bits, slots[:2], bits[:2]) == 0.5
    wrong = 1 - bits
    assert capture_fraction(slots, bits, slots, wrong) == 0.0
    assert capture_fraction(np.array([]), np.array([]), slots, bits) == 0.0
