import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim.optics import (
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

from _oracles import brute_force_dli_ports

QUARTER_PHASES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)


def unit_train(n=4, amplitude=1.0, **kw):
    return cw_laser(n, amplitude, **kw)


# ---------------------------------------------------------------------------
# PulseTrain basics
# ---------------------------------------------------------------------------


def test_pulse_train_rejects_bad_grid():
    with pytest.raises(ValueError):
        PulseTrain(np.ones(3), slot_period=0.0)
    with pytest.raises(ValueError):
        PulseTrain(np.ones(3), wavelength=-1.0)
    with pytest.raises(ValueError):
        PulseTrain(np.array([1.0, np.inf]))


def test_cw_laser_contract():
    train = cw_laser(5, 1.0, 1550.0)
    assert len(train) == 5
    assert train.wavelength == 1550.0
    np.testing.assert_allclose(train.intensities, np.ones(5))


# ---------------------------------------------------------------------------
# Mach-Zehnder modulator
# ---------------------------------------------------------------------------


def test_mzm_identity_at_zero_drive():
    train = unit_train()
    out = mzm_transfer(train, DriveProfile.balanced(np.zeros(4)))
    np.testing.assert_allclose(out.slots, train.slots, atol=1e-15)


def test_mzm_common_full_pi_drive_flips_sign():
    params = MzmParams(v_pi_rf=4.0)
    train = unit_train()
    out = mzm_transfer(train, DriveProfile.common(np.full(4, 4.0)), params)
    np.testing.assert_allclose(out.slots, -train.slots, atol=1e-12)


def test_mzm_balanced_half_pi_drive_extinguishes():
    params = MzmParams(v_pi_rf=4.0)
    train = unit_train()
    out = mzm_transfer(train, DriveProfile.balanced(np.full(4, 2.0)), params)
    np.testing.assert_allclose(np.abs(out.slots), 0.0, atol=1e-12)


def test_mzm_unnormalized_doubles_field_under_common_drive():
    params = MzmParams(normalization="unnormalized")
    out = mzm_transfer(unit_train(), DriveProfile.common(np.zeros(4)), params)
    np.testing.assert_allclose(out.slots, 2.0 * unit_train().slots)


def test_mzm_drive_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mzm_transfer(unit_train(4), DriveProfile.balanced(np.zeros(3)))


def test_mzm_non_finite_drive_rejected():
    with pytest.raises(ValueError):
        DriveProfile.common(np.array([0.0, np.nan]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
def test_mzm_periodic_in_two_v_pi(voltages):
    params = MzmParams(v_pi_rf=3.0)
    train = cw_laser(len(voltages), 1.0)
    v = np.array(voltages)
    base = mzm_transfer(train, DriveProfile.common(v), params)
    shifted = mzm_transfer(train, DriveProfile.common(v + 2.0 * params.v_pi_rf), params)
    np.testing.assert_allclose(shifted.slots, base.slots, atol=1e-12)


def test_pulse_carver_occupancy():
    train = unit_train(4)
    out = pulse_carver(train, [1, 0, 1, 0])
    np.testing.assert_allclose(out.intensities, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_phase_modulator_preserves_amplitude():
    out = phase_modulator(unit_train(3), [0.0, np.pi / 2, np.pi])
    np.testing.assert_allclose(out.intensities, np.ones(3), atol=1e-12)
    np.testing.assert_allclose(np.angle(out.slots[1]), np.pi / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# Couplers, delays, circulator, attenuator
# ---------------------------------------------------------------------------


def test_coupler_50_50_splits_single_pulse():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    out_a, out_b = coupler_2x2(pulse, pulse.vacuum_like(), CouplerRatio(0.5))
    assert out_a.intensities[0] == pytest.approx(0.5)
    assert out_b.intensities[0] == pytest.approx(0.5)


def test_coupler_90_10_split():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    out_a, out_b = coupler_2x2(pulse, pulse.vacuum_like(), CouplerRatio(0.9))
    assert out_a.intensities[0] == pytest.approx(0.9)
    assert out_b.intensities[0] == pytest.approx(0.1)


complex_slot = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(complex_slot, min_size=1, max_size=12),
    st.lists(complex_slot, min_size=1, max_size=12),
    st.floats(0, 1),
)
def test_coupler_conserves_power(a, b, t):
    in_a = PulseTrain(np.array(a))
    in_b = PulseTrain(np.array(b))
    out_a, out_b = coupler_2x2(in_a, in_b, CouplerRatio(t))
    total_in = in_a.total_power + in_b.total_power
    assert out_a.total_power + out_b.total_power == pytest.approx(total_in, abs=1e-12)


def test_coupler_rejects_channel_mix():
    a = cw_laser(2, 1.0, wavelength=1550.0)
    b = cw_laser(2, 1.0, wavelength=1000.0)
    with pytest.raises(IncompatibleTrains):
        coupler_2x2(a, b)


def test_delay_line_identity_and_shift():
    pulse = PulseTrain(np.array([1.0 + 0j, 0.0]))
    assert delay_line(pulse, 0) is pulse
    out = delay_line(pulse, 1)
    assert len(out) == 3
    np.testing.assert_allclose(out.slots, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        delay_line(pulse, -1)


def test_circulator_routing():
    alice = PulseTrain(np.array([1.0 + 0j]))
    backflash = PulseTrain(np.array([0.5 + 0j]))
    out1, out2, out3 = circulator(port1_in=alice, port2_in=backflash)
    np.testing.assert_allclose(out2.slots, alice.slots)  # toward Bob
    np.testing.assert_allclose(out3.slots, backflash.slots)  # toward Eve
    np.testing.assert_allclose(out1.slots, 0.0)
    vac = PulseTrain.vacuum(3)
    for out in circulator(vac, vac, vac):
        assert out.total_power == 0.0


def test_attenuate():
    train = unit_train(2)
    np.testing.assert_allclose(attenuate(train, 0.0).slots, train.slots)
    assert attenuate(train, 20.0).intensities[0] == pytest.approx(0.01)
    with pytest.raises(ValueError):
        attenuate(train, -1.0)


# ---------------------------------------------------------------------------
# Delay-line interferometer
# ---------------------------------------------------------------------------


def test_dli_uniform_train_exits_constructive_port():
    train = unit_train(6)
    constructive, destructive = dli(train, 1)
    np.testing.assert_allclose(constructive.intensities[1:6], np.ones(5), atol=1e-12)
    np.testing.assert_allclose(destructive.intensities[1:6], np.zeros(5), atol=1e-12)


def test_dli_alternating_phases_exit_destructive_port():
    phases = np.array([0.0, np.pi, 0.0, np.pi])
    train = phase_modulator(unit_train(4), phases)
    constructive, destructive = dli(train, 1)
    np.testing.assert_allclose(destructive.intensities[1:4], np.ones(3), atol=1e-12)
    np.testing.assert_allclose(constructive.intensities[1:4], np.zeros(3), atol=1e-12)


def test_dli_single_pulse_splits_half_per_port():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        constructive, destructive = dli(pulse, 1)
    np.testing.assert_allclose(constructive.intensities, [0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, [0.25, 0.25], atol=1e-12)
    assert constructive.total_power == pytest.approx(0.5, abs=1e-12)
    assert destructive.total_power == pytest.approx(0.5, abs=1e-12)


def test_dli_delay_beyond_train_warns():
    with pytest.warns(UserWarning):
        dli(unit_train(2), 5)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0]), st.sampled_from(QUARTER_PHASES)),
        min_size=1,
        max_size=32,
    ),
    st.integers(1, 3),
)
def test_dli_matches_slot_by_slot_oracle(slots, delay):
    amps = np.array([a * np.exp(1j * ph) for a, ph in slots])
    train = PulseTrain(amps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        constructive, destructive = dli(train, delay)
    oracle_c, oracle_d = brute_force_dli_ports(amps, delay)
    np.testing.assert_allclose(constructive.intensities, oracle_c, atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, oracle_d, atol=1e-12)
    # Lossless composition: both ports together carry the input power.
    total = constructive.total_power + destructive.total_power
    assert total == pytest.approx(train.total_power, abs=1e-12)


# ---------------------------------------------------------------------------
# Wavelength handling
# ---------------------------------------------------------------------------


def test_filter_isolates_passband_at_full_extinction():
    signal = cw_laser(3, 1.0, 1550.0)
    probe = cw_laser(3, 0.5, 1000.0)
    out = optical_filter([signal, probe], 1000.0)
    assert select_channel(out, 1000.0).total_power == pytest.approx(probe.total_power)
    assert select_channel(out, 1550.0).total_power == 0.0


def test_filter_zero_extinction_is_identity():
    signal = cw_laser(3, 1.0, 1550.0)
    probe = cw_laser(3, 0.5, 1000.0)
    out = optical_filter([signal, probe], 1000.0, extinction_db=0.0)
    np.testing.assert_allclose(select_channel(out, 1550.0).slots, signal.slots)
    np.testing.assert_allclose(select_channel(out, 1000.0).slots, probe.slots)


def test_filter_finite_extinction():
    signal = cw_laser(1, 1.0, 1550.0)
    out = optical_filter([signal], 1000.0, extinction_db=20.0)
    assert select_channel(out, 1550.0).intensities[0] == pytest.approx(0.01)
    # No channel at the passband: an empty train appears there.
    assert select_channel(out, 1000.0).total_power == 0.0


def test_select_channel_missing():
    with pytest.raises(KeyError):
        select_channel([cw_laser(1, 1.0, 1550.0)], 1000.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(complex_slot, min_size=1, max_size=16), st.integers(0, 5))
def test_delay_and_circulator_preserve_power(slots, delay):
    train = PulseTrain(np.array(slots))
    assert delay_line(train, delay).total_power == pytest.approx(train.total_power, abs=1e-12)
    outs = circulator(port1_in=train)
    assert sum(o.total_power for o in outs) == pytest.approx(train.total_power, abs=1e-12)

