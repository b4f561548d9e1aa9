
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim.optics import (
    _V_PI_RF,
    PulseTrain,
    attenuate,
    coupler_2x2,
    cw_laser,
    dli,
    mzm_transfer,
    phase_modulator,
    pulse_carver,
)

from _oracles import brute_force_dli_ports

QUARTER_PHASES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)


def unit_train(n=4, amplitude=1.0):
    return cw_laser(n, amplitude)


# ---------------------------------------------------------------------------
# PulseTrain basics
# ---------------------------------------------------------------------------


def test_pulse_train_rejects_bad_grid():
    with pytest.raises(ValueError):
        PulseTrain(np.ones((2, 3)))
    with pytest.raises(ValueError):
        PulseTrain(np.array([1.0, np.inf]))


def test_public_pulse_train_copies_caller_data_and_rejects_nan():
    data = np.array([1.0 + 0j, 0.5j])
    train = PulseTrain(data)
    data[0] = 7.0
    assert train.slots[0] == 1.0 + 0j
    assert not train.slots.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        PulseTrain(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        PulseTrain([complex(0.0, np.nan)])


def test_cw_laser_contract():
    train = cw_laser(5, 1.0)
    assert len(train) == 5
    np.testing.assert_allclose(train.intensities, np.ones(5))


# ---------------------------------------------------------------------------
# Mach-Zehnder modulator
# ---------------------------------------------------------------------------


def test_mzm_identity_at_zero_drive():
    train = unit_train()
    out = mzm_transfer(train, np.zeros(4), -np.zeros(4))
    np.testing.assert_allclose(out.slots, train.slots, atol=1e-15)


def test_mzm_common_full_pi_drive_flips_sign():
    train = unit_train()
    out = mzm_transfer(train, np.full(4, _V_PI_RF), np.full(4, _V_PI_RF))
    np.testing.assert_allclose(out.slots, -train.slots, atol=1e-12)


def test_mzm_balanced_half_pi_drive_extinguishes():
    train = unit_train()
    out = mzm_transfer(train, np.full(4, _V_PI_RF / 2), np.full(4, -_V_PI_RF / 2))
    np.testing.assert_allclose(np.abs(out.slots), 0.0, atol=1e-12)


def test_mzm_drive_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mzm_transfer(unit_train(4), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        mzm_transfer(unit_train(4), np.zeros(4), np.zeros(5))


def test_mzm_non_finite_drive_rejected():
    with pytest.raises(ValueError, match="finite"):
        mzm_transfer(unit_train(2), np.array([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        phase_modulator(unit_train(2), [0.0, np.inf])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
def test_mzm_periodic_in_two_v_pi(voltages):
    train = cw_laser(len(voltages), 1.0)
    v = np.array(voltages)
    base = mzm_transfer(train, v, v)
    shifted = mzm_transfer(train, v + 2.0 * _V_PI_RF, v + 2.0 * _V_PI_RF)
    np.testing.assert_allclose(shifted.slots, base.slots, atol=1e-12)


def test_pulse_carver_occupancy():
    train = unit_train(4)
    out = pulse_carver(train, [1, 0, 1, 0])
    np.testing.assert_allclose(out.intensities, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    # A carved pulse keeps its phase; an extinguished slot leaves a residue far
    # below any click threshold.
    np.testing.assert_array_equal(out.slots[[0, 2]], train.slots[[0, 2]])
    assert np.all(out.intensities[[1, 3]] < 1e-30)


def test_phase_modulator_preserves_amplitude():
    out = phase_modulator(unit_train(3), [0.0, np.pi / 2, np.pi])
    np.testing.assert_allclose(out.intensities, np.ones(3), atol=1e-12)
    np.testing.assert_allclose(np.angle(out.slots[1]), np.pi / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# Couplers, delays, attenuator
# ---------------------------------------------------------------------------


def test_coupler_50_50_splits_single_pulse():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    out_a, out_b = coupler_2x2(pulse, 0.5)
    assert out_a.intensities[0] == pytest.approx(0.5)
    assert out_b.intensities[0] == pytest.approx(0.5)


def test_coupler_90_10_split():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    out_a, out_b = coupler_2x2(pulse, 0.9)
    assert out_a.intensities[0] == pytest.approx(0.9)
    assert out_b.intensities[0] == pytest.approx(0.1)


complex_slot = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t))


@settings(max_examples=100, deadline=None)
@given(st.lists(complex_slot, min_size=1, max_size=12), st.floats(0, 1))
def test_coupler_conserves_power(a, t):
    # Slot by slot: the through port carries t of the input power, the cross port the rest.
    in_a = PulseTrain(np.array(a))
    out_a, out_b = coupler_2x2(in_a, t)
    np.testing.assert_allclose(out_a.intensities, t * in_a.intensities, atol=1e-12)
    np.testing.assert_allclose(out_a.intensities + out_b.intensities, in_a.intensities, atol=1e-12)


def test_delay_line_identity_and_shift():
    # The DLI's cross arm is its delay line: a lone pulse leaves each port at
    # its own slot and again one slot later, and the ports grow by one slot.
    pulse = PulseTrain(np.array([1.0 + 0j, 0.0]))
    for port in dli(pulse):
        np.testing.assert_allclose(port.intensities, [0.25, 0.25, 0.0], atol=1e-15)


def test_attenuate():
    train = unit_train(2)
    np.testing.assert_allclose(attenuate(train, 0.0).slots, train.slots)
    assert attenuate(train, 20.0).intensities[0] == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# Delay-line interferometer
# ---------------------------------------------------------------------------


def test_dli_uniform_train_exits_constructive_port():
    train = unit_train(6)
    constructive, destructive = dli(train)
    np.testing.assert_allclose(constructive.intensities[1:6], np.ones(5), atol=1e-12)
    np.testing.assert_allclose(destructive.intensities[1:6], np.zeros(5), atol=1e-12)


def test_dli_alternating_phases_exit_destructive_port():
    phases = np.array([0.0, np.pi, 0.0, np.pi])
    train = phase_modulator(unit_train(4), phases)
    constructive, destructive = dli(train)
    np.testing.assert_allclose(destructive.intensities[1:4], np.ones(3), atol=1e-12)
    np.testing.assert_allclose(constructive.intensities[1:4], np.zeros(3), atol=1e-12)


def test_dli_single_pulse_splits_half_per_port():
    pulse = PulseTrain(np.array([1.0 + 0j]))
    constructive, destructive = dli(pulse)
    np.testing.assert_allclose(constructive.intensities, [0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, [0.25, 0.25], atol=1e-12)
    assert constructive.intensities.sum() == pytest.approx(0.5, abs=1e-12)
    assert destructive.intensities.sum() == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0]), st.sampled_from(QUARTER_PHASES)),
        min_size=1,
        max_size=32,
    ),
)
def test_dli_matches_slot_by_slot_oracle(slots):
    amps = np.array([a * np.exp(1j * ph) for a, ph in slots])
    train = PulseTrain(amps)
    constructive, destructive = dli(train)
    oracle_c, oracle_d = brute_force_dli_ports(amps)
    np.testing.assert_allclose(constructive.intensities, oracle_c, atol=1e-12)
    np.testing.assert_allclose(destructive.intensities, oracle_d, atol=1e-12)
    # Lossless composition: both ports together carry the input power.
    total = constructive.intensities.sum() + destructive.intensities.sum()
    assert total == pytest.approx(train.intensities.sum(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(complex_slot, min_size=1, max_size=16))
def test_delay_and_circulator_preserve_power(slots):
    # The DLI's delay line loses no power: its two ports carry all of any input.
    train = PulseTrain(np.array(slots))
    constructive, destructive = dli(train)
    total = constructive.intensities.sum() + destructive.intensities.sum()
    assert total == pytest.approx(train.intensities.sum(), abs=1e-12)

