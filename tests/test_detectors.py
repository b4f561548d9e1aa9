import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim.detectors import (
    ApdConfig,
    BackflashConfig,
    BlindingState,
    DetectionRecord,
    apd_detect,
    backflash_emit,
    blinding_update,
    photocurrent_monitor,
    watchdog,
)
from dprsim.optics import PulseTrain, cw_laser


def intensity_train(values) -> PulseTrain:
    return PulseTrain(np.sqrt(np.asarray(values, dtype=np.float64)).astype(np.complex128))


# ---------------------------------------------------------------------------
# Geiger mode
# ---------------------------------------------------------------------------


def test_geiger_vacuum_never_clicks():
    rec = apd_detect(PulseTrain.vacuum(8), ApdConfig(mode="geiger", click_threshold=0.5))
    assert rec["D"].click_count == 0


def test_geiger_threshold_is_strict():
    # Amplitudes 0.5, 0.75, 0.25 give exactly representable intensities
    # 0.25, 0.5625, 0.0625 against a threshold of 0.25.
    cfg = ApdConfig(mode="geiger", click_threshold=0.25)
    train = PulseTrain(np.array([0.5, 0.75, 0.25], dtype=np.complex128))
    rec = apd_detect(train, cfg)
    assert rec["D"].clicks.tolist() == [False, True, False]


def test_geiger_dead_time_blocks_following_slots():
    cfg = ApdConfig(mode="geiger", click_threshold=0.5, dead_time_slots=2)
    rec = apd_detect(cw_laser(7, 1.0), cfg)
    assert rec["D"].clicks.tolist() == [True, False, False, True, False, False, True]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=40),
    st.integers(0, 4),
)
def test_dead_time_exclusion_invariant(pattern, dead):
    cfg = ApdConfig(mode="geiger", click_threshold=0.5, dead_time_slots=dead)
    rec = apd_detect(intensity_train(pattern), cfg)
    clicked = np.nonzero(rec["D"].clicks)[0]
    assert np.all(np.diff(clicked) > dead) if clicked.size > 1 else True


def test_afterpulse_fires_in_first_live_slot():
    cfg = ApdConfig(mode="geiger", click_threshold=0.5, dead_time_slots=1, afterpulse_prob=1.0)
    rec = apd_detect(intensity_train([1.0, 0.0, 0.0, 0.0]), cfg, rng=np.random.default_rng(0))
    # Click at 0, dead at 1, certain afterpulse at 2, dead at 3.
    assert rec["D"].clicks.tolist() == [True, False, True, False]


@pytest.mark.parametrize(
    "cfg, intensities",
    [
        (ApdConfig(mode="geiger", click_threshold=0.5, dark_count_prob=0.1), [1.0, 0.0]),
        (ApdConfig(mode="geiger", click_threshold=0.5, afterpulse_prob=0.1), [1.0, 0.0]),
        (ApdConfig(mode="linear", p_never=0.2, p_always=0.4), [0.3]),
    ],
)
def test_random_clicks_need_an_rng(cfg, intensities):
    with pytest.raises(ValueError, match="rng"):
        apd_detect(intensity_train(intensities), cfg)


def test_avalanche_intensity_tracks_click_slots():
    cfg = ApdConfig(mode="geiger", click_threshold=0.5)
    rec = apd_detect(intensity_train([1.0, 0.0, 2.0]), cfg)
    np.testing.assert_allclose(rec["D"].avalanche_intensity, [1.0, 2.0])


# ---------------------------------------------------------------------------
# Linear mode
# ---------------------------------------------------------------------------


def test_linear_rails_are_deterministic():
    cfg = ApdConfig(mode="linear", p_never=0.2, p_always=0.4)
    for _ in range(50):
        rec = apd_detect(intensity_train([0.4, 0.2, 0.41, 0.19]), cfg)
        assert rec["D"].clicks.tolist() == [True, False, True, False]


def test_linear_interpolates_between_rails():
    cfg = ApdConfig(mode="linear", p_never=0.2, p_always=0.4)
    midpoint = intensity_train([0.3] * 10_000)
    rec = apd_detect(midpoint, cfg, rng=np.random.default_rng(42))
    # Bernoulli(0.5): 3 sigma over 10k trials is +-150.
    assert abs(rec["D"].click_count - 5000) < 150


def test_linear_mode_trace_labels():
    cfg = ApdConfig(mode="linear", p_never=0.2, p_always=0.4)
    rec = apd_detect(intensity_train([0.4]), cfg)
    assert rec["D"].mode_labels() == ["linear"]


# ---------------------------------------------------------------------------
# Blinding dynamics
# ---------------------------------------------------------------------------


def test_no_illumination_stays_geiger():
    state = BlindingState(0.0, 0.5, 1.0)
    _, linear = blinding_update(state, np.zeros(20))
    assert not linear.any()


def test_sustained_illumination_converges_to_blinded_fixed_point():
    decay, threshold = 0.8, 1.0
    level = threshold / (1.0 - decay)
    state = BlindingState(0.0, decay, threshold)
    new_state, linear = blinding_update(state, np.full(200, level))
    fixed_point = level / (1.0 - decay)
    assert new_state.stored_photocurrent == pytest.approx(fixed_point, rel=1e-9)
    assert fixed_point >= threshold
    assert linear[-1]


def test_single_bright_pulse_blinds_for_log2_slots():
    # 10x threshold with decay 1/2: stored = 10, 5, 2.5, 1.25, 0.625 ...
    # so the detector is linear for ceil(log2(10)) = 4 slots.
    state = BlindingState(0.0, 0.5, 1.0)
    incident = np.zeros(10)
    incident[0] = 10.0
    _, linear = blinding_update(state, incident)
    assert int(linear.sum()) == 4
    assert linear[:4].all() and not linear[4:].any()


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(1.0, 10.0), st.floats(0.2, 0.9))
def test_blinded_period_monotone_in_pulse_energy(energy, extra, decay):
    def blinded_slots(e):
        incident = np.zeros(64)
        incident[0] = e
        _, linear = blinding_update(BlindingState(0.0, decay, 1.0), incident)
        return int(linear.sum())

    assert blinded_slots(energy + extra) >= blinded_slots(energy)


def test_apd_detect_blinding_transition():
    # Bright background for 4 slots, then dark: the detector drops back to
    # Geiger only after the stored current decays below threshold.
    cfg = ApdConfig(mode="geiger", click_threshold=0.5, p_never=0.2, p_always=0.4)
    background = np.array([10.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rec = apd_detect(PulseTrain.vacuum(10), cfg, blind=BlindingState(0.0, 0.5, 1.0), background=background)
    trace = rec["D"]
    assert trace.linear_mode[:4].all()
    assert not trace.linear_mode[-1]
    assert trace.photocurrent[0] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Backflash emission
# ---------------------------------------------------------------------------


def test_backflash_ideal_copies_every_clicked_slot():
    incident = cw_laser(6, 1.0)
    rec = apd_detect(incident, ApdConfig(mode="geiger", click_threshold=0.5))
    out = backflash_emit(rec, incident, BackflashConfig(ideal_mode=True, emission_gain=0.5))
    np.testing.assert_allclose(out.slots, 0.5 * incident.slots)


def test_backflash_no_clicks_is_vacuum():
    incident = cw_laser(6, 1.0)
    rec = apd_detect(PulseTrain.vacuum(6), ApdConfig(mode="geiger", click_threshold=0.5))
    out = backflash_emit(rec, incident, BackflashConfig(ideal_mode=True))
    assert out.total_power == 0.0


def test_backflash_default_probability_value():
    assert BackflashConfig().emission_probability == pytest.approx(0.0648)


def test_backflash_statistics_converge_to_emission_probability():
    n = 100_000
    incident = cw_laser(n, 1.0)
    rec = apd_detect(incident, ApdConfig(mode="geiger", click_threshold=0.5))
    cfg = BackflashConfig()
    out = backflash_emit(rec, incident, cfg, rng=np.random.default_rng(7))
    emitted = int(np.sum(out.intensities > 0))
    p = cfg.emission_probability
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(emitted / n - p) < 3 * sigma


def test_backflash_below_certainty_needs_an_rng():
    incident = cw_laser(6, 1.0)
    rec = apd_detect(incident, ApdConfig(mode="geiger", click_threshold=0.5))
    with pytest.raises(ValueError, match="rng"):
        backflash_emit(rec, incident, BackflashConfig())


def test_backflash_length_mismatch_rejected():
    incident = cw_laser(6, 1.0)
    rec = apd_detect(incident, ApdConfig(mode="geiger", click_threshold=0.5))
    with pytest.raises(ValueError):
        backflash_emit(rec, cw_laser(5, 1.0), BackflashConfig())


# ---------------------------------------------------------------------------
# Countermeasure monitors
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(1, 40))
def test_monitor_constant_current_alarm_iff_at_threshold(c4, window, threshold4):
    # Quarter-integer currents keep the boxcar mean exactly representable, so
    # the equality boundary of the threshold comparison is meaningful.
    c, threshold = c4 / 4.0, threshold4 / 4.0
    result = photocurrent_monitor(np.full(50, c), window, threshold)
    assert result.alarm == (c >= threshold)


def test_monitor_ignores_sparse_pulses_as_high_frequency_noise():
    trace = np.zeros(64)
    trace[::16] = 8.0
    result = photocurrent_monitor(trace, 16, 1.0)
    assert not result.alarm
    assert photocurrent_monitor(np.full(64, 8.0), 16, 1.0).alarm


def test_monitor_rejects_empty_trace():
    with pytest.raises(ValueError):
        photocurrent_monitor(np.array([]), 4, 1.0)


def test_monitor_zero_trace_silent():
    assert not photocurrent_monitor(np.zeros(16), 4, 0.5).alarm


def test_watchdog_alarms_on_bright_probe():
    probe = cw_laser(4, 10.0)
    result = watchdog(probe, 0.1, 5.0)
    assert result.alarm


def test_watchdog_passes_weak_signal():
    weak = cw_laser(4, 0.1)
    result = watchdog(weak, 0.1, 5.0)
    assert not result.alarm


def test_record_merge_rejects_duplicates():
    rec = apd_detect(cw_laser(2, 1.0), ApdConfig(mode="geiger", click_threshold=0.5), "D1")
    with pytest.raises(ValueError):
        DetectionRecord.merged(rec, rec)
