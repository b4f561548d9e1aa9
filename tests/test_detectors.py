import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim import detectors
from dprsim.detectors import (
    DetectorTrace,
    PhotocurrentMonitor,
    apd_detect,
    backflash_emit,
    watchdog,
)
from dprsim.config import BackflashSettings, BlindingSettings, DetectorSettings
from dprsim.optics import PulseTrain, cw_laser

from _oracles import boxcar_concatenate, coded, detected_intensity_dense, monitor_alarm_whole

# A detector with no dead time, afterpulses or dark counts, and its
# linear-mode rails (p_never, p_always).
IDEAL = DetectorSettings()
RAILS = (0.2, 0.4)
# Blinding light at the blind threshold on every slot holds the stored
# current at or above it, so the detector is in linear mode throughout.
BLIND = BlindingSettings(style="cw", illumination_level=1.0, decay_per_slot=0.5, blind_threshold=1.0)


def power(values) -> np.ndarray:
    """Per-slot incident intensities, as a detector takes them."""
    return np.asarray(values, dtype=np.float64)


def detect(intensity, *args, **kwargs):
    """``apd_detect`` of per-slot intensities, coded as the receiver codes a line."""
    return apd_detect(*coded(intensity), *args, **kwargs)


def held_blind(intensity: np.ndarray, rng=None):
    """A detector held in linear mode, as blinding light holds Bob's."""
    return detect(intensity, 0.5, RAILS, IDEAL, blinding=BLIND, rng=rng)


# ---------------------------------------------------------------------------
# Geiger mode
# ---------------------------------------------------------------------------


def test_geiger_vacuum_never_clicks():
    rec = detect(np.zeros(8), 0.5, RAILS, IDEAL)
    assert rec["D"].click_count == 0


def test_geiger_threshold_is_strict():
    # Amplitudes 0.5, 0.75, 0.25 give exactly representable intensities
    # 0.25, 0.5625, 0.0625 against a threshold of 0.25.
    train = PulseTrain(np.array([0.5, 0.75, 0.25], dtype=np.complex128))
    rec = detect(train.intensities, 0.25, RAILS, IDEAL)
    assert rec["D"].clicks.tolist() == [False, True, False]


def test_geiger_dead_time_blocks_following_slots():
    rec = detect(np.ones(7), 0.5, RAILS, DetectorSettings(dead_time_slots=2))
    assert rec["D"].clicks.tolist() == [True, False, False, True, False, False, True]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=40),
    st.integers(0, 4),
)
def test_dead_time_exclusion_invariant(pattern, dead):
    rec = detect(power(pattern), 0.5, RAILS, DetectorSettings(dead_time_slots=dead))
    clicked = np.nonzero(rec["D"].clicks)[0]
    assert np.all(np.diff(clicked) > dead) if clicked.size > 1 else True


def test_afterpulse_fires_in_first_live_slot():
    detector = DetectorSettings(dead_time_slots=1, afterpulse_prob=1.0)
    rec = detect(power([1.0, 0.0, 0.0, 0.0]), 0.5, RAILS, detector, rng=np.random.default_rng(0))
    # Click at 0, dead at 1, certain afterpulse at 2, dead at 3.
    assert rec["D"].clicks.tolist() == [True, False, True, False]


def test_dark_counts_without_afterpulses_draw_once_per_live_subthreshold_slot():
    dead = 2
    detector = DetectorSettings(dead_time_slots=dead, dark_count_prob=0.3)
    pattern = np.random.default_rng(1).choice([0.0, 1.0], size=200, p=[0.7, 0.3])
    rng = np.random.default_rng(7)
    clicks = detect(power(pattern), 0.5, RAILS, detector, rng=rng)["D"].clicks
    draws, live_from = 0, 0
    for k, fired in enumerate(clicks):
        if k < live_from:
            continue
        draws += pattern[k] <= 0.5
        if fired:
            live_from = k + 1 + dead
    assert 0 < clicks.sum() < draws
    fresh = np.random.default_rng(7)
    fresh.random(draws)
    assert rng.random() == fresh.random()


@pytest.mark.parametrize(
    "cfg, intensities",
    [
        ((DetectorSettings(dark_count_prob=0.1), None), [1.0, 0.0]),
        ((DetectorSettings(afterpulse_prob=0.1), None), [1.0, 0.0]),
        ((IDEAL, BLIND), [0.3]),
    ],
)
def test_random_clicks_need_an_rng(cfg, intensities):
    (detector, blinding), intensity = cfg, power(intensities)
    with pytest.raises(ValueError, match="rng"):
        detect(intensity, 0.5, RAILS, detector, blinding=blinding)


def test_detected_intensity_sums_the_click_slots():
    rec = detect(power([1.0, 0.0, 2.0]), 0.5, RAILS, IDEAL)
    assert rec["D"].detected_intensity == 3.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1e300)), max_size=60), st.sampled_from([None, False, True]))
def test_detected_intensity_sums_as_the_mask(slots, every):
    # The clicked values are those of the boolean mask, in slot order, so
    # the sum over them is the same to the bit.
    clicks = np.array([c if every is None else every for c, _ in slots], dtype=bool)
    intensity = np.array([x for _, x in slots], dtype=np.float64)
    trace = DetectorTrace(clicks, *coded(intensity), np.zeros(clicks.size, dtype=bool))
    assert trace.detected_intensity.hex() == float(np.sum(intensity[clicks])).hex()
    assert trace.detected_intensity.hex() == detected_intensity_dense(trace).hex()


def _near_the_splits(block: int) -> list[int]:
    """Click counts on and one off the multiples of ``block`` and the split
    points of numpy's pairwise sum above it."""
    counts = {0, 1}
    for k in (1, 2, 3, 4):
        n = k * block
        counts |= {n - 1, n, n + 1}
    # Where the first half of a split reaches ``block``: from ``2 * block`` to ``2 * block + 15``.
    counts |= {2 * block + 15, 2 * block + 16, 4 * block + 15, 4 * block + 16}
    return sorted(counts)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([None, 1, 3, 300]), st.booleans())
def test_detected_intensity_matches_the_dense_sum_across_the_splits(data, n_levels, one_level):
    # Numpy splits a sum of more than 128 floats pairwise; the trace splits
    # its clicks the same way above ``_SUM_BLOCK`` and gathers each leaf, or,
    # where every click is at one level of several, sums each leaf's length.
    n_clicks = data.draw(st.sampled_from(_near_the_splits(detectors._SUM_BLOCK)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_slots = n_clicks + data.draw(st.integers(0, 3 * detectors._SUM_BLOCK))
    clicks = np.zeros(n_slots, dtype=bool)
    clicks[rng.choice(n_slots, n_clicks, replace=False)] = True
    scale = rng.choice([1e-12, 1.0, 1e12], n_slots)
    intensity = rng.random(n_slots) * scale if n_levels is None else rng.random(n_levels)[rng.integers(0, n_levels, n_slots)]
    if one_level and n_slots:
        intensity[clicks] = intensity[0]
    trace = DetectorTrace(clicks, *coded(intensity), np.zeros(n_slots, dtype=bool))
    assert trace.detected_intensity.hex() == detected_intensity_dense(trace).hex()


# ---------------------------------------------------------------------------
# Linear mode
# ---------------------------------------------------------------------------


def test_linear_rails_are_deterministic():
    # Every intensity lies below the Geiger threshold of 0.5: the rails alone decide.
    for _ in range(50):
        rec = held_blind(power([0.4, 0.2, 0.41, 0.19]))
        assert rec["D"].clicks.tolist() == [True, False, True, False]


def test_linear_interpolates_between_rails():
    midpoint = power([0.3] * 10_000)
    rec = held_blind(midpoint, rng=np.random.default_rng(42))
    # Bernoulli(0.5): 3 sigma over 10k trials is +-150.
    assert abs(rec["D"].click_count - 5000) < 150


def test_linear_mode_trace_labels():
    rec = held_blind(power([0.4]))
    assert rec["D"].linear_mode.tolist() == [True]


# ---------------------------------------------------------------------------
# Blinding dynamics
# ---------------------------------------------------------------------------


def blinded(blinding: BlindingSettings, n_slots: int, signal=None):
    """A signal port, dark unless ``signal`` gives its intensities, lit by
    the light of ``blinding``: the detector's per-slot linear-mode trace and
    its stored photocurrent."""
    signal = np.zeros(n_slots) if signal is None else power(signal)
    trace = detect(signal, 0.5, RAILS, IDEAL, blinding=blinding)["D"]
    return trace.linear_mode, trace.photocurrent(blinding)


def flash(level: float, decay: float = 0.5) -> BlindingSettings:
    """Pulsed light of ``level`` whose period outlasts the tests' ports: one
    pulse, at slot 0."""
    return BlindingSettings(
        illumination_level=level, pulse_period_slots=1000, decay_per_slot=decay, blind_threshold=1.0
    )


def test_dim_illumination_stays_geiger():
    # Continuous light whose fixed point, level / (1 - decay) = 0.8, sits
    # below the blind threshold never blinds the detector.
    blinding = BlindingSettings(style="cw", illumination_level=0.4, decay_per_slot=0.5, blind_threshold=1.0)
    linear, stored = blinded(blinding, 200)
    assert not linear.any()
    assert stored[-1] == pytest.approx(0.8, rel=1e-9)


def test_sustained_illumination_converges_to_blinded_fixed_point():
    decay, threshold = 0.8, 1.0
    level = threshold / (1.0 - decay)
    blinding = BlindingSettings(style="cw", illumination_level=level, decay_per_slot=decay, blind_threshold=threshold)
    linear, stored = blinded(blinding, 200)
    fixed_point = level / (1.0 - decay)
    assert stored[-1] == pytest.approx(fixed_point, rel=1e-9)
    assert fixed_point >= threshold
    assert linear[-1]


def test_pulsed_illumination_lights_every_period_from_slot_0():
    # Exactly representable: each pulse of 8 decays to 4, 2, 1, 0.5 before
    # the next lands on it, and the current settles to 8 + 0.5 + ... .
    blinding = BlindingSettings(illumination_level=8.0, pulse_period_slots=5, decay_per_slot=0.5, blind_threshold=1.0)
    linear, stored = blinded(blinding, 11)
    assert stored[:6].tolist() == [8.0, 4.0, 2.0, 1.0, 0.5, 8.25]
    assert linear.tolist() == [True, True, True, True, False] * 2 + [True]


def test_single_bright_pulse_blinds_for_log2_slots():
    # 10x threshold with decay 1/2: stored = 10, 5, 2.5, 1.25, 0.625 ...
    # so the detector is linear for ceil(log2(10)) = 4 slots.
    linear, _ = blinded(flash(10.0), 10)
    assert int(linear.sum()) == 4
    assert linear[:4].all() and not linear[4:].any()


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(1.0, 10.0), st.floats(0.2, 0.9))
def test_blinded_period_monotone_in_pulse_energy(energy, extra, decay):
    def blinded_slots(e):
        linear, _ = blinded(flash(e, decay), 64)
        return int(linear.sum())

    assert blinded_slots(energy + extra) >= blinded_slots(energy)


def test_apd_detect_blinding_transition():
    # Bright signal for 4 slots, then dark, under a dim flash at slot 0: the
    # stored current integrates the signal too, and the detector drops back
    # to Geiger only after it decays below threshold.
    linear, stored = blinded(flash(0.5), 10, [10.0] * 4 + [0.0] * 6)
    assert linear[:4].all()
    assert not linear[-1]
    assert stored[0] == 10.5


def test_photocurrent_is_derived_not_kept():
    # The trace keeps no photocurrent: without blinding it is the intensity,
    # and under blinding the stored current that the trace's intensity and
    # the blinding settings give.
    trace = detect(np.ones(4), 0.5, RAILS, IDEAL, blinding=BLIND)["D"]
    assert "photocurrent" not in [f.name for f in dataclasses.fields(trace)]
    assert trace.photocurrent(None).tolist() == [1.0] * 4
    assert trace.photocurrent(BLIND).tolist() == [2.0, 3.0, 3.5, 3.75]


# ---------------------------------------------------------------------------
# Backflash emission
# ---------------------------------------------------------------------------


def test_backflash_ideal_copies_every_clicked_slot():
    # Each click re-emits gain squared times the intensity it detected, and
    # Eve's replica clicks where that exceeds her threshold: at threshold 0
    # on every clicked slot, and exactly above each emitted value (0.25, 0.5,
    # 0.1875, 0.25) as the threshold sits on it or one ulp below it.  The
    # slots under the click threshold stay dark.
    rec = detect(power([1.0, 0.25, 2.0, 0.75, 0.0, 1.0]), 0.5, RAILS, IDEAL)
    cfg = BackflashSettings(ideal=True, emission_gain=0.5)
    emitted = {0: 0.25, 2: 0.5, 3: 0.1875, 5: 0.25}
    assert np.flatnonzero(backflash_emit(rec["D"], cfg, 0.0)).tolist() == [0, 2, 3, 5]
    for value in emitted.values():
        for threshold in (value, np.nextafter(value, 0.0)):
            replica = backflash_emit(rec["D"], cfg, threshold)
            assert replica.dtype == bool and replica.shape == (6,)
            assert np.flatnonzero(replica).tolist() == [k for k, v in emitted.items() if v > threshold]


def test_backflash_no_clicks_is_vacuum():
    rec = detect(np.zeros(6), 0.5, RAILS, IDEAL)
    replica = backflash_emit(rec["D"], BackflashSettings(ideal=True), 0.0)
    assert replica.shape == (6,) and not replica.any()


def test_backflash_default_probability_value():
    assert BackflashSettings().emission_probability == pytest.approx(0.0648)


def test_backflash_statistics_converge_to_emission_probability():
    n = 100_000
    rec = detect(np.ones(n), 0.5, RAILS, IDEAL)
    cfg = BackflashSettings()
    # Every emission is exactly 1.0: a replica threshold one ulp below it
    # sees them all, and one on it sees none.
    replica = backflash_emit(rec["D"], cfg, np.nextafter(1.0, 0.0), rng=np.random.default_rng(7))
    assert not backflash_emit(rec["D"], cfg, 1.0, rng=np.random.default_rng(7)).any()
    p = cfg.emission_probability
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(replica.sum() / n - p) < 3 * sigma


# ---------------------------------------------------------------------------
# Countermeasure monitors
# ---------------------------------------------------------------------------


def monitor_alarm(current, window: int, threshold: float, cuts=()) -> bool:
    """The alarm of a photocurrent monitor fed ``current`` in blocks cut at
    the slots ``cuts``, as a blinded detector feeds it."""
    monitor = PhotocurrentMonitor(window, threshold)
    for block in np.split(np.asarray(current, dtype=np.float64), sorted(cuts)):
        monitor.update(block)
    return monitor.alarm


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(1, 40), st.lists(st.integers(0, 50), max_size=3))
def test_monitor_constant_current_alarm_iff_at_threshold(c4, window, threshold4, cuts):
    # Quarter-integer currents keep the boxcar mean exactly representable, so
    # the equality boundary of the threshold comparison is meaningful.
    c, threshold = c4 / 4.0, threshold4 / 4.0
    assert monitor_alarm(np.full(50, c), window, threshold, cuts) == (c >= threshold)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=80),
    st.integers(1, 90),
    st.floats(0.0, 1e6),
    st.lists(st.integers(0, 80), max_size=4),
    st.data(),
)
def test_monitor_filters_as_the_concatenated_running_sum(currents, window, threshold, cuts, data):
    # Fed in blocks, the monitor filters as one running sum over the whole
    # trace, divided in place: its alarm is the boxcar oracle's, at any
    # threshold and exactly at a filtered value, where the next float up
    # no longer reaches it.
    trace = np.array(currents)
    assert monitor_alarm(trace, window, threshold, cuts) == monitor_alarm_whole(trace, window, threshold)
    filtered = boxcar_concatenate(trace, window) if trace.size >= window else np.array([np.mean(trace)])
    exact = float(filtered[data.draw(st.integers(0, filtered.size - 1))])
    assert monitor_alarm(trace, window, exact, cuts)
    above = float(np.nextafter(filtered.max(), np.inf))
    assert not monitor_alarm(trace, window, above, cuts)


def test_monitor_ignores_sparse_pulses_as_high_frequency_noise():
    trace = np.zeros(64)
    trace[::16] = 8.0
    assert not monitor_alarm(trace, 16, 1.0)
    assert monitor_alarm(np.full(64, 8.0), 16, 1.0)


def test_monitor_zero_trace_silent():
    assert not monitor_alarm(np.zeros(16), 4, 0.5)


def test_watchdog_alarms_on_bright_probe():
    probe = cw_laser(4, 10.0)
    assert watchdog(probe, 0.1, 5.0) is True


def test_watchdog_passes_weak_signal():
    weak = cw_laser(4, 0.1)
    assert watchdog(weak, 0.1, 5.0) is False

