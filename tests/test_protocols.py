from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprsim import protocols
from dprsim.config import DetectorSettings
from dprsim.detectors import DetectionRecord, DetectorTrace
from dprsim.optics import dli, phase_modulator

from _oracles import coded as coded_intensity
from dprsim.protocols import (
    VISIBILITY_CLASSES,
    cow_encode,
    cow_occupancy,
    cow_sift,
    dps_encode,
    dps_reference_bits,
    dps_sift,
    receive,
    visibility,
)

from _oracles import brute_force_cow_monitor, gathered


def codes(symbols: str) -> np.ndarray:
    """Alice's COW symbol codes: 0, 1 and 2 for "0", "1" and "d"."""
    return np.array(["01d".index(s) for s in symbols], dtype=np.int64)


REFERENCE_SYMBOLS = codes("01d10001d1")

bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64)
symbol_codes = st.text(alphabet="01d", min_size=1, max_size=24).map(codes)


# Every train here is launched at amplitude 1, so its nominal intensity is 1.
# A train is an encoder's coded pair, or one field per slot, which ``arange`` codes.
def coded(train):
    return train if isinstance(train, tuple) else (train, np.arange(len(train)))


def dps_record(train, detector=DetectorSettings()):
    return receive("dps", *coded(train), detector, 1.0)


def cow_record(train, t_b=0.9):
    return receive("cow", *coded(train), DetectorSettings(), 1.0, t_b=t_b)


def interface_classes(symbols) -> dict[int, str]:
    """Interferometer slot -> class of every interface, as :func:`visibility`
    counts them: a lone D_M1 click counts in the class of its slot, if that
    slot is an interface."""
    n = 2 * len(symbols) + 1
    silent = DetectorTrace(np.zeros(n, dtype=bool), *coded_intensity(np.zeros(n)), np.zeros(n, dtype=bool))
    out = {}
    for k in range(n):
        clicks = np.zeros(n, dtype=bool)
        clicks[k] = True
        lone = replace(silent, clicks=clicks)
        report = visibility(DetectionRecord({"D_M1": lone, "D_M2": silent}), symbols)
        hits = [cls for cls, counts in report.per_class.items() if counts.d_m1]
        assert report.overall.d_m1 == len(hits) <= 1
        if hits:
            out[k] = hits[0]
    return out


def lossless_dps(bits):
    train = dps_encode(bits)
    record = dps_record(train)
    return dps_sift(bits, record)


def test_coded_receive_runs_the_interferometer_once_per_neighbour_pair(monkeypatch):
    # An encoder's train stays coded through the receiver: the interferometer
    # sees the nine (previous, current) pairs of two fields and the vacuum,
    # two slots each, and each port holds at most nine fields, whatever the
    # train's length.  A train with more distinct fields than its port has
    # slots runs the pairs that occur.
    lengths, fields = [], []
    monkeypatch.setattr(protocols, "dli", lambda train: lengths.append(len(train)) or dli(train))
    interfere = protocols._interfere

    def ports(train, codes):
        constructive, destructive, index = interfere(train, codes)
        fields.extend((len(constructive), len(destructive)))
        return constructive, destructive, index

    monkeypatch.setattr(protocols, "_interfere", ports)
    for protocol, (train, slot_codes) in (("dps", dps_encode(np.zeros(1000))), ("cow", cow_encode(np.zeros(500)))):
        receive(protocol, train, slot_codes, DetectorSettings(), 1.0)
    assert lengths == [18, 18] and fields == [9, 9, 9, 9]
    lengths.clear()
    fields.clear()
    train = gathered(*dps_encode([0, 1, 1, 0, 1]))
    receive("dps", train, np.arange(5), DetectorSettings(), 1.0)
    assert lengths == [12] and fields == [6, 6]


# ---------------------------------------------------------------------------
# DPS encoding and measurement
# ---------------------------------------------------------------------------


def test_dps_encode_phases_follow_bits():
    train = gathered(*dps_encode([0, 1, 0, 1]))
    np.testing.assert_allclose(train.intensities, np.ones(4), atol=1e-12)
    np.testing.assert_allclose(train.slots[1], -train.slots[0], atol=1e-12)
    np.testing.assert_allclose(train.slots[2], train.slots[0], atol=1e-12)


def test_dps_equal_bits_click_constructive_detector():
    km = lossless_dps([0, 0, 0])
    d1, d2 = km.record.clicks("D1"), km.record.clicks("D2")
    assert d1[1:3].all() and not d2[1:3].any()


def test_dps_phase_flip_clicks_destructive_detector():
    record = dps_record(dps_encode([0, 1]))
    assert record.clicks("D2")[1] and not record.clicks("D1")[1]


def test_dps_edge_slots_click_both_ports_at_low_threshold_but_never_sift():
    train = dps_encode([0, 0])
    record = dps_record(train, DetectorSettings(click_threshold_rel=0.1))
    # Edge slots 0 and 2 carry quarter-intensity light at both ports.
    assert record.clicks("D1")[0] and record.clicks("D2")[0]
    km = dps_sift([0, 0], record)
    assert 0 not in km.sifted_slots and 2 not in km.sifted_slots


def test_dps_roundtrip_matches_xor_keystream():
    bits = [0, 1, 0, 1]
    km = lossless_dps(bits)
    assert km.qber == 0.0
    assert km.sifted_bob.tolist() == [1, 1, 1]
    assert km.sifted_bob.tolist() == dps_reference_bits(bits).tolist()


@settings(max_examples=100, deadline=None)
@given(bit_lists)
def test_dps_roundtrip_identity(bits):
    km = lossless_dps(bits)
    np.testing.assert_array_equal(km.sifted_bob, dps_reference_bits(bits))
    assert km.qber == 0.0
    assert km.sifted_length == len(bits) - 1


def test_dps_sift_zero_clicks_flagged():
    bits = [0, 1, 0]
    n = len(bits) + 1
    empty = DetectorTrace(
        np.zeros(n, dtype=bool),
        *coded_intensity(np.zeros(n)),
        linear_mode=np.zeros(n, dtype=bool),
    )
    record = DetectionRecord({"D1": empty, "D2": empty})
    km = dps_sift(bits, record)
    assert km.sifted_slots.size == 0 and km.sifted_alice.size == 0
    assert km.qber == 0.0
    assert km.sifted_length == 0


def test_dps_single_flipped_click_gives_qber_one_over_length():
    bits = [0] * 9
    record = dps_record(dps_encode(bits))
    flipped_d1 = record.clicks("D1").copy()
    flipped_d2 = record.clicks("D2").copy()
    flipped_d1[4], flipped_d2[4] = False, True
    tampered = DetectionRecord(
        {
            "D1": replace(record["D1"], clicks=flipped_d1),
            "D2": replace(record["D2"], clicks=flipped_d2),
        }
    )
    km = dps_sift(bits, tampered)
    assert km.qber == pytest.approx(1.0 / km.sifted_length)


@settings(max_examples=50, deadline=None)
@given(bit_lists, st.randoms(use_true_random=False))
def test_dps_discarding_clicks_never_creates_errors(bits, rnd):
    record = dps_record(dps_encode(bits))
    keep_d1 = record.clicks("D1").copy()
    keep_d2 = record.clicks("D2").copy()
    for k in range(len(keep_d1)):
        if rnd.random() < 0.3:
            keep_d1[k] = False
            keep_d2[k] = False
    thinned = DetectionRecord(
        {
            "D1": replace(record["D1"], clicks=keep_d1),
            "D2": replace(record["D2"], clicks=keep_d2),
        }
    )
    km = dps_sift(bits, thinned)
    assert km.qber == 0.0


# ---------------------------------------------------------------------------
# COW encoding and measurement
# ---------------------------------------------------------------------------


def test_cow_occupancy_convention():
    assert cow_occupancy(codes("0")).tolist() == [1, 0]
    assert cow_occupancy(codes("1")).tolist() == [0, 1]
    assert cow_occupancy(codes("d")).tolist() == [1, 1]


def test_cow_encode_reference_sequence_pulse_pattern():
    train = gathered(*cow_encode(REFERENCE_SYMBOLS))
    assert len(train) == 20
    expected = cow_occupancy(REFERENCE_SYMBOLS).astype(float)
    np.testing.assert_allclose(train.intensities, expected, atol=1e-12)


def test_cow_encode_rejects_bad_symbols():
    for bad in ([0, 1, 3], [-1], []):
        with pytest.raises(ValueError, match="0..2|nonempty"):
            cow_encode(bad)


def test_cow_measure_reference_run():
    train = cow_encode(REFERENCE_SYMBOLS)
    record = cow_record(train, t_b=0.9)
    # Data line reproduces the arrival pattern.
    occ = cow_occupancy(REFERENCE_SYMBOLS).astype(bool)
    assert record.clicks("D_B")[:20].tolist() == occ.tolist()
    # The constructive monitor detector fires exactly at the five
    # neighbouring-pulse interfaces; the destructive one stays silent.
    interface_slots = sorted(interface_classes(REFERENCE_SYMBOLS))
    assert interface_slots == [4, 5, 8, 16, 17]
    assert np.nonzero(record.clicks("D_M1"))[0].tolist() == interface_slots
    assert record["D_M2"].click_count == 0


def test_cow_interface_classes_of_reference_sequence():
    classes = interface_classes(REFERENCE_SYMBOLS)
    assert classes == {4: "d1", 5: "d", 8: "01", 16: "d1", 17: "d"}


@settings(max_examples=80, deadline=None)
@given(symbol_codes)
def test_cow_every_interface_classified(symbols):
    occ = cow_occupancy(symbols)
    adjacent = sum(1 for k in range(1, occ.size) if occ[k - 1] and occ[k])
    interfaces = interface_classes(symbols)
    assert len(interfaces) == adjacent
    assert all(cls in VISIBILITY_CLASSES for cls in interfaces.values())


@settings(max_examples=50, deadline=None)
@given(symbol_codes)
def test_cow_coherent_stream_has_unit_visibility(symbols):
    record = cow_record(cow_encode(symbols), t_b=0.9)
    assert record["D_M2"].click_count == 0
    report = visibility(record, symbols)
    for counts in report.per_class.values():
        assert counts.visibility in (None, 1.0)


def test_cow_all_decoy_stream():
    record = cow_record(cow_encode(codes("dddd")), t_b=0.9)
    report = visibility(record, codes("dddd"))
    assert record["D_M2"].click_count == 0
    assert report.per_class["d"].visibility == 1.0


def test_cow_single_data_symbol_has_no_interference():
    record = cow_record(cow_encode(codes("0")), t_b=0.9)
    report = visibility(record, codes("0"))
    assert report.overall.total == 0 and report.overall_visibility is None
    assert record.clicks("D_B").tolist() == [True, False]
    assert record["D_M1"].click_count == 0
    assert record["D_M2"].click_count == 0


# ---------------------------------------------------------------------------
# Visibility under phase tampering
# ---------------------------------------------------------------------------

TAMPER = np.array([0.0] * 5 + [np.pi] * 12 + [0.0] * 3)


def tampered_monitor(symbols=REFERENCE_SYMBOLS, phases=TAMPER, t_b=0.9):
    train = gathered(*cow_encode(symbols))
    train = phase_modulator(train, phases[: len(train)])
    return cow_record(train, t_b=t_b), train


def test_cow_tamper_gives_one_fifth_overall_visibility():
    record, _ = tampered_monitor()
    report = visibility(record, REFERENCE_SYMBOLS)
    assert report.overall.d_m1 == 3
    assert report.overall.d_m2 == 2
    assert report.overall_visibility == pytest.approx(0.2, abs=1e-12)
    # The flipped interfaces are the two decoy-internal pairs straddling the
    # tamper boundaries; the cross-symbol pairs stay coherent.
    counts = {s: (c.d_m1, c.d_m2) for s, c in report.per_class.items() if c.total}
    assert counts == {"d": (0, 2), "01": (1, 0), "d1": (2, 0)}


def test_cow_tamper_matches_brute_force_oracle():
    record, _ = tampered_monitor()
    m1, m2 = brute_force_cow_monitor(cow_occupancy(REFERENCE_SYMBOLS), TAMPER, 1.0, 0.9)
    assert record.clicks("D_M1").tolist() == m1
    assert record.clicks("D_M2").tolist() == m2


def test_cow_balanced_counts_give_zero_visibility():
    phases = np.array([0.0, 0.0, np.pi, np.pi, np.pi, np.pi, np.pi, np.pi])
    record, _ = tampered_monitor(codes("1010"), phases)
    report = visibility(record, codes("1010"))
    assert report.overall.d_m1 == 1 and report.overall.d_m2 == 1
    assert report.overall_visibility == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 2 * np.pi))
def test_cow_visibility_invariant_under_global_phase(global_phase):
    train, slot_codes = cow_encode(REFERENCE_SYMBOLS)
    rotated = train.with_slots(train.slots * np.exp(1j * global_phase)), slot_codes
    report = visibility(cow_record(rotated, t_b=0.9), REFERENCE_SYMBOLS)
    assert report.overall_visibility == 1.0
    assert 0.0 <= report.overall_visibility <= 1.0


# ---------------------------------------------------------------------------
# COW sifting
# ---------------------------------------------------------------------------


def test_cow_sift_reference_run():
    record = cow_record(cow_encode(REFERENCE_SYMBOLS), t_b=0.9)
    report = visibility(record, REFERENCE_SYMBOLS)
    km = cow_sift(REFERENCE_SYMBOLS, record, report)
    # Decoys at symbols 2 and 8 are dropped.
    assert km.sifted_slots.tolist() == [0, 1, 3, 4, 5, 6, 7, 9]
    assert "".join(str(int(b)) for b in km.sifted_bob) == "01100011"
    assert km.qber == 0.0
    assert km.visibility_report is report


def test_cow_sift_decoy_only_stream_is_empty():
    record = cow_record(cow_encode(codes("ddd")), t_b=0.9)
    km = cow_sift(codes("ddd"), record)
    assert km.sifted_length == 0
    assert km.qber == 0.0


def test_cow_sift_wrong_half_slot_click_gives_one_error():
    record = cow_record(cow_encode(REFERENCE_SYMBOLS), t_b=0.9)
    clicks = record.clicks("D_B").copy()
    # Move the first data symbol's click from the early to the late half-slot.
    assert clicks[0] and not clicks[1]
    clicks[0], clicks[1] = False, True
    tampered = DetectionRecord({"D_B": replace(record["D_B"], clicks=clicks)})
    km = cow_sift(REFERENCE_SYMBOLS, tampered)
    assert km.qber == pytest.approx(1.0 / 8.0)


def test_cow_sift_double_half_slot_counts_as_error():
    record = cow_record(cow_encode(codes("00")), t_b=0.9)
    clicks = record.clicks("D_B").copy()
    clicks[1] = True  # both half-slots of the first symbol now click
    tampered = DetectionRecord({"D_B": replace(record["D_B"], clicks=clicks)})
    km = cow_sift(codes("00"), tampered)
    # The inconsistent first symbol is kept as an error.
    assert km.sifted_slots.tolist() == [0, 1]
    assert km.sifted_alice.tolist() == [0, 0]
    assert km.sifted_bob.tolist() == [1, 0]
    assert km.qber == pytest.approx(0.5)
