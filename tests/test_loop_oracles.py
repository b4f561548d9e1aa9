"""Whole-array code against the per-slot loops it replaced (``tests/_oracles.py``)."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dprsim.attacks import (
    WORKED_EXAMPLE_PHASES,
    capture_fraction,
    decode_cow_readings,
    decode_dps_readings,
    fsg_cow_drive,
    fsg_dps_phases,
    trojan_decode,
    trojan_probe,
)
from dprsim.config import (
    BLINDING_STYLES,
    WORKED_EXAMPLE_READINGS,
    BackflashSettings,
    BlindingSettings,
    DetectorSettings,
    TrojanSettings,
    scenario_from_dict,
)
from dprsim import attacks, detectors, scenario
from dprsim.detectors import (
    DetectionRecord,
    DetectorTrace,
    PhotocurrentMonitor,
    _decay_loop,
    _decay_scan,
    _stored_current,
    apd_detect,
    backflash_emit,
)
from dprsim.optics import PulseTrain, coupler_2x2, dli
from dprsim.protocols import (
    VISIBILITY_CLASSES,
    _interfaces,
    cow_encode,
    cow_occupancy,
    cow_sift,
    dps_encode,
    dps_sift,
    receive,
    visibility,
)
from dprsim.scenario import (
    RngFactory,
    _alice_material,
    _eve_key,
    _transmit,
    run_scenario,
)

import _oracles as oracle

symbols = st.text(alphabet="01d", min_size=1, max_size=40)


def codes(sym: str) -> np.ndarray:
    """Alice's COW symbol codes: 0, 1 and 2 for "0", "1" and "d"."""
    return np.array(["01d".index(c) for c in sym], dtype=np.int64)


PROTOCOLS = {p: scenario_from_dict({"protocol": p}) for p in ("dps", "cow")}


def eve_key(protocol: str, alice: str, clicks) -> tuple[np.ndarray, np.ndarray]:
    """Eve's key over Alice's COW symbols (none for DPS) from ``clicks(name)``,
    the clicks of her detector ``name``, as the loops list it: the positions
    where her mask holds a bit, and those bits."""
    held, bits = _eve_key(PROTOCOLS[protocol], codes(alice), clicks)
    return np.flatnonzero(held), bits[held]


all_decoys = [st.integers(1, 40).map(lambda n: "d" * n)]


def _record(n_slots: int, **clicks) -> DetectionRecord:
    """A record holding the given click arrays, padded with no-click slots."""
    traces = {}
    for name, c in clicks.items():
        full = np.zeros(n_slots, dtype=bool)
        full[: len(c)] = c
        zeros = np.zeros(n_slots)
        traces[name] = DetectorTrace(full, *oracle.coded(zeros), np.zeros(n_slots, dtype=bool))
    return DetectionRecord(traces)


@st.composite
def symbols_and_clicks(draw, n_lines: int = 1, extra: int = 0):
    sym = draw(st.one_of(symbols, *all_decoys))
    n = 2 * len(sym) + extra
    lines = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool) for _ in range(n_lines)]
    return sym, lines


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_empty_symbol_string_is_rejected():
    for f in (
        cow_occupancy,
        lambda c: visibility(_record(2, D_M1=[], D_M2=[]), c),
        lambda c: cow_sift(c, _record(2, D_B=[])),
    ):
        with pytest.raises(ValueError, match="nonempty"):
            f(codes(""))


@given(symbols)
@example("d")
@example("dddd")
@settings(max_examples=200)
def test_occupancy_and_interfaces_match_loops(sym):
    _same(cow_occupancy(codes(sym)), oracle.cow_occupancy_loop(sym))
    classes = _interfaces(codes(sym))
    slots = np.flatnonzero(classes >= 0)
    assert classes.dtype == np.int8 and classes.size == 2 * len(sym)
    assert list(zip(slots.tolist(), [VISIBILITY_CLASSES[c] for c in classes[slots]])) == oracle.cow_interfaces_loop(sym)


@given(symbols_and_clicks(n_lines=2, extra=1))
@settings(max_examples=200)
def test_visibility_matches_loop(case):
    sym, (m1, m2) = case
    report = visibility(_record(m1.size, D_M1=m1, D_M2=m2), codes(sym))
    per_class, overall = oracle.visibility_loop(m1, m2, sym)
    assert list(report.per_class) == list(VISIBILITY_CLASSES)
    assert {s: [c.d_m1, c.d_m2] for s, c in report.per_class.items()} == per_class
    assert [report.overall.d_m1, report.overall.d_m2] == overall
    assert all(type(c.d_m1) is int and type(c.d_m2) is int for c in report.per_class.values())


@given(symbols_and_clicks(extra=0))
@example(("0d1", [np.ones(6, dtype=bool)]))  # double clicks in every pair
@settings(max_examples=200)
def test_cow_sift_and_eve_keys_match_loops(case):
    sym, (clicks,) = case
    run = cow_sift(codes(sym), _record(clicks.size, D_B=clicks))
    alice, bob, slots, qber = oracle.cow_sift_loop(sym, clicks)
    _same(run.sifted_alice, alice)
    _same(run.sifted_bob, bob)
    _same(run.sifted_slots, slots)
    assert run.qber == qber
    for got, want in zip(eve_key("cow", sym, {"D_B": clicks}.__getitem__), oracle.backflash_cow_key_loop(sym, clicks)):
        _same(got, want)


def _trojan_cow_key_loop(alice: str, clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's COW trojan key as it was built: her replica's clicks read out as
    a symbol string, then keyed over Alice's symbols."""
    return oracle.trojan_cow_key_loop(alice, oracle.trojan_decode_cow_loop(clicks))


@given(symbols_and_clicks(extra=0))
@example(("0d1", [np.zeros(6, dtype=bool)]))  # a probe below Eve's sensitivity clicks nowhere
@example(("0d1", [np.ones(6, dtype=bool)]))
@settings(max_examples=200)
def test_trojan_cow_key_matches_loop(case):
    alice, (clicks,) = case
    for got, want in zip(eve_key("cow", alice, {"D_B": clicks}.__getitem__), _trojan_cow_key_loop(alice, clicks)):
        _same(got, want)


@given(st.lists(st.booleans(), min_size=0, max_size=30), st.lists(st.booleans(), min_size=0, max_size=30), st.data())
@settings(max_examples=300)
def test_decode_dps_readings_match_loop(c1, c2, data):
    n_slots = max(len(c1), len(c2), 1)
    d1, d2 = np.zeros(n_slots, dtype=bool), np.zeros(n_slots, dtype=bool)
    d1[: len(c1)], d2[: len(c2)] = c1, c2
    # Windows reach past the record end.
    offset = data.draw(st.integers(0, n_slots + 3))
    n = data.draw(st.integers(0, n_slots + 3))
    got = decode_dps_readings(_record(n_slots, D1=d1, D2=d2), offset, n)
    assert got.tolist() == oracle.decode_dps_readings_loop(d1, d2, offset, n)
    assert got.dtype == np.int8


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=30), st.data())
@settings(max_examples=300)
def test_decode_cow_readings_match_loop(rows, data):
    d_b, m1, m2 = (np.array(col, dtype=bool) for col in zip(*rows))
    offset = data.draw(st.integers(0, d_b.size + 3))
    n = data.draw(st.integers(0, d_b.size + 3))
    got = decode_cow_readings(_record(d_b.size, D_B=d_b, D_M1=m1, D_M2=m2), offset, n)
    assert got.tolist() == oracle.decode_cow_readings_loop(d_b, m1, m2, offset, n)
    assert got.dtype == np.int8


@given(st.lists(st.integers(0, 2), min_size=1, max_size=60))
@example([2] * 100 + [1, 0] * 50)  # a running sum of steps past what int8 holds
@settings(max_examples=200)
def test_canonical_dps_phases_match_loop(readings):
    _, codes = fsg_dps_phases(readings)
    _same(codes, np.array(oracle.fsg_dps_canonical_phases_loop(readings), dtype=np.int8))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60), st.sampled_from([0.3, 0.5, 0.7]))
@example([1] * 100 + [3, 0] * 50, 0.5)  # a running sum of steps past what int8 holds
@settings(max_examples=200)
def test_cow_drive_matches_loop(readings, t_b):
    th = DetectorSettings()
    trigger, codes = fsg_cow_drive(readings, t_b, th)
    phases, levels = oracle.fsg_cow_drive_loop(readings, th.p_always_m / (1.0 - t_b), th.p_always_b / t_b)
    _same(codes % 4, np.array(phases, dtype=np.int8))
    # Bit for bit the trigger of the loop's levels, one field per pulse.
    _same_train(oracle.gathered(trigger, codes), oracle.fsg_train(phases, levels))


@given(
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
    st.lists(st.integers(0, 1), min_size=2, max_size=40),
    st.text(alphabet="01d", min_size=20, max_size=20),
)
@example((0.0, 1e-20), (0.0, 0.0), [0, 1, 0], ("01d" * 7)[:20])  # a probe below Eve's sensitivity
@example((1.0, 4.0), (0.0, 0.0), [0, 0, 0], ("01d" * 7)[:20])  # the brighter value on no slot
@settings(max_examples=200)
def test_trojan_decode_matches_loops(intensity, phase, slot_codes, symbols):
    # A reflection in coded form, as the probe returns it: two values and an int8 code per slot.
    values = PulseTrain(np.sqrt(intensity) * np.exp(1j * np.array(phase)))
    slot_codes = np.array(slot_codes, dtype=np.int8)
    reflected = oracle.gathered(values, slot_codes)
    n = len(slot_codes)
    peak = float(np.max(reflected.intensities))
    dps, cow = trojan_decode(values, slot_codes, "dps"), trojan_decode(values, slot_codes, "cow")
    # Eve's noise-free replicas threshold at half the probe's peak over its
    # slots; below her sensitivity nothing clicks.
    d1 = d2 = np.zeros(n + 1, dtype=bool)
    d_b = np.zeros(n, dtype=bool)
    if peak > 1e-15:
        record, _ = oracle.receive_dense("dps", values, slot_codes, DetectorSettings(), peak)
        d1, d2 = record.clicks("D1"), record.clicks("D2")
        d_b = apd_detect(*oracle.coded(reflected.intensities), 0.5 * peak, (0.392, 0.398), DetectorSettings(), "EVE_B")
        d_b = d_b["EVE_B"].clicks
    _same(dps.clicks("D1"), d1)
    _same(dps.clicks("D2"), d2)
    _same(cow.clicks("D_B"), d_b)
    # DPS: the key holds the interior slots the per-slot decode read, and their bits.
    read = oracle.trojan_decode_dps_loop(d1, d2, n)
    slots, bits = eve_key("dps", "", dps.clicks)
    _same(slots, np.flatnonzero(read >= 0) + 1)
    _same(bits, read[read >= 0] == 1)
    # COW: Alice sent one symbol per pair of slots.
    alice = symbols[: n // 2]
    for got, want in zip(eve_key("cow", alice, cow.clicks), _trojan_cow_key_loop(alice, d_b)):
        _same(got, want)


mask_pairs = st.lists(st.tuples(st.booleans(), st.booleans()), min_size=0, max_size=25)


@given(mask_pairs, mask_pairs, st.integers(1, 5))
@example([], [(True, False)], 1)
@example([(True, False)], [], 1)
@example([(False, False)] * 3 + [(True, True)] * 3, [(True, True)] * 4, 2)  # Bob's slots run past Eve's masks
@settings(max_examples=400)
def test_capture_fraction_matches_loop(bob, eve, block):
    # Bob's sifted slots ascend, each with its bit, gathered a few at a time;
    # Eve's key is two masks, which may end before or after Bob's last slot.
    sifted, bits = (np.array([p[k] for p in bob], dtype=bool) for k in (0, 1))
    held, eve_bits = (np.array([p[k] for p in eve], dtype=bool) for k in (0, 1))
    slots = np.flatnonzero(sifted)
    with mock.patch.object(attacks, "_GATHER_BLOCK", block):
        got = capture_fraction(slots, bits[slots], held, eve_bits)
    assert got == oracle.capture_fraction_loop(slots, bits[slots], np.flatnonzero(held), eve_bits[held])


@given(st.integers(0, 2**32), st.integers(2, 300))
@settings(max_examples=100)
def test_alice_symbols_match_loop(seed, n):
    # Drawn symbols are their alice-source values, narrowed to int8, and
    # pinning the same symbols as a string gives the same codes.
    cfg = scenario_from_dict({"protocol": "cow", "n_symbols": n, "seed": seed})
    got = _alice_material(cfg, RngFactory(seed))
    idx = RngFactory(seed).get("alice-source").integers(0, 3, n)
    _same(got, idx.astype(np.int8))
    pinned = scenario_from_dict({"protocol": "cow", "symbols": oracle.alice_symbols_loop(idx), "seed": seed})
    _same(_alice_material(pinned, RngFactory(seed)), got)


@given(st.integers(0, 2**63 - 1), st.sampled_from([2, 3]), st.data())
@settings(max_examples=100, deadline=None)
def test_bounded_codes_match_numpys_integers(seed, m, data):
    # Odd and even counts, and counts on and around the block seams of
    # ``_WORD_BLOCK`` words, or two draws a word.
    seam = 2 * scenario._WORD_BLOCK
    n = data.draw(st.one_of(st.integers(1, 40), st.sampled_from([seam - 1, seam, seam + 1, 2 * seam + 1, 3 * seam])))
    got = scenario._bounded_codes(np.random.default_rng(seed), m, n)
    _same(got, oracle.alice_codes_numpy(np.random.default_rng(seed), m, n))


_MIDDLE = 2**31 | 2**63


class _RawWords:
    """A stand-in generator whose ``bit_generator.random_raw`` hands out
    chosen words, then words of two halves of 2**31, which every m accepts."""

    def __init__(self, words):
        self.bit_generator, self._words = self, list(words)

    def random_raw(self, k):
        out, self._words = self._words[:k], self._words[k:]
        return np.array(out + [_MIDDLE] * (k - len(out)), dtype=np.uint64)


@given(
    st.lists(
        st.sampled_from([0, 1, 2**31, 2**32 - 1, 1431655765, 1431655766, 2863311530, 2863311531])
        | st.integers(0, 2**32 - 1),
        min_size=64,
        max_size=64,
    ),
    st.sampled_from([2, 3]),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_bounded_codes_reject_and_split_halves_as_lemire(halves, m, n):
    # Crafted halves: zero, which m = 3 rejects, and the values either side
    # of each threshold; words pack them low half first.
    words = [lo | hi << 32 for lo, hi in zip(halves[0::2], halves[1::2])]
    got = scenario._bounded_codes(_RawWords(words), m, n)
    want = oracle.bounded_integers_loop(words + [_MIDDLE] * n, m, n)
    _same(got, np.array(want, dtype=np.int8))


@st.composite
def blinding_readings(draw):
    """A protocol, Alice's COW symbols ("" for DPS) and Eve's readings; COW
    readings run shorter and longer than Alice's grid of two slots a symbol."""
    protocol = draw(st.sampled_from(["dps", "cow"]))
    if protocol == "dps":
        return protocol, "", draw(st.lists(st.integers(0, 2), max_size=40))
    alice = draw(symbols)
    return protocol, alice, draw(st.lists(st.integers(0, 3), max_size=2 * len(alice) + 6))


@given(blinding_readings())
@example(("cow", "0d1", [0, 3, 3]))  # shorter than the grid: the slots past the readings are silent
@example(("cow", "01", [0, 3, 3, 0, 3, 3, 0]))  # longer: the readings past the grid key no symbol
@settings(max_examples=300)
def test_reading_keys_match_loop(case):
    protocol, alice, readings = case
    r = np.array(readings, dtype=np.int8)
    got = eve_key(protocol, alice, lambda name: r == {"D1": 1, "D2": 2, "D_B": 3}[name])
    for a, b in zip(got, oracle.blinding_key_loop(protocol, readings, alice)):
        _same(a, b)


@given(
    st.sampled_from(["dps", "cow"]),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([0.2, 0.3]),
)
@settings(max_examples=30, deadline=None)
def test_blinding_bookkeeping_matches_loops(protocol, seed, dark, p_never):
    cfg = {
        "protocol": protocol,
        "n_symbols": 60,
        "seed": seed,
        "detector": {"dark_count_prob": dark, "p_never": p_never},
        "attack": {"kind": "blinding"},
    }
    if protocol == "cow":
        cfg["t_b"] = 0.5
    record = run_scenario(scenario_from_dict(cfg))
    outcome, run = record.attack, record.protocol_run
    # Eve's derived plan puts reading j at Bob's slot j + 1; Bob sifts the
    # slots of Alice's grid (its length plus one) from there on.
    n_slots = run.alice_codes.size * (1 if protocol == "dps" else 2) + 1
    grid = _record(n_slots, **{name: run.record.clicks(name)[1 : 1 + n_slots] for name in run.record.names})
    if protocol == "dps":
        want = dps_sift(run.alice_codes, grid)
        eve_idx, eve_bits = oracle.blinding_key_loop(protocol, outcome.eve_readings)
        # Only Bob's single-click readings that carry one of Alice's
        # difference bits are sifted.
        bob_idx, bob_bits = oracle.blinding_key_loop(protocol, outcome.bob_readings)
        diff = np.bitwise_xor(run.alice_codes[1:], run.alice_codes[:-1])
        alice = oracle.blinding_sifted_alice_loop(diff, bob_idx)
        pairs = [(j, b) for j, b in zip(bob_idx, bob_bits) if 1 <= j <= diff.size]
        paired = np.array([b for _, b in pairs], dtype=bool)
        loop = (alice, paired, np.array([j for j, _ in pairs], dtype=np.int64))
    else:
        want = cow_sift(run.alice_codes, grid, visibility(grid, run.alice_codes))
        alice = "".join("01d"[c] for c in run.alice_codes)
        eve_idx, eve_bits = oracle.blinding_key_loop(protocol, outcome.eve_readings, alice)
        # A D_B click is always read as 3, so Bob's 3s are his data clicks.
        loop = oracle.cow_sift_loop(alice, outcome.bob_readings == 3)[:3]
        assert run.visibility_report.overall == want.visibility_report.overall
    for name, arr in zip(("sifted_alice", "sifted_bob", "sifted_slots"), loop):
        _same(getattr(run, name), getattr(want, name))
        _same(getattr(run, name), arr)
    assert run.qber == want.qber == (float(np.mean(loop[0] != loop[1])) if loop[0].size else 0.0)
    _same(outcome.eve_key, eve_bits)
    assert outcome.capture_fraction == oracle.capture_fraction_loop(run.sifted_slots, run.sifted_bob, eve_idx, eve_bits)


@st.composite
def grids_in_records(draw):
    """A protocol, Alice's codes, a record of random clicks and the slot
    where her grid (one slot per DPS symbol, two per COW symbol, and one
    more) starts in it: the grid may run past the record's end, or start
    past it."""
    protocol = draw(st.sampled_from(["dps", "cow"]))
    if protocol == "dps":
        alice = np.array(draw(st.lists(st.integers(0, 1), min_size=1, max_size=40)), dtype=np.int8)
        names, n_slots = ("D1", "D2"), alice.size + 1
    else:
        alice = codes(draw(st.one_of(symbols, *all_decoys)))
        names, n_slots = ("D_B", "D_M1", "D_M2"), 2 * alice.size + 1
    n = draw(st.integers(1, n_slots + 6))
    record = _record(n, **{name: draw(st.lists(st.booleans(), min_size=n, max_size=n)) for name in names})
    return protocol, alice, record, draw(st.integers(0, n + 3)), n_slots


@given(grids_in_records())
@settings(max_examples=300)
def test_windowed_sift_matches_sift_of_padded_record(case):
    # Bob's sift reads each detector's clicks through a window of the whole
    # record, and keeps the record; it once sifted a copy of the record cut
    # to Alice's grid and padded with silent, dark slots.
    protocol, alice, record, offset, n_slots = case
    cfg = PROTOCOLS[protocol]
    got = scenario._sift(cfg, alice, record, offset)
    want = scenario._sift(cfg, alice, oracle.on_grid(record, offset, n_slots))
    for name in ("sifted_alice", "sifted_bob", "sifted_slots"):
        _same(getattr(got, name), getattr(want, name))
    assert got.qber == want.qber
    assert got.visibility_report == want.visibility_report
    assert got.record is record


def _incident(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """A detector's incident intensity: sparse signal pulses on top of wide-range
    random values, continuous blinding light, or light every few slots."""
    signal = rng.random(n) * (rng.random(n) < rng.random()) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "random":
        return signal + rng.random(n) * 10.0 ** rng.uniform(-300.0, 3.0)
    if kind == "cw":
        return signal + rng.uniform(0.0, 50.0)
    background = np.zeros(n)
    background[:: int(rng.integers(1, 40))] = rng.uniform(0.0, 50.0)
    return signal + background


def _check_blinding_trace(stored: float, decay: float, x: np.ndarray) -> None:
    """The scan under a detector's trace, from any stored current."""
    trace = np.empty(x.shape[0])
    _decay_scan(stored, decay, x, trace)
    assert trace.tobytes() == oracle.blinding_trace_loop(stored, decay, x).tobytes()


# Lengths reach the lane-parallel scan for decays up to about 0.85; slower
# decays need longer lanes than 2e4 slots can fill, and run the plain loop.
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 20_000),
    st.floats(0.01, 0.99),
    st.floats(0.0, 10.0),
    st.sampled_from(["random", "cw", "pulsed"]),
)
@example(seed=1, n=20_000, decay=0.8, stored=0.0, kind="pulsed")
@example(seed=2, n=20_000, decay=0.01, stored=10.0, kind="random")
@settings(max_examples=150, deadline=None)
def test_blinding_trace_matches_loop_bit_for_bit(seed, n, decay, stored, kind):
    x = _incident(np.random.default_rng(seed), n, kind)
    _check_blinding_trace(stored, decay, x)
    # A detector's trace starts from no stored current, and its blinding
    # light falls on slots 0, p, 2p, ... of its own clock, wherever a block
    # of its slots starts: here a third of the way in.
    blinding = BlindingSettings(pulse_period_slots=7, decay_per_slot=decay)
    want = oracle.blinding_trace_loop(0.0, decay, x + oracle.blinding_light(blinding, n))
    levels, codes = oracle.coded(x)
    start = n // 3
    got = np.empty(n - start)
    _stored_current(levels, codes, blinding, start, float(want[start - 1]) if start else 0.0, got)
    assert got.tobytes() == want[start:].tobytes()


@pytest.mark.parametrize("quiet_lanes,fallback", [(2, False), (4, True)], ids=["second-repair-pass", "loop-fallback"])
def test_blinding_trace_repairs_and_falls_back_exactly(monkeypatch, quiet_lanes, fallback):
    # 2e4 slots at decay 0.5 make 141 lanes of 141 slots.  No light reaches the
    # first lanes, so the stored current of 1.0 only decays there: lane 1
    # starts from a guess of 0 and never meets 2**-141 * 0.5**k, so the first
    # repair pass changes its last value.  With two quiet lanes lane 2 is lit,
    # forgets its start at once and the second pass converges; with four,
    # lane 3 is still wrong after two passes and the loop takes over from it.
    looped = []
    monkeypatch.setattr(
        "dprsim.detectors._decay_loop", lambda s, d, x, out: looped.append(x.shape[0]) or _decay_loop(s, d, x, out)
    )
    x = np.random.default_rng(7).random(20_000)
    x[: quiet_lanes * 141] = 0.0
    _check_blinding_trace(1.0, 0.5, x)
    assert looped == ([20_000 - 3 * 141] if fallback else [20_000 - 141 * 141])


# Alice's transmitter amplitude.
amplitudes = st.floats(0.0, 10.0)


def _same_train(a: PulseTrain, b: PulseTrain) -> None:
    _same(a.slots.view(np.uint64), b.slots.view(np.uint64))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=60), amplitudes)
@example([0], 1.0)
@example([1, 1, 0, 1], 0.3)
@settings(max_examples=300)
def test_dps_encode_matches_chain(bits, amplitude):
    train, slot_codes = dps_encode(bits, amplitude)
    _same(slot_codes, np.array(bits, dtype=np.int64))
    _same_train(oracle.gathered(train, slot_codes), oracle.dps_encode_chain(bits, amplitude))


@given(symbols, amplitudes)
@example("d", 1.0)
@example("01d10", 0.3)
@settings(max_examples=300)
def test_cow_encode_matches_chain(sym, amplitude):
    train, slot_codes = cow_encode(codes(sym), amplitude)
    _same(slot_codes, oracle.cow_occupancy_loop(sym))
    _same_train(oracle.gathered(train, slot_codes), oracle.cow_encode_chain(sym, amplitude))


complex_slots = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(lambda t: complex(*t)), min_size=1, max_size=40)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    symbols,
    st.sampled_from(["dps", "cow"]),
    st.sampled_from([1e-3, 1.0, 37.5]) | st.floats(1e-3, 1e3),
    st.integers(-90, 90),
    st.floats(0.0, 40.0),
)
@example([0, 1, 1], "0", "dps", 1.0, -5, 0.0)  # an offset past the train's start by more than its length
@example([0, 1, 1, 0], "0", "dps", 0.3, 2, 0.0)
@example([0], "01d", "cow", 0.3, 3, 0.0)
@example([0], "d10", "cow", 1.0, -1, 6.0)
@settings(max_examples=300)
def test_trojan_probe_matches_full_length_chain(bits, sym, protocol, amplitude, offset, reflection_db):
    # The probe reflects off Alice's encoder: her coded train at the probe's amplitude.
    probe = TrojanSettings(probe_amplitude=amplitude, timing_offset_slots=offset, reflection_db=reflection_db)
    if protocol == "dps":
        encoded, modulation = dps_encode(np.array(bits, dtype=np.int8), amplitude), bits
    else:
        encoded, modulation = cow_encode(codes(sym), amplitude), oracle.cow_occupancy_loop(sym)
    got = oracle.gathered(*trojan_probe(*encoded, probe, excess_loss_db=3.0))
    _same_train(got, oracle.trojan_probe_chain(protocol, modulation, probe, 3.0))


@given(complex_slots, st.floats(0.0, 1.0))
@example([0j, -0.0 - 0.0j, 1.0 - 0.0j], 0.5)
@settings(max_examples=300)
def test_coupler_vacuum_port_matches_zero_train(slots, t):
    x = PulseTrain(np.array(slots))
    got = coupler_2x2(x, t)
    want = oracle.coupler_two_inputs(x, PulseTrain(np.zeros(len(slots))), t)
    for g, w in zip(got, want):
        # Equal amplitudes; only the sign of an exactly-zero component may differ.
        assert np.array_equal(g.slots, w.slots)
        _same(g.intensities, w.intensities)


signed_parts = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@given(st.lists(st.tuples(signed_parts, signed_parts).map(lambda t: complex(*t)), min_size=1, max_size=40))
@example([-0.0 - 0.0j, 1.0 - 0.0j])  # signed zeros
@example([1.0 - 0.0j])  # a one-slot train: no slot pair interferes
@settings(max_examples=300)
def test_dli_matches_chain(slots):
    train = PulseTrain(np.array(slots))
    got = dli(train)
    for g, w in zip(got, oracle.dli_chain(train, 1)):
        _same_train(g, w)


def _same_emission(trace: DetectorTrace, cfg: BackflashSettings, seed: int, want: np.ndarray) -> None:
    """Eve's replica clicks on ``trace``'s re-emission, drawn from a stream
    of ``seed``, are where ``want``, the emitted intensity of every slot,
    exceeds the replica threshold, with the threshold at 0 and on each
    emitted value and one ulp below it: so every emitted value is pinned bit
    for bit."""
    values = np.unique(want[want > 0.0])
    for threshold in [0.0, *values, *np.nextafter(values, 0.0)]:
        got = backflash_emit(trace, cfg, threshold, rng=np.random.default_rng(seed))
        _same(got, want > threshold)


@given(complex_slots, st.data(), st.booleans(), st.floats(0.0, 3.0), st.floats(0.0, 1.5), st.integers(0, 2**32))
@settings(max_examples=300)
def test_backflash_emit_matches_where(slots, data, ideal, gain, p, seed):
    clicks = np.array(data.draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots))))
    intensity = PulseTrain(np.array(slots)).intensities
    cfg = BackflashSettings(electrons_per_avalanche=p, photons_per_electron=1.0, ideal=ideal, emission_gain=gain)
    trace = DetectorTrace(clicks, *oracle.coded(intensity), np.zeros(len(slots), dtype=bool))
    emit = oracle.backflash_emitting(clicks, cfg, np.random.default_rng(seed))
    _same_emission(trace, cfg, seed, oracle.backflash_emit_where(emit, gain, intensity))


@st.composite
def backflash_traces(draw):
    """A trace of Bob's receiver (DPS D1/D2 or COW D_B), as the coded receive
    gives it or as the full-length one does, with a click mask drawn over it
    (none, every slot or random), and the intensity of that detector's port
    with one field per slot."""
    protocol = draw(st.sampled_from(["dps", "cow"]))
    if protocol == "dps":
        coded = dps_encode(draw(st.lists(st.integers(0, 1), min_size=2, max_size=30)))
        name = draw(st.sampled_from(["D1", "D2"]))
    else:
        coded = cow_encode(codes(draw(symbols)))
        name = "D_B"
    dense_record, ports = oracle.receive_dense(protocol, *coded, DetectorSettings(), 1.0)
    trace = receive(protocol, *coded, DetectorSettings(), 1.0)[name] if draw(st.booleans()) else dense_record[name]
    n = len(trace)
    clicks = draw(
        st.sampled_from([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
        | st.lists(st.booleans(), min_size=n, max_size=n).map(lambda c: np.array(c, dtype=bool))
    )
    return replace(trace, clicks=clicks), ports[name].intensities


@given(
    backflash_traces(),
    st.booleans(),
    st.sampled_from([0.0, 3.0]) | st.floats(0.0, 3.0),
    st.sampled_from([0.0, 0.0648, 0.5, 1.0, 1.5]),  # emission probabilities below, at and capped to 1
    st.floats(0.01, 0.99),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_backflash_replica_clicks_match_dense_pass(case, ideal, gain, p, rel, seed):
    trace, intensity = case
    cfg = BackflashSettings(electrons_per_avalanche=p, photons_per_electron=1.0, ideal=ideal, emission_gain=gain)
    threshold = rel * gain**2  # the replica's threshold at nominal level 1
    got = backflash_emit(trace, cfg, threshold, np.random.default_rng(seed))
    _same(got, oracle.backflash_replica_dense(trace.clicks, intensity, cfg, np.random.default_rng(seed), threshold))


# Detector settings of the coded-receive oracle: ideal, and each imperfection.
RECEIVE_DETECTORS = [
    DetectorSettings(),
    DetectorSettings(dead_time_slots=2),
    DetectorSettings(dark_count_prob=0.05, afterpulse_prob=0.3, dead_time_slots=1),
    DetectorSettings(click_threshold_rel=0.1, dark_count_prob=0.2),
]
_LONG = np.random.default_rng(5).integers(0, 3, 20_000).tolist()
_LONG_READINGS = np.random.default_rng(6).integers(0, 4, 20_000).tolist()


@given(
    st.integers(1, 300),
    st.sampled_from([np.uint8, np.int8, np.int64]),
    st.sampled_from([0, 1, 4]) | st.integers(0, 3),
    st.integers(-1, 1),
    st.integers(0, 2**32 - 1),
)
@example(300, np.uint8, 2, 1, 1)  # a table past one byte, indexed by one
@settings(max_examples=100, deadline=None)
def test_coded_gathers_a_one_byte_index_as_a_wide_one(entries, dtype, blocks, past, seed):
    """``_coded`` of a one-byte index, counted a block at a time and gathered
    by ``bytes.translate``, equals the canonical coding of the slot values
    (``np.unique`` over them) and the coding of the same index widened to
    ``intp``: levels and codes, their width included.  Lengths fall around
    multiples of the counting block; the table repeats values, so that
    entries fold into one level.  Two tables share the index, as the two
    ports of the receiver's interferometer do, and each codes as it does
    alone."""
    rng = np.random.default_rng(seed)
    tables = [rng.integers(0, max(2, entries // 3), entries) / 4.0 for _ in range(2)]
    n = max(0, blocks * detectors._COUNT_BLOCK + past)
    top = min(entries, 128 if dtype is np.int8 else 256)
    index = rng.integers(0, top, n).astype(dtype)
    shared, wide = detectors._coded(tables, index), detectors._coded(tables, index.astype(np.intp))
    for table, (levels, codes), (wide_levels, wide_codes) in zip(tables, shared, wide):
        want_levels, want_codes = oracle.coded(table[index.astype(np.intp)])
        _same(levels.view(np.uint64), want_levels.view(np.uint64))
        assert codes.dtype == want_codes.dtype
        _same(codes, want_codes)
        _same(wide_levels.view(np.uint64), levels.view(np.uint64))
        assert wide_codes.dtype == codes.dtype
        _same(wide_codes, codes)
        [(alone_levels, alone_codes)] = detectors._coded([table], index)
        _same(alone_levels.view(np.uint64), levels.view(np.uint64))
        _same(alone_codes, codes)


@st.composite
def coded_lines(draw):
    """Sorted distinct levels, some on the threshold and rails of the test
    below or one ulp either side, one code per slot, and blinding settings:
    either style, a level that blinds at once, over time or never, and a
    period shorter or longer than the line."""
    marks = [0.5, 0.2 * (1.0 + 1e-9), 0.4 * (1.0 - 1e-9), 0.0]
    near = [np.nextafter(m, side) for m in marks for side in (-np.inf, np.inf)]
    values = draw(st.lists(st.sampled_from(marks + near) | st.floats(0.0, 2.0), min_size=1, max_size=12))
    levels = np.unique(np.array(values))
    n = draw(st.integers(0, 200))
    codes = np.array(draw(st.lists(st.integers(0, levels.size - 1), min_size=n, max_size=n)), dtype=np.uint8)
    blinding = BlindingSettings(
        style=draw(st.sampled_from(BLINDING_STYLES)),
        illumination_level=draw(st.sampled_from([0.3, 2.0]) | st.floats(1e-3, 5.0)),
        pulse_period_slots=draw(st.integers(1, 250)),
        decay_per_slot=0.5,
        blind_threshold=1.0,
    )
    return levels, codes, blinding


@given(coded_lines(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_coded_thresholds_match_dense_comparisons(line, blind):
    """``apd_detect`` decides each slot by comparing its code with the first
    code past a threshold or rail, which the sorted levels allow: the clicks,
    and where a draw is needed, equal those of the comparisons of each
    slot's intensity."""
    levels, codes, blinding = line
    rails = (0.2, 0.4)
    kwargs = {"blinding": blinding} if blind else {}
    linear = np.zeros(codes.size, dtype=bool)
    if blind:
        stored = oracle.blinding_trace_loop(0.0, 0.5, levels[codes] + oracle.blinding_light(blinding, codes.size))
        linear = stored >= blinding.blind_threshold
    want, draws = oracle.apd_clicks_dense(levels[codes], 0.5, rails, linear)
    if draws:
        with pytest.raises(ValueError, match="rng"):
            apd_detect(levels, codes, 0.5, rails, DetectorSettings(), **kwargs)
        return
    trace = apd_detect(levels, codes, 0.5, rails, DetectorSettings(), **kwargs)["D"]
    _same(trace.clicks, want)
    _same(trace.linear_mode, linear)
    if blind:  # the light of the settings, added where the loop adds it
        _same(trace.photocurrent(blinding).view(np.uint64), stored.view(np.uint64))


# Detectors of the block-seam oracle: ideal (the threshold path, which draws
# only between the rails), dead time, and every imperfection at once.
SEAM_DETECTORS = [
    DetectorSettings(),
    DetectorSettings(dead_time_slots=2),
    DetectorSettings(dark_count_prob=0.05, afterpulse_prob=0.3, dead_time_slots=1),
]


@given(
    st.sampled_from([5, 16, None]),
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 6),
    st.sampled_from(BLINDING_STYLES),
    st.integers(1, 40),
    st.sampled_from([0.5, 0.8, 0.99]),
    st.sampled_from([0.3, 2.0]) | st.floats(1e-3, 8.0),
    st.sampled_from(SEAM_DETECTORS),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.none() | st.floats(0.0, 1.0),
    st.floats(0.0, 60.0),
)
@example(16, 1, 2, "pulsed", 3, 0.8, 2.0, SEAM_DETECTORS[0], 1, 0.1, 1.0, 0.0)  # a period that divides no block
@example(None, -1, 1, "pulsed", 7, 0.5, 2.0, SEAM_DETECTORS[2], 2, 0.5, None, 5.0)  # the module's block, in lanes
@example(None, 1, 1, "cw", 1, 0.99, 0.3, SEAM_DETECTORS[1], 3, 1.0, 0.0, 0.0)
@settings(max_examples=60, deadline=None)
def test_blinded_detector_blocks_match_the_whole_trace(
    block, past, blocks, style, period, decay, level, detector, seed, at_window, exact, threshold
):
    """A blinded detector runs its slots a block at a time, carrying the
    stored current, the dead time, the afterpulse and the monitor's running
    sum across each seam.  Its clicks, modes, stored current, monitor alarm
    and the next draw of its stream equal those of the whole trace: the
    per-slot stored-current loop, the detector as it ran whole traces and
    the boxcar monitor.  Lengths fall one short of, on and one past a
    multiple of the block (``None``: the module's own), which for a small
    block gives blocks of a quarter of the trace from five blocks on; the
    levels sit on and one ulp either side of the threshold and the rails,
    so both the threshold path and the per-slot draws run; windows run from
    one slot to one past the trace, and thresholds fall exactly on a
    filtered value."""
    size = detectors._BLOCK if block is None else block
    n = blocks * size + past
    rng = np.random.default_rng(seed)
    marks = [0.5, 0.2 * (1.0 + 1e-9), 0.4 * (1.0 - 1e-9), 0.0]
    near = [np.nextafter(m, side) for m in marks for side in (-np.inf, np.inf)]
    levels = np.unique(np.concatenate([marks, near, rng.uniform(0.0, 2.0, 4)]))
    codes = rng.integers(0, levels.size, n).astype(np.uint8)
    blinding = BlindingSettings(
        style=style, illumination_level=level, pulse_period_slots=period, decay_per_slot=decay, blind_threshold=1.0
    )
    rails = (0.2, 0.4)
    clicks, linear, stored = oracle.apd_detect_whole(
        levels, codes, 0.5, rails, detector, blinding, np.random.default_rng(seed)
    )
    window = 1 + round(at_window * n)
    filtered = oracle.boxcar_concatenate(stored, window) if n >= window else np.array([np.mean(stored)])
    if exact is not None:
        threshold = float(filtered[round(exact * (filtered.size - 1))])
    monitor = PhotocurrentMonitor(window, threshold)
    draws = np.random.default_rng(seed)
    with mock.patch.object(detectors, "_BLOCK", size):
        trace = apd_detect(levels, codes, 0.5, rails, detector, blinding=blinding, rng=draws, monitor=monitor)["D"]
    _same(trace.clicks, clicks)
    _same(trace.linear_mode, linear)
    assert trace.photocurrent(blinding).tobytes() == stored.tobytes()
    assert monitor.alarm == oracle.monitor_alarm_whole(stored, window, threshold)
    assert monitor.alarm or exact is None
    # The stream ends where the whole trace's loop left it.
    want = np.random.default_rng(seed)
    oracle.apd_detect_whole(levels, codes, 0.5, rails, detector, blinding, want)
    assert draws.random() == want.random()


@given(
    st.sampled_from([5, 16, None]),
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 6),
    st.sampled_from([1e-9, 1e-5, 1e-2, 0.3, 1.0]) | st.floats(1e-12, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(None, 1, 1, 1e-2, 1)  # the module's block
@example(5, 0, 6, 1e-12, 2)  # blocks of a quarter of the trace
@settings(max_examples=60, deadline=None)
def test_dark_counts_alone_match_the_per_slot_loop(block, past, blocks, dark, seed):
    """An unblinded detector whose only imperfection is dark counts draws
    once for each silent slot of a block at a time, not slot by slot: its
    clicks, its modes and the next draw of its stream equal those of the
    per-slot loop over the whole trace.  Lengths fall one short of, on and
    one past a multiple of the block (``None``: the module's own); the levels
    sit on and one ulp either side of the threshold, and the dark count
    probability runs from tiny through 1e-2 to certain."""
    size = detectors._BLOCK if block is None else block
    n = blocks * size + past
    rng = np.random.default_rng(seed)
    near = [np.nextafter(0.5, side) for side in (-np.inf, np.inf)]
    levels = np.unique(np.concatenate([[0.5, 0.0], near, rng.uniform(0.0, 2.0, 4)]))
    codes = rng.integers(0, levels.size, n).astype(np.uint8)
    detector, rails = DetectorSettings(dark_count_prob=dark), (0.2, 0.4)
    want = np.random.default_rng(seed)
    clicks, linear, _ = oracle.apd_detect_whole(levels, codes, 0.5, rails, detector, None, want)
    draws = np.random.default_rng(seed)
    with mock.patch.object(detectors, "_BLOCK", size):
        trace = apd_detect(levels, codes, 0.5, rails, detector, rng=draws)["D"]
    _same(trace.clicks, clicks)
    _same(trace.linear_mode, linear)
    assert draws.random() == want.random()


def tamper_pattern(kind: str | None, n_slots: int, seed: int) -> list[float] | None:
    """A channel phase tamper in half turns: none, a few phases over the
    train's first half or over twice its length, or a phase per slot, most
    of them distinct, so that the interferometer meets more pairs than its
    port has slots.  Both signed zeros occur, and the coded tamper takes them
    as one phase."""
    if kind is None:
        return None
    rng = np.random.default_rng(seed)
    if kind == "many":
        pattern = rng.uniform(-2.0, 2.0, n_slots)
        pattern[:2] = (0.0, -0.0)
        return pattern.tolist()
    length = max(1, n_slots // 2) if kind == "short" else 2 * n_slots
    return rng.choice([0.0, -0.0, 0.5, 1.0, 1.5], length).tolist()


def _same_receive(record, want_record, streams) -> None:
    """A coded receive's record against the full-length one's, bit for bit:
    each detector's intensity, coded alike (the same levels and codes), its
    clicks and modes, and where its stream ends."""
    assert record.names == want_record.names
    for name in want_record.names:
        g, w = record[name], want_record[name]
        _same(g.intensity.view(np.uint64), w.intensity.view(np.uint64))
        _same(g.levels.view(np.uint64), w.levels.view(np.uint64))
        assert g.level_codes.dtype == w.level_codes.dtype
        _same(g.level_codes, w.level_codes)
        _same(g.clicks, w.clicks)
        _same(g.linear_mode, w.linear_mode)
        # Each stream ends where the full-length receive left it.
        assert streams[0].get(name).random() == streams[1].get(name).random()


@given(
    st.sampled_from(["dps", "cow"]),
    st.lists(st.integers(0, 2), min_size=2, max_size=300),
    st.floats(0.01, 10.0),
    st.floats(0.05, 0.95),
    st.sampled_from(RECEIVE_DETECTORS),
    st.sampled_from([None, "short", "long", "many"]),
    st.booleans(),
    st.sampled_from([None, True, False]),
    st.integers(0, 2**32),
)
@example("dps", _LONG, 1.0, 0.5, RECEIVE_DETECTORS[0], None, False, None, 1)  # whole-array loops past their tails
@example("cow", _LONG, 3.0, 0.9, RECEIVE_DETECTORS[2], "short", False, False, 2)  # a tamper by the pair table
@example("dps", _LONG, 0.5, 0.5, RECEIVE_DETECTORS[1], "many", True, True, 3)  # by the pairs that occur
@settings(max_examples=200, deadline=None)
def test_coded_receive_matches_dense_receive(protocol, alice, amplitude, t_b, detector, tamper, blind, ideal, seed):
    """The receive of Alice's coded train after the channel, its phase tamper
    included, equals the receive of that train with one field per slot bit
    for bit (``_same_receive``), and so does the backflash emission of each
    detector against gain squared times its full-length port's intensity
    (``ideal`` None: no backflash).  Alice's codes are int8, as the pipeline
    draws them."""
    alice = (np.array(alice) % (2 if protocol == "dps" else 3)).astype(np.int8)
    n_slots = alice.size * (1 if protocol == "dps" else 2)
    pattern = tamper_pattern(tamper, n_slots, seed)
    doc = {"protocol": protocol, "amplitude": amplitude, "t_b": t_b}
    if pattern is not None:
        doc["channel"] = {"phase_tamper_half_turns": pattern}
    cfg = scenario_from_dict(doc)
    train, slot_codes = _transmit(cfg, alice)
    dense = oracle.transmit_dense(protocol, alice, amplitude, pattern)
    _same_train(oracle.gathered(train, slot_codes), dense)
    blinding = BlindingSettings(style="cw", illumination_level=BlindingSettings.blind_threshold) if blind else None
    streams = RngFactory(seed), RngFactory(seed)
    got = receive(protocol, train, slot_codes, detector, amplitude**2, t_b, streams[0].get, blinding)
    want, ports = oracle.receive_dense(
        protocol, dense, np.arange(n_slots), detector, amplitude**2, t_b, streams[1].get, blinding
    )
    _same_receive(got, want, streams)
    if ideal is not None:
        bf = BackflashSettings(ideal=ideal, emission_gain=0.7)
        for name in want.names:
            emit = oracle.backflash_emitting(got[name].clicks, bf, np.random.default_rng(seed))
            want_emitted = oracle.backflash_emit_where(emit, bf.emission_gain, ports[name].intensities)
            _same_emission(got[name], bf, seed, want_emitted)


@given(
    st.sampled_from(["canonical", "worked-example", "cow"]),
    st.lists(st.integers(0, 3), min_size=1, max_size=200),
    st.sampled_from([0.5, 0.9]) | st.floats(0.05, 0.95),
    st.sampled_from(BLINDING_STYLES),
    st.sampled_from(RECEIVE_DETECTORS),
    st.integers(0, 2**32),
)
@example("canonical", _LONG, 0.5, "pulsed", RECEIVE_DETECTORS[0], 1)  # the pair table of 4 fields
@example("cow", _LONG_READINGS, 0.5, "cw", RECEIVE_DETECTORS[0], 2)  # of 8 fields
@settings(max_examples=100, deadline=None)
def test_coded_trigger_receive_matches_dense_receive(policy, readings, t_b, style, detector, seed):
    """Eve's coded faked-state trigger equals its train with one field per
    pulse, and Bob's blinded receive of it equals the full-length receive of
    that train bit for bit (``_same_receive``), under either blinding style."""
    if policy == "cow":
        protocol, (trigger, codes) = "cow", fsg_cow_drive(readings, t_b, detector)
        base, data = detector.p_always_m / (1.0 - t_b), detector.p_always_b / t_b
        phases, levels = oracle.fsg_cow_drive_loop(readings, base, data)
    else:
        protocol = "dps"
        if policy == "canonical":
            readings = np.array(readings) % 3
            phases = oracle.fsg_dps_canonical_phases_loop(readings)
        else:
            readings, phases = WORKED_EXAMPLE_READINGS, WORKED_EXAMPLE_PHASES
        trigger, codes = fsg_dps_phases(readings, policy, launch_intensity=detector.p_always)
        levels = np.full(len(phases), detector.p_always)
    dense = oracle.fsg_train(phases, levels)
    _same_train(oracle.gathered(trigger, codes), dense)
    blinding = BlindingSettings(style=style)
    streams = RngFactory(seed), RngFactory(seed)
    got = receive(protocol, trigger, codes, detector, 1.0, t_b, streams[0].get, blinding)
    want = oracle.receive_dense(protocol, dense, np.arange(codes.size), detector, 1.0, t_b, streams[1].get, blinding)[0]
    _same_receive(got, want, streams)
