import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dprsim
from dprsim import cli, report
from dprsim.cli import main
from dprsim.config import WORKED_EXAMPLE_READINGS, ConfigError, ScenarioConfig, _inner, scenario_from_dict
from dprsim.record import RECORD_FORMAT, RunRecord
from dprsim.report import MetricsSummary, emit_outputs, load_record, save_record, summarize
from dprsim.scenario import load_config, run_golden, run_scenario

from _oracles import array_leaves, join_record_file, split_record_file


# ---------------------------------------------------------------------------
# Output files round-trip
# ---------------------------------------------------------------------------


def _key_text(bits) -> str:
    """The contents of a key file holding ``bits``."""
    return "".join(str(int(b)) for b in bits) + "\n"


def _key_length(path) -> int:
    return len(path.read_text(encoding="utf-8").strip())


def _metrics(path) -> MetricsSummary:
    return MetricsSummary.from_dict(json.loads(path.read_text(encoding="utf-8")))


def test_emit_outputs_round_trip(tmp_path):
    record = run_golden("cow-fig2")
    emit_outputs(record, tmp_path)

    assert (tmp_path / "alice.key").read_text() == _key_text(record.protocol_run.sifted_alice)
    assert (tmp_path / "bob.key").read_text() == _key_text(record.protocol_run.sifted_bob)

    stored = _metrics(tmp_path / "metrics.json")
    assert stored.to_dict() == summarize(record).to_dict()

    clone = load_record(tmp_path / "record.json")
    assert clone.content_hash() == record.content_hash()
    assert summarize(clone).to_dict() == stored.to_dict()
    bob = record.protocol_run.record
    assert clone.protocol_run.record.names == bob.names
    for name in bob.names:
        trace = clone.protocol_run.record[name]
        np.testing.assert_array_equal(trace.clicks, bob[name].clicks)
        np.testing.assert_array_equal(trace.intensity, bob[name].intensity)
        np.testing.assert_array_equal(trace.linear_mode, bob[name].linear_mode)


_OUTPUT_SET = {"alice.key", "bob.key", "metrics.json", "record.json"}


@pytest.mark.parametrize(
    ("attack", "files"),
    [("none", _OUTPUT_SET), ("backflash", _OUTPUT_SET | {"eve.key"})],
)
def test_emit_outputs_writes_exactly_the_output_set(tmp_path, attack, files):
    cfg = scenario_from_dict({"protocol": "dps", "n_symbols": 16, "seed": 3, "attack": {"kind": attack}})
    written = emit_outputs(run_scenario(cfg), tmp_path)
    assert {path.name for path in written} == {path.name for path in tmp_path.iterdir()} == files


def test_emit_outputs_empty_run_writes_valid_files(tmp_path):
    # Quarter-turn phase steps put half the light on each interferometer port,
    # below a 0.99 click threshold: a run with zero clicks everywhere.
    cfg = scenario_from_dict(
        {
            "protocol": "dps",
            "n_symbols": 8,
            "seed": 2,
            "detector": {"click_threshold_rel": 0.99},
            "channel": {"phase_tamper_half_turns": [0.0, 0.5] * 4},
        }
    )
    record = run_scenario(cfg)
    assert record.protocol_run.sifted_length == 0
    emit_outputs(record, tmp_path)
    assert (tmp_path / "alice.key").read_text() == (tmp_path / "bob.key").read_text() == "\n"
    assert _metrics(tmp_path / "metrics.json").sifted_length == 0
    assert load_record(tmp_path / "record.json").protocol_run.record["D1"].click_count == 0


def test_metrics_recomputation_is_idempotent():
    record = run_golden("cow-blinding")
    first = summarize(record).to_dict()
    second = summarize(record).to_dict()
    assert first == second


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_run_golden_by_config_name(tmp_path, capsys):
    code = main(["run", "--config", "cow-fig2", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "visibility_overall=1.000000" in out
    assert (tmp_path / "out" / "metrics.json").exists()
    assert (tmp_path / "out" / "alice.key").read_text() == (tmp_path / "out" / "bob.key").read_text()


def test_cli_run_config_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"protocol": "dps", "n_symbols": 8, "seed": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_cli_attack_requires_attack_section(tmp_path, capsys):
    code = main(["attack", "--config", "dps-ideal", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "attack" in capsys.readouterr().err


def test_cli_attack_runs_and_reports_capture(tmp_path, capsys):
    code = main(["attack", "--config", "dps-blinding", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "capture_fraction=1.000000" in out
    assert "bob_record_equals_eve_readings=True" in out
    assert (tmp_path / "out" / "eve.key").exists()
    metrics = _metrics(tmp_path / "out" / "metrics.json")
    assert metrics.bob_record_equals_eve_readings is True


def test_cli_derived_dps_blinding_with_dark_counts_completes(tmp_path, capsys):
    # Eve's replica double-clicks on dark counts; the run must still finish.
    path = tmp_path / "scenario.yaml"
    scenario = {
        "protocol": "dps",
        "n_symbols": 100,
        "seed": 5,
        "detector": {"dark_count_prob": 0.02},
        "attack": {"kind": "blinding"},
    }
    path.write_text(yaml.safe_dump(scenario))
    code = main(["attack", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 3), capsys.readouterr().err


# Dark counts make Bob's reading 0 a click in this run; it carries no
# difference bit, so it must reach neither bob.key nor Bob's attack key.
DARK_DPS_BLINDING = {
    "protocol": "dps",
    "n_symbols": 40,
    "seed": 2,
    "detector": {"dark_count_prob": 0.2},
    "attack": {"kind": "blinding"},
}


def _run_cli(tmp_path, scenario: dict, command: str = "attack"):
    """Run ``scenario`` through the CLI; returns the exit code and the run directory."""
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out = tmp_path / "out"
    return main([command, "--config", str(path), "--out", str(out)]), out


def test_cli_derived_dps_blinding_writes_equal_length_keys(tmp_path):
    code, out = _run_cli(tmp_path, DARK_DPS_BLINDING)
    assert code in (0, 3)
    alice, bob = (_key_length(out / name) for name in ("alice.key", "bob.key"))
    assert alice == bob > 0


def test_cli_derived_dps_blinding_bob_key_is_his_sifted_key(tmp_path):
    code, out = _run_cli(tmp_path, DARK_DPS_BLINDING)
    assert code in (0, 3)
    record = load_record(out / "record.json")
    assert (out / "bob.key").read_text() == _key_text(record.protocol_run.sifted_bob)


_noise = st.fixed_dictionaries(
    {"dark_count_prob": st.floats(0.0, 0.1), "afterpulse_prob": st.floats(0.0, 0.2), "dead_time_slots": st.integers(0, 3)}
)


@st.composite
def any_run(draw):
    """A short run of either protocol under any attack kind, optionally with
    detector noise or with pinned blinding readings."""
    protocol = draw(st.sampled_from(["dps", "cow"]))
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["none", "backflash", "trojan", "blinding", "pinned-blinding"]))
    scenario = {
        "protocol": protocol,
        "n_symbols": n,
        "seed": draw(st.integers(0, 2**16)),
        "t_b": draw(st.sampled_from([0.5, 0.9])),
    }
    if draw(st.booleans()):
        scenario["detector"] = draw(_noise)
    if kind == "pinned-blinding":
        readings = st.lists(st.integers(0, 2 if protocol == "dps" else 3), min_size=1, max_size=2 * n + 3)
        scenario["attack"] = {"kind": "blinding", "blinding": {"readings": draw(readings)}}
    elif kind != "none":
        scenario["attack"] = {"kind": kind}
    return scenario


@settings(max_examples=60, deadline=None)
@given(any_run())
@example({"protocol": "cow", "n_symbols": 30, "seed": 1, "t_b": 0.9, "attack": {"kind": "blinding"}})
@example(DARK_DPS_BLINDING)
def test_every_run_sifts_on_alices_grid_and_writes_equal_keys(tmp_path_factory, scenario):
    code, out = _run_cli(tmp_path_factory.mktemp("run"), scenario, "run")
    assert code in (0, 3)
    run = load_record(out / "record.json").protocol_run
    n = scenario["n_symbols"]
    assert run.sifted_length <= (n - 1 if scenario["protocol"] == "dps" else n)
    assert run.sifted_alice.size == run.sifted_bob.size == run.sifted_slots.size
    assert run.qber is not None
    alice, bob = (_key_length(out / name) for name in ("alice.key", "bob.key"))
    assert alice == bob == run.sifted_length


def test_cow_reference_run_destructive_monitor_trace_negligible(tmp_path):
    record = run_golden("cow-fig2")
    emit_outputs(record, tmp_path)
    values = load_record(tmp_path / "record.json").protocol_run.record["D_M2"].intensity
    # Nothing above the quarter-intensity apparatus edges, and no detections.
    assert values.max() <= 0.25 * 0.1 + 1e-12
    assert record.protocol_run.record["D_M2"].click_count == 0


def test_cli_watchdog_alarm_exit_code(tmp_path):
    code = main(["run", "--golden", "dps-trojan-watchdog", "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_cli_missing_scenario(capsys):
    assert main(["run", "--config", "no-such-thing"]) == 1
    assert "no such file or golden" in capsys.readouterr().err


def test_cli_invalid_config_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("protocol: cow\nt_b: 1.3\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "t_b" in capsys.readouterr().err


def test_cli_rejects_the_removed_slot_period_as_an_unknown_key(tmp_path, capsys):
    # A slot is one complex amplitude and no result depends on its length, so a
    # scenario has no slot period: a document that still sets one fails at load.
    assert _run_document(tmp_path, "slot_period_s: 1.0e-9\n") == 1
    assert "slot_period_s: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_pinned_bits_outside_dps(tmp_path, capsys):
    # Pinned material of the other protocol would go unread, and the run would
    # draw random symbols from the alice-source stream: a silent nonsense result.
    assert _run_document(tmp_path, "protocol: cow\nbits: [0, 1, 1, 0]\nn_symbols: 8\n") == 1
    assert "config error: bits: pins DPS phase bits; a cow run takes no bits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert _run_document(tmp_path, "protocol: dps\nbits: [0, 1, 1, 0]\n") == 0


def test_cli_rejects_pinned_symbols_outside_cow(tmp_path, capsys):
    assert _run_document(tmp_path, "protocol: dps\nsymbols: 01d1\nn_symbols: 8\n") == 1
    assert "config error: symbols: pins COW symbols; a dps run takes no symbols" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert _run_document(tmp_path, "protocol: cow\nsymbols: 01d1\n") == 0


def test_cli_rejects_the_worked_example_policy_without_its_readings(tmp_path, capsys):
    # This used to validate and then fail at run time (exit 2): the policy's
    # drive table exists only for its published readings.
    blinding = "attack: {kind: blinding, blinding: {policy: worked-example"
    assert _run_document(tmp_path, f"protocol: dps\n{blinding}}}}}\n") == 1
    assert "config error: attack.blinding.policy: worked-example replays only" in capsys.readouterr().err
    readings = list(WORKED_EXAMPLE_READINGS)
    assert _run_document(tmp_path, f"protocol: dps\n{blinding}, readings: {readings}}}}}\n") == 0
    # COW derives its drive from the readings alone, under either policy.
    assert _run_document(tmp_path, f"protocol: cow\nt_b: 0.5\n{blinding}}}}}\n") == 0


def test_cli_report_recomputes_stored_metrics(tmp_path, capsys):
    assert main(["run", "--config", "cow-fig2", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["report", "--record", str(tmp_path / "out" / "record.json")]) == 0
    reported = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert reported == stored


def _edit_header(change):
    # The same array bytes under the changed header, framed as the writer
    # frames them: each array padded to start at a multiple of 8 bytes.
    def edit(data: bytes) -> bytes:
        version, tree, _, raw, trailer = split_record_file(data)
        change(tree)
        return join_record_file(version, tree, raw, trailer)

    return edit


def _edit_trailer(trailer: bytes):
    return lambda data: data[: data.rindex(b'{"wall_time_s"')] + trailer


def _array_start(data: bytes, path: tuple[str, ...]) -> int:
    """File offset of the first byte of the array at header ``path``."""
    return split_record_file(data)[2][path]


def _clicks_start(data: bytes) -> int:
    """Offset of D_B's first click byte (|u1) in a COW record."""
    return _array_start(data, (*_D_B, "clicks"))


def _first_click_byte(value: int):
    def edit(data: bytes) -> bytes:
        at = _clicks_start(data)
        return data[:at] + bytes([value]) + data[at + 1 :]

    return edit


def _drop_array_bytes(data: bytes) -> bytes:
    version, tree, _, raw, trailer = split_record_file(data)
    return join_record_file(version, tree, raw[3:], trailer)


# In a clean 8-symbol COW record D_M1's 17 clicks (|u1) end 7 bytes short of
# a multiple of 8, so 7 bytes of padding come before its level codes (|u1),
# whose first seven are not all zero.
_D_M1 = ("protocol_run", "record", "detectors", "D_M1")


def _set_padding_byte(data: bytes) -> bytes:
    at = _array_start(data, (*_D_M1, "level_codes")) - 1
    assert data[at] == 0
    return data[:at] + b"\x01" + data[at + 1 :]


def _drop_padding(data: bytes) -> bytes:
    # The level codes written at their unpadded offset, right after the
    # clicks, and the padding after them, so that every later array keeps its place.
    clicks_end = _array_start(data, (*_D_M1, "clicks")) + 17
    at = _array_start(data, (*_D_M1, "level_codes"))
    assert at - clicks_end == 7 and data[clicks_end:at] == bytes(7) and any(data[at : at + 7])
    end = at + 17
    return data[:clicks_end] + data[at:end] + bytes(7) + data[end:]


def _rewrite_array(path: tuple[str, ...], change):
    # The array at header ``path`` replaced by ``change`` of it, with the
    # dtype and shape it then has; every other array keeps its bytes.
    def edit(data: bytes) -> bytes:
        version, tree, _, raw, trailer = split_record_file(data)
        chunks, at = [], 0
        for where, leaf in array_leaves(tree):
            size = np.dtype(leaf["dtype"]).itemsize * math.prod(leaf["shape"])
            chunk = raw[at : at + size]
            at += size
            if where == path:
                arr = change(np.frombuffer(chunk, dtype=leaf["dtype"]))
                leaf.update(dtype=arr.dtype.str, shape=list(arr.shape))
                chunk = arr.tobytes()
            chunks.append(chunk)
        return join_record_file(version, tree, b"".join(chunks), trailer)

    return edit


def _set_clicks_dtype(dtype):
    def change(tree):
        tree["protocol_run"]["record"]["detectors"]["D_B"]["clicks"]["dtype"] = dtype

    return _edit_header(change)


def _set_readings_dtype(dtype):
    def change(tree):
        tree["attack"]["eve_readings"]["dtype"] = dtype

    return _edit_header(change)


def _move_elements(source: tuple[str, ...], target: tuple[str, ...], count: int):
    # Shorten one array and lengthen another of the same dtype by ``count``
    # elements: the file still frames, but the arrays' lengths no longer agree.
    def change(tree):
        for path, step in ((source, -count), (target, count)):
            leaf = tree
            for key in path:
                leaf = leaf[key]
            leaf["shape"] = [leaf["shape"][0] + step]

    return _edit_header(change)



_D_B = ("protocol_run", "record", "detectors", "D_B")


# Unreadable record files: kind -> (edit of a good record file's bytes, or
# None for no file; expected reason).  The kinds in ON_ATTACKED_RECORD edit
# an attacked record, the others a clean one.
BAD_RECORDS = {
    "missing": (None, "No such file"),
    "unknown-format": (
        lambda d: b"dprsim-record/10" + d[d.index(b"\n") :],
        "unsupported record version 'dprsim-record/10'",
    ),
    "no-version": (lambda d: d[d.index(b"\n") + 1 :], f"missing version line {RECORD_FORMAT!r}"),
    # mmap refuses an empty file; the loader reads it as no bytes instead.
    "empty": (lambda d: b"", f"missing version line {RECORD_FORMAT!r}"),
    "format-1": (
        lambda d: b'{"format": "dprsim-record/1", "config": {}}',
        "dprsim-record/1 file, which is no longer read",
    ),
    "format-2": (
        lambda d: b'{"config":{},"format":"dprsim-record/2","protocol_run":{},"wall_time_s":0.5}\n',
        "dprsim-record/2 file, which is no longer read",
    ),
    "format-3": (
        lambda d: b"dprsim-record/3" + d[d.index(b"\n") :],
        "dprsim-record/3 file, which is no longer read",
    ),
    "format-4": (
        lambda d: b"dprsim-record/4" + d[d.index(b"\n") :],
        "dprsim-record/4 file, which is no longer read",
    ),
    "format-5": (
        lambda d: b"dprsim-record/5" + d[d.index(b"\n") :],
        "dprsim-record/5 file, which is no longer read",
    ),
    "format-6": (
        lambda d: b"dprsim-record/6" + d[d.index(b"\n") :],
        "dprsim-record/6 file, which is no longer read",
    ),
    "format-7": (
        lambda d: b"dprsim-record/7" + d[d.index(b"\n") :],
        "dprsim-record/7 file, which is no longer read",
    ),
    "format-8": (
        lambda d: b"dprsim-record/8" + d[d.index(b"\n") :],
        "dprsim-record/8 file, which is no longer read",
    ),
    "invalid-json": (lambda d: RECORD_FORMAT.encode() + b"\n{not json\n", "header is not JSON"),
    "not-canonical": (lambda d: d.replace(b'{"attack":null,', b'{"attack": null,', 1), "header is not canonical"),
    "unknown-field": (_edit_header(lambda t: t["protocol_run"].update(qbr=0.0)), "unknown field 'protocol_run.qbr'"),
    "missing-field": (
        _edit_header(lambda t: t["protocol_run"].pop("protocol")),
        "missing field 'protocol_run.protocol'",
    ),
    "mistyped": (_edit_header(lambda t: t.update(config=[])), "config: expected a mapping, got list"),
    "mistyped-scalar": (
        _edit_header(lambda t: t["protocol_run"].update(qber="low")),
        "protocol_run.qber: expected float, got str",
    ),
    "dtype": (_set_clicks_dtype("<f4"), "protocol_run.record.detectors.D_B.clicks: unsupported array dtype '<f4'"),
    "dtype-type": (_set_clicks_dtype(["|u1"]), "clicks: unsupported array dtype ['|u1']"),
    "truncated": (lambda d: d[: _clicks_start(d) + 9], "clicks: array bytes end at byte"),
    "short-arrays": (_drop_array_bytes, "array bytes: the header's shapes take"),
    "no-trailer": (_edit_trailer(b""), "missing trailer"),
    "bad-trailer": (_edit_trailer(b'{"wall_time_s": }\n'), "malformed trailer"),
    "extra-trailer": (lambda d: d + b'{"wall_time_s": 2.0}\n', "extra bytes after the trailer"),
    "trailer-type": (_edit_trailer(b'{"wall_time_s": "soon"}\n'), "wall_time_s: expected float, got str"),
    "trailer-key": (_edit_trailer(b'{"cpu_s": 0.25, "wall_time_s": 0.5}\n'), "unknown trailer field 'cpu_s'"),
    "padding": (_set_padding_byte, "protocol_run.record.detectors.D_M1.level_codes: nonzero padding"),
    "unpadded-offset": (_drop_padding, "protocol_run.record.detectors.D_M1.level_codes: nonzero padding"),
    "bool-byte": (_first_click_byte(2), "protocol_run.record.detectors.D_B.clicks: byte 2 is not a boolean"),
    "trace-lengths": (
        _move_elements((*_D_B, "linear_mode"), ("protocol_run", "record", "detectors", "D_M1", "clicks"), 6),
        "protocol_run.record.detectors.D_B.linear_mode: 10 slots, but clicks has 16",
    ),
    "sifted-lengths": (
        _move_elements(("protocol_run", "sifted_alice"), ("protocol_run", "sifted_bob"), 1),
        "protocol_run.sifted_alice: 3 bits for 4 sifted_slots",
    ),
    # Every sift takes its slots in increasing order; four copies of one slot load as no run does.
    "sifted-order": (
        _rewrite_array(("protocol_run", "sifted_slots"), lambda slots: np.full_like(slots, 2)),
        "protocol_run.sifted_slots: slots are not strictly increasing",
    ),
    "two-dimensional": (
        _edit_header(lambda t: t["protocol_run"]["record"]["detectors"]["D_B"]["level_codes"].update(shape=[2, 8])),
        "protocol_run.record.detectors.D_B.level_codes: unsupported array dtype '|u1' or shape [2, 8]",
    ),
    # D_B holds two levels, so its codes are 0 and 1, one byte each.
    "code-past-levels": (
        _rewrite_array((*_D_B, "level_codes"), lambda codes: codes + 1),
        "protocol_run.record.detectors.D_B.level_codes: code 2 is past the 2 levels",
    ),
    "code-width": (
        _rewrite_array((*_D_B, "level_codes"), lambda codes: codes.astype("<u2")),
        "protocol_run.record.detectors.D_B.level_codes: uint16 codes for 2 levels, expected uint8",
    ),
    "no-levels": (
        _rewrite_array((*_D_B, "levels"), lambda levels: levels[:0]),
        "protocol_run.record.detectors.D_B.level_codes: code 1 is past the 0 levels",
    ),
    # Readings are int8 only, although unsigned bytes are a stored dtype elsewhere.
    "readings-dtype": (_set_readings_dtype("|u1"), "attack.eve_readings: unsupported array dtype '|u1'"),
}
ON_ATTACKED_RECORD = {"readings-dtype"}


@pytest.fixture(scope="module")
def good_record(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("good") / "record.json"
    save_record(run_scenario(scenario_from_dict({"protocol": "cow", "n_symbols": 8, "seed": 1})), path)
    assert main(["report", "--record", str(path)]) == 0
    return path.read_bytes()


@pytest.fixture(scope="module")
def attacked_record(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("attacked") / "record.json"
    scenario = {"protocol": "cow", "n_symbols": 8, "seed": 1, "t_b": 0.5, "attack": {"kind": "blinding"}}
    save_record(run_scenario(scenario_from_dict(scenario)), path)
    assert main(["report", "--record", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_cli_report_rejects_unreadable_record(tmp_path, capsys, good_record, attacked_record, kind):
    edit, reason = BAD_RECORDS[kind]
    path = tmp_path / "record.json"
    if edit is not None:
        path.write_bytes(edit(attacked_record if kind in ON_ATTACKED_RECORD else good_record))
    capsys.readouterr()
    assert main(["report", "--record", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read record {path}" in err
    assert reason in err


def test_cli_report_names_a_clicks_array_retyped_to_int64(tmp_path, capsys):
    # The same 16 bytes read as two int64 "clicks" would index past the
    # trace; a clicks array is stored as |u1 only.
    path = tmp_path / "record.json"
    save_record(run_scenario(scenario_from_dict({"protocol": "dps", "n_symbols": 15, "seed": 1})), path)

    def change(tree):
        leaf = tree["protocol_run"]["record"]["detectors"]["D1"]["clicks"]
        assert leaf == {"dtype": "|u1", "shape": [16]}
        leaf.update(dtype="<i8", shape=[2])

    path.write_bytes(_edit_header(change)(path.read_bytes()))
    capsys.readouterr()
    assert main(["report", "--record", str(path)]) == 1
    assert "protocol_run.record.detectors.D1.clicks: unsupported array dtype '<i8'" in capsys.readouterr().err


def test_loading_rejects_a_sifted_slot_outside_alices_grid():
    record = run_scenario(scenario_from_dict({"protocol": "cow", "n_symbols": 8, "seed": 1}))
    tree = record.to_dict()
    tree["protocol_run"]["sifted_slots"] = tree["protocol_run"]["sifted_slots"] + 8
    with pytest.raises(ValueError, match="^protocol_run.sifted_slots: a slot lies outside Alice's grid of 8"):
        RunRecord.from_dict(tree)


def _field_paths(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            yield where
            yield from _field_paths(value, where)


@st.composite
def _byte_preserving_rewrites(draw, header: dict):
    """New dtypes and shapes for one to three header leaves that together
    keep the bytes they had, so the file, padded again, still frames;
    returns the edited header."""
    leaves = dict(array_leaves(header))
    chosen = draw(st.lists(st.sampled_from(list(leaves)), min_size=1, max_size=3, unique=True))
    nodes = [leaves[path] for path in chosen]
    budget = sum(np.dtype(n["dtype"]).itemsize * math.prod(n["shape"]) for n in nodes)
    for i, node in enumerate(nodes):
        last = i == len(nodes) - 1
        dtypes = [d for d in ("|u1", "|i1", "<u2", "<u4", "<i8", "<f8") if not last or budget % np.dtype(d).itemsize == 0]
        dtype = draw(st.sampled_from(dtypes))
        size = np.dtype(dtype).itemsize
        count = budget // size if last else draw(st.integers(0, budget // size))
        budget -= count * size
        rows = draw(st.sampled_from([None] + [d for d in range(1, count + 1) if count % d == 0]))
        node.update(dtype=dtype, shape=[count] if rows is None else [rows, count // rows])
    return header


@pytest.fixture(scope="module")
def blinded_record_file(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("blinded") / "record.json"
    scenario = {"protocol": "dps", "n_symbols": 15, "seed": 1, "attack": {"kind": "blinding"}}
    save_record(run_scenario(scenario_from_dict(scenario)), path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rewritten_header_leaves_report_or_name_a_field(tmp_path_factory, blinded_record_file, data):
    # A header that claims other dtypes or shapes for the same array bytes
    # either loads as a record that summarize can read, or fails to load
    # with a ValueError naming a field; never a runtime error (exit 2).
    version, header, _, raw, trailer = split_record_file(blinded_record_file)
    tree = data.draw(_byte_preserving_rewrites(header))
    path = tmp_path_factory.mktemp("rewritten") / "record.json"
    path.write_bytes(join_record_file(version, tree, raw, trailer))
    try:
        record = load_record(path)
    except ValueError as exc:
        assert any(str(exc).startswith(f"{field}:") for field in _field_paths(tree)), str(exc)
        return
    json.dumps(summarize(record).to_dict())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--record", str(path)]) == 0


def _kind(hint) -> str:
    """What the config loader reads a field hint as: a scalar type's name, "tuple" (of
    such scalars or tuples), "section" (a dataclass), or "other" for a hint it cannot read."""
    hint = _inner(hint)
    if dataclasses.is_dataclass(hint):
        return "section"
    if typing.get_origin(hint) is tuple:
        elements = [_kind(arg) for arg in typing.get_args(hint) if arg is not Ellipsis]
        return "tuple" if all(kind not in ("section", "other") for kind in elements) else "other"
    return hint.__name__ if hint in (float, int, bool, str) else "other"


def _config_fields(kind: str, cls: type = ScenarioConfig, prefix: str = ""):
    """Dotted paths of the config fields whose hint, ``X | None`` unwrapped, is of ``kind``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = _inner(hints[f.name])
        found = _kind(hint)
        if found == "section":
            yield from _config_fields(kind, hint, f"{prefix}{f.name}.")
        elif found == kind:
            yield f"{prefix}{f.name}"


def test_every_config_field_hint_is_a_kind_the_loader_reads():
    assert list(_config_fields("other")) == []
    assert scenario_from_dict(ScenarioConfig().to_dict()) == ScenarioConfig()


# (field path, value carrying a NaN, path the error must name)
NAN_FIELDS = [(path, math.nan, path) for path in _config_fields("float")] + [
    ("channel.phase_tamper_half_turns", [0.0, math.nan], "channel.phase_tamper_half_turns[1]"),
    ("channel.excess_loss_db", {1924.0: math.nan}, "channel.excess_loss_db[0][1]"),
]


@pytest.mark.parametrize("path,value,named", NAN_FIELDS, ids=[case[0] for case in NAN_FIELDS])
def test_cli_rejects_nan_in_every_float_field(tmp_path, capsys, path, value, named):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, value))) == 1
    assert f"{named}: must be finite" in capsys.readouterr().err


def _at_path(path: str, value) -> dict:
    """A scenario document that sets the field at a dotted path."""
    doc: dict = {}
    node = doc
    *parents, leaf = path.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return doc


def _run_document(tmp_path, text: str) -> int:
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text)
    return main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("path", list(_config_fields("float")))
def test_cli_rejects_a_string_in_every_float_field(tmp_path, capsys, path):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, "1e-5"))) == 1
    assert f"{path}: must be a number, got '1e-5'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["no", 0])
@pytest.mark.parametrize("path", list(_config_fields("bool")))
def test_cli_rejects_a_non_boolean_in_every_bool_field(tmp_path, capsys, path, value):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, value))) == 1
    assert f"{path}: must be a boolean, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("path", list(_config_fields("int")))
def test_cli_rejects_a_non_integer_in_every_int_field(tmp_path, capsys, path, value):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, value))) == 1
    assert f"{path}: must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("path", list(_config_fields("str")))
def test_cli_rejects_a_list_in_every_str_field(tmp_path, capsys, path):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, ["dps"]))) == 1
    assert f"{path}: must be a string, got ['dps']" in capsys.readouterr().err


def _element(hint):
    """A well-typed value for an element hint of a tuple field."""
    args = typing.get_args(hint)
    return [_element(arg) for arg in args] if args else {int: 0, float: 0.0}[hint]


@pytest.mark.parametrize("path", list(_config_fields("tuple")))
def test_cli_rejects_a_string_in_every_tuple_field_and_names_a_bad_element(tmp_path, capsys, path):
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, "01"))) == 1
    assert f"{path}: must be a list, got '01'" in capsys.readouterr().err
    hint = ScenarioConfig
    for key in path.split("."):
        hint = _inner(typing.get_type_hints(hint)[key])
    first = _element(typing.get_args(hint)[0])
    assert _run_document(tmp_path, yaml.safe_dump(_at_path(path, [first, "x"]))) == 1
    assert f"{path}[1]: must be " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,named",
    [
        # Each of these used to run: a string read as true, a fraction truncated, a
        # string reaching the optics, a number iterated, a list used as a golden name.
        ("golden_name: dps-trojan\ncountermeasures: {watchdog: {enabled: 'no'}}",
         "countermeasures.watchdog.enabled: must be a boolean, got 'no'"),
        ("golden_name: dps-backflash-ideal\nattack: {backflash: {ideal: 'false'}}",
         "attack.backflash.ideal: must be a boolean, got 'false'"),
        ("bits: [0, 1, 1.5, 0]", "bits[2]: must be an integer, got 1.5"),
        ("attack: {kind: blinding, blinding: {readings: [1, 2.7, 0]}}",
         "attack.blinding.readings[1]: must be an integer, got 2.7"),
        ("channel: {phase_tamper_half_turns: 'abc'}", "channel.phase_tamper_half_turns: must be a list, got 'abc'"),
        ("protocol: cow\nsymbols: 1011", "symbols: must be a string, got 1011"),
        ("golden_name: [dps-ideal]", "golden_name: must be a string, got ['dps-ideal']"),
        ("golden_name: nope", "config error: unknown golden 'nope'; available: dps-ideal"),
        # Every type error comes before any domain error, wherever the fields sit.
        ("t_b: 2.0\ndetector: {dead_time_slots: 1.5}", "config error: detector.dead_time_slots: must be an integer, got 1.5"),
        # Intensities that square to a finite value but sum to infinity over the run.
        ("amplitude: 1.3e+154\nn_symbols: 1000", "amplitude: too large"),
        ("detector: {p_never: 0.6e+307, p_always: 1.0e+307}\nattack: {kind: blinding}", "detector.p_always: too large"),
    ],
    ids=["enabled", "ideal", "bits", "readings", "phase_tamper", "symbols", "golden_name", "unknown_golden",
         "type_before_domain", "amplitude_sum", "p_always_sum"],
)
def test_cli_rejects_a_mistyped_or_overflowing_document_at_load(tmp_path, capsys, text, named):
    assert _run_document(tmp_path, text) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        # Domain faults are reported in document order; the value named is the typed one.
        ({"t_b": 2, "n_symbols": 1}, "t_b: must be within (0, 1), got 2.0"),
        ({"n_symbols": 1, "t_b": 2}, "n_symbols: must be within [2, inf), got 1"),
        # A mapping of pairs is stored sorted, and its error names the index stored.
        ({"channel": {"excess_loss_db": {1924.0: 20.0, 0.0: 5.0}}},
         "channel.excess_loss_db[0][0]: must be within (0, inf), got 0.0"),
    ],
    ids=["t_b_first", "n_symbols_first", "sorted_pairs"],
)
def test_config_names_the_first_domain_fault_of_the_document(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


def test_cli_names_an_unknown_golden_without_quotes(capsys):
    assert main(["run", "--golden", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown golden 'nope'; available: dps-ideal")


def test_cli_dump_names_an_unknown_golden_as_a_usage_error(capsys):
    assert main(["goldens", "--dump", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown golden 'nope'; available: dps-ideal")


def test_cli_reports_an_internal_key_error_as_a_runtime_error(monkeypatch, capsys):
    # Only a golden lookup is a usage error; a KeyError from inside a run is a fault.
    def fails(cfg, seed=None):
        raise KeyError("D1")

    monkeypatch.setattr(cli, "run_scenario", fails)
    assert main(["run", "--golden", "dps-ideal"]) == 2
    assert capsys.readouterr().err == "runtime error: 'D1'\n"


def test_cli_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


def test_an_integer_and_a_float_amplitude_are_the_same_scenario():
    runs = [run_scenario(load_config(f"n_symbols: 32\namplitude: {a}")) for a in ("1", "1.0")]
    assert type(runs[0].config["amplitude"]) is float
    assert runs[0].content_hash() == runs[1].content_hash()


@pytest.mark.parametrize(
    "text,named",
    [
        # PyYAML reads an exponent without a dot as a string.
        ("detector: {dark_count_prob: 1e-5}", "detector.dark_count_prob: must be a number, got '1e-5'"),
        ('amplitude: "abc"', "amplitude: must be a number, got 'abc'"),
        ("amplitude: true", "amplitude: must be a number, got True"),
        ("amplitude: " + "9" * 400, "amplitude: must be finite"),
    ],
)
def test_cli_names_a_float_field_holding_a_non_number(tmp_path, capsys, text, named):
    assert _run_document(tmp_path, text) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,named",
    [
        ("amplitude: 1.0e+160", "amplitude"),
        ("attack: {kind: backflash, backflash: {emission_gain: 1.0e+200}}", "attack.backflash.emission_gain"),
        ("amplitude: 1.0e+100\nattack: {kind: backflash, backflash: {emission_gain: 1.0e+60}}", "attack.backflash.emission_gain"),
        ("amplitude: 1.0e-100\nattack: {kind: backflash, backflash: {emission_gain: 1.0e+160}}", "attack.backflash.emission_gain"),
        ("attack: {kind: trojan, trojan: {probe_amplitude: 1.0e+200}}", "attack.trojan.probe_amplitude"),
    ],
)
def test_cli_rejects_an_amplitude_whose_intensity_overflows(tmp_path, capsys, text, named):
    assert _run_document(tmp_path, text) == 1
    assert f"{named}: too large" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["backflash", "trojan", "blinding"])
def test_cli_runs_at_the_largest_amplitudes_it_accepts(tmp_path, kind):
    text = f"amplitude: 1.0e+150\nattack: {{kind: {kind}, backflash: {{emission_gain: 1.0}}, trojan: {{probe_amplitude: 1.0e+150}}}}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_document(tmp_path, text) == 0
    run = load_record(tmp_path / "out" / "record.json").protocol_run
    assert np.all(np.isfinite(run.record["D1"].intensity))


@pytest.mark.parametrize(
    "text,named",
    [
        ("amplitude: 1.0e-200", "amplitude: too small"),
        ("amplitude: 1.0e-155", "amplitude: too small"),  # squares to a subnormal float
        ("detector: {p_never: 1.0e+300, p_always: 1.0e+308}\nattack: {kind: blinding}", "detector.p_always: too large"),
        ("protocol: cow\nt_b: 0.5\ndetector: {p_always_m: 2.0e+307}\nattack: {kind: blinding}", "detector.p_always_m: too large"),
        ("protocol: cow\nt_b: 0.5\ndetector: {p_always_b: 2.0e+307}\nattack: {kind: blinding}", "detector.p_always_b: too large"),
        ("attack: {kind: blinding, blinding: {illumination_level: 1.0e+308}}", "attack.blinding.illumination_level: too large"),
        # The modulator drive of a phase tamper, 4 V per half turn, overflows past about 4.5e307 half turns.
        ("n_symbols: 8\nchannel: {phase_tamper_half_turns: [0.0, 4.1e+307]}",
         "channel.phase_tamper_half_turns[1]: must be within [-4e307, 4e307], got 4.1e+307"),
        ("protocol: cow\nn_symbols: 8\nchannel: {phase_tamper_half_turns: [-4.6e+307]}",
         "channel.phase_tamper_half_turns[0]: must be within [-4e307, 4e307], got -4.6e+307"),
    ],
)
def test_cli_rejects_an_intensity_that_underflows_or_overflows(tmp_path, capsys, text, named):
    assert _run_document(tmp_path, text) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["dps", "cow"])
def test_cli_runs_at_the_largest_phase_tamper_it_accepts(tmp_path, protocol):
    text = f"protocol: {protocol}\nn_symbols: 8\nchannel: {{phase_tamper_half_turns: [4.0e+307, -4.0e+307, 1.0]}}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_document(tmp_path, text) == 0
    run = load_record(tmp_path / "out" / "record.json").protocol_run
    assert all(np.all(np.isfinite(trace.intensity)) for trace in run.record.detectors.values())


@pytest.mark.parametrize("protocol", ["dps", "cow"])
def test_cli_runs_at_the_smallest_amplitude_it_accepts(tmp_path, protocol):
    # 1.5e-154 squares to just over the smallest normal float; Bob sifts as at amplitude 1.
    runs = []
    for amplitude in ("1.5e-154", "1.0"):
        (tmp_path / amplitude).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_document(tmp_path / amplitude, f"protocol: {protocol}\namplitude: {amplitude}") == 0
        runs.append(load_record(tmp_path / amplitude / "out" / "record.json").protocol_run)
    small, unit = runs
    assert small.sifted_length > 0 and small.qber == unit.qber == 0.0
    np.testing.assert_array_equal(small.sifted_slots, unit.sifted_slots)
    np.testing.assert_array_equal(small.sifted_bob, unit.sifted_bob)


@pytest.mark.parametrize(
    "argv,summaries",
    [
        (["run", "--config", "cow-fig2"], 1),
        (["attack", "--golden", "dps-backflash-ideal"], 1),
        (["goldens", "--run", "dps-blinding"], 1),
        (["sweep", "--config", "dps-ideal", "--param", "n_symbols", "--values", "16,32,48"], 3),
    ],
)
def test_cli_summarizes_each_record_once(tmp_path, monkeypatch, capsys, argv, summaries):
    calls, original = [], report.summarize

    def counted(record):
        calls.append(record)
        return original(record)

    for module in (cli, report):  # the CLI's own name for it, and the one emit_outputs reads
        monkeypatch.setattr(module, "summarize", counted)
    assert main([*argv, "--out", str(tmp_path)]) in (0, 3)
    assert len(calls) == summaries == len({id(record) for record in calls})


def test_cli_goldens_listing(capsys):
    assert main(["goldens"]) == 0
    out = capsys.readouterr().out
    assert "cow-fig2" in out and "dps-blinding" in out


def test_cli_goldens_dump_is_loadable(capsys):
    assert main(["goldens", "--dump", "cow-fig4-tamper"]) == 0
    dumped = yaml.safe_load(capsys.readouterr().out)
    cfg = scenario_from_dict(dumped)
    assert cfg.channel.phase_tamper_half_turns is not None


def test_cli_goldens_run_single(tmp_path):
    assert main(["goldens", "--run", "cow-fig2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cow-fig2" / "metrics.json").exists()


def test_cli_default_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DPRSIM_OUT_ROOT", str(tmp_path))
    assert main(["run", "--config", "cow-fig2"]) == 0
    assert (tmp_path / "dprsim-cow-fig2" / "metrics.json").exists()


def test_cli_seed_override_lands_in_record(tmp_path):
    assert main(["run", "--config", "dps-ideal", "--seed", "4242", "--out", str(tmp_path / "a")]) == 0
    record = load_record(tmp_path / "a" / "record.json")
    assert record.config["seed"] == 4242


def test_cli_sweep(tmp_path):
    code = main(
        [
            "sweep",
            "--config", "cow-blinding",
            "--param", "t_b",
            "--values", "0.5,0.7",
            "--out", str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    data = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert data["param"] == "t_b"
    assert len(data["points"]) == 2
    assert (tmp_path / "sw" / "point_000" / "metrics.json").exists()


@pytest.mark.parametrize(
    ("param", "values"),
    [("n_symbols", "16,32"), ("detector.dead_time_slots", "0,2"), ("n_symbols", "16.0,3.2e1")],
)
def test_cli_sweep_integer_parameter(tmp_path, param, values):
    assert main(["sweep", "--config", "dps-ideal", "--param", param, "--values", values, "--out", str(tmp_path)]) == 0
    points = json.loads((tmp_path / "sweep.json").read_text())["points"]
    ran = [load_record(tmp_path / f"point_{i:03d}" / "record.json").config for i in range(len(points))]
    for point, config in zip(points, ran):
        for key in param.split("."):
            config = config[key]
        assert type(point["value"]) is int and point["value"] == config


def test_cli_sweep_integer_parameter_rejects_fraction(tmp_path, capsys):
    assert main(["sweep", "--config", "dps-ideal", "--param", "n_symbols", "--values", "16.5", "--out", str(tmp_path)]) == 1
    assert "n_symbols" in capsys.readouterr().err


def test_cli_sweep_rejects_seed(tmp_path, capsys):
    assert main(["sweep", "--config", "dps-ideal", "--param", "seed", "--values", "1e30", "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_cli_sweep_bad_values(capsys):
    assert main(["sweep", "--config", "dps-ideal", "--param", "t_b", "--values", "a,b"]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_metrics_format_guard(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(ValueError):
        _metrics(bad)
    with pytest.raises(ValueError):
        MetricsSummary.from_dict({"format": "nope"})


# ---------------------------------------------------------------------------
# The README's Python API
# ---------------------------------------------------------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_python_block_runs(tmp_path, monkeypatch):
    # The README's one Python block loads a stored run through the top-level
    # names; it runs as written from the directory that holds ``out/``.
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    assert main(["run", "--golden", "dps-blinding", "--out", str(tmp_path / "out")]) == 0
    monkeypatch.chdir(tmp_path)
    exec(block, {})


def test_readme_lists_the_top_level_names():
    section = README.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = next(paragraph for paragraph in section.split("\n\n") if paragraph.startswith("- "))
    listed = set(re.findall(r"`(\w+)`", bullets))
    exported = {name for name, value in vars(dprsim).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert listed == exported and len(exported) == 15
