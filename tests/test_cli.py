import dataclasses
import json
import math
import typing

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dprsim.cli import main
from dprsim.config import ScenarioConfig, scenario_from_dict
from dprsim.report import (
    MetricsSummary,
    emit_outputs,
    load_metrics,
    load_record,
    read_events,
    read_key,
    summarize,
)
from dprsim.detectors import DetectionRecord, DetectorTrace
from dprsim.scenario import run_golden, run_scenario


# ---------------------------------------------------------------------------
# Output files round-trip
# ---------------------------------------------------------------------------


def test_emit_outputs_round_trip(tmp_path):
    record = run_golden("cow-fig2")
    emit_outputs(record, tmp_path)

    events = read_events(tmp_path / "events.tsv")
    bob = record.protocol_run.record
    assert set(events) == set(bob.names)
    for name in bob.names:
        np.testing.assert_array_equal(events[name]["click"], bob[name].clicks)
        np.testing.assert_array_equal(events[name]["intensity"], bob[name].intensity)

    assert read_key(tmp_path / "alice.key").tolist() == record.protocol_run.sifted_alice.tolist()
    assert read_key(tmp_path / "bob.key").tolist() == record.protocol_run.sifted_bob.tolist()

    stored = load_metrics(tmp_path / "metrics.json")
    assert stored.to_dict() == summarize(record).to_dict()

    clone = load_record(tmp_path / "record.json")
    assert clone.content_hash() == record.content_hash()
    assert summarize(clone).to_dict() == stored.to_dict()


def test_trace_files_cover_every_detector(tmp_path):
    record = run_golden("cow-fig2")
    emit_outputs(record, tmp_path)
    for name in record.protocol_run.record.names:
        lines = (tmp_path / f"trace_{name}.tsv").read_text().splitlines()
        assert lines[0].startswith("# dprsim-trace/1")
        slots = [float(line.split("\t")[1]) for line in lines[2:]]
        np.testing.assert_allclose(slots, record.protocol_run.record[name].intensity)


# Few distinct values per trace, as in a pulse-level run, with the values a
# table keyed on float equality would merge: 0.0 and -0.0.
_VALUE = st.sampled_from([0.0, -0.0, math.nan, math.inf, 0.5]) | st.floats()
_SLOT = st.tuples(_VALUE, st.booleans(), st.booleans())


@settings(max_examples=40, deadline=None)
@given(st.lists(_SLOT, max_size=40), st.lists(_SLOT, max_size=40))
@example([(0.0, False, False), (-0.0, True, True), (math.nan, True, False)], [])
def test_tables_match_per_slot_formatting(tmp_path_factory, first, second):
    # NaN, infinities and both zeros included: each value must print as its
    # own repr, exactly as a per-slot loop writes it.
    base = run_scenario(scenario_from_dict({"protocol": "dps", "n_symbols": 4, "seed": 1}))
    traces = {}
    for name, slots in (("D1", first), ("D2", second)):
        values = np.array([v for v, _, _ in slots], dtype=np.float64)
        traces[name] = DetectorTrace(
            clicks=np.array([c for _, c, _ in slots], dtype=bool),
            intensity=values,
            photocurrent=values,
            linear_mode=np.array([m for _, _, m in slots], dtype=bool),
        )
    run = dataclasses.replace(base.protocol_run, record=DetectionRecord(traces))
    record = dataclasses.replace(base, protocol_run=run)
    out = tmp_path_factory.mktemp("tables")
    emit_outputs(record, out)
    rows = []
    for name, trace in traces.items():
        modes = trace.mode_labels()
        cells = [f"{float(v)!r}" for v in trace.intensity]
        rows += [f"{k}\t{name}\t{cell}\t{int(trace.clicks[k])}\t{modes[k]}" for k, cell in enumerate(cells)]
        trace_lines = (out / f"trace_{name}.tsv").read_text().splitlines()[2:]
        assert trace_lines == [f"{k}\t{cell}" for k, cell in enumerate(cells)]
    assert (out / "events.tsv").read_text().splitlines()[2:] == rows


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
    assert read_key(tmp_path / "alice.key").size == 0
    assert read_key(tmp_path / "bob.key").size == 0
    assert load_metrics(tmp_path / "metrics.json").sifted_length == 0
    assert read_events(tmp_path / "events.tsv")["D1"]["click"].sum() == 0


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
    assert read_key(tmp_path / "out" / "alice.key").tolist() == read_key(tmp_path / "out" / "bob.key").tolist()


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
    metrics = load_metrics(tmp_path / "out" / "metrics.json")
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


def test_cow_reference_run_destructive_monitor_trace_negligible(tmp_path):
    record = run_golden("cow-fig2")
    emit_outputs(record, tmp_path)
    lines = (tmp_path / "trace_D_M2.tsv").read_text().splitlines()[2:]
    values = [float(line.split("\t")[1]) for line in lines]
    # Nothing above the quarter-intensity apparatus edges, and no detections.
    assert max(values) <= 0.25 * 0.1 + 1e-12
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


def test_cli_report_recomputes_stored_metrics(tmp_path, capsys):
    assert main(["run", "--config", "cow-fig2", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["report", "--record", str(tmp_path / "out" / "record.json")]) == 0
    reported = json.loads(capsys.readouterr().out)
    stored = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert reported == stored


# Unreadable record files: (file content or None for no file, expected reason).
BAD_RECORDS = {
    "missing": (None, "No such file"),
    "invalid-json": ("{not json", "Expecting property name"),
    "unknown-format": ('{"format": "dprsim-record/9"}', "unsupported record format 'dprsim-record/9'"),
    "format-1": ('{"format": "dprsim-record/1", "config": {}}', "dprsim-record/1 file, which is no longer read"),
    "truncated": ('{"format": "dprsim-record/2"}', "missing field 'config'"),
    "mistyped": ('{"format": "dprsim-record/2", "config": []}', "'list' object has no attribute 'items'"),
}


@pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
def test_cli_report_rejects_unreadable_record(tmp_path, capsys, kind):
    content, reason = BAD_RECORDS[kind]
    path = tmp_path / "record.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", "--record", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read record {path}" in err
    assert reason in err


def _float_field_paths(cls: type = ScenarioConfig, prefix: str = ""):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            yield from _float_field_paths(hint, f"{prefix}{f.name}.")
        elif hint is float or float in typing.get_args(hint):
            yield f"{prefix}{f.name}"


# (field path, value carrying a NaN, path the error must name)
NAN_FIELDS = [(path, math.nan, path) for path in _float_field_paths()] + [
    ("channel.phase_tamper_half_turns", [0.0, math.nan], "channel.phase_tamper_half_turns[1]"),
    ("channel.excess_loss_db", {1924.0: math.nan}, "channel.excess_loss_db[0][1]"),
]


@pytest.mark.parametrize("path,value,named", NAN_FIELDS, ids=[case[0] for case in NAN_FIELDS])
def test_cli_rejects_nan_in_every_float_field(tmp_path, capsys, path, value, named):
    doc: dict = {}
    node = doc
    *parents, leaf = path.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    scenario = tmp_path / "nan.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert f"{named}: must be finite" in capsys.readouterr().err


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


def test_cli_sweep_bad_values(capsys):
    assert main(["sweep", "--config", "dps-ideal", "--param", "t_b", "--values", "a,b"]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_metrics_format_guard(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(ValueError):
        load_metrics(bad)
    with pytest.raises(ValueError):
        MetricsSummary.from_dict({"format": "nope"})
