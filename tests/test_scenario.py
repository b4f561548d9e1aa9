import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dprsim
from dprsim.cli import main
from dprsim.config import AttackSettings, BlindingSettings, ConfigError, DetectorSettings, ScenarioConfig, scenario_from_dict
from dprsim.detectors import apd_detect
from dprsim.goldens import GOLDENS, golden_config_dict
from dprsim.report import emit_outputs, load_record, save_record, summarize
from dprsim.scenario import (
    RngFactory,
    RunRecord,
    _alice_material,
    _on_grid,
    _receive,
    _transmit,
    derive_sweep_seed,
    load_config,
    run_golden,
    run_scenario,
    sweep,
)

from _oracles import (
    blinding_light,
    blinding_trace_loop,
    join_record_file,
    load_record_copied,
    record_v1_hash,
    split_record_file,
)

SMALL_DPS = {"protocol": "dps", "n_symbols": 16, "seed": 5}

# Content addresses of the pinned scenarios; a drift here is a re-baseline,
# not a refactor.
GOLDEN_HASHES = {
    "dps-ideal": "9f72bbe3f8b380d9ef07931e574b00554873664de1e023a2efe41a95f79412ab",
    "cow-fig2": "3ada4d7550a7d287eb1236991d11c7ef87768317c5cca3f8425a0f8c231c6f20",
    "cow-fig4-tamper": "e546721c0a98e7504aee802d0fc0b6fe839ca9e240c0d47d06a61aed3a5272fe",
    "dps-backflash-ideal": "c8c339d0231ad50ad21b13fd605e2036f0b0a3b9f4e089db492b45cc6b845f77",
    "cow-backflash-ideal": "0b22070ddba956647c060674e673b8369f264ed3d2a87e034b0209d70a88d347",
    "dps-backflash-stat": "bef97897826b47ecf4a169370d8507748b9df2877e15cd2871e8c003653d480b",
    "dps-trojan": "3bac15e3fe417e9cc468c42ff7d0262ea1fc86e8ca15599e095ade4422298788",
    "dps-trojan-watchdog": "20a4beaf8f6602850d091e82dab2f0bd96704fa07de126fa1de3ff95276faffc",
    "cow-trojan": "887e9b2f9a19456a26d2e4c883e3239b367a648bab0f32864fbdb244884bdd47",
    "dps-blinding": "66bbc61b92eabfc342c9223556bff6082db35acab9eb6b251700362692ed4a63",
    "dps-blinding-derived": "4cd368eb54bd85908d4975fc9b62002bb1e2f48af43e53b72bbeca52649d569e",
    "cow-blinding": "1351913f0850dfdf958b0ad1a884e523f10dd8b1afe4e2b2a5164332477c4e2b",
    "cow-blinding-cw": "93d7e60124d6c194367d74c96b7629ebf627d911b33fa0b2baced5657edda953",
}

# Record content hashes of the pinned scenarios (dprsim-record/9: canonical
# header plus raw little-endian array bytes, each run value stored once, each
# detector's intensity as its sorted distinct levels and one code per slot,
# and no photocurrent, which the intensity and the settings derive).
GOLDEN_RECORD_HASHES = {
    "dps-ideal": "095342d1543e974a7d01e2780254d336a3f97d0315dc7b06c0c02765785392d7",
    "cow-fig2": "dca07a5322241a1aa61903380cea56cabb879b4abee004dd731f508eafdb362d",
    "cow-fig4-tamper": "7d6e5ca7d1d50b3785b55f2aef61106dbec23cb454ec80fe0e7ba7bd24cc1005",
    "dps-backflash-ideal": "2061807805d404ee305d6476e4146906737e940468ace32caf822b9853e3d697",
    "cow-backflash-ideal": "1a46eca25d3b657df0eb11d731e81733d3de9e263f2ab503eec38d09e05bf576",
    "dps-backflash-stat": "af74744cdb055e6975cd07c5a6ccd1f78b0e5856eab6a4a40689d9ce06ffe507",
    "dps-trojan": "cdc78b29d7c0b380b1d4e8bf5dd6f51bea1d0022a4391430bd029a63db567178",
    "dps-trojan-watchdog": "4bb609222c582a883d19e1b483a01525864a7c056ef2c60fe3a1e745488cae81",
    "cow-trojan": "93dc3641229ebf1fb62fb287a58858d68985b0bba004c93840e50cdd65e97ae3",
    "dps-blinding": "8744f71e25abe625843055077ca01ff0679e6368bdc7b2803660bd4653db4bf7",
    "dps-blinding-derived": "fbf8a968b4c138edb44d71a0aa694831a9c9c2beea065882205fa5738f52b437",
    "cow-blinding": "87c41b6fa1f8df971464631d07ae5b2f1153c54af51d42334e8d8d7933263c00",
    "cow-blinding-cw": "d2c9c670e5e3e74efe0ce8108c846292be042ee3745444fb459539eeed8ed08c",
}

# The same records hashed by the retired dprsim-record/1 serializer
# (``record_v1_hash``), taken before the array codec replaced it: these pin the
# simulated values, whatever the record format.
GOLDEN_RECORD_V1_HASHES = {
    "dps-ideal": "b042f88da8f4a9bf8ff5723167a81193b7530cea8ecc0347fcb44f95d1bfb1ba",
    "cow-fig2": "1af35a953337f741081c22db109996698cdba2c78440e86b9b76d63b7706cc9d",
    "cow-fig4-tamper": "ef010fa1b4703b3f7148a602dcdfb020b3c979602251c4cbb548c0f50d706d85",
    "dps-backflash-ideal": "b0d87767817d315b44f6a2e2d5e97b2a71bc76dfd250f436c3b46518aaada7a1",
    "cow-backflash-ideal": "1241c71ee39ff56bc91efea0ee92c6b1b3f5532a7325fc522f4421217d8e7d3d",
    "dps-backflash-stat": "0dd654d8d933ab6b027c73e4218fc89895ce36b5a447b3496acc7bda0f4791d0",
    "dps-trojan": "0bb495feecdf5c9085a8cfb77e9bdf546e21b94e13e4b7e89205b448519a95c2",
    "dps-trojan-watchdog": "89b165130e0d01ab8b202bbc6b80e02f8ab5f6cb11455e9921fdc2aa236817d7",
    "cow-trojan": "0414e1eeb7cc1ae9d539a32fa011df90d73efa8a1d2db77b81707390205524ad",
    "dps-blinding": "6f3ea521850d83450d28dfcff128335cee1680ccc8283411753eab3b16ee7635",
    "dps-blinding-derived": "1a7543768bb6700dbe1493878b00c89011b5d1c5f1cd651adc926013d689adda",
    "cow-blinding": "c1b1e50c96086b0cafc0d29b9f0fa1546106ce6e95f651c5a816a096662d8eab",
    "cow-blinding-cw": "0d8e32c026af2a65e78a66c2e9dbbce054c398b971512c5719b82df1c89d2521",
}

# SHA-256 over the SHA-256 hex digests of every emitted file except
# record.json, concatenated in sorted file-name order.
GOLDEN_OUTPUT_DIGESTS = {
    "dps-ideal": "351d805236f7d362676e3efa7ad2e16e9e3ae58e0379309d5910a3a7eed70ff9",
    "cow-fig2": "f1a702bb0d9e29b72c498c111cd6f47734542a2422eb25c874f249f9f9a21f74",
    "cow-fig4-tamper": "0d10549c0485bc04a364e51885523f421adc2bd4dcd949e599ae19c16eb92539",
    "dps-backflash-ideal": "9aaac1ff21891ca4ba12d82f94a49c062032617b078abd9e9d9c254e736bdcea",
    "cow-backflash-ideal": "cb0139b38bc717808e4026389d5e729feb61a719d956945c9fb9aded925b3663",
    "dps-backflash-stat": "eda1372fab2afe6f49db868e3758421e3d9d16d721842075b911db9a8a7a5051",
    "dps-trojan": "676a62ab49fd82003fde768eeba4e8886fc3e4250a0c374e589216f6ce0c4eca",
    "dps-trojan-watchdog": "857bb1969e3a6586ff92124dc231a1fe7b5afcae2f0ce47bab8f0742a78fb6cd",
    "cow-trojan": "91a93bf78f68b21247c437d7d12aa29cdabb3600c6e6dddb4b73647e438c6691",
    "dps-blinding": "7330c57610da8e0788b4466794d343bfc9c37631cb5a21185c9e42ae5c0de25d",
    "dps-blinding-derived": "2d044718afeb572ba5faabcff965ca6fd58b918eac05bb306c14903e23537d39",
    "cow-blinding": "3484b90814acafae79472a6c5aa3a027ef2db310afd789f4a95a8ebc6c3d0020",
    "cow-blinding-cw": "9fc242060146f71122f64d3859dfea324967b2fcac9893ec73fb5aa2a6a96a75",
}


# Short runs with every receiver noise source on: dark counts, afterpulses and
# dead time make Bob's and Eve's detectors draw from their named rng streams,
# so these pin the stream names and the draw order of every receiver.  The
# blinded replay draws only where a detector leaves linear mode (weak light)
# or a trigger lands between the rails (a rail gap too narrow for DPS).
NOISY_DETECTOR = {"dark_count_prob": 0.02, "afterpulse_prob": 0.05, "dead_time_slots": 2}
NOISY_RUNS = {
    "dps-clean": {"protocol": "dps", "n_symbols": 200, "seed": 11},
    "cow-clean": {"protocol": "cow", "n_symbols": 100, "seed": 12},
    "dps-blinding": {"protocol": "dps", "n_symbols": 200, "seed": 13, "attack": {"kind": "blinding"}},
    "cow-blinding": {"protocol": "cow", "n_symbols": 100, "seed": 14, "t_b": 0.5, "attack": {"kind": "blinding"}},
    "dps-backflash": {"protocol": "dps", "n_symbols": 200, "seed": 15, "attack": {"kind": "backflash"}},
    "cow-backflash": {"protocol": "cow", "n_symbols": 100, "seed": 16, "attack": {"kind": "backflash"}},
    "dps-trojan": {"protocol": "dps", "n_symbols": 200, "seed": 17, "attack": {"kind": "trojan"}},
    "cow-trojan": {"protocol": "cow", "n_symbols": 100, "seed": 18, "attack": {"kind": "trojan"}},
    "dps-blinding-between-rails": {
        "protocol": "dps",
        "n_symbols": 200,
        "seed": 19,
        "detector": {"p_never": 0.15},
        "attack": {"kind": "blinding"},
    },
    "cow-blinding-weak-light": {
        "protocol": "cow",
        "n_symbols": 100,
        "seed": 20,
        "t_b": 0.5,
        "attack": {"kind": "blinding", "blinding": {"illumination_level": 5.0}},
    },
}
# Record content hashes of the noisy runs (dprsim-record/9).
NOISY_RUN_HASHES = {
    "dps-clean": "5029b65ba13767bc4448708a483bc13718cd3849c84eaaa6ada93b5a74f6992e",
    "cow-clean": "aae60345a903201becc60a7c05ee350544f476b8baaa0e2bbf3836af843bf9e2",
    "dps-blinding": "f5a9edd790bbd46cf02ab82a498f8850ac885c041a3a4f6556beeb7f26b3e17f",
    "cow-blinding": "76aacf8e271d96da0bfb5bcceb8ab833fba3c1f71cd3c2c2e90d137c73ffbb71",
    "dps-backflash": "e5242f33250163e4051a4688916e32865d3b8e0a64df88f544a47a171a222ec0",
    "cow-backflash": "c3bead3a5929ac9445b146c94586fd6ad0618025160757d55913805ea9e8a4c8",
    "dps-trojan": "ae2af6b8cd3d118acb538b34838a471da2b406942220dfdabf4eb5d7f22f39f1",
    "cow-trojan": "5e810d8aa19e50894925f3ba943ad0874ac1c2c609981f5e880f18be0b37845f",
    "dps-blinding-between-rails": "887aec9dcff8ef806ef649ee62d2f9e3a39abb377b450501717e9f5b5676bcbf",
    "cow-blinding-weak-light": "3e1bd415f904896e071a302f83a9d3da1bce75c2a25f62e18cc56a7b125836ed",
}

# The same runs hashed by ``record_v1_hash``, taken before dprsim-record/4:
# these pin the simulated values of the noisy runs, whatever the record format.
NOISY_RUN_V1_HASHES = {
    "dps-clean": "392b30d0ab188e54258d77b1e9ed60e277ffa509970e78212fe117cc5f426296",
    "cow-clean": "a50f82c013a542a25dc02a5c1efc10fc06920377bd5d12f1f10cf3e536e1b45c",
    "dps-blinding": "8b8855a6558c0bb53d972277a868b65558c07d59f3adf26e0f6994caad21698b",
    "cow-blinding": "4ef98b36a0a7b49525fe9b8c7e55ba363f48ee081abe37a44990695833800834",
    "dps-backflash": "6f5373e24ce0fb1ca136fa6cf09184a18631e711b7e60d23d149979e23c2f60b",
    "cow-backflash": "7638854edd57ffbcf98a144a39e568feb2d226bae244e4240682785e7ed96fff",
    "dps-trojan": "b18ae3e8cf3a4410773269c06a852a0ba10e66553331d295a9e3397b01a7b27c",
    "cow-trojan": "3aa6bbe2b61a0192516c0ce683937028ff4b0d026aca8fc2699dd09b0087a9ef",
    "dps-blinding-between-rails": "c436de6a6541fdca07684eb5f0d6bab2eca55dfad9643f95bd2f1bd2ab87a1a3",
    "cow-blinding-weak-light": "8a59e5418a33644e2ee17578d7a6e0fd375970b4ff94df0dd8c81746a55a77bc",
}


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_resolves_golden_name():
    cfg = load_config("golden_name: cow-fig2\n")
    assert cfg.protocol == "cow"
    assert cfg.symbols == "01d10001d1"
    assert cfg.t_b == 0.9
    assert cfg.attack.kind == "none"
    assert cfg.golden_name == "cow-fig2"


def test_load_config_overlay_on_golden():
    cfg = load_config("golden_name: cow-fig2\nseed: 99\n")
    assert cfg.seed == 99
    assert cfg.symbols == "01d10001d1"


def test_load_config_empty_attack_section_means_none():
    cfg = load_config("protocol: dps\nattack: {}\n")
    assert cfg.attack.kind == "none"


def test_load_config_rejects_out_of_range_transmittance():
    with pytest.raises(ConfigError, match=r"t_b.*\(0, 1\).*1\.3"):
        load_config("protocol: cow\nt_b: 1.3\n")


def test_load_config_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError, match="attack.trojann"):
        load_config("protocol: dps\nattack:\n  trojann: {}\n")
    with pytest.raises(ConfigError, match="detector.p_alway"):
        load_config("protocol: dps\ndetector:\n  p_alway: 0.4\n")


def test_load_config_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        load_config("protocol: dps\n  bad_indent: [\n")


def test_load_config_unknown_golden():
    with pytest.raises(ConfigError, match="unknown golden"):
        load_config("golden_name: no-such-golden\n")


def test_config_rejects_infinity_in_every_field(tmp_path, capsys):
    # YAML reads ".inf" as a float and "inf" as a string; both must name the field.
    for text, named in (("amplitude: .inf\n", "amplitude: must be finite"),
                        ("amplitude: inf\n", "amplitude: must be a number, got 'inf'")):
        scenario = tmp_path / "inf.yaml"
        scenario.write_text(text)
        assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err
    with pytest.raises(ConfigError, match="channel.bob_filter_extinction_db: unknown key"):
        load_config("channel:\n  bob_filter_extinction_db: .inf\n")


def test_config_rejects_probe_at_signal_wavelength():
    with pytest.raises(ConfigError, match="probe"):
        scenario_from_dict(
            {"protocol": "dps", "attack": {"kind": "trojan", "trojan": {"probe_wavelength_nm": 1550.0}}}
        )


def test_config_rejects_dps_reading_out_of_alphabet():
    with pytest.raises(ConfigError, match=r"readings\[1\]"):
        scenario_from_dict(
            {"protocol": "dps", "attack": {"kind": "blinding", "blinding": {"readings": [0, 3]}}}
        )


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------


def test_identical_config_and_seed_reproduce_every_byte():
    cfg = scenario_from_dict(SMALL_DPS)
    hashes = {run_scenario(cfg).content_hash() for _ in range(100)}
    assert len(hashes) == 1


def test_seed_override_changes_and_reproduces():
    cfg = scenario_from_dict(SMALL_DPS)
    a = run_scenario(cfg, seed=123)
    b = run_scenario(cfg, seed=123)
    c = run_scenario(cfg, seed=124)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def _round_trips(record, tmp_path):
    """The record rebuilt from its plain tree and reloaded from its file."""
    path = tmp_path / "record.json"
    save_record(record, path)
    return RunRecord.from_dict(record.to_dict()), load_record(path)


def _hashed_span(data: bytes) -> bytes:
    """A record file minus its version line, its header's newline, its
    padding and its trailer."""
    version, header, _, raw, _ = split_record_file(data)
    assert version == b"dprsim-record/9"
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + raw


def test_record_round_trips_through_plain_data(tmp_path):
    record = run_golden("cow-fig2")
    for clone in _round_trips(record, tmp_path):
        assert clone.content_hash() == record.content_hash()
        assert clone.protocol_run.qber == record.protocol_run.qber
        np.testing.assert_array_equal(clone.protocol_run.sifted_bob, record.protocol_run.sifted_bob)
        rec, orig = clone.protocol_run.record, record.protocol_run.record
        assert rec.names == orig.names
        for name in rec.names:
            np.testing.assert_array_equal(rec[name].clicks, orig[name].clicks)
            np.testing.assert_array_equal(rec[name].intensity, orig[name].intensity)


def test_attack_record_round_trips(tmp_path):
    record = run_golden("cow-blinding")
    for clone in _round_trips(record, tmp_path):
        np.testing.assert_array_equal(clone.attack.eve_readings, record.attack.eve_readings)
        assert clone.attack.feasibility == record.attack.feasibility
        assert clone.content_hash() == record.content_hash()


def test_content_hash_is_header_plus_raw_array_bytes(tmp_path):
    record = run_golden("cow-blinding")
    arrays: list[bytes] = []

    def strip(node):
        if isinstance(node, np.ndarray):
            arrays.append(node.tobytes())
            return {"dtype": node.dtype.str, "shape": list(node.shape)}
        if isinstance(node, dict):
            return {k: strip(node[k]) for k in sorted(node)}
        return node

    header = strip(record.to_dict())
    del header["wall_time_s"]
    canonical = json.dumps(header, sort_keys=True, separators=(",", ":"))
    assert canonical == record.canonical_json()
    digest = hashlib.sha256(canonical.encode())
    for data in arrays:
        digest.update(data)
    assert digest.hexdigest() == record.content_hash()
    # The file holds exactly these bytes between its version line and
    # trailer, each array zero-padded to start at a multiple of 8 bytes.
    path = tmp_path / "record.json"
    save_record(record, path)
    trailer = json.dumps({"wall_time_s": record.wall_time_s}).encode() + b"\n"
    data = path.read_bytes()
    assert data == join_record_file(b"dprsim-record/9", json.loads(canonical), b"".join(arrays), trailer)
    assert data.startswith(b"dprsim-record/9\n" + canonical.encode() + b"\n")
    assert all(offset % 8 == 0 for offset in split_record_file(data)[2].values())
    assert json.loads(canonical)["format"] == "dprsim-record/9"


def test_saved_record_is_compact_and_reloads_the_in_memory_types(tmp_path):
    record = run_golden("cow-blinding")
    record.wall_time_s = 1.25
    path = tmp_path / "record.json"
    save_record(record, path)
    data = path.read_bytes()
    trailer = b'{"wall_time_s": 1.25}\n'
    assert data.endswith(trailer)

    def nbytes(node):
        if isinstance(node, dict):
            return sum(nbytes(v) for v in node.values())
        return node.nbytes if isinstance(node, np.ndarray) else 0

    # Version line, header line, raw arrays and trailer, with nothing between
    # but under 8 bytes of padding before each array.
    header = record.canonical_json().encode()
    unpadded = len(b"dprsim-record/9\n") + len(header) + 1 + nbytes(record.to_dict()) + len(trailer)
    assert unpadded <= len(data) < unpadded + 8 * len(record._hashed()[1])
    clone = load_record(path)
    assert clone.wall_time_s == 1.25
    assert clone.content_hash() == record.content_hash()
    # Blinded detectors store no photocurrent: the run's settings derive it.
    blinding = scenario_from_dict(clone.config).attack.blinding
    for name in clone.protocol_run.record.names:
        trace = clone.protocol_run.record[name]
        assert (trace.clicks.dtype, trace.linear_mode.dtype) == (np.bool_, np.bool_)
        assert (trace.intensity.dtype, trace.photocurrent(blinding).dtype) == (np.float64, np.float64)
        assert (trace.levels.dtype, trace.level_codes.dtype) == (np.float64, np.uint8)
        assert "photocurrent" not in record.to_dict()["protocol_run"]["record"]["detectors"][name]
    # Key bits are booleans, and Bob's key is stored once, as sifted_bob.
    run = clone.protocol_run
    assert run.sifted_alice.dtype == run.sifted_bob.dtype == clone.attack.eve_key.dtype == np.bool_
    assert run.sifted_slots.dtype == np.int64
    # Alice's COW symbols are int8 codes: 0, 1 and 2 for "0", "1" and "d".
    assert run.alice_codes.dtype == np.int8 and set(run.alice_codes.tolist()) == {0, 1, 2}
    np.testing.assert_array_equal(run.alice_codes, record.protocol_run.alice_codes)
    assert "bob_key" not in record.to_dict()["attack"] and not hasattr(clone.attack, "bob_key")
    np.testing.assert_array_equal(clone.attack.eve_readings, record.attack.eve_readings)
    assert clone.attack.eve_readings.dtype == clone.attack.bob_readings.dtype == np.int8
    # A detector that was not blinded has its intensity as its photocurrent.
    clean = run_golden("cow-fig2")
    save_record(clean, path)
    for trace in load_record(path).protocol_run.record.detectors.values():
        np.testing.assert_array_equal(trace.photocurrent(None), trace.intensity)
    assert "photocurrent" not in clean.to_dict()["protocol_run"]["record"]["detectors"]["D_B"]


def test_a_line_of_many_levels_takes_wider_codes_and_round_trips(tmp_path):
    # A tamper of a distinct phase per slot gives the monitoring lines more
    # than 256 distinct intensities: their codes take two bytes, the file
    # keeps that width, and the record is a function of its slot values.
    pattern = np.random.default_rng(4).uniform(-2.0, 2.0, 1200).tolist()
    doc = {"protocol": "cow", "n_symbols": 600, "seed": 8, "channel": {"phase_tamper_half_turns": pattern}}
    record = run_scenario(scenario_from_dict(doc))
    assert record.content_hash() == run_scenario(scenario_from_dict(doc)).content_hash()
    traces = record.protocol_run.record.detectors
    assert traces["D_B"].level_codes.dtype == np.uint8
    for name in ("D_M1", "D_M2"):
        levels, codes = np.unique(traces[name].intensity, return_inverse=True)
        assert 256 < levels.size <= 65536 and traces[name].level_codes.dtype == np.uint16
        np.testing.assert_array_equal(traces[name].levels, levels)
        np.testing.assert_array_equal(traces[name].level_codes, codes)
    assert record.to_dict()["protocol_run"]["record"]["detectors"]["D_M1"]["level_codes"].dtype.str == "<u2"
    for clone in _round_trips(record, tmp_path):
        assert clone.content_hash() == record.content_hash()
        for name, trace in clone.protocol_run.record.detectors.items():
            assert trace.level_codes.dtype == traces[name].level_codes.dtype
            np.testing.assert_array_equal(trace.intensity, traces[name].intensity)


def test_slots_past_a_blinded_record_read_silent_and_dark():
    # Bob sifts the blinded record over Alice's grid; where the grid runs
    # past the record, its slots carry no click and no light, even on a line
    # whose levels hold no zero intensity.
    record = apd_detect(
        np.array([0.5, 1.0]), np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8), 0.25, (0.1, 0.4),
        DetectorSettings(), "D", blinding=BlindingSettings(style="cw", illumination_level=2.0),
    )
    trace = record["D"]
    grid = _on_grid(record, 2, 7)["D"]
    assert len(grid) == 7 and list(grid.levels) == [0.0, 0.5, 1.0]
    np.testing.assert_array_equal(grid.intensity, [1.0, 1.0, 0.5, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(grid.clicks, np.append(trace.clicks[2:], [False] * 3))
    np.testing.assert_array_equal(grid.linear_mode, np.append(trace.linear_mode[2:], [False] * 3))
    # A window wholly past the record is all dark.
    past = _on_grid(record, 8, 3)["D"]
    assert list(past.levels) == [0.0] and not past.clicks.any() and not past.linear_mode.any()
    # Inside the record the window keeps the record's levels.
    inside = _on_grid(record, 1, 4)["D"]
    assert inside.levels is trace.levels
    np.testing.assert_array_equal(inside.intensity, trace.intensity[1:5])


def test_loaded_arrays_are_writable_and_keep_their_dtypes(tmp_path):
    record = run_golden("dps-blinding-derived")
    path = tmp_path / "record.json"
    save_record(record, path)
    clone = load_record(path)
    run = clone.protocol_run
    arrays = {"alice_codes": run.alice_codes, "sifted_bob": run.sifted_bob, "eve_key": clone.attack.eve_key}
    for name in run.record.names:
        trace = run.record[name]
        arrays.update({f"{name}.clicks": trace.clicks, f"{name}.linear_mode": trace.linear_mode})
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        want = np.int8 if name == "alice_codes" else np.bool_
        assert arr.dtype == want, name
    run.record[run.record.names[0]].clicks[0] ^= True
    run.sifted_bob[:] = False
    assert clone.content_hash() != record.content_hash()
    # The arrays map the file copy-on-write: the writes stay in the clone.
    assert load_record(path).content_hash() == record.content_hash()


def test_a_loaded_record_outlives_rewrites_of_its_file(tmp_path):
    # A loaded record maps its file, and each rewrite replaces the file whole,
    # so the record keeps its bytes.  Truncating a mapped file instead makes
    # the record's next read raise SIGBUS, so a child process runs the steps.
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from dprsim import emit_outputs, load_record, run_scenario, save_record, scenario_from_dict\n"
        "out = Path(sys.argv[1])\n"
        "big = run_scenario(scenario_from_dict({'protocol': 'dps', 'n_symbols': 100_000, 'seed': 1}))\n"
        "small = run_scenario(scenario_from_dict({'protocol': 'dps', 'n_symbols': 15, 'seed': 1}))\n"
        "save_record(big, out / 'record.json')\n"
        "loaded = load_record(out / 'record.json')\n"
        "save_record(small, out / 'record.json')\n"
        "assert loaded.content_hash() == big.content_hash(), 'save_record'\n"
        "emit_outputs(small, out)\n"
        "assert loaded.content_hash() == big.content_hash(), 'emit_outputs'\n"
        "assert load_record(out / 'record.json').content_hash() == small.content_hash()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dprsim.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alice.key", "bob.key", "metrics.json", "record.json"]


@pytest.mark.parametrize("name", ["cow-blinding", "cow-blinding-cw", "dps-blinding-derived"])
def test_a_loaded_blinding_record_derives_its_photocurrent_bit_for_bit(tmp_path, name):
    # A dprsim-record/9 file stores no photocurrent.  Its levels, codes and
    # its own config's blinding settings give each detector's stored current
    # bit for bit as the per-slot loop computes it, and the stored modes are
    # that current against the blind threshold.
    path = tmp_path / "record.json"
    save_record(run_golden(name), path)
    clone = load_record(path)
    blinding = scenario_from_dict(clone.config).attack.blinding
    for trace in clone.protocol_run.record.detectors.values():
        incident = trace.intensity + blinding_light(blinding, len(trace))
        want = blinding_trace_loop(0.0, blinding.decay_per_slot, incident)
        assert trace.photocurrent(blinding).tobytes() == want.tobytes()
        np.testing.assert_array_equal(trace.linear_mode, want >= blinding.blind_threshold)


def _arrays(value):
    """The arrays of a record, or of its plain tree, in field order."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)


@pytest.mark.parametrize("seed", [3, 14, 159, 2653, 58979, 323846, 2643383, 27950288, 419716939])
def test_loaded_arrays_are_aligned_whatever_the_header_length(tmp_path, seed):
    # The seed is in the header, so its digit count shifts every array's
    # offset; the nine seeds give headers of nine lengths.
    cfg = {"protocol": "cow", "n_symbols": 40, "seed": seed, "t_b": 0.5, "attack": {"kind": "blinding"}}
    record = run_scenario(scenario_from_dict(cfg))
    path = tmp_path / "record.json"
    save_record(record, path)
    clone = load_record(path)
    arrays = list(_arrays(clone))
    assert len(arrays) == len(record._hashed()[1])
    for arr in arrays:
        assert arr.flags.aligned and arr.flags.writeable
    assert clone.content_hash() == record.content_hash()


def test_to_dict_shares_memory_with_every_record_array(golden_records, tmp_path):
    # The stored dtype of every array is the one the pipeline keeps it in, so
    # the plain tree, and with it the hash and the file, copies no array.
    for name, record in golden_records.items():
        save_record(record, tmp_path / "record.json")
        for rec in (record, load_record(tmp_path / "record.json")):
            pairs = list(zip(_arrays(rec), _arrays(rec.to_dict()), strict=True))
            assert pairs and all(np.shares_memory(a, b) for a, b in pairs), name


def test_saves_differ_only_in_the_trailer(tmp_path):
    record = run_golden("dps-backflash-ideal")
    files = []
    for wall in (0.5, 123.0625):
        record.wall_time_s = wall
        save_record(record, tmp_path / "record.json")
        data = (tmp_path / "record.json").read_bytes()
        trailer = json.dumps({"wall_time_s": wall}).encode() + b"\n"
        assert data.endswith(trailer)
        files.append(data[: -len(trailer)])
    assert files[0] == files[1]


@pytest.fixture(scope="module")
def blinding_record_file(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("record") / "record.json"
    cfg = {"protocol": "dps", "n_symbols": 10, "seed": 2, "attack": {"kind": "blinding"}}
    save_record(run_scenario(scenario_from_dict(cfg)), path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**20), st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=3))
def test_damaged_record_files_load_or_raise_value_error(tmp_path_factory, blinding_record_file, cut, flips):
    # A truncated or damaged file must never surface as another error, which
    # the CLI would report as a runtime failure (exit 2) instead of exit 1.
    data = bytearray(blinding_record_file[: max(1, cut % (len(blinding_record_file) + 1))])
    for at, value in flips:
        data[at % len(data)] = value
    path = tmp_path_factory.mktemp("damaged") / "record.json"
    path.write_bytes(data)
    try:
        load_record(path)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def golden_records():
    return {name: run_golden(name) for name in GOLDENS}


def test_golden_records_keep_their_simulated_values(golden_records):
    assert set(GOLDEN_RECORD_V1_HASHES) == set(GOLDENS)
    for name, record in golden_records.items():
        assert record_v1_hash(record) == GOLDEN_RECORD_V1_HASHES[name], name


def test_golden_record_hashes_are_pinned(golden_records):
    assert {name: record.content_hash() for name, record in golden_records.items()} == GOLDEN_RECORD_HASHES


def test_saved_golden_files_hash_to_their_pins(golden_records, tmp_path):
    for name, record in golden_records.items():
        save_record(record, tmp_path / f"{name}.json")
        span = _hashed_span((tmp_path / f"{name}.json").read_bytes())
        digest = hashlib.sha256(span).hexdigest()
        assert digest == record.content_hash() == GOLDEN_RECORD_HASHES[name], name


def test_mapped_and_copied_loads_of_the_goldens_agree(golden_records, tmp_path):
    for name, record in golden_records.items():
        save_record(record, tmp_path / "record.json")
        mapped, copied = load_record(tmp_path / "record.json"), load_record_copied(tmp_path / "record.json")
        assert mapped.content_hash() == copied.content_hash() == record.content_hash(), name
        assert json.dumps(summarize(mapped).to_dict()) == json.dumps(summarize(copied).to_dict()), name


def test_golden_text_outputs_are_pinned(golden_records, tmp_path):
    assert set(GOLDEN_OUTPUT_DIGESTS) == set(GOLDENS)
    for name, record in golden_records.items():
        digest = hashlib.sha256()
        for path in sorted(emit_outputs(record, tmp_path / name), key=lambda p: p.name):
            if path.name != "record.json":
                digest.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
        assert digest.hexdigest() == GOLDEN_OUTPUT_DIGESTS[name], name


def test_golden_configs_are_content_addressed():
    assert set(GOLDEN_HASHES) == set(GOLDENS)
    for name, expected in GOLDEN_HASHES.items():
        cfg = scenario_from_dict(golden_config_dict(name))
        canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == expected, name


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_empty_values():
    cfg = scenario_from_dict(SMALL_DPS)
    assert sweep(cfg, "t_b", []) == []


def test_sweep_rejects_non_numeric_path():
    cfg = scenario_from_dict(SMALL_DPS)
    with pytest.raises(ConfigError, match="protocol"):
        sweep(cfg, "protocol", [1.0])
    with pytest.raises(ConfigError, match="no such parameter"):
        sweep(cfg, "detector.nope", [1.0])


def test_sweep_rejects_seed():
    # Each point's seed is derived from the base seed, so a swept seed would
    # never reach a run.
    cfg = scenario_from_dict(SMALL_DPS)
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, "seed", [1e30])


def test_sweep_checks_a_python_config_before_any_point_runs(monkeypatch):
    ran = []
    monkeypatch.setattr("dprsim.scenario.run_scenario", lambda cfg, seed=None: ran.append(cfg))
    cfg = ScenarioConfig(attack=AttackSettings(blinding=BlindingSettings(decay_per_slot=1.0)))
    for values in ([], [0.5, 0.7]):
        with pytest.raises(ConfigError, match=r"^attack\.blinding\.decay_per_slot: must be within \(0, 1\), got 1.0$"):
            sweep(cfg, "t_b", values)
    # A mistyped field is named, as the walker names it in a document.
    with pytest.raises(ConfigError, match="^t_b: must be a number, got 'x'$"):
        sweep(ScenarioConfig(t_b="x"), "n_symbols", [16])
    assert ran == []


def test_sweep_integer_parameter_runs_integral_floats_as_ints():
    cfg = scenario_from_dict(SMALL_DPS)
    records = sweep(cfg, "n_symbols", [16.0, 32])
    assert [r.config["n_symbols"] for r in records] == [16, 32]
    assert all(type(r.config["n_symbols"]) is int for r in records)
    with pytest.raises(ConfigError, match="n_symbols"):
        sweep(cfg, "n_symbols", [16.5])


def test_sweep_transmittance_flips_feasibility_flags():
    base = scenario_from_dict(golden_config_dict("cow-blinding"))
    records = sweep(base, "t_b", [0.5, 0.7, 0.9])
    flags = [r.attack.feasibility["monitor_drive_hidden_from_data"] for r in records]
    assert flags == [True, False, False]
    assert all(r.attack.feasibility["data_drive_hidden_from_monitor"] for r in records)


def test_sweep_points_independent_of_execution_order():
    cfg = scenario_from_dict(SMALL_DPS)
    values = [0.5, 1.0, 1.5]
    records = sweep(cfg, "amplitude", values)
    # Re-run each point in isolation with its derived seed.
    for index, value in enumerate(values):
        point = json.loads(json.dumps(cfg.to_dict()))
        point["amplitude"] = value
        point["seed"] = derive_sweep_seed(cfg.seed, index)
        solo = run_scenario(scenario_from_dict(point))
        assert solo.content_hash() == records[index].content_hash()


def test_sweep_backflash_yield_tracks_emission_probability():
    base = {
        "protocol": "dps",
        "n_symbols": 20_001,
        "seed": 41,
        "attack": {"kind": "backflash"},
    }
    cfg = scenario_from_dict(base)
    values = [2.4e-11, 2.4e-10, 2.4e-9, 2.4e-8]
    records = sweep(cfg, "attack.backflash.photons_per_electron", values)
    n = 20_000
    for value, record in zip(values, records):
        p = min(1.0, 2.7e8 * value)
        sigma = np.sqrt(p * (1 - p) / n) if p < 1.0 else 0.0
        assert abs(record.attack.capture_fraction - p) <= max(4 * sigma, 1e-12)
    assert records[-1].attack.capture_fraction == 1.0  # saturation


# ---------------------------------------------------------------------------
# Clean-run behaviour reachable only through the engine
# ---------------------------------------------------------------------------


def test_run_scenario_no_attack_has_no_outcome():
    record = run_scenario(scenario_from_dict(SMALL_DPS))
    assert record.attack is None
    assert record.protocol_run.qber == 0.0
    assert record.wall_time_s > 0.0


# Peak traced memory of ``run_scenario`` over its record's array bytes, at 2e4
# symbols, with each detector's intensity stored as levels and one-byte
# codes; measured after one warm-up run, over the golden's seed and seeds 1-3:
# 1.270-1.287, 1.516-1.518, 1.866-1.867, 1.886-1.888, 1.668-1.669,
# 1.599-1.600 and 1.556-1.557 (the first run of a process reads highest).
# Eve's backflash replica holds one byte per slot, its decision, and no
# per-click array: the ideal runs, where every click emits, peak after it,
# as the outcome is built.  Derived blinding stores no photocurrent and
# runs Bob's blinded detectors and monitors a block of slots at a time, so
# it holds no slot-length float; it peaks decoding Bob's readings.  COW
# trojan peaks in ``_eve_key`` over Eve's clicks.
PEAK_TO_RECORD = [
    ({"golden_name": "dps-backflash-stat", "n_symbols": 20_000}, 1.29),
    (
        {
            "protocol": "cow",
            "n_symbols": 20_000,
            "t_b": 0.5,
            "attack": {"kind": "blinding"},
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
        1.54,
    ),
    ({"golden_name": "dps-trojan", "n_symbols": 20_000}, 1.88),
    ({"golden_name": "cow-trojan", "n_symbols": 20_000}, 1.90),
    ({"golden_name": "dps-backflash-ideal", "n_symbols": 20_000}, 1.68),
    ({"golden_name": "cow-backflash-ideal", "n_symbols": 20_000}, 1.61),
    (
        {
            "protocol": "dps",
            "n_symbols": 20_000,
            "attack": {"kind": "blinding"},
            "countermeasures": {"photocurrent_monitor": {"enabled": True}},
        },
        1.57,
    ),
]


@pytest.mark.parametrize("doc,bound", PEAK_TO_RECORD)
def test_run_allocates_little_beyond_its_record(doc, bound):
    cfg = load_config(json.dumps(doc))
    run_scenario(cfg)  # caches filled once per process stay out of the peak
    tracemalloc.start()
    try:
        record = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(a.nbytes for a in record._hashed()[1]) <= bound


# Peak traced memory of ``summarize`` over its record's array bytes, after
# one warm-up summary; measured over the config's seed and seeds 1-3:
# 0.1334-0.1335 and 0.1179.  No detector's summary builds a float per click:
# every click of these traces is at one level, and the two boolean slot
# masks that check it are the largest arrays.
SUMMARY_TO_RECORD = [
    (PEAK_TO_RECORD[1][0], 0.134),
    ({"golden_name": "dps-backflash-stat", "n_symbols": 100_000}, 0.118),
]


@pytest.mark.parametrize("doc,bound", SUMMARY_TO_RECORD)
def test_summary_allocates_little_beside_its_record(doc, bound):
    record = run_scenario(load_config(json.dumps(doc)))
    summarize(record)
    tracemalloc.start()
    try:
        summarize(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(a.nbytes for a in record._hashed()[1]) <= bound


def test_run_scenario_reads_a_python_config_as_a_document(monkeypatch):
    # A config built in Python goes through the same walker as a document:
    # a mistyped field fails naming it, and an integer float field runs as a float.
    with pytest.raises(ConfigError, match="^n_symbols: must be an integer, got 2.5$"):
        run_scenario(ScenarioConfig(n_symbols=2.5))
    with pytest.raises(ConfigError, match=r"^t_b: must be within \(0, 1\), got 2.0$"):
        run_scenario(ScenarioConfig(t_b=2.0))
    as_int = run_scenario(ScenarioConfig(amplitude=1, n_symbols=32))
    assert as_int.config["amplitude"] == 1.0 and isinstance(as_int.config["amplitude"], float)
    assert as_int.content_hash() == run_scenario(ScenarioConfig(amplitude=1.0, n_symbols=32)).content_hash()
    # One walk per run, with or without a seed override.
    walks = []
    monkeypatch.setattr(
        "dprsim.scenario.scenario_from_dict", lambda data: walks.append(data["seed"]) or scenario_from_dict(data)
    )
    assert run_scenario(ScenarioConfig(n_symbols=32, seed=3), seed=9).config["seed"] == 9
    assert run_scenario(ScenarioConfig(n_symbols=32, seed=3)).config["seed"] == 3
    assert walks == [9, 3]


def test_attack_consumers_do_not_perturb_alice_stream():
    # Random draws are split per named consumer: turning an attack on must
    # not change what Alice sends.
    base = run_scenario(scenario_from_dict(SMALL_DPS))
    attacked = run_scenario(scenario_from_dict({**SMALL_DPS, "attack": {"kind": "backflash"}}))
    np.testing.assert_array_equal(base.protocol_run.alice_codes, attacked.protocol_run.alice_codes)
    np.testing.assert_array_equal(base.protocol_run.sifted_bob, attacked.protocol_run.sifted_bob)


def test_trojan_leaves_bobs_run_bit_identical():
    attacked = run_golden("dps-trojan")
    base_dict = golden_config_dict("dps-trojan")
    base_dict["attack"] = {"kind": "none"}
    base_dict.pop("golden_name")
    clean = run_scenario(scenario_from_dict(base_dict))
    np.testing.assert_array_equal(attacked.protocol_run.sifted_bob, clean.protocol_run.sifted_bob)
    np.testing.assert_array_equal(attacked.protocol_run.sifted_alice, clean.protocol_run.sifted_alice)
    assert attacked.protocol_run.qber == clean.protocol_run.qber


@pytest.mark.parametrize("kind", ["backflash", "trojan"])
@pytest.mark.parametrize("symbols,drop", [("0d1", 0.0), ("01", None)])
def test_a_passive_cow_attack_takes_no_visibility(kind, symbols, drop):
    # A passive attack leaves Bob's run as it is: it drops a defined
    # visibility by exactly 0, and where no interface gives one, by none.
    record = run_scenario(scenario_from_dict({"protocol": "cow", "symbols": symbols, "attack": {"kind": kind}}))
    assert (record.protocol_run.visibility_report.overall_visibility is None) is (drop is None)
    assert record.attack.induced_visibility_drop == drop
    assert record.attack.induced_qber == 0.0


def test_backflash_capture_is_one_only_in_ideal_mode():
    ideal = run_golden("dps-backflash-ideal")
    real = run_golden("dps-backflash-stat")
    assert ideal.attack.capture_fraction == 1.0
    assert 0.0 < real.attack.capture_fraction < 1.0


def test_cow_backflash_ideal_data_records_match():
    record = run_golden("cow-backflash-ideal")
    assert record.attack.capture_fraction == 1.0
    np.testing.assert_array_equal(record.attack.eve_key, record.protocol_run.sifted_bob)


def test_blinding_derived_readings_round_trip():
    record = run_golden("dps-blinding-derived")
    np.testing.assert_array_equal(record.attack.eve_readings, record.attack.bob_readings)
    assert record.protocol_run.qber == 0.0
    assert record.attack.capture_fraction == 1.0
    assert record.attack.induced_qber == 0.0


@pytest.mark.parametrize("protocol", ["dps", "cow"])
def test_noise_free_derived_blinding_decodes_bobs_clean_record(monkeypatch, protocol):
    # Eve's first stage runs her own receive, on its own streams, only where
    # a detector draws; dead time alone draws nothing.
    names = []
    get = RngFactory.get
    monkeypatch.setattr(RngFactory, "get", lambda self, name: names.append(name) or get(self, name))
    for detector, replica in (({}, False), ({"dead_time_slots": 3}, False), ({"dark_count_prob": 1e-3}, True)):
        names.clear()
        doc = {"protocol": protocol, "n_symbols": 200, "detector": detector, "attack": {"kind": "blinding"}}
        run_scenario(scenario_from_dict(doc))
        assert any(name.startswith("eve-stage1-") for name in names) is replica


@pytest.mark.parametrize("protocol", ["dps", "cow"])
@pytest.mark.parametrize("t_b", [0.5, 0.9])
@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("dead", [0, 3])
def test_detectors_that_draw_nothing_record_a_train_alike(protocol, t_b, tamper, dead):
    # Why derived blinding may decode Bob's clean record: Eve's replica on
    # Alice's train would record every click the same.
    doc = {"protocol": protocol, "n_symbols": 3000, "seed": 5, "t_b": t_b, "detector": {"dead_time_slots": dead}}
    if tamper:
        doc["channel"] = {"phase_tamper_half_turns": [0.0] * 700 + [1.0] * 900 + [0.5] * 400}
    cfg = scenario_from_dict(doc)
    rngs = RngFactory(cfg.seed)
    train, codes = _transmit(cfg, _alice_material(cfg, rngs))
    bob, eve = _receive(cfg, train, codes, rngs, "bob"), _receive(cfg, train, codes, rngs, "eve-stage1")
    for name in bob.names:
        np.testing.assert_array_equal(bob.clicks(name), eve.clicks(name))


@pytest.mark.parametrize("seed", [2, 3, 13, 14])
def test_derived_dps_blinding_qber_pairs_each_bit_with_its_own_slot(seed):
    # Dark counts make Bob's reading 0 a click in these runs; that reading has
    # no difference bit, and the QBER must not pair later bits one slot off.
    cfg = {
        "protocol": "dps",
        "n_symbols": 40,
        "seed": seed,
        "detector": {"dark_count_prob": 0.2},
        "attack": {"kind": "blinding"},
    }
    record = run_scenario(scenario_from_dict(cfg))
    assert record.attack.bob_readings[0] in (1, 2)
    assert record.protocol_run.qber == 0.0


@pytest.mark.parametrize("name", sorted(NOISY_RUNS))
def test_noisy_receiver_runs_are_pinned(name):
    cfg = dict(NOISY_RUNS[name])
    cfg["detector"] = {**NOISY_DETECTOR, **cfg.get("detector", {})}
    record = run_scenario(scenario_from_dict(cfg))
    assert record_v1_hash(record) == NOISY_RUN_V1_HASHES[name]
    assert record.content_hash() == NOISY_RUN_HASHES[name]


NEVER_RAILS = ("p_never", "p_never_b", "p_never_m")


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["dps", "cow"]),
    st.floats(0.0, 0.2),
    st.floats(0.0, 0.5),
    st.integers(0, 3),
    st.integers(0, 2**16),
    st.sets(st.sampled_from(NEVER_RAILS)),
)
@example("dps", 0.0, 0.0, 0, 1, {"p_never"})
@example("cow", 0.0, 0.0, 0, 1, set(NEVER_RAILS))
def test_derived_blinding_completes_under_detector_noise(protocol, dark, afterpulse, dead, seed, zero_rails):
    # Each never-click rail is its default or 0, which the rail rule
    # 0 <= p_never < p_always allows.
    noise = {"dark_count_prob": dark, "afterpulse_prob": afterpulse, "dead_time_slots": dead}
    cfg = {
        "protocol": protocol,
        "n_symbols": 40,
        "seed": seed,
        "detector": {**noise, **dict.fromkeys(zero_rails, 0.0)},
        "attack": {"kind": "blinding"},
    }
    outcome = run_scenario(scenario_from_dict(cfg)).attack
    assert len(outcome.eve_readings) == len(outcome.bob_readings)
    assert 0.0 <= outcome.capture_fraction <= 1.0
