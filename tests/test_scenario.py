import base64
import hashlib
import json
import math

import numpy as np
import pytest

from dprsim.config import ConfigError, scenario_from_dict
from dprsim.goldens import GOLDENS, golden_config_dict
from dprsim.report import emit_outputs, load_record, save_record
from dprsim.scenario import (
    RunRecord,
    derive_sweep_seed,
    load_config,
    run_golden,
    run_scenario,
    sweep,
)

from _oracles import record_v1_hash

SMALL_DPS = {"protocol": "dps", "n_symbols": 16, "seed": 5}

# Content addresses of the pinned scenarios; a drift here is a re-baseline,
# not a refactor.
GOLDEN_HASHES = {
    "dps-ideal": "75ef33e5c5daab019b40dccf2f3e56038756650e84c67791d803e4053bad2339",
    "cow-fig2": "7743b7112aeba093207e796c66c8ce1709b4662c42b0dcaee85fbddb02262fc5",
    "cow-fig4-tamper": "4f2fd5dc0c7fba454f477e3ba70cc32ca10c9367db96c63365e11f6007170e60",
    "dps-backflash-ideal": "a3b0de7da7c744706adea835b4ac0be5d4c98b4a89a42574cd23bb840a7d7363",
    "cow-backflash-ideal": "11aefe0cb74e91f63e7e03a00a6588fbef4faff405043f458b66f4b5f1ee9963",
    "dps-backflash-stat": "0852a6dc62ee092fb43e1b9d59c81123ff920cd4fde83eb5f5d1aaa13eed2293",
    "dps-trojan": "a6bbcdff22fde6353ea224021d58c2a807eb6166e217fc11af80cdf30d8e7d6c",
    "dps-trojan-watchdog": "9cddf6db61ffb6e5f38eb54ff3de7f9430e9ffbb2d2994f69ba908af4e2c2af8",
    "cow-trojan": "ab15e9d6c2f063aacbb77d8bd972ee1976cb6455a3416afa5fbe1abcaa723db0",
    "dps-blinding": "9c3503198487beaf998f2e71a0136c3825a02297870d6e98df64fba690111bc2",
    "dps-blinding-derived": "3b391672903f33f45480df5303b046580ffbdace75711a10e6839aecdebc3ed4",
    "cow-blinding": "bc684e8ea8704f717dafb5bf0613a832d778c1ab956eb14695ff08634f0ed88d",
    "cow-blinding-cw": "8a166259da4daa9f7535c9f8f425e0ea5c801de7cb5ae9911a9c3f7c8cb04075",
}

# Record content hashes of the pinned scenarios (dprsim-record/2: canonical
# header plus raw little-endian array bytes).
GOLDEN_RECORD_HASHES = {
    "dps-ideal": "bae0636e77246ecf033915aba51f7657986c49d7c4dc090ae8371699082357e2",
    "cow-fig2": "daaf5fa655674b72d7b4bc7c918455006c58ae2f5fb2ca39f2f3210d2e4b4d56",
    "cow-fig4-tamper": "1f6bbc6938f399a2c576a1de89c73b9f7cb484d3c167a5b44e2d9fe0487b88ce",
    "dps-backflash-ideal": "0bca673b4ab221edb57751b355b2d169ce9ef1f6211ccc721cf7f0b2c420b181",
    "cow-backflash-ideal": "8b1ed704a7b0b04302c890622b33d586e372fc9ff245683c4ac8f824bc2c4380",
    "dps-backflash-stat": "9fa7a2bfa42393cf8d00a867c9792932ccd5284815c5c039e2be56ed44e4c284",
    "dps-trojan": "f0bac061b4d595f0b0db72d61d507cc97c0964327884a086bab6770dbdfaae8a",
    "dps-trojan-watchdog": "55b57336ad54ea483b80dd2a57eb8187099ebadbbed089d1be96aeb59ebf669d",
    "cow-trojan": "a5eaf45613842b5c8777be82be1f5ecf88598d7f42f0289f90bbc43d277c831d",
    "dps-blinding": "fbb2448a72a4306d97781ab82fa91a0ca5bf223d7ae410824b236976f2652ec8",
    "dps-blinding-derived": "4d60f9dcac13c5acd3a0937256d92a69af115dbc17914812748392d47ba0602e",
    "cow-blinding": "36292a340d66a7b89a77c126ecf58abd0cefeb379bab99569ec61f2dfd08ca15",
    "cow-blinding-cw": "deaa9f121ee2d1378e0b4abd5d0b2d227bde983cdd479b2ff9975a27893293c0",
}

# The same records hashed by the retired dprsim-record/1 serializer
# (``record_v1_hash``), taken before the array codec replaced it: these pin the
# simulated values, whatever the record format.
GOLDEN_RECORD_V1_HASHES = {
    "dps-ideal": "023f9ef63374d59a241c84b4ffe3fe19b3399de2335afe9d7315cf3b1b54367b",
    "cow-fig2": "9a93a561aaa83d4edb07b808a29c7f570eb9e1bffb83c405d828866135592120",
    "cow-fig4-tamper": "37392564249631f45a0d68bb7cd8bc30f37150190b0094c0e7ef1fc73ba4ec49",
    "dps-backflash-ideal": "e2a126d7f45533c2066a02c17169d5ad14fb90b6f02c6d094ea7220b7c746264",
    "cow-backflash-ideal": "acd4f70fd70883caf6293bd3419b4ecc1d69aad7d47cc5bd4f5b88567f46c417",
    "dps-backflash-stat": "86680e6c2d5277cc3121fba7bd833fcba3a5b69590a89337804e67ede5dac648",
    "dps-trojan": "0e571d5cd63e8840fed45b6962a0308c2073be860a5664b52c27f30db46b813e",
    "dps-trojan-watchdog": "809339aec65c7c5bfb87a8a13fe21c165367488c6fd2a37abfa8b7d05b65fef2",
    "cow-trojan": "ffeeb05bd30d46a03aba99190b93a5f4b795c8041482b4afe6c18f3970518eb2",
    "dps-blinding": "883c73a5956c449c6c0fb4e923505db2094bf22c2a9cd1e9175110f9169b9939",
    "dps-blinding-derived": "daca9e957a7ee001271c00c8bce525c646354456cdbafebf410526e4f3840c19",
    "cow-blinding": "551363c9cef49ceafe36091d8380e310d50b2ac58fed173294ae9d7b35f507d4",
    "cow-blinding-cw": "ff22adb17dbe28668446b2a27a721d79d9b59d1a1be63c4cbf3ffa3689326772",
}

# SHA-256 over the SHA-256 hex digests of every emitted file except
# record.json, concatenated in sorted file-name order.
GOLDEN_OUTPUT_DIGESTS = {
    "dps-ideal": "c4cf566443f4a34a2cab1bdbb78ce1b4c1092e112e833f4ef16e0b3c5811f23e",
    "cow-fig2": "5fcd4ac310aeb8c330e056f13511e38f078aace36e6ee5ba3c9021322c8e7a1a",
    "cow-fig4-tamper": "1fea69ccec82c6af8f84b427c50fc3e97a1d118c80c12f3d5a6975b3d9902324",
    "dps-backflash-ideal": "d88362dd112442075acb4ab04047a5d55fa485f4503e76357d5385525e786538",
    "cow-backflash-ideal": "1a5e794b7882344f44201b80d6f8e44d0f0554917b30c1a44d0c6cebb83ee933",
    "dps-backflash-stat": "91fbbdf200eb5bb411288b91e766cf94ff59a968fba5f02e01a8c721686a5324",
    "dps-trojan": "657b9ac99a570f90d5d3ae3ef2dc77b346443692204b131c6c23d48f8c5e31c9",
    "dps-trojan-watchdog": "ce1f6291bc9f91a16dd3447a749c2b2d6a6224f30f60bb88346e3318ce573cc9",
    "cow-trojan": "7aa6d7a030c51ed9de0bc3b86a30c574a3e183c1b86ce93b30f89b35017aab6d",
    "dps-blinding": "0513100f94d1d1e55e8a8a4c5491f185360662418e7813a193ff8181fe6faa96",
    "dps-blinding-derived": "9cfe4394b3f5c8b6ce6dc6b8d4f891368fb171cc0205a5ed0b92cb7299a5ba13",
    "cow-blinding": "7de423ea21460f088167f53ad70fb64808ce146d2db0fcc8f9cdd98914223d29",
    "cow-blinding-cw": "044f33a5b6ac5dd9c9d7d868c394f7ffcfbb7238bcc0deddce3ed003d85f3a03",
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


def test_config_allows_infinity_only_where_the_default_is_infinite():
    cfg = load_config("channel:\n  bob_filter_extinction_db: .inf\n")
    assert cfg.channel.bob_filter_extinction_db == math.inf
    assert scenario_from_dict(cfg.to_dict()).channel.bob_filter_extinction_db == math.inf
    with pytest.raises(ConfigError, match="amplitude: must be finite"):
        load_config("amplitude: .inf\n")


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


def test_record_round_trips_through_plain_data():
    record = run_golden("cow-fig2")
    clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.content_hash() == record.content_hash()
    assert clone.protocol_run.qber == record.protocol_run.qber
    np.testing.assert_array_equal(clone.protocol_run.sifted_bob, record.protocol_run.sifted_bob)
    rec, orig = clone.protocol_run.record, record.protocol_run.record
    assert rec.names == orig.names
    for name in rec.names:
        np.testing.assert_array_equal(rec[name].clicks, orig[name].clicks)
        np.testing.assert_array_equal(rec[name].intensity, orig[name].intensity)


def test_attack_record_round_trips():
    record = run_golden("cow-blinding")
    clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.attack.eve_readings == record.attack.eve_readings
    assert clone.attack.feasibility == record.attack.feasibility
    assert clone.content_hash() == record.content_hash()


def test_content_hash_is_header_plus_raw_array_bytes():
    record = run_golden("cow-blinding")
    arrays: list[bytes] = []

    def strip(node):
        if isinstance(node, dict) and set(node) == {"data", "dtype", "shape"}:
            arrays.append(base64.b64decode(node["data"]))
            return {"dtype": node["dtype"], "shape": node["shape"]}
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


def test_saved_record_is_compact_and_reloads_the_in_memory_types(tmp_path):
    record = run_golden("cow-blinding")
    record.wall_time_s = 1.25
    path = tmp_path / "record.json"
    save_record(record, path)
    text = path.read_text()
    assert text.count("\n") == 1
    assert json.loads(text)["wall_time_s"] == 1.25
    clone = load_record(path)
    assert clone.wall_time_s == 1.25
    assert clone.content_hash() == record.content_hash()
    for name in clone.protocol_run.record.names:
        trace = clone.protocol_run.record[name]
        assert (trace.clicks.dtype, trace.linear_mode.dtype) == (np.bool_, np.bool_)
        assert (trace.intensity.dtype, trace.photocurrent.dtype) == (np.float64, np.float64)
    assert clone.protocol_run.sifted_bob.dtype == np.int64
    assert clone.attack.eve_readings == record.attack.eve_readings
    assert all(type(v) is int for v in clone.attack.eve_readings + clone.attack.bob_readings)


@pytest.fixture(scope="module")
def golden_records():
    return {name: run_golden(name) for name in GOLDENS}


def test_golden_records_keep_their_simulated_values(golden_records):
    assert set(GOLDEN_RECORD_V1_HASHES) == set(GOLDENS)
    for name, record in golden_records.items():
        assert record_v1_hash(record) == GOLDEN_RECORD_V1_HASHES[name], name


def test_golden_record_hashes_are_pinned(golden_records):
    assert {name: record.content_hash() for name, record in golden_records.items()} == GOLDEN_RECORD_HASHES


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


def test_attack_consumers_do_not_perturb_alice_stream():
    # Random draws are split per named consumer: turning an attack on must
    # not change what Alice sends.
    base = run_scenario(scenario_from_dict(SMALL_DPS))
    attacked = run_scenario(scenario_from_dict({**SMALL_DPS, "attack": {"kind": "backflash"}}))
    np.testing.assert_array_equal(base.protocol_run.alice_bits, attacked.protocol_run.alice_bits)
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


def test_backflash_capture_is_one_only_in_ideal_mode():
    ideal = run_golden("dps-backflash-ideal")
    real = run_golden("dps-backflash-stat")
    assert ideal.attack.capture_fraction == 1.0
    assert 0.0 < real.attack.capture_fraction < 1.0


def test_cow_backflash_ideal_data_records_match():
    record = run_golden("cow-backflash-ideal")
    assert record.attack.capture_fraction == 1.0
    np.testing.assert_array_equal(record.attack.eve_key, record.attack.bob_key)


def test_blinding_derived_readings_round_trip():
    record = run_golden("dps-blinding-derived")
    assert record.attack.eve_readings == record.attack.bob_readings
    assert record.protocol_run.qber == 0.0
    assert record.attack.capture_fraction == 1.0
    assert record.attack.induced_qber == 0.0
