"""Every config that validates runs to a meaningful result; every other fails
at load, naming its field.

The documents are drawn from the config's type hints alone, so a field that
is added or removed needs no edit here.  Each scalar field draws from a pool
of its type: its default and the default's ulp neighbours, the common bounds
0 and 1 and their ulp neighbours, signed zeros, and for a float magnitudes
from 1e-300 to 1e300 and the largest finite float of either sign.  Probing
each pool value on the default config, alone, sorts it into the field's
domain or past it: the validator's own verdict, not a table here, says which
is which.  Integers stay small: an integer field
sizes a run, a window or a dead time, and a huge one makes a slow run, not a
wrong one.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
import typing

import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dprsim.cli import main
from dprsim.config import (
    ATTACK_KINDS,
    BLINDING_STYLES,
    FSG_POLICIES,
    PROTOCOLS,
    ConfigError,
    ScenarioConfig,
    _inner,
    _type_hints,
    scenario_from_dict,
)
from dprsim.protocols import COW_SYMBOLS
from dprsim.report import MetricsSummary, load_record
from dprsim.scenario import load_config, run_scenario


def _leaves(cls: type = ScenarioConfig, prefix: str = ""):
    """The dotted path, hint and default of every config field that is not a section."""
    hints = _type_hints(cls)
    defaults = cls()
    for f in dataclasses.fields(cls):
        hint = _inner(hints[f.name])
        if dataclasses.is_dataclass(hint):
            yield from _leaves(hint, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", hints[f.name], getattr(defaults, f.name)


LEAVES = list(_leaves())
HINTS = {path: hint for path, hint, _ in LEAVES}

# The string pool: every choice the validation knows, COW symbol strings, an empty string and a stranger.
_WORDS = (*PROTOCOLS, *ATTACK_KINDS, *FSG_POLICIES, *BLINDING_STYLES, "".join(COW_SYMBOLS), "d1d0", "1", "", "x")


def _around(x: float) -> list[float]:
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


def _candidates(hint, default) -> list:
    """The fixed pool of values of a field's hint that the domain probe sorts."""
    inner = _inner(hint)
    pool: list = [None] if inner is not hint else []
    if inner is float:
        pool += [-0.0, *_around(0.0), *_around(0.5), *_around(1.0), -1.0, 1e-300, 1e300, -1e300]
        pool += [sys.float_info.max, -sys.float_info.max]
        pool += _around(default) if isinstance(default, float) else []
    elif inner is int:
        pool += [-1, 0, 1, 2, 3, 8, 40] + ([default - 1, default, default + 1] if isinstance(default, int) else [])
    elif inner is bool:
        pool += [False, True]
    elif inner is str:
        pool += list(_WORDS)
    elif typing.get_origin(inner) is tuple:
        element = typing.get_args(inner)[0]
        pool += [[v, v] for v in _candidates(element, None) if v is not None]
    return pool


def _merged(doc: dict, path: str, value) -> dict:
    """A copy of ``doc`` that sets the field at the dotted ``path`` to ``value``."""
    out = json.loads(json.dumps(doc))
    node = out
    *parents, leaf = path.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return out


def _validate_error(doc: dict) -> str | None:
    """What the typed read and the validation say is wrong with ``doc``; None if nothing."""
    try:
        scenario_from_dict(doc)
    except ConfigError as exc:
        return str(exc)
    return None


def _load_error(doc: dict) -> str | None:
    """What loading ``doc`` as the command line does says is wrong with it:
    the validation, checked first since it is cheap, then the document text
    and the golden lookup."""
    error = _validate_error(doc)
    if error is None:
        try:
            load_config(yaml.safe_dump(doc))
        except ConfigError as exc:
            error = str(exc)
    return error


def _named(error: str) -> list[str]:
    """The field paths an error message names: its leading path, with a pair
    such as ``detector.p_never/p_always`` read as both fields and any element
    index dropped."""
    head = error.split(":", 1)[0].split("[", 1)[0]
    first, *rest = head.split("/")
    prefix = first.rpartition(".")[0]
    return [first, *(f"{prefix}.{name}" if prefix else name for name in rest)]


# path -> (values in the field's domain, values just past it), each judged alone on the default config.
DOMAINS: dict[str, tuple[list, list]] = {}
# Errors of a document that sets one field and do not name it.
MISNAMED: list[str] = []
for _path, _hint, _default in LEAVES:
    inside, past = [], []
    for _value in _candidates(_hint, _default):
        _error = _validate_error(_merged({}, _path, _value))
        if _error is None:
            inside.append(_value)
        elif _path in _named(_error):
            past.append(_value)
        else:
            MISNAMED.append(f"{_path} = {_value!r}: {_error}")
    DOMAINS[_path] = (inside, past)


def _value(path: str):
    """A value of the field at ``path``: one the probe found in its domain, or
    for a float any magnitude, or for a list a longer list of elements found
    in its domain."""
    inside = DOMAINS[path][0]
    drawn = st.sampled_from(inside)
    inner = _inner(HINTS[path])
    if inner is float:
        signs, mantissas, exponents = st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-300, 299)
        drawn |= st.builds(lambda s, m, e: s * m * 10.0**e, signs, mantissas, exponents)
    elif typing.get_origin(inner) is tuple:
        elements = [v[0] for v in inside if isinstance(v, list)]
        if elements:
            drawn |= st.lists(st.sampled_from(elements), min_size=2, max_size=12)
    return drawn


# The fields that pick a mode (a string that cannot be None: the protocol, the
# attack kind, the blinding policy and style) are set in every document.
MODES = [path for path, hint in HINTS.items() if hint is str]


@st.composite
def documents(draw):
    """A scenario document that sets every mode and a few other fields, each
    to a value of its pool."""
    others = sorted(set(DOMAINS) - set(MODES))
    paths = MODES + draw(st.lists(st.sampled_from(others), unique=True, max_size=8))
    doc: dict = {}
    for path in paths:
        doc = _merged(doc, path, draw(_value(path)))
    return doc


def _run(tmp, doc: dict) -> tuple[int, str]:
    """``dprsim run`` of ``doc`` written to a file under ``tmp``, its run
    directory ``tmp / "out"``: the exit code and what it wrote to stderr."""
    scenario = tmp / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(scenario), "--out", str(tmp / "out")])
    return code, err.getvalue()


def _strict(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _check_metric(value, hint, path: str) -> None:
    """A metric is finite, or None where its hint documents None."""
    inner = _inner(hint)
    if value is None:
        assert inner is not hint, f"{path} is None, but its hint {hint} has no None"
    elif typing.get_origin(inner) is dict:
        for key, item in value.items():
            _check_metric(item, typing.get_args(inner)[1], f"{path}.{key}")
    elif isinstance(value, float):
        assert math.isfinite(value), f"{path} = {value}"


def test_each_field_accepts_its_default_and_names_itself_when_it_rejects():
    assert all(inside for inside, _ in DOMAINS.values()), [p for p, (i, _) in DOMAINS.items() if not i]
    assert MISNAMED == []


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(documents())
def test_every_valid_config_runs_to_a_meaningful_result(tmp_path_factory, doc):
    assume(_load_error(doc) is None)
    record = run_scenario(load_config(yaml.safe_dump(doc)))
    tmp = tmp_path_factory.mktemp("valid")
    code, err = _run(tmp, doc)
    assert code in (0, 3), err
    metrics = _strict((tmp / "out" / "metrics.json").read_text(encoding="utf-8"))
    hints = _type_hints(MetricsSummary)
    for f in dataclasses.fields(MetricsSummary):
        _check_metric(metrics[f.name], hints[f.name], f.name)
    keys = [(tmp / "out" / f"{who}.key").read_text(encoding="utf-8").strip() for who in ("alice", "bob")]
    assert len(keys[0]) == len(keys[1]) == metrics["sifted_length"]
    assert load_record(tmp / "out" / "record.json").content_hash() == record.content_hash()
    reported = io.StringIO()
    with contextlib.redirect_stdout(reported):
        assert main(["report", "--record", str(tmp / "out" / "record.json")]) == 0
    assert _strict(reported.getvalue()) == metrics


PUSHABLE = sorted(path for path, (_, past) in DOMAINS.items() if past)


@st.composite
def pushed(draw):
    """A document and one field of it pushed just past its domain."""
    doc = draw(documents())
    path = draw(st.sampled_from(PUSHABLE))
    return doc, path, draw(st.sampled_from(DOMAINS[path][1]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pushed())
def test_a_field_past_its_domain_fails_at_load_naming_it(tmp_path_factory, case):
    doc, path, value = case
    assume(_load_error(doc) is None)
    bad = _merged(doc, path, value)
    error = _load_error(bad)
    # Another field of the document may move this one's bound (a rail past
    # its partner's default): then the document is valid, and tested above.
    assume(error is not None)
    tmp = tmp_path_factory.mktemp("invalid")
    code, err = _run(tmp, bad)
    assert code == 1, err
    assert err == f"config error: {error}\n"
    assert path in _named(error), error
    assert not (tmp / "out").exists()
