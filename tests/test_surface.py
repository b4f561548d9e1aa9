import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dprsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(dprsim.__path__))
PACKAGE = Path(dprsim.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"dprsim.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    exec(f"from dprsim.{name} import *", {})


def test_every_exported_name_is_used_by_the_package():
    # A public name that only tests call is surface to maintain for nothing.
    # A use is a read of the name, or of an attribute of that name, anywhere
    # in the package's modules except ``__init__.py``; the definition, the
    # ``__all__`` entry (a string) and imports are not reads.
    used: set[str] = set()
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"dprsim.{name}"), "__all__", ())
        if attr not in used
    ]
    assert unused == []


def _defaulted_parameters() -> list[tuple[str, list[ast.expr | None]]]:
    """Each defaulted parameter of an exported function, as ``module.fn(param)``,
    with what every package call passes for it: the argument node, or None
    where the call leaves it to its default.

    A call passes a parameter by position or by keyword; ``*args`` covers
    every positional slot (its node stands for an unknown value), but
    ``**kwargs`` names nothing this scan can see, so the package passes such
    values by name."""
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(callee, []).append(node)

    def argument(call: ast.Call, index: int | None, param: str) -> ast.expr | None:
        if index is not None:
            starred = [arg for arg in call.args if isinstance(arg, ast.Starred)]
            if starred:
                return starred[0]
            if index < len(call.args):
                return call.args[index]
        return next((kw.value for kw in call.keywords if kw.arg == param), None)

    found = []
    for name, tree in trees.items():
        exported = set(getattr(importlib.import_module(f"dprsim.{name}"), "__all__", ()))
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in exported:
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for index, param in defaulted:
                passed = [argument(call, index, param) for call in calls.get(fn.name, [])]
                found.append((f"{name}.{fn.name}({param})", passed))
    return found


def test_every_defaulted_parameter_is_passed_by_the_package():
    # A parameter with a default that no call in the package passes is a
    # knob only tests turn.
    knobs = [knob for knob, passed in _defaulted_parameters() if all(arg is None for arg in passed)]
    assert knobs == []


def test_no_defaulted_parameter_takes_one_literal_from_every_package_call():
    # A parameter to which every call in the package passes the same literal
    # is a knob only tests turn too: the package never varies it.
    def literal(arg: ast.expr | None) -> tuple[type, object] | None:
        return (type(arg.value), arg.value) if isinstance(arg, ast.Constant) else None

    pinned = [
        knob
        for knob, passed in _defaulted_parameters()
        if len({literal(a) for a in passed}) == 1 and literal(passed[0]) is not None
    ]
    assert pinned == []


def test_a_blinding_run_imports_no_scipy():
    # The package promises numpy only, and ``import scipy.signal`` alone takes
    # about a second, more than a 1e5-symbol blinding run.
    code = (
        "import sys, dprsim\n"
        "from dprsim.config import scenario_from_dict\n"
        "from dprsim.scenario import run_scenario\n"
        "run_scenario(scenario_from_dict({'protocol': 'cow', 'n_symbols': 1000, 'attack': {'kind': 'blinding'}}))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_golden_run_and_its_report_import_no_yaml(tmp_path):
    # Only a scenario document is parsed, and only ``goldens --dump`` writes
    # one: a golden run and the report of its record leave PyYAML unloaded.
    code = (
        "import sys\n"
        "from dprsim import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['run', '--golden', 'dps-ideal', '--out', out]) == 0\n"
        "assert cli.main(['report', '--record', out + '/record.json']) == 0\n"
        "print('yaml' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_protocol_branches_do_not_grow():
    # ROADMAP item 7 replaces the comparisons on the protocol's name with one
    # table per protocol.  Until then their count may only fall: a new
    # branch pairs a DPS part with a COW part where the table should.
    branches = sum(
        text.count('protocol == "') + text.count('protocol != "')
        for text in (path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py"))
    )
    assert branches <= 13
