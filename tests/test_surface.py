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
