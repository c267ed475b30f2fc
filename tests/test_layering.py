"""Which of the package's modules each module may import, and which
``import regforge`` loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regforge.spec import TOPOLOGIES

# The estimator is closed-form: it elaborates nothing, and takes the
# capacity and sync-length rules from spec.  The simulator is built from
# the validated spec alone: it imports no elaboration and not the bus
# oracle it is checked against.  The emitter writes RTL from the spec and
# the model, and runs no simulation.
LOCAL_IMPORTS = {
    "cost": {"errors", "fields", "spec"},
    "sim": {"errors", "fields", "spec"},
    "emit": {"elaborate", "errors", "spec"},
}


@pytest.mark.parametrize("module", LOCAL_IMPORTS)
def test_local_imports(module):
    path = Path(importlib.import_module(f"regforge.{module}").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 or not node.module.startswith("regforge")
            if node.level:
                local.add(node.module)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("regforge") for alias in node.names)
    assert local == LOCAL_IMPORTS[module]


def _topology_comparisons(path: Path) -> list[int]:
    """The lines of ``path`` that compare a topology's name as a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(operand, ast.Constant) and operand.value in TOPOLOGIES
                    for operand in (node.left, *node.comparators))]


def test_no_topology_name_is_compared():
    """Every layer, and the reference the simulator is checked against,
    reads what a topology is from its ``TOPOLOGY_FLAGS`` row."""
    package = Path(importlib.import_module("regforge").__file__).parent
    paths = [*sorted(package.glob("*.py")), Path(__file__).with_name("bus_oracle.py")]
    hits = [f"{path.name}:{line}" for path in paths for line in _topology_comparisons(path)]
    assert hits == []


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return proc.stdout


def test_default_calibration_loads_no_simulator_emitter_or_cli():
    loaded = _fresh(
        "import sys, regforge; regforge.default_calibration(); "
        "print(sorted(m for m in sys.modules if m.startswith('regforge.')))"
    )
    assert set(ast.literal_eval(loaded)).isdisjoint(
        {"regforge.sim", "regforge.emit", "regforge.elaborate", "regforge.cli"})


def test_every_public_name_is_its_home_modules_object():
    """Also after ``regforge.cli`` has imported the submodules ``elaborate``
    and ``emit``, whose names are those of two public functions."""
    out = _fresh(
        "import importlib, regforge, regforge.cli\n"
        "for name in regforge.__all__:\n"
        "    home = importlib.import_module('regforge.' + regforge._HOMES[name])\n"
        "    assert getattr(regforge, name) is getattr(home, name), name\n"
        "print(len(regforge.__all__))"
    )
    assert int(out) > 40


def test_star_import_binds_every_public_name():
    out = _fresh(
        "import regforge\n"
        "from regforge import *\n"
        "print(all(globals()[n] is getattr(regforge, n) for n in regforge.__all__))"
    )
    assert out == "True\n"


def test_unknown_name_raises_attribute_error():
    import regforge

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        regforge.nope
    assert "emit" in dir(regforge) and "nope" not in dir(regforge)
