"""Which of the package's modules each module may import."""

import ast
import importlib
from pathlib import Path

import pytest

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
