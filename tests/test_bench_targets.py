"""The traced benchmark run wraps equipot functions by (module, name), and a
target that no longer resolves only makes its per-layer metrics absent.
This check fails instead when a refactor drops or renames one of them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("group,module,name", _targets())
def test_traced_target_resolves(group, module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), (
        f"{group}: {module}.{name} is gone"
    )
