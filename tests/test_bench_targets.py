"""The traced benchmark run wraps equipot functions by (module, name) and
reads counts off their arguments and results; a target that no longer
resolves, or an attribute that is no longer there, only makes its per-layer
metrics absent.  These checks fail instead when a refactor drops or renames
one of them."""

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from equipot import cli

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


@pytest.mark.parametrize("group,module,name", _layers().TARGETS)
def test_traced_target_resolves(group, module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), (
        f"{group}: {module}.{name} is gone"
    )


# one small op of each kind whose layers the tracer observes
TRACED_OPS = [
    ["markov", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}', "--a", "1", "--degrees", "6"],
    ["density", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}', "--points", "20"],
    ["schur-witness", "--n", "100", "--points", "50", "--format", "csv"],
    ["capacity", "--set", '{"cantor":{"level":3,"ratio":0.3}}'],
]


def test_tracer_reads_every_count(capsys):
    tracer = _layers().Tracer()
    tracer.install()
    try:
        tracer.active = True
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in TRACED_OPS]
        op_s = time.perf_counter() - t0
        tracer.active = False
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(TRACED_OPS)
    assert tracer.absent == set()
    metrics = tracer.metrics(len(TRACED_OPS), op_s)
    assert len(metrics) == 24, sorted(metrics)
    assert metrics["numerics.lp.rows"] > 0
    assert metrics["numerics.expand.nodes"] > 0
    assert metrics["extremal.exchange_rounds"] > 0
