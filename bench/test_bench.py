"""Tests of the benchmark itself: the oracles against independent facts, the
checks against perturbed outputs, the round make-up, and the tracer when a
wrapped name is gone.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ first on sys.path)
import workloads  # noqa: E402

IMAGES = [
    oracles.ChebImage(1.7, 1),
    oracles.ChebImage(2.5, 2, -0.75, 3.0),
    oracles.ChebImage(1.3, 4, 2.0, -9.0),
    oracles.ChebImage(2.9, 64, 0.5, 7.5),
]


def _P(img: oracles.ChebImage, y):
    """c T_N((y - beta)/alpha) from numpy's Chebyshev series, not angle form."""
    coef = np.zeros(img.N + 1)
    coef[-1] = img.c
    return np.polynomial.chebyshev.chebval((np.asarray(y) - img.beta) / img.alpha, coef)


# ---------------------------------------------------------------------------
# oracles against independent facts


@pytest.mark.parametrize("img", IMAGES, ids=str)
def test_image_has_2N_endpoints_with_unit_modulus(img):
    ivs = img.intervals()
    ends = [e for pair in ivs for e in pair]
    assert len(ivs) == img.N and ends == sorted(ends) and len(set(ends)) == 2 * img.N
    np.testing.assert_allclose(np.abs(_P(img, ends)), 1.0, atol=1e-9)
    mids = [(lo + hi) / 2 for lo, hi in ivs]
    gaps = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(ivs, ivs[1:])]
    assert np.all(np.abs(_P(img, mids)) < 1.0)
    assert np.all(np.abs(_P(img, gaps)) > 1.0)


def test_interval_gives_markov_n_squared():
    # N = 1: the set is alpha [-1/c, 1/c] + beta, of half-length |alpha|/c,
    # where Markov's inequality is max |p'(a)| = n^2 / half-length.
    for c, alpha, beta in ((1.7, 1.0, 0.0), (2.2, -3.0, 4.0)):
        img = oracles.ChebImage(c, 1, alpha, beta)
        (lo, hi), = img.intervals()
        for n in (1, 7, 60):
            assert img.markov_value(hi, n) == pytest.approx(n * n / ((hi - lo) / 2), rel=1e-14)
        assert img.limit_constant(hi) == pytest.approx(1.0 / ((hi - lo) / 2), rel=1e-14)
        assert img.cap() == pytest.approx((hi - lo) / 4, rel=1e-14)


def test_symmetric_pair_capacity():
    # c T_2 gives [-B, -A] u [A, B] with B^2 - A^2 = 1/c; its capacity is
    # sqrt(B^2 - A^2)/2 (Akhiezer's closed form for a symmetric pair).
    img = oracles.ChebImage(2.5, 2)
    _, (A, B) = img.intervals()
    assert img.cap() == pytest.approx(math.sqrt(B * B - A * A) / 2, rel=1e-14)


@pytest.mark.parametrize("img", IMAGES, ids=str)
def test_density_has_mass_one_over_N_per_component(img):
    phi = (np.arange(4000) + 0.5) * np.pi / 4000       # midpoint rule in angle
    for lo, hi in img.intervals():
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        w = [img.density(mid + half * math.cos(p)) for p in phi]
        mass = np.sum(np.array(w) * half * np.sin(phi)) * np.pi / 4000
        assert mass == pytest.approx(1.0 / img.N, rel=1e-5)


@pytest.mark.parametrize("img", IMAGES[1:3], ids=str)
def test_edge_factor_matches_density(img):
    # Omega(K, a) = lim w(t) sqrt(a - t), and 2 pi^2 Omega^2 is the limit constant
    for a in img.right_endpoints():
        delta = 1e-9 * abs(img.alpha)
        omega = img.density(a - delta) * math.sqrt(delta)
        assert 2 * math.pi ** 2 * omega ** 2 == pytest.approx(img.limit_constant(a), rel=1e-6)


# ---------------------------------------------------------------------------
# checks accept real outputs and reject perturbed ones


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real CLI outputs for one small op of each kind."""
    d = str(tmp_path_factory.mktemp("outputs"))
    img2 = oracles.ChebImage(1.6, 2, 0.8, -1.0)
    img3 = oracles.ChebImage(1.9, 3, -1.5, 2.0)
    ops = {
        "capacity": workloads.capacity_op(img3),
        "cantor": workloads.cantor_op(3, 0.3, -2.0, 5.0),
        "markov": workloads.markov_op(img2, img2.right_endpoints()[0], (4, 8)),
        "evaluate": workloads.evaluate_op(img3, 0.4, 100, 0.1, 1.5),
    }
    out = {}
    for name, op in ops.items():
        _, code, err, outs = worker.run_op(op, d)
        assert code == 0, err
        out[name] = (op, outs)
    return out


def _rejects(op, outs, mutate):
    assert op.check(outs) == []
    bad = copy.deepcopy(outs)
    mutate(bad)
    return op.check(bad) != []


def test_capacity_check_rejects_cap_off_by_1e9(outputs):
    op, outs = outputs["capacity"]
    assert _rejects(op, outs, lambda o: o[0].update(cap=o[0]["cap"] * (1 + 1e-9)))


def test_cantor_check_rejects_cap_off_by_1e9(outputs):
    op, outs = outputs["cantor"]
    assert _rejects(op, outs, lambda o: o[1].update(cap=o[1]["cap"] * (1 + 1e-9)))


def test_markov_check_rejects_value_off_by_1e6(outputs):
    op, outs = outputs["markov"]

    def mutate(o):
        o[0]["rows"][1]["value"] *= 1 + 1e-6

    assert _rejects(op, outs, mutate)


def test_markov_check_rejects_value_short_by_2e7(outputs):
    op, outs = outputs["markov"]

    def mutate(o):
        o[0]["rows"][0]["value"] *= 1 - 2e-7

    assert _rejects(op, outs, mutate)


def test_density_check_rejects_one_row_off_by_1e6(outputs):
    op, outs = outputs["evaluate"]

    def mutate(o):
        rows = o[0]["rows"]
        t, w = rows[len(rows) // 3]
        rows[len(rows) // 3] = [t, w * (1 + 1e-6)]

    assert _rejects(op, outs, mutate)


def test_schur_check_rejects_value_at_a_off_by_1e6(outputs):
    op, outs = outputs["evaluate"]
    assert _rejects(op, outs, lambda o: o[1].update(value_at_a=o[1]["value_at_a"] * (1 + 1e-6)))


@pytest.mark.parametrize("write_first", [False, True], ids=["exit3-no-output", "exit4-after-output"])
def test_regular_op_that_exits_nonzero_makes_the_run_incorrect(monkeypatch, capsys, tmp_path,
                                                                write_first):
    # the third CLI call is the first call of the first regular op (the
    # warm-up makes two); it exits 3 before writing (NumericsError) or 4
    # after writing (a failed invariant), as the real CLI does
    real, calls = worker.cli.main, []

    def fake(argv):
        calls.append(argv)
        if len(calls) != 3:
            return real(argv)
        return (real(argv) or 4) if write_first else 3

    monkeypatch.setattr(worker.cli, "main", fake)
    assert worker.main(["--workload", "evaluate", "--seed", "0", "--workdir", str(tmp_path),
                        "--spawned-at", "0", "--rounds", "1"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (res["attempted"], res["failed"], len(res["op_s"])) == (3, 1, 2)
    assert res["n_problems"] == 1 and "exited" in res["problems"][0]
    assert run.verdict([res], [res]) == {"correct": False, "attempted": 3, "failed": 1}


# ---------------------------------------------------------------------------
# rounds


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_have_one_make_up_and_are_reproducible(name):
    def make_up(ops):
        return [(op.kind.split()[0], op.probe, len(op.calls)) for op in ops]

    first = [next(workloads.rounds(name, seed)) for seed in range(5)]
    assert all(make_up(r) == make_up(first[0]) for r in first)
    again = next(workloads.rounds(name, 3))
    assert [op.calls for op in again] == [op.calls for op in first[3]]
    assert workloads.warmup_op(name).calls == workloads.warmup_op(name).calls
    assert all(workloads.warmup_op(name).calls != op.calls for r in first for op in r)


def test_only_capacity_has_probes():
    probes = {name: sum(op.probe for op in next(workloads.rounds(name, 0)))
              for name in workloads.WORKLOADS}
    assert probes == {"capacity": len(workloads.PROBE_FRAMES), "markov": 0, "evaluate": 0}


# ---------------------------------------------------------------------------
# tracer and metric names


def test_tracer_reports_missing_layer_as_absent(monkeypatch, outputs, tmp_path):
    from equipot import extremal

    monkeypatch.delattr(extremal, "lp_maximize")
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.active = True
        op, _ = outputs["capacity"]
        _, code, _, _ = worker.run_op(op, str(tmp_path))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics(1, 1.0)
    assert "numerics.lp.calls" not in metrics and "numerics.lp.useful_ratio" not in metrics
    assert "cli.self_s" not in metrics
    assert metrics["equilibrium.solve.calls"] == 1
    assert metrics["numerics.quad.calls"] > 0 and metrics["numerics.quad.nodes"] > 0


def test_uninstall_restores_every_name():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for _, m, a in layers.TARGETS}
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in before.items())


def test_every_metric_reported_is_declared_in_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "op_s.p50", "peak_rss_mb"]
    layer_names = set(layers.Tracer().metrics(1, 1.0)) | {"trace.op_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert set(run.units()) == layer_names | {m["name"] for m in spec["end_to_end"]}
