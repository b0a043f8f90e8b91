"""NumericsConfig holds only settings some caller moves, and checks them."""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from equipot import SetSpecError, cli, numerics
from equipot.config import DEFAULTS, NumericsConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equipot"

# former fields, now constants beside their one reader
REMOVED = (
    "expand_min_nodes", "expand_max_nodes", "expand_tail_tol",
    "lp_feasibility_tol", "lp_gap_tol", "lp_grid_per_degree",
    "lp_validation_factor", "lp_exchange_tol",
    "density_edge_guard", "potential_probe_count",
    "quad_min_nodes", "quad_max_nodes", "quad_rel_tol", "lp_exchange_rounds",
)


def capacity_with(config: str, capsys, monkeypatch):
    monkeypatch.setenv("EQUIPOT_CONFIG", config)
    code = cli.main(["capacity", "--set", '{"intervals":[[-1,1]]}'])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_field_is_read():
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "config.py")
    read = set(re.findall(r"\bcfg\.(\w+)", text))
    unread = [f.name for f in dataclasses.fields(NumericsConfig) if f.name not in read]
    assert unread == [], f"NumericsConfig fields no module reads as cfg.<field>: {unread}"


def test_the_two_fields():
    assert [f.name for f in dataclasses.fields(NumericsConfig)] == [
        "cantor_level_cap", "markov_degree_cap",
    ]


@pytest.mark.parametrize("key", REMOVED)
def test_removed_key_refused(key, capsys, monkeypatch):
    code, out, err = capacity_with(json.dumps({key: 1}), capsys, monkeypatch)
    assert (code, out) == (2, "")
    rec = json.loads(err)
    assert rec["error"] == "parse" and key in rec["message"]


@pytest.mark.parametrize("override,key", [
    ('{"cantor_level_cap": "3"}', "cantor_level_cap"),
    ('{"quad_max_nodes": null}', "quad_max_nodes"),
    ('{"quad_max_nodes": 8}', "quad_max_nodes"),
    ('{"quad_min_nodes": 0}', "quad_min_nodes"),
    ('{"markov_degree_cap": true}', "markov_degree_cap"),
    ('{"lp_exchange_rounds": -1}', "lp_exchange_rounds"),
    ('{"quad_min_nodes": 64.0}', "quad_min_nodes"),
    ('{"quad_rel_tol": 0}', "quad_rel_tol"),
    ('{"quad_rel_tol": NaN}', "quad_rel_tol"),
    ('{"quad_rel_tol": "1e-12"}', "quad_rel_tol"),
])
def test_bad_value_refused(override, key, capsys, monkeypatch):
    # a former field is refused as an unknown key before its value is read
    code, out, err = capacity_with(override, capsys, monkeypatch)
    assert (code, out) == (2, "")
    rec = json.loads(err)
    assert rec["error"] == "parse" and rec["type"] == "SetSpecError"
    assert repr(key) in rec["message"]
    assert rec["message"].startswith("unknown config keys") == (key in REMOVED)


def test_starvation_settings_stay_valid(monkeypatch):
    # the quadrature constants are read at each call, so starved values take
    # effect without a reload: 2 nodes, then 4, where a tolerance of 1 settles
    monkeypatch.setattr(numerics, "QUAD_MIN_NODES", 2)
    monkeypatch.setattr(numerics, "QUAD_MAX_NODES", 4)
    monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1.0)
    seen = []

    def f(t, rows):
        seen.append(len(t))
        return np.exp(t)[None]

    got = numerics._gauss_cheb_adaptive(f, -1.0, 1.0)[0]
    assert seen == [2, 4]
    assert got == pytest.approx(np.pi / 4 * np.sum(np.exp(np.cos(np.pi * np.arange(1, 8, 2) / 8))),
                                rel=1e-15)


def test_library_construction_checked_too():
    with pytest.raises(SetSpecError, match="markov_degree_cap"):
        dataclasses.replace(DEFAULTS, markov_degree_cap=-1)
