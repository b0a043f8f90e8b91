"""NumericsConfig holds only settings some caller moves, and checks them."""

import dataclasses
import json
import pathlib
import re

import pytest

from equipot import SetSpecError, cli
from equipot.config import DEFAULTS, NumericsConfig, load_config

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equipot"

# former fields, now constants beside their one reader
REMOVED = (
    "expand_min_nodes", "expand_max_nodes", "expand_tail_tol",
    "lp_feasibility_tol", "lp_gap_tol", "lp_grid_per_degree",
    "lp_validation_factor", "lp_exchange_tol",
    "density_edge_guard", "potential_probe_count",
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


def test_the_six_fields():
    assert [f.name for f in dataclasses.fields(NumericsConfig)] == [
        "quad_min_nodes", "quad_max_nodes", "quad_rel_tol",
        "lp_exchange_rounds", "cantor_level_cap", "markov_degree_cap",
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
    ('{"quad_max_nodes": 8}', "quad_max_nodes"),         # below quad_min_nodes
    ('{"quad_min_nodes": 0}', "quad_min_nodes"),
    ('{"markov_degree_cap": true}', "markov_degree_cap"),
    ('{"lp_exchange_rounds": -1}', "lp_exchange_rounds"),
    ('{"quad_min_nodes": 64.0}', "quad_min_nodes"),
    ('{"quad_rel_tol": 0}', "quad_rel_tol"),
    ('{"quad_rel_tol": NaN}', "quad_rel_tol"),
    ('{"quad_rel_tol": "1e-12"}', "quad_rel_tol"),
])
def test_bad_value_refused(override, key, capsys, monkeypatch):
    code, out, err = capacity_with(override, capsys, monkeypatch)
    assert (code, out) == (2, "")
    rec = json.loads(err)
    assert rec["error"] == "parse" and rec["type"] == "SetSpecError"
    assert repr(key) in rec["message"]


def test_starvation_settings_stay_valid():
    env = {"EQUIPOT_CONFIG": '{"quad_min_nodes": 2, "quad_max_nodes": 4, "quad_rel_tol": 1.0}'}
    cfg = load_config(env)
    assert (cfg.quad_min_nodes, cfg.quad_max_nodes, cfg.quad_rel_tol) == (2, 4, 1.0)


def test_library_construction_checked_too():
    with pytest.raises(SetSpecError, match="quad_max_nodes"):
        dataclasses.replace(DEFAULTS, quad_max_nodes=DEFAULTS.quad_min_nodes - 1)
