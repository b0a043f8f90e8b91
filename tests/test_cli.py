import errno
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equipot import cli, numerics


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_omega_paper_value(self, capsys):
        code, out, _ = run_cli(
            ["omega", "--set", '{"intervals":[[-2,1]]}', "--a", "1"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["omega"] == pytest.approx(1 / (math.pi * math.sqrt(3)), abs=1e-10)

    def test_markov_csv_row(self, capsys):
        code, out, _ = run_cli(
            ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
             "--degrees", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,value,ratio,limit_constant"
        deg, value, ratio, lim = lines[1].split(",")
        assert deg == "5"
        assert float(value) == pytest.approx(25.0, rel=1e-9)
        assert float(ratio) == pytest.approx(1.0, rel=1e-9)
        assert float(lim) == pytest.approx(1.0, rel=1e-9)

    def test_converge_monotone(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--set", '{"cantor":{"level":4,"ratio":0.3333333333333333}}',
             "--a", "1", "--m", "2..16:x2", "--format", "csv"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        omegas = [float(v) for _, v in rows]
        assert [int(m) for m, _ in rows] == [2, 4, 8, 16]
        assert all(b >= a - 1e-12 for a, b in zip(omegas, omegas[1:]))

    def test_capacity_json(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}'], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["cap"] == pytest.approx(math.sqrt(0.75) / 2, abs=1e-10)
        assert rec["mass"] == pytest.approx(1.0, abs=1e-9)
        assert rec["roots"] == [pytest.approx(0.0, abs=1e-13)]
        assert "q_coeffs" not in rec

    def test_green(self, capsys):
        code, out, _ = run_cli(
            ["green", "--set", '{"intervals":[[-1,1]]}', "--z", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["green"] == pytest.approx(
            math.log(2 + math.sqrt(3)), abs=1e-8
        )

    def test_balayage_point(self, capsys):
        code, out, _ = run_cli(
            ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--t", "0"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["density"] == pytest.approx(math.sqrt(3) / (2 * math.pi), rel=1e-12)
        assert rec["mass"] == pytest.approx(1.0, abs=1e-9)
        # in csv, the one-row table
        code, out, _ = run_cli(
            ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--t", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out == f"t,balayage_density\n0,{cli.fmt(rec['density'])}\n"

    def test_schur_counterexample(self, capsys):
        code, out, _ = run_cli(["schur-counterexample", "--n", "50"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["report"]["point_ratio"] > 1.0
        assert rec["report"]["local_ok"] is True

    def test_schur_witness(self, capsys):
        code, out, _ = run_cli(
            ["schur-witness", "--n", "400", "--alpha", "0.5", "--eta", "0.05"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["report"]["point_ratio"] == pytest.approx(
            191 * 2 / 400 / 1.05**2, rel=1e-9
        )

    def test_density_svg_two_polylines(self, capsys):
        code, out, _ = run_cli(
            ["density", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}',
             "--points", "200", "--format", "svg"], capsys
        )
        assert code == 0
        assert out.count("<polyline") == 2
        assert out.startswith("<svg")

    def test_set_spec_from_file(self, tmp_path, capsys):
        spec = tmp_path / "set.json"
        spec.write_text('{"intervals": [[-1, 1]]}')
        code, out, _ = run_cli(["capacity", "--set", str(spec)], capsys)
        assert code == 0
        assert json.loads(out)["cap"] == pytest.approx(0.5, abs=1e-10)

    def test_output_file_atomic(self, tmp_path, capsys):
        out_path = tmp_path / "omega.json"
        code, _, _ = run_cli(
            ["omega", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
             "--out", str(out_path)], capsys
        )
        assert code == 0
        rec = json.loads(out_path.read_text())
        assert rec["omega"] == pytest.approx(1 / (math.pi * math.sqrt(2)), rel=1e-12)
        assert not list(tmp_path.glob(".equipot-*"))

    @pytest.mark.parametrize("a", ["-1.5e-05", "-3E-7", "-.25", "-0.5"])
    def test_negative_values_in_any_float_form(self, a, capsys):
        # a right endpoint below zero, passed as the separate token repr(a) gives
        K = json.dumps({"intervals": [[-1.0, float(a)], [0.5, 1.0]]})
        code, out, _ = run_cli(["omega", "--set", K, "--a", a], capsys)
        assert code == 0 and json.loads(out)["a"] == float(a)
        code, out, _ = run_cli(["green", "--set", '{"intervals":[[-1,1]]}', "--z", "-3e+20"], capsys)
        assert code == 0 and json.loads(out)["green"] > 0.0


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        args = ["density", "--set", '{"intervals":[[-2,0],[1,2]]}',
                "--points", "50", "--format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(
            ["capacity", "--set", '{"intervals":[[-1.1,-0.123456789012345],[0.5,1]]}'],
            capsys,
        )
        rec = json.loads(out)
        assert json.loads(json.dumps(rec)) == rec
        assert rec["set"]["intervals"] == [[-1.1, -0.123456789012345], [0.5, 1.0]]

    def test_seventeen_digit_csv(self, capsys):
        _, out, _ = run_cli(
            ["omega", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
             "--format", "csv"], capsys
        )
        val = out.strip().splitlines()[1].split(",")[1]
        # 17 significant digits round-trip binary64 exactly
        assert cli.fmt(float(val)) == val
        _, out_json, _ = run_cli(
            ["omega", "--set", '{"intervals":[[-1,1]]}', "--a", "1"], capsys
        )
        assert float(val) == json.loads(out_json)["omega"]


class TestExitCodes:
    def test_parse_error_bad_json(self, capsys):
        code, _, err = run_cli(["omega", "--set", "{bad json", "--a", "1"], capsys)
        assert code == 2
        rec = json.loads(err)
        assert rec["error"] == "parse"

    def test_parse_error_bad_range(self, capsys):
        code, _, err = run_cli(
            ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
             "--degrees", "5..x"], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == "parse"

    def test_parse_error_not_an_endpoint(self, capsys):
        code, _, err = run_cli(
            ["omega", "--set", '{"intervals":[[-1,1]]}', "--a", "0.5"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_balayage_non_finite_source_exit_2(self, x, capsys):
        code, out, err = run_cli(
            ["balayage", f"--x={x}", "--b", "-1", "--a", "1", "--t", "0"], capsys
        )
        assert code == 2
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "parse" and "finite" in rec["message"]

    @pytest.mark.parametrize("argv,flag", [
        (["capacity", "--set", '{"intervals":[[-1,1]]}'], "--out"),
        (["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--degrees", "5"],
         "--dump-witness"),
    ], ids=["out", "dump-witness"])
    @pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
    def test_unwritable_output_path_exit_2(self, argv, flag, target, tmp_path, capsys,
                                           monkeypatch):
        # the path is refused before the command computes anything
        def no_compute(*args, **kwargs):
            pytest.fail("the command ran before its output path was checked")

        monkeypatch.setattr(cli.equilibrium, "solve_equilibrium", no_compute)
        monkeypatch.setattr(cli.extremal, "markov_study", no_compute)
        path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
        code, out, err = run_cli([*argv, flag, str(path)], capsys)
        assert code == 2
        rec = json.loads(err)
        assert rec["error"] == "parse" and str(path) in rec["message"]
        assert not list(tmp_path.rglob(".equipot-*"))

    def test_full_disk_exit_2(self, tmp_path, capsys, monkeypatch):
        # the write fails at the rename, after the temporary file is written
        def full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full)
        path = tmp_path / "c.json"
        code, out, err = run_cli(["capacity", "--set", '{"intervals":[[-1,1]]}',
                                  "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse"
        assert rec["message"] == f"cannot write {path}: No space left on device"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["schur-witness", "--n", "100", "--h-a", "nan"],
        ["schur-witness", "--n", "100", "--h-a", "inf"],
        ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--t", "nan"],
    ], ids=["h_a-nan", "h_a-inf", "t-nan"])
    def test_non_finite_input_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse"

    def test_numeric_error_exit_3(self, capsys, monkeypatch):
        # starve the quadrature so it cannot converge
        monkeypatch.setattr(numerics, "QUAD_MAX_NODES", 16)
        code, _, err = run_cli(
            ["capacity", "--set", '{"intervals":[[-2,0],[1,2]]}'], capsys
        )
        assert code == 3
        assert json.loads(err)["error"] == "numeric"

    def test_invariant_violation_exit_4(self, tmp_path, capsys, monkeypatch):
        # a 2-node quadrature that instantly "converges" breaks the
        # balayage unit-mass audit
        monkeypatch.setattr(numerics, "QUAD_MIN_NODES", 2)
        monkeypatch.setattr(numerics, "QUAD_MAX_NODES", 4)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1.0)
        code, out, err = run_cli(
            ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--t", "0"], capsys
        )
        assert code == 4
        assert json.loads(err)["error"] == "invariant"
        # the output is written before the exit
        assert abs(json.loads(out)["mass"] - 1.0) > 1e-9
        out_path = tmp_path / "bal.csv"
        code, out, _ = run_cli(
            ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--points", "10",
             "--format", "csv", "--out", str(out_path)], capsys
        )
        assert (code, out) == (4, "")
        assert len(out_path.read_text().splitlines()) == 11

    def test_cantor_level_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIPOT_CONFIG", '{"cantor_level_cap": 3}')
        code, _, err = run_cli(
            ["capacity", "--set", '{"cantor":{"level":4,"ratio":0.3333333333333333}}'], capsys
        )
        assert code == 2
        assert "exceeds the cap 3" in json.loads(err)["message"]

    def test_bad_config_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIPOT_CONFIG", '{"nonsense_key": 1}')
        code, _, err = run_cli(
            ["capacity", "--set", '{"intervals":[[-1,1]]}'], capsys
        )
        assert code == 2

    def test_config_env_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIPOT_CONFIG", "{bad")
        code, out, err = run_cli(["capacity", "--set", '{"intervals":[[-1,1]]}'], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith("invalid JSON in EQUIPOT_CONFIG")

    def test_config_file_not_an_object(self, capsys, monkeypatch, tmp_path):
        # inline text that does not start with "{" names a file
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        monkeypatch.setenv("EQUIPOT_CONFIG", str(path))
        code, out, err = run_cli(["capacity", "--set", '{"intervals":[[-1,1]]}'], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "EQUIPOT_CONFIG must hold a JSON object"


class TestRangeParsing:
    def test_arithmetic(self):
        assert cli.parse_int_list("3..6") == (3, 4, 5, 6)

    def test_geometric(self):
        assert cli.parse_int_list("2..64:x2") == (2, 4, 8, 16, 32, 64)

    def test_mixed_commas(self):
        assert cli.parse_int_list("1,4..6,10") == (1, 4, 5, 6, 10)

    @pytest.mark.parametrize("bad", ["", "a", "1..b", "2..8:y2", "2..8:x1", "0..8:x2", "-1..8:x2"])
    def test_rejects(self, bad):
        from equipot import SetSpecError

        with pytest.raises(SetSpecError):
            cli.parse_int_list(bad)


class TestSvg:
    def test_single_series_two_points(self):
        svg = cli.emit_svg([("s", [0.0, 1.0], [0.0, 1.0])])
        assert svg.count("<polyline") == 1
        assert 'version="1.1"' in svg

    def test_deterministic_bytes(self):
        a = cli.emit_svg([("r", [0, 1, 2], [5.0, 3.0, 4.0])], axes=("x", "y"))
        b = cli.emit_svg([("r", [0, 1, 2], [5.0, 3.0, 4.0])], axes=("x", "y"))
        assert a == b

    def test_span_of_two_ulps(self):
        # Markov ratios on [-1, 1] differ in the last bits; the tick loop must end
        svg = cli.emit_svg([("r", [5.0, 6.0], [1.0000000000000007, 1.0000000000000002])])
        assert svg.count("<polyline") == 1

    def test_rejects_empty(self):
        from equipot import SetSpecError

        with pytest.raises(SetSpecError):
            cli.emit_svg([])
        with pytest.raises(SetSpecError):
            cli.emit_svg([("s", [], [])])


class TestExports:
    def test_markov_witness_dump(self, tmp_path, capsys):
        # read back through scipy's barycentric interpolator, independent of equipot's
        from scipy.interpolate import BarycentricInterpolator

        path = tmp_path / "witness.json"
        code, _, _ = run_cli(
            ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
             "--degrees", "5", "--dump-witness", str(path)], capsys
        )
        assert code == 0
        dump = json.loads(path.read_text())["5"]
        P = BarycentricInterpolator(dump["nodes"], dump["values"])
        xs = np.linspace(-1.0, 1.0, 200)
        assert np.max(np.abs(P(xs) - np.cos(5 * np.arccos(xs)))) < 1e-9  # T_5

        code, out, _ = run_cli(
            ["markov", "--set", '{"intervals":[[-1,-0.4],[0.2,1]]}', "--a", "1",
             "--degrees", "40", "--format", "csv", "--dump-witness", str(path)], capsys
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        dump = json.loads(path.read_text())["40"]
        P = BarycentricInterpolator(dump["nodes"], dump["values"])
        xs = np.concatenate([np.linspace(-1.0, -0.4, 2000), np.linspace(0.2, 1.0, 2000)])
        assert np.max(np.abs(P(xs))) <= 1.0 + 1e-6
        assert abs(float(P.derivative(1.0))) == pytest.approx(value, rel=1e-8)

    def test_tables_match_per_point_evaluation(self, capsys):
        # both tables are built by one array call; per point they give the same bytes
        from equipot import BalayageQuery, balayage_density, schur

        code, out, _ = run_cli(
            ["schur-witness", "--n", "200", "--alpha", "0.3", "--h-a", "1.7",
             "--points", "60", "--format", "csv"], capsys
        )
        assert code == 0
        imap = schur.quadratic_inverse_image(0.3)
        wit = schur.build_witness(imap, 1.7, 200, 0.05)
        for line in out.strip().splitlines()[1:]:
            x, p, bound = line.split(",")
            assert p == cli.fmt(float(wit(float(x))))
            assert bound == cli.fmt(1.7 / math.sqrt(imap.a - float(x)))

        code, out, _ = run_cli(
            ["balayage", "--x", "2", "--b", "-1", "--a", "1", "--points", "60",
             "--format", "csv"], capsys
        )
        assert code == 0
        qy = BalayageQuery(x=2.0, b=-1.0, a=1.0)
        for line in out.strip().splitlines()[1:]:
            t, v = line.split(",")
            assert v == cli.fmt(balayage_density(qy, float(t)))

    def test_schur_witness_csv_table(self, capsys):
        code, out, _ = run_cli(
            ["schur-witness", "--n", "400", "--alpha", "0.5",
             "--points", "100", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,witness,local_bound"
        assert len(lines) == 101
        for line in lines[1:]:
            x, p, bound = (float(v) for v in line.split(","))
            assert abs(p) <= bound + 1e-9  # the local hypothesis on the table


class TestFormatMatrix:
    TWO = '{"intervals":[[-1,-0.5],[0.5,1]]}'
    ARGS = {
        "density": ["--set", TWO, "--points", "20"],
        "omega": ["--set", TWO, "--a", "1"],
        "capacity": ["--set", TWO],
        "green": ["--set", TWO, "--z", "2"],
        "balayage": ["--x", "2", "--b", "-1", "--a", "1", "--points", "20"],
        "markov": ["--set", '{"intervals":[[-1,1]]}', "--a", "1", "--degrees", "5,6"],
        "schur-witness": ["--n", "100", "--points", "50"],
        "schur-counterexample": ["--n", "50"],
        "converge": ["--set", '{"cantor":{"level":3,"ratio":0.3333333333333333}}',
                     "--a", "1", "--m", "2..8:x2"],
    }
    # the CSV header of each command that renders csv
    CSV = {
        "density": "t,density",
        "omega": "a,omega",
        "capacity": "cap,robin,mass",
        "balayage": "t,balayage_density",
        "markov": "degree,value,ratio,limit_constant",
        "schur-witness": "x,witness,local_bound",
        "converge": "m,omega",
    }
    SVG = ("density", "markov", "converge")
    PAIRS = [(c, f) for c in ARGS for f in ("json", "csv", "svg")]

    @pytest.mark.parametrize("command,fmt", PAIRS, ids=[f"{c}-{f}" for c, f in PAIRS])
    def test_pair(self, command, fmt, capsys):
        code, out, err = run_cli([command, *self.ARGS[command], "--format", fmt], capsys)
        offered = fmt == "json" or (fmt == "csv" and command in self.CSV) or (
            fmt == "svg" and command in self.SVG)
        if not offered:
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "parse"
            assert "--format" in json.loads(err)["message"]
            return
        assert (code, err) == (0, "")
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            assert out.splitlines()[0] == self.CSV[command]
        else:
            assert out.startswith("<svg")


class TestJsonEncoding:
    """to_json equals json.dumps(obj, indent=2, sort_keys=True) + newline, byte
    for byte, though numeric tables take the compact C encoder."""

    @staticmethod
    def reference(obj):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", list(TestFormatMatrix.ARGS))
    def test_every_command_record(self, command):
        ns = cli.build_parser().parse_args([command, *TestFormatMatrix.ARGS[command]])
        rec = cli._COMMANDS[command][0](ns, cli.load_config()).record()
        assert cli.to_json(rec) == self.reference(rec)

    def test_synthetic_record(self):
        inf = math.inf
        rec = {
            "table": [[math.nan, inf, -inf], (-0.0, 5e-324, 1e308), [1, -2, 3.5]],
            "bool_row": [[1.0, True], [2.0, False]],
            "empty_row": [[1.0], []],
            "ragged": [(0.25,), [1, 2, 3, 4], [1e-300, -7]],
            "nested": [{"b": [[1, 2]], "a": None}, [[0.5]], [], {}],
            "tuple_pairs": ((1, 2), (3, 4)),
            "vector": [0.1, 2, -inf],
            "none": None, "empty": [], "dict": {}, "flag": True, "count": 7,
            "text": "Ω(K, a) \"q\" \\ \n\t\u0001 ☃",
        }
        assert cli.to_json(rec) == self.reference(rec)
        for part in rec.values():
            assert cli.to_json(part) == self.reference(part)


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["markov", "--set", '{"intervals":[[-1,1]]}', "--degrees", "5"],        # no --a
        ["density", "--set", '{"intervals":[[-1,1]]}', "--format", "xml"],
        ["omega", "--set", '{"intervals":[[-1,1]]}', "--a", "one"],
        [],                                                                      # no command
    ], ids=["missing-required", "unoffered-format", "bad-float", "no-command"])
    def test_json_parse_record(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse" and rec["type"] == "SetSpecError"

    POINTS = {
        "density": ["density", "--set", '{"intervals":[[-1,1]]}'],
        "balayage": ["balayage", "--x", "2", "--b", "-1", "--a", "1"],
        "schur-witness": ["schur-witness", "--n", "100", "--format", "csv"],
    }

    @pytest.mark.parametrize("points", ["-3", "0", "abc"])
    @pytest.mark.parametrize("command", sorted(POINTS))
    def test_points_must_be_positive(self, command, points, capsys):
        code, out, err = run_cli([*self.POINTS[command], "--points", points], capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse" and "--points" in rec["message"]
        assert f"expected a positive integer, got {points!r}" in rec["message"]

    def test_empty_degree_list(self, capsys):
        code, out, err = run_cli(["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
                                  "--degrees", "5..3"], capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse" and rec["message"] == "empty integer list"

    @pytest.mark.parametrize("spec,field", [
        ('{"intervals":[[0,"x"]]}', "intervals"),
        ('{"intervals":[[0,null]]}', "intervals"),
        ('{"intervals":[5]}', "intervals"),
        ('{"cantor":{"level":"x"}}', "level"),
        ('{"cantor":{"level":3,"ratio":null}}', "ratio"),
    ], ids=["string-endpoint", "null-endpoint", "bare-number", "string-level", "null-ratio"])
    def test_malformed_set_spec(self, spec, field, capsys):
        code, out, err = run_cli(["capacity", "--set", spec], capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse" and rec["type"] == "SetSpecError"
        assert f"'{field}'" in rec["message"]

    @pytest.mark.parametrize("argv", [
        ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--degrees", "0..8:x2"],
        ["converge", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--m=-1..64:x2"],
    ], ids=["zero-start", "negative-start"])
    def test_geometric_sweep_start_below_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "start at 1 or above" in json.loads(err)["message"]

    @pytest.mark.parametrize("use_env", [False, True], ids=["set-spec", "config"])
    def test_unreadable_json_file_named(self, tmp_path, use_env, capsys, monkeypatch):
        missing = str(tmp_path / "missing.json")
        spec = '{"intervals":[[-1,1]]}'
        if use_env:
            monkeypatch.setenv("EQUIPOT_CONFIG", missing)
        else:
            spec = missing
        code, out, err = run_cli(["capacity", "--set", spec], capsys)
        assert (code, out) == (2, "")
        want = "EQUIPOT_CONFIG file" if use_env else "set spec file"
        assert f"cannot read {want} {missing!r}" in json.loads(err)["message"]

    def test_cached_parser_parses_each_call_afresh(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "run", lambda ns, cfg: seen.append(vars(ns)) or 0)
        spec = '{"intervals":[[-1,1]]}'
        codes = [cli.main(argv) for argv in (
            ["density", "--set", spec, "--points", "3", "--format", "csv", "--out", "t.csv"],
            ["density", "--set", spec],
            ["markov", "--set", spec, "--a", "1", "--degrees", "5"],
            ["omega", "--set", spec, "--a", "one"],
            ["density", "--set", spec],
        )]
        assert codes == [0, 0, 0, 2, 0]
        assert json.loads(capsys.readouterr().err)["error"] == "parse"
        density = {"command": "density", "set": spec, "points": 200, "format": "json", "out": None}
        assert seen == [
            {**density, "points": 3, "format": "csv", "out": "t.csv"},
            density,
            {"command": "markov", "set": spec, "a": 1.0, "degrees": "5", "format": "json",
             "out": None, "dump_witness": None},
            density,
        ]

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["markov", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert "usage: equipot" in capsys.readouterr().out


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_file_mode_follows_umask(tmp_path, capsys, umask, mode):
    out_path, dump_path = tmp_path / "out.json", tmp_path / "witness.json"
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(
            ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--degrees", "5",
             "--out", str(out_path), "--dump-witness", str(dump_path)], capsys
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == mode
    assert stat.S_IMODE(dump_path.stat().st_mode) == mode


# run in a fresh interpreter: each argv list of argv[1] through cli.main, then
# print the exit codes and the scipy modules loaded after each list
FRESH_RUNS = """
import contextlib, io, json, sys
from equipot import cli

codes, loaded = [], []
for batch in json.loads(sys.argv[1]):
    for argv in batch:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_only_the_lp_imports_scipy(monkeypatch):
    """A command that runs no LP loads no scipy module; markov loads
    scipy.optimize at its first LP."""
    monkeypatch.delenv("EQUIPOT_CONFIG", raising=False)
    args = TestFormatMatrix.ARGS
    plain = [[command, *argv] for command, argv in args.items() if command != "markov"]
    batches = [plain, [["markov", *args["markov"]]]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(batches)],
                         capture_output=True, text=True, env=env, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    assert {argv[0] for argv in plain} == set(cli._COMMANDS) - {"markov"}
    assert got["codes"] == [0] * (len(plain) + 1)
    assert got["loaded"][0] == []
    assert "scipy.optimize" in got["loaded"][1]
