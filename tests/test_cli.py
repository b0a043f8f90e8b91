import dataclasses
import errno
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equipot import (SetSpecError, cli, equilibrium, extremal, interval_sets, numerics, schur,
                     solve_equilibrium)


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

    @pytest.mark.parametrize("x", ["1.00001", "-1.00001", "1.000000000003", "-1.000000000003"])
    def test_balayage_source_near_the_interval(self, x, capsys):
        # the swept density's pole at x is within 5e-6 of the length of [b, a]
        code, out, err = run_cli(["balayage", f"--x={x}", "--b", "-1", "--a", "1", "--t", "0"],
                                 capsys)
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["mass"] - 1.0) <= 1e-12

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

    def test_output_file_atomic_on_other_errors(self, tmp_path, monkeypatch):
        # an error that is no OSError propagates as it is, and the temporary
        # file beside the target goes with it
        def broken(src, dst):
            raise RuntimeError("rename interrupted")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(RuntimeError, match="rename interrupted"):
            cli._write_atomic(str(tmp_path / "omega.json"), "{}")
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("command", [["omega"], ["markov", "--degrees", "5"],
                                         ["converge", "--m", "2"]], ids=lambda c: c[0])
    def test_not_an_endpoint_refused_before_the_solve(self, command, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("the set was solved before its endpoint was checked")

        monkeypatch.setattr(equilibrium, "solve_equilibrium", no_solve)
        monkeypatch.setattr(extremal, "solve_equilibrium", no_solve)
        code, out, err = run_cli([*command, "--set", '{"cantor":{"level":9}}', "--a", "0.3"],
                                 capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse", "type": "SetSpecError",
                                   "message": "0.3 is not a right endpoint of the set"}

    @pytest.mark.parametrize("command", [["density"], ["omega", "--a", "A"], ["capacity"],
                                         ["green", "--z", "0"],
                                         ["markov", "--a", "A", "--degrees", "4"],
                                         ["converge", "--a", "A", "--m", "2"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("pairs", [[[-1e308, 1e308]], [[1e307, 2e307], [3e307, 1.7e308]]],
                             ids=["hull-overflows", "component-overflows"])
    def test_set_near_the_float_limit_one_record(self, command, pairs, capsys):
        # the solve's overflow warns of nothing (the suite turns warnings into
        # errors): its one stderr line is the record naming the float limit
        argv = [pairs[-1][1] if arg == "A" else arg for arg in command]
        code, out, err = run_cli([*map(str, argv), "--set", json.dumps({"intervals": pairs})],
                                 capsys)
        assert out == "" and len(err.splitlines()) == 1
        rec = json.loads(err)
        assert (code, rec["error"]) == (3, "numeric") and "not finite" in rec["message"]

    @pytest.mark.parametrize("command", [["density"], ["omega", "--a", "1.7e308"], ["capacity"],
                                         ["green", "--z", "1.3e308"],
                                         ["markov", "--a", "1.7e308", "--degrees", "4"],
                                         ["converge", "--a", "1.7e308", "--m", "2"]],
                             ids=lambda c: c[0])
    def test_set_near_the_float_limit_solves(self, command, capsys):
        # every frame (components, gaps, Robin probes) is formed without
        # u + v, which overflows here; the capacity is 1e308 sqrt(0.1) / 2
        pairs = [[1e308, 1.2e308], [1.5e308, 1.7e308]]
        code, out, err = run_cli([*command, "--set", json.dumps({"intervals": pairs})], capsys)
        assert (code, err) == (0, "")
        if command[0] == "capacity":
            assert json.loads(out)["cap"] == pytest.approx(1e308 * math.sqrt(0.1) / 2.0,
                                                           rel=1e-13)

    def test_balayage_near_the_float_limit(self, capsys):
        # |x - b| |x - a| and pi |t - x| overflow; their roots and quotients do not
        code, out, err = run_cli(["balayage", "--x", "1.75e308", "--b", "1e308", "--a", "1.7e308",
                                  "--t", "1.5e308"], capsys)
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert abs(rec["mass"] - 1.0) <= 1e-9
        # the kernel scales as 1/alpha, the edge limit as 1/sqrt(alpha)
        at_one = equilibrium.BalayageQuery(x=1.75, b=1.0, a=1.7)
        assert rec["density"] == pytest.approx(
            equilibrium.balayage_density(at_one, 1.5) / 1e308, rel=1e-13)
        assert rec["edge_limit"] == pytest.approx(
            equilibrium.balayage_edge_limit(at_one) / 1e154, rel=1e-13)

    def test_balayage_distance_overflow_exit_2(self, capsys):
        # a - b = 2e308 is refused for its overflow, not as a source inside
        code, out, err = run_cli(["balayage", "--x", "-1.5e308", "--b", "-1e308", "--a", "1e308"],
                                 capsys)
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "parse" and "float limit" in rec["message"]

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
        # a kernel scaled by 1.5 breaks the balayage unit-mass audit (the
        # mass integrand is constant, so no quadrature setting can)
        kernel = equilibrium._balayage_kernel
        monkeypatch.setattr(equilibrium, "_balayage_kernel", lambda *d: 1.5 * kernel(*d))
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
        # schur-counterexample's two invariants, broken by stand-in reports
        real = schur.counterexample_demo(10)
        for change, message in (({"local_ok": False}, "should satisfy the local hypothesis"),
                                ({"point_ratio": 1.0}, "point ratio 1.0 should exceed 1")):
            stand_in = dataclasses.replace(real, **change)
            monkeypatch.setattr(schur, "counterexample_demo", lambda n, r=stand_in: r)
            code, out, err = run_cli(["schur-counterexample", "--n", "10"], capsys)
            assert code == 4
            assert json.loads(out)["report"] == stand_in.to_dict()
            assert json.loads(err)["error"] == "invariant"
            assert message in json.loads(err)["message"]

    def test_cantor_level_cap_override(self, capsys, monkeypatch):
        monkeypatch.setattr(interval_sets, "CANTOR_LEVEL_CAP", 3)
        code, _, err = run_cli(
            ["capacity", "--set", '{"cantor":{"level":4,"ratio":0.3333333333333333}}'], capsys
        )
        assert code == 2
        assert "exceeds the cap 3" in json.loads(err)["message"]


class TestRangeParsing:
    def test_arithmetic(self):
        assert cli.parse_int_list("3..6") == (3, 4, 5, 6)

    def test_geometric(self):
        assert cli.parse_int_list("2..64:x2") == (2, 4, 8, 16, 32, 64)

    def test_mixed_commas(self):
        assert cli.parse_int_list("1,4..6,10") == (1, 4, 5, 6, 10)

    @pytest.mark.parametrize("text,want", [
        ("1..1000000", (*range(1, 11), 11)),
        ("0..1000000", (0,)),
        ("-1000000..5", (-1000000,)),
        ("20..30", (20,)),
        ("3,4..6,9..12", (3, 4, 5, 6, 9, 10, 11)),
        ("20..3", ()),
        ("1..1000000:x2", (1, 2, 4, 8, 16)),
        ("3..1000000:x3", (3, 9, 27)),
    ])
    def test_sweep_stops_at_first_refused_value(self, text, want):
        # the refused value itself is kept, so the caller's message names
        # the same first offender as for the whole expansion
        if want:
            assert cli.parse_int_list(text, range(1, 11)) == want
        else:
            with pytest.raises(SetSpecError, match="empty integer list"):
                cli.parse_int_list(text, range(1, 11))

    @pytest.mark.parametrize("bad", ["", "a", "1..b", "2..8:y2", "2..8:x1", "0..8:x2", "-1..8:x2"])
    def test_rejects(self, bad):
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

    @pytest.mark.parametrize("argv", [
        ["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--degrees", "5"],
        ["converge", "--set", '{"intervals":[[-1,1]]}', "--a", "1", "--m", "2"],
    ], ids=["markov-one-degree", "converge-one-m"])
    def test_one_point_series(self, argv, capsys):
        # one degree or one m leaves no x range (the converge point no y
        # range either): each is widened to 1 about its value, so the point
        # sits mid-axis, at 60 + (640 - 60 - 20) / 2
        code, out, err = run_cli([*argv, "--format", "svg"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("<svg") and "nan" not in out and "inf" not in out
        assert re.search(r'<polyline points="340\.000,', out)
        if argv[0] == "converge":
            assert '<polyline points="340.000,227.500"' in out

    def test_rejects_empty(self):
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
        rec = cli._COMMANDS[command][0](ns).record()
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

    def test_flat_number_lists(self, monkeypatch):
        # a flat list of int or float is one compact encoding, a capacity
        # record's 127 roots included; a list that holds a bool is not
        roots = solve_equilibrium(interval_sets.cantor_set(7, 0.37)).roots
        rec = {"roots": list(roots), "cap": 0.25, "ints": [3, -1, 0, 2**70],
                "edges": [-0.0, 1e308, -1e308, 5e-324, 0.1], "mixed": [1, 2.5, -0.0],
                "bools": [1.0, True, 0, False]}
        assert len(rec["roots"]) == 127
        assert cli.to_json(rec) == self.reference(rec)
        for part in rec.values():
            assert cli.to_json(part) == self.reference(part)
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(a[0]) or dumps(*a, **k))
        cli.to_json(rec["roots"])
        assert calls == [rec["roots"]]
        calls.clear()
        cli.to_json(rec["bools"])
        assert calls == rec["bools"]


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

    @staticmethod
    def run_capped(argv):
        """The CLI in a process under a 2 GiB address-space limit, where
        expanding a sweep of 10**10 values ends in a MemoryError."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "equipot.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (2**31, 2**31)))

    def test_huge_degree_sweep_refused_at_once(self):
        # 1..10**10 is never expanded
        run = self.run_capped(["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
                               "--degrees", "1..10000000000"])
        assert (run.returncode, run.stdout) == (2, "")
        assert json.loads(run.stderr) == {"error": "parse", "type": "SetSpecError",
                                          "message": "degree must lie in [1, 120], got 121"}

    def test_negative_m_sweep_refused_at_once(self):
        # -10**10..5 stops at its first value, which the study refuses
        run = self.run_capped(["converge", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
                               "--m", "-10000000000..5"])
        assert (run.returncode, run.stdout) == (2, "")
        rec = json.loads(run.stderr)
        assert rec["error"] == "parse" and "outer approximant needs m >= 2" in rec["message"]

    def test_m_sweep_stops_at_the_set_itself(self):
        # 2..10**10 stops at its first m >= K.m, whose approximant is K: every
        # later row would repeat Omega(K)
        spec = '{"intervals":[[-1,-0.6],[-0.4,0],[0.2,0.5],[0.7,1]]}'
        run = self.run_capped(["converge", "--set", spec, "--a", "1", "--m", "2..10000000000",
                               "--format", "csv"])
        assert (run.returncode, run.stderr) == (0, "")
        rows = [line.split(",") for line in run.stdout.strip().splitlines()[1:]]
        assert [int(m) for m, _ in rows] == [2, 3, 4]
        K = interval_sets.IntervalSet(tuple(map(tuple, json.loads(spec)["intervals"])))
        assert float(rows[-1][1]) == equilibrium.omega_factor(equilibrium.solve_equilibrium(K), 1.0)

    def test_degree_cap_read_at_each_call(self, capsys, monkeypatch):
        monkeypatch.setattr(extremal, "MARKOV_DEGREE_CAP", 4)
        code, out, err = run_cli(["markov", "--set", '{"intervals":[[-1,1]]}', "--a", "1",
                                  "--degrees", "2..1000000"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "degree must lie in [1, 4], got 5"

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

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["set-spec", "directory"])
    def test_unreadable_json_file_named(self, tmp_path, name, capsys):
        path = str(tmp_path / name)
        code, out, err = run_cli(["capacity", "--set", path], capsys)
        assert (code, out) == (2, "")
        assert f"cannot read set spec file {path!r}" in json.loads(err)["message"]

    def test_cached_parser_parses_each_call_afresh(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "run", lambda ns: seen.append(vars(ns)) or 0)
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
# print the exit codes and the scipy and numpy.ma modules loaded after each list
FRESH_RUNS = """
import contextlib, io, json, sys
from equipot import cli

codes, loaded = [], []
for batch in json.loads(sys.argv[1]):
    for argv in batch:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    loaded.append(sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_imports_scipy():
    """No command loads a scipy or numpy.ma module: not one of the format
    matrix (its converge solves a set of 8 components), nor markov on the
    (c T_N)^-1[-1, 1] of the benchmark's markov workload at its degrees,
    whose LPs the dual simplex solves without the linprog rung."""
    args = TestFormatMatrix.ARGS
    plain = [[command, *argv] for command, argv in args.items()]
    # (2 T_N)^-1[-1, 1]: N theta in [k pi + phi, (k + 1) pi - phi] for
    # x = cos(theta), phi = arccos(1/2); a is the right end of its leftmost
    # component (the interval's for N = 1)
    phi, markov = math.acos(0.5), []
    for N, degrees in {1: "50,100", 2: "24,40", 3: "18,30", 4: "20,24"}.items():
        K = sorted([math.cos(((k + 1) * math.pi - phi) / N), math.cos((k * math.pi + phi) / N)]
                   for k in range(N))
        markov.append(["markov", "--set", json.dumps({"intervals": K}), "--a", repr(K[0][1]),
                       "--degrees", degrees])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps([plain, markov])],
                         capture_output=True, text=True, env=env, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    assert {argv[0] for argv in plain} == set(cli._COMMANDS)
    assert got["codes"] == [0] * (len(plain) + len(markov))
    assert got["loaded"] == [[], []]


def test_markov_stdout_is_the_record(capsys):
    argv = ["markov", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}', "--a", "1",
            "--degrees", "10,20"]
    assert cli.main(argv) == 0
    record = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "equipot.cli", *argv],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout == record
    assert json.loads(run.stdout)["rows"]


def test_no_module_reads_the_environment():
    """Nothing a run computes depends on an environment variable."""
    src = Path(cli.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py"))
               if re.search(r"\b(environ|getenv)\b", p.read_text())]
    assert readers == []
