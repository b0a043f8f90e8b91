import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from equipot import (
    LPProblem,
    NumericsError,
    SetSpecError,
    chebyshev_expand,
    h_poly,
    lp_maximize,
)
from equipot import cli, numerics
from equipot.numerics import _gauss_cheb_adaptive


SRC = Path(__file__).resolve().parents[1] / "src" / "equipot"


def test_every_export_is_called():
    """Each name the package imports from numerics has a caller in another
    module of the library."""
    init = (SRC / "__init__.py").read_text()
    names = re.findall(r"\w+", re.search(r"from \.numerics import \(([^)]*)\)", init).group(1))
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py"))
                   if p.name not in ("__init__.py", "numerics.py"))
    uncalled = [name for name in names if not re.search(rf"\b{name}\(", text)]
    assert names and uncalled == [], f"numerics exports no other module calls: {uncalled}"


def quad(f, u, v):
    """The integral of one integrand f(t), through the (t, rows) convention."""
    return float(_gauss_cheb_adaptive(lambda t, rows: f(t)[None], u, v)[0])


def expand(f, u, v):
    """The coefficients of one function f(t), through the (t, rows) convention."""
    return chebyshev_expand(lambda t, rows: f(t)[None], u, v)[0]


class TestQuadrature:
    def test_weight_mass(self):
        assert quad(lambda t: np.ones_like(t), -1, 1) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_second_moment(self):
        got = quad(lambda t: t * t, -1, 1)
        assert got == pytest.approx(math.pi / 2, rel=1e-13)

    def test_affine_invariance_of_mass(self):
        assert quad(lambda t: np.ones_like(t), 0, 1) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_polynomial_exactness(self):
        # int t^8 / sqrt(1-t^2) = pi * 7!!/8!! = pi * 35/128
        got = quad(lambda t: t**8, -1, 1)
        assert got == pytest.approx(math.pi * 35 / 128, rel=1e-12)

    def test_affine_change_of_variables(self):
        u, v = 0.3, 2.7
        f = lambda t: np.exp(t) * np.cos(t)
        direct = quad(f, u, v)
        pulled = quad(lambda s: f(u + (v - u) * s), 0.0, 1.0)
        assert direct == pytest.approx(pulled, rel=1e-12)

    def test_smooth_nonpolynomial(self):
        # int exp(t)/sqrt(1-t^2) = pi * I_0(1)  (modified Bessel)
        from scipy.special import i0

        got = quad(np.exp, -1, 1)
        assert got == pytest.approx(math.pi * i0(1.0), rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(SetSpecError):
            quad(np.exp, 1.0, 1.0)

    def test_nonconvergence_reported(self):
        # a kink inside the interval only converges algebraically
        with pytest.raises(NumericsError):
            quad(lambda t: np.abs(t) ** 0.1, -1, 1)

    INTEGRANDS = (
        lambda t: np.vstack([t**8, np.ones_like(t)]),
        lambda t: np.vstack([np.exp(t), np.cos(40.0 * t)]),
        lambda t: np.zeros((2, len(t))),
    )

    def test_batch_is_each_integrand_alone(self):
        seen = []

        def f(t, rows):
            seen.append((len(t), tuple(rows)))
            return np.stack([self.INTEGRANDS[r](t) for r in rows])

        got = _gauss_cheb_adaptive(f, -2.0, 3.0, count=len(self.INTEGRANDS))
        assert got.shape == (3, 2)
        for g, one in zip(got, self.INTEGRANDS):
            alone = _gauss_cheb_adaptive(lambda t, rows: one(t)[None], -2.0, 3.0)
            assert np.array_equal(g, alone[0])
        # an integrand is sampled until it settles, and not after: only the
        # oscillating one needs more than the first two levels
        assert [rows for _, rows in seen[:2]] == [(0, 1, 2)] * 2
        assert all(rows == (1,) for _, rows in seen[2:]) and len(seen) > 2
        assert [n for n, _ in seen] == [numerics.QUAD_MIN_NODES << j for j in range(len(seen))]

    def test_batch_names_the_unconverged_integrand(self):
        def f(t, rows):
            return np.vstack([np.exp(t), np.abs(t) ** 0.1])[rows]

        with pytest.raises(NumericsError, match="of integrand 1 on"):
            _gauss_cheb_adaptive(f, -1.0, 1.0, count=2)


class TestChebyshevExpand:
    def test_exact_low_degree(self):
        c = expand(lambda s: 2.0 * s * s, -1, 1)
        # 2 s^2 = 1 + T_2
        assert c == pytest.approx([1.0, 0.0, 1.0], abs=1e-14)

    def test_runge(self):
        c = expand(lambda s: 1.0 / (1.0 + 25.0 * s * s), -1, 1)
        s = np.linspace(-1, 1, 101)
        got = np.polynomial.chebyshev.chebval(s, c)
        assert np.max(np.abs(got - 1.0 / (1.0 + 25.0 * s * s))) < 1e-11

    FUNCTIONS = (
        lambda s: 2.0 * s * s,
        lambda s: 1.0 / (1.0 + 25.0 * s * s),
        lambda s: 0.0 * s,
        lambda s: np.exp(3.0 * s),
    )

    def test_batch_is_each_function_alone(self):
        seen = []

        def f(t, rows):
            seen.append((len(t), tuple(rows)))
            return np.vstack([self.FUNCTIONS[r](t) for r in rows])

        got = chebyshev_expand(f, -2.0, 3.0, count=len(self.FUNCTIONS))
        for g, one in zip(got, self.FUNCTIONS):
            want = expand(one, -2.0, 3.0)
            assert len(g) == len(want)
            assert np.allclose(g, want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))
        # a function is sampled until it settles, and not after: only the
        # Runge function needs more than the first 64 + 1 Lobatto points
        assert seen == [((64 << j) + 1, (0, 1, 2, 3) if j == 0 else (1,)) for j in range(len(seen))]

    def test_batch_names_the_unresolved_function(self):
        def f(t, rows):
            return np.vstack([np.exp(t), np.abs(t)])[rows]

        with pytest.raises(NumericsError, match="function 1 on"):
            chebyshev_expand(f, -1.0, 1.0, count=2)


class TestFftKernels:
    """The DCT-I and the fast length on numpy.fft, with scipy.fft as reference."""

    def test_dct1_bit_identical_on_lobatto_shapes(self):
        # the (m, n + 1) values at the Lobatto angles of m components
        rng = np.random.default_rng(1)
        for n in range(1, 201):
            x = rng.standard_normal((1 + n % 4, n + 1))
            assert np.array_equal(numerics._dct1(x), scipy.fft.dct(x, type=1, axis=1)), n

    def test_dct1_bit_identical_on_grid_shapes(self):
        # a cosine series of degree n zero-padded to the refined-maxima and
        # validation grids of _angle_values, up to (1, 12937) at n = 100
        rng = np.random.default_rng(2)
        shapes = set()
        for n in range(1, 101):
            for per_degree in (16, 128):
                M = numerics._fast_len(max(per_degree * (n + 1), n + 2) - 1) + 1
                series = np.zeros((1 + n % 3, M))
                series[:, : n + 1] = rng.standard_normal((len(series), n + 1))
                assert np.array_equal(numerics._dct1(series),
                                      scipy.fft.dct(series, type=1, axis=1)), (n, M)
                shapes.add(M)
        assert max(shapes) == 12937

    def test_fast_len_is_scipys(self):
        for n in [*range(1, 20001), 65535, 100000]:
            assert numerics._fast_len(n) == scipy.fft.next_fast_len(n), n


def t_deriv(n, x):
    """T_n'(x) = n U_{n-1}(x) = n H_{n-1}(x), for n >= 1."""
    return n * h_poly(n - 1, x)


class TestChebT:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 60])
    def test_endpoint_derivative(self, n):
        assert t_deriv(n, 1.0) == pytest.approx(n * n, rel=1e-13)

    def test_deriv_interior(self):
        for n in (3, 4, 9, 10):
            assert t_deriv(n, 0.0) == pytest.approx(
                n * math.sin(n * math.pi / 2), abs=1e-12
            )


def exact_T_deriv(n, x):
    """T_n'(x) = n U_{n-1}(x) at the binary64 value x, to 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        if abs(x) == 1:
            return mpmath.mpf(n * n) * mpmath.sign(x) ** (n - 1)
        if abs(x) < 1:
            t = mpmath.acos(x)
            return n * mpmath.sin(n * t) / mpmath.sin(t)
        f = mpmath.acosh(abs(x))
        return n * mpmath.sign(x) ** (n - 1) * mpmath.sinh(n * f) / mpmath.sinh(f)


class TestChebTOracle:
    """The angle-form kernel, through ``h_poly``, against 50-digit values at
    the float inputs."""

    NS = [1, 2, 5, 51, 401, 1601]
    NEAR = 1.0 - 10.0 ** -np.arange(3, 16)

    @pytest.mark.parametrize("n", NS)
    def test_inside_error_within_n_squared_eps(self, n):
        xs = np.concatenate([np.linspace(-1.0, 1.0, 201), self.NEAR, -self.NEAR, [1.0, -1.0]])
        got = t_deriv(n, xs)
        err = max(abs(float(g - exact_T_deriv(n, x))) for g, x in zip(got, xs))
        assert err <= 1e-15 * n * n

    @pytest.mark.parametrize("n", NS)
    def test_outside_relative_error(self, n):
        d = np.concatenate([10.0 ** -np.arange(2, 16), np.linspace(1e-3, 1e-2, 10)])
        xs = np.concatenate([1.0 + d, -1.0 - d])
        got = t_deriv(n, xs)
        want = [exact_T_deriv(n, x) for x in xs]
        rel = max(abs(float((g - e) / e)) for g, e in zip(got, want))
        assert rel <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_far_outside_relative_error(self, n):
        xs = [2.0, -10.0, 1e4, 1e8, -1e12] if n < 50 else [2.0, -10.0, 1e4]
        got = t_deriv(n, xs)
        rel = max(abs(float((g - e) / e)) for g, e in zip(got, (exact_T_deriv(n, x) for x in xs)))
        assert rel <= 1e-13

    def test_overflow_is_signed_infinity(self):
        # U_999(1.5) ~ 1e417: the recurrence used to end in inf - inf = nan
        assert t_deriv(1000, 1.5) == math.inf
        assert t_deriv(1000, -1.5) == -math.inf
        assert t_deriv(1001, -1.5) == math.inf

    def test_scalar_list_and_zero_degree(self):
        assert isinstance(t_deriv(7, 0.3), float)
        got = t_deriv(3, [0.5, 2.0])
        assert got.tolist() == pytest.approx([0.0, 45.0], rel=1e-14, abs=1e-14)
        assert h_poly(0, 0.3) == 1.0
        assert math.isnan(t_deriv(4, math.nan))


def nodal_lp(nodes, points, at=1.0):
    """LPProblem for max P'(at) over the values of P at ``nodes``, with the
    constraint rows the Lagrange basis at ``points``."""
    P = np.polynomial.Polynomial
    nodes = np.asarray(nodes, dtype=float)
    basis = [P.fromroots(np.delete(nodes, j)) for j in range(len(nodes))]
    basis = [b / b(x) for b, x in zip(basis, nodes)]
    objective = np.array([b.deriv()(at) for b in basis])
    return LPProblem(objective, np.array([b(np.asarray(points, dtype=float)) for b in basis]).T)


EXTREMA5 = np.cos(np.arange(6) * np.pi / 5)          # where |T_5| = 1
FIRST_KIND5 = np.cos((2 * np.arange(6) + 1) * np.pi / 12)  # |T_5| < 1 there


class TestLP:
    def test_degree1_three_points(self):
        value, y = lp_maximize(nodal_lp([-1.0, 1.0], [-1.0, 0.0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert y == pytest.approx([-1.0, 1.0], abs=1e-9)  # P(x) = x

    def test_degree0(self):
        # the derivative objective of a constant is 0; use a value objective instead
        value, y = lp_maximize(LPProblem(objective=np.array([1.0]), rows=np.ones((2, 1))))
        assert value == pytest.approx(1.0, abs=1e-10)
        assert y == pytest.approx([1.0], abs=1e-10)

    def test_degree5_markov_value(self):
        pts = np.cos(np.linspace(0, np.pi, 2000))
        value, y = lp_maximize(nodal_lp(FIRST_KIND5, pts))
        assert value == pytest.approx(25.0, rel=2e-4)  # finite-grid relaxation
        # the witness is close to T_5
        assert y == pytest.approx(np.cos(5 * np.arccos(FIRST_KIND5)), abs=1e-3)

    def test_box_alone_gives_markov_value(self):
        # at the extrema of T_5 the box bounds alone pin P'(1) <= T_5'(1) = 25
        value, y = lp_maximize(nodal_lp(EXTREMA5, [0.1, 0.2]))
        assert value == pytest.approx(25.0, rel=1e-9)
        assert y == pytest.approx((-1.0) ** np.arange(6), abs=1e-9)

    def test_value_monotone_under_refinement(self):
        coarse = np.cos(np.linspace(0, np.pi, 40))
        fine = np.cos(np.linspace(0, np.pi, 400))
        v_coarse, _ = lp_maximize(nodal_lp(FIRST_KIND5, coarse))
        v_fine, _ = lp_maximize(nodal_lp(FIRST_KIND5, fine))
        assert v_fine <= v_coarse + 1e-9

    def test_witness_feasible(self):
        pts = np.cos(np.linspace(0, np.pi, 300))
        prob = nodal_lp(np.cos((2 * np.arange(8) + 1) * np.pi / 16), pts)
        _, y = lp_maximize(prob)
        assert np.max(np.abs(prob.rows @ y)) <= 1.0 + 1e-9
        assert np.max(np.abs(y)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("box", [False, True], ids=["rows-active", "box-active"])
    def test_duality_gap_audit(self, monkeypatch, box):
        if box:
            # no constraint point reaches |T_5| = 1, so only the box marginals are nonzero
            prob = nodal_lp(EXTREMA5, np.cos(np.linspace(0.05, 0.15, 5) * np.pi))
        else:
            prob = nodal_lp(FIRST_KIND5, np.cos(np.linspace(0, np.pi, 200)))
        value, y = lp_maximize(prob)  # the audit passes on the real duals
        assert value > 0.0
        assert (np.max(np.abs(y)) > 1.0 - 1e-9) == box
        prob = LPProblem(prob.objective, prob.rows)  # a fresh problem builds a model

        class DoubledDuals(numerics._Highs):
            def getSolution(self):
                sol = super().getSolution()
                sol.row_dual = [2.0 * v for v in sol.row_dual]
                sol.col_dual = [2.0 * v for v in sol.col_dual]
                return sol

        monkeypatch.setattr(numerics, "_Highs", DoubledDuals)
        with pytest.raises(NumericsError, match="duality gap"):
            lp_maximize(prob)


class FailingHighs(numerics._Highs):
    """A HiGHS model whose runs end at the iteration limit."""

    def getModelStatus(self):
        return HighsModelStatus.kIterationLimit


class TestLPLadder:
    """Rungs: the warm model at tight tolerances, then ``linprog`` without
    presolve."""

    # 0: the model answers; 2: every HiGHS model fails and linprog answers;
    # 3: linprog fails too
    @pytest.mark.parametrize("failing", [0, 2, 3])
    def test_next_rung_answers(self, monkeypatch, failing):
        points = np.cos(np.linspace(0, np.pi, 200))
        expected, _ = lp_maximize(nodal_lp(FIRST_KIND5, points))
        real, calls = numerics.linprog, []

        def counted_linprog(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res.status)
            if failing == 3:
                res.status = 4
            return res

        monkeypatch.setattr(numerics, "linprog", counted_linprog)
        if failing:
            monkeypatch.setattr(numerics, "_Highs", FailingHighs)
        prob = nodal_lp(FIRST_KIND5, points)
        if failing == 3:
            with pytest.raises(NumericsError, match="LP solver failed"):
                lp_maximize(prob)
        else:
            value, y = lp_maximize(prob)
            assert value == pytest.approx(expected, rel=1e-9)
            assert np.max(np.abs(prob.rows @ y)) <= 1.0 + 1e-9
        assert len(calls) == (failing >= 2)
        # only a model that solved is kept for a later solve
        assert (prob._model is not None) == (failing == 0)

    def test_warm_rounds_match_cold_solves(self, monkeypatch):
        """One working set grown over four rounds on one HiGHS model."""
        models = []

        class Counted(numerics._Highs):
            def __init__(self):
                super().__init__()
                models.append(self)

        monkeypatch.setattr(numerics, "_Highs", Counted)
        nodes = np.cos((2 * np.arange(11) + 1) * np.pi / 22)
        rng = np.random.default_rng(7)
        batches = [np.cos(np.linspace(0, np.pi, 15))] + [rng.uniform(-1, 1, 30) for _ in range(3)]
        prob, values = nodal_lp(nodes, batches[0]), []
        for k, pts in enumerate(batches):
            if k:
                prob.add_rows(nodal_lp(nodes, pts).rows)
            rows = prob.rows
            value, y = lp_maximize(prob)
            assert prob._model is not None
            cold = linprog(-prob.objective, A_ub=np.vstack([rows, -rows]),
                           b_ub=np.ones(2 * len(rows)), bounds=[(-1.0, 1.0)] * len(nodes),
                           method="highs")
            assert cold.status == 0
            assert value == pytest.approx(prob.objective @ cold.x, rel=1e-9)
            assert np.max(np.abs(rows @ y)) <= 1.0 + 1e-9
            assert np.max(np.abs(y)) <= 1.0 + 1e-9
            values.append(value)
        assert len(models) == 1
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))
        assert values[0] > values[-1] * (1.0 + 1e-3)  # the rounds moved the LP


class TestHighsPrivateApi:
    """``lp_maximize`` drives scipy's private HiGHS class; a scipy that moves
    or renames any of it fails here rather than at a first Markov probe."""

    def test_methods_used(self):
        for name in ("addVars", "addRows", "changeColsCost", "run", "getModelStatus",
                     "getSolution", "setOptionValue", "getOptionValue", "getNumRow", "getNumCol"):
            assert callable(getattr(numerics._Highs, name, None)), name
        sol = numerics._Highs().getSolution()
        for name in ("col_value", "row_dual", "col_dual"):
            assert hasattr(sol, name), name

    def test_markov_stdout_is_the_record(self, capsys, monkeypatch):
        monkeypatch.delenv("EQUIPOT_CONFIG", raising=False)
        argv = ["markov", "--set", '{"intervals":[[-1,-0.5],[0.5,1]]}', "--a", "1",
                "--degrees", "10,20"]
        assert cli.main(argv) == 0
        record = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "equipot.cli", *argv],
                             capture_output=True, text=True, env=env, check=True)
        assert run.stdout == record
        assert json.loads(run.stdout)["rows"]
