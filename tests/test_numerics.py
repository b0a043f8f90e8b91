import inspect
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.optimize import linprog

from equipot import (
    LPProblem,
    NumericsError,
    chebyshev_expand,
    h_poly,
    lp_maximize,
)
from equipot import IntervalSet, numerics, solve_equilibrium
from equipot.extremal import (
    _bary_weights,
    _deriv_row,
    _extremal_core,
    _interpolation_nodes,
    _lagrange_rows,
)
from equipot.interval_sets import _frame
from equipot.numerics import _gauss_cheb_adaptive
from conftest import random_interval_set


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
    """int_u^v f(t)/sqrt((t-u)(v-t)) dt of one integrand f(t), through the
    (s, rows) convention on [-1, 1] and the frame of [u, v]."""
    mid, half = _frame(u, v)
    return float(_gauss_cheb_adaptive(lambda s, rows: f(mid + half * s)[None])[0])


def expand(f, u, v):
    """The Chebyshev coefficients of one function f(t) on [u, v], through
    the (s, rows) convention on [-1, 1] and the frame of [u, v]."""
    mid, half = _frame(u, v)
    return chebyshev_expand(lambda s, rows: f(mid + half * s)[None])[0]


@pytest.mark.parametrize("kernel", [_gauss_cheb_adaptive, chebyshev_expand])
def test_kernels_take_no_interval(kernel):
    # both work on the reference interval [-1, 1]; callers map their own
    assert list(inspect.signature(kernel).parameters) == ["f", "count"]


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

        mid, half = _frame(-2.0, 3.0)

        def f(s, rows):
            seen.append((len(s), tuple(rows)))
            return np.stack([self.INTEGRANDS[r](mid + half * s) for r in rows])

        got = _gauss_cheb_adaptive(f, count=len(self.INTEGRANDS))
        assert got.shape == (3, 2)
        for g, one in zip(got, self.INTEGRANDS):
            alone = _gauss_cheb_adaptive(lambda s, rows: one(mid + half * s)[None])
            assert np.array_equal(g, alone[0])
        # an integrand is sampled until it settles, and not after: only the
        # oscillating one needs more than the first two levels, whose N + 1
        # points are followed by the N new points of each doubling
        assert [rows for _, rows in seen[:2]] == [(0, 1, 2)] * 2
        assert all(rows == (1,) for _, rows in seen[2:]) and len(seen) > 2
        N = numerics.QUAD_MIN_NODES
        assert [n for n, _ in seen] == [N + 1] + [N << j for j in range(len(seen) - 1)]

    def test_batch_names_the_unconverged_integrand(self):
        def f(s, rows):
            return np.vstack([np.exp(s), np.abs(s) ** 0.1])[rows]

        with pytest.raises(NumericsError, match=r"of integrand 1 on \[-1, 1\]"):
            _gauss_cheb_adaptive(f, count=2)

    def test_starvation_settings_stay_valid(self, monkeypatch):
        # the quadrature constants are read at each call, so starved values take
        # effect without a reload: levels 2 and 4, the 3 Lobatto points of the
        # first and the 2 new ones of the second, where a tolerance of 1 settles
        monkeypatch.setattr(numerics, "QUAD_MIN_NODES", 2)
        monkeypatch.setattr(numerics, "QUAD_MAX_NODES", 4)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1.0)
        seen = []

        def f(s, rows):
            seen.append(len(s))
            return np.exp(s)[None]

        got = _gauss_cheb_adaptive(f)[0]
        assert seen == [3, 2]
        inner = np.sum(np.exp(np.cos(np.pi * np.arange(1, 4) / 4)))
        assert got == pytest.approx(np.pi / 4 * (inner + np.cosh(1.0)), rel=1e-15)

    def test_each_level_samples_only_new_points(self):
        # f sees the N + 1 Lobatto points of the first level and then only
        # the points each doubling adds; together they are the Lobatto set
        # of the last level, each point sampled once
        calls = []

        def f(s, rows):
            calls.append(s)
            return np.cos(40.0 * s)[None]

        _gauss_cheb_adaptive(f)
        got = np.concatenate(calls)
        N = numerics.QUAD_MIN_NODES << (len(calls) - 1)
        assert len(calls) > 2 and len(got) == N + 1
        assert np.array_equal(np.sort(got), np.sort(np.cos(np.arange(N + 1) * (np.pi / N))))

    @pytest.mark.parametrize("N", [2, 4, 16])
    def test_level_is_exact_to_degree_2N_minus_1(self, N, monkeypatch):
        # a tolerance of 1 settles at the second level, N, whose rule
        # integrates T_j exactly for j < 2N: pi for j = 0 and 0 above; it
        # sees T_2N as the constant 1
        monkeypatch.setattr(numerics, "QUAD_MIN_NODES", N // 2)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1.0)
        j = np.arange(2 * N + 1)

        def f(s, rows):
            return np.cos(j[:, None] * np.arccos(s))[None]

        got = _gauss_cheb_adaptive(f)[0]
        assert got[0] == pytest.approx(np.pi, rel=1e-15)
        assert np.max(np.abs(got[1:-1])) <= 1e-14
        assert got[-1] == pytest.approx(np.pi, rel=1e-14)

    def test_non_finite_estimate_never_settles(self):
        # exp(800 (1 - T_16^2)) is 1 at the 17 points of level 16 and
        # overflows at the 16 that level 32 adds: an infinite estimate must
        # not pass for a converged one, whatever the estimate before it
        def f(s, rows):
            with np.errstate(over="ignore"):
                return np.exp(800.0 * (1.0 - np.cos(16.0 * np.arccos(s)) ** 2))[None]

        with pytest.raises(NumericsError, match=r"of integrand 0 .* last estimate \[inf\]"):
            _gauss_cheb_adaptive(f)


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

        mid, half = _frame(-2.0, 3.0)

        def f(s, rows):
            seen.append((len(s), tuple(rows)))
            return np.vstack([self.FUNCTIONS[r](mid + half * s) for r in rows])

        got = chebyshev_expand(f, count=len(self.FUNCTIONS))
        for g, one in zip(got, self.FUNCTIONS):
            want = expand(one, -2.0, 3.0)
            assert len(g) == len(want)
            assert np.allclose(g, want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))
        # a function is sampled until it settles, and not after: the
        # exponential needs the 64 + 1 Lobatto points, only the Runge function
        # more, and each doubling samples only the 32 << j points the last
        # level lacks
        assert seen[:2] == [(33, (0, 1, 2, 3)), (32, (1, 3))] and len(seen) > 2
        assert seen[2:] == [(64 << j, (1,)) for j in range(len(seen) - 2)]

    def test_each_level_samples_only_new_points(self):
        # the Runge function takes several doublings; each samples only the
        # odd points of its level, and the union is the last level's set
        calls = []

        def f(s, rows):
            calls.append(s)
            return (1.0 / (1.0 + 25.0 * s * s))[None]

        c, = chebyshev_expand(f)
        got = np.concatenate(calls)
        N = numerics.EXPAND_MIN_NODES << (len(calls) - 1)
        assert len(calls) > 2 and len(got) == N + 1
        assert np.array_equal(np.sort(got), np.sort(np.cos(np.arange(N + 1) * (np.pi / N))))
        s = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(np.polynomial.chebyshev.chebval(s, c) - 1.0 / (1.0 + 25.0 * s * s))) < 1e-13

    def test_batch_names_the_unresolved_function(self):
        def f(s, rows):
            return np.vstack([np.exp(s), np.abs(s)])[rows]

        with pytest.raises(NumericsError, match=r"function 1 on \[-1, 1\]"):
            chebyshev_expand(f, count=2)


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
        real = numerics._dual_simplex

        def doubled_duals(*args):
            y, duals, basis = real(*args)
            return y, 2.0 * duals, basis

        monkeypatch.setattr(numerics, "_dual_simplex", doubled_duals)
        with pytest.raises(NumericsError, match="duality gap"):
            lp_maximize(prob)


def count_pivots(monkeypatch) -> list:
    """Count the simplex's pivots: one rank-1 update of the basis inverse each."""
    pivots, real = [], numerics._replace_row
    monkeypatch.setattr(numerics, "_replace_row", lambda *args: pivots.append(1) or real(*args))
    return pivots


def cold_value(prob: LPProblem) -> float:
    """The LP's value by scipy's ``linprog`` from scratch, at feasibility
    tolerances tighter than its default 1e-7, which moves values by 1e-8."""
    rows = prob.rows
    res = linprog(-prob.objective, A_ub=np.vstack([rows, -rows]), b_ub=np.ones(2 * len(rows)),
                  bounds=[(-1.0, 1.0)] * len(prob.objective), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(prob.objective @ res.x)


class TestLPLadder:
    """Rungs: the dual simplex from the kept basis, then ``linprog`` without
    presolve."""

    # 0: the simplex answers; 2: the simplex hits its pivot cap and linprog
    # answers; 3: linprog fails too; 4: linprog's answer breaks a row by 2e-10
    @pytest.mark.parametrize("failing", [0, 2, 3, 4])
    def test_next_rung_answers(self, monkeypatch, failing):
        points = np.cos(np.linspace(0, np.pi, 200))
        expected, _ = lp_maximize(nodal_lp(FIRST_KIND5, points))
        real, calls = numerics.linprog, []

        def counted_linprog(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res.status)
            if failing == 3:
                res.status = 4
            if failing == 4:
                res.x = res.x * (1.0 + 2e-10)
            return res

        monkeypatch.setattr(numerics, "linprog", counted_linprog)
        if failing:
            monkeypatch.setattr(numerics, "LP_PIVOT_CAP", 0)
        prob = nodal_lp(FIRST_KIND5, points)
        if failing >= 3:
            with pytest.raises(NumericsError, match="LP solver failed"):
                lp_maximize(prob)
        else:
            value, y = lp_maximize(prob)
            assert value == pytest.approx(expected, rel=1e-9)
            assert np.max(np.abs(prob.rows @ y)) <= 1.0 + 1e-9
        assert len(calls) == (failing >= 2)
        # only an optimal basis of the simplex is kept for a later solve
        assert (prob._basis is not None) == (failing == 0)

    def test_last_rung_on_exchange_lps(self, monkeypatch):
        """The LPs of the exchange for P'(0.61) on [-1, 1] at n = 40, up to
        608 rows: at HiGHS's default tolerance 1e-7 its answers broke rows
        by 9.9e-8 and were 1.9e-8 above the optimum."""
        from equipot import extremal

        lps, real = [], extremal.lp_maximize
        monkeypatch.setattr(extremal, "lp_maximize",
                            lambda prob: lps.append((prob.objective, prob.rows.copy())) or real(prob))
        E = solve_equilibrium(IntervalSet(((-1.0, 1.0),)))
        nodes = _interpolation_nodes(E, 40)
        w = _bary_weights(nodes)
        _extremal_core(E, 40, nodes, w, _deriv_row(nodes, w, 0.61))
        assert len(lps) > 10
        for d, rows in lps:
            y, _ = numerics._linprog_rung(-d / np.max(np.abs(d)), rows)
            assert np.max(np.abs(rows @ y), initial=0.0) <= 1.0 + 1e-10
            assert np.max(np.abs(y)) <= 1.0 + 1e-10
            value = real(LPProblem(d, rows))[0]
            assert d @ y == pytest.approx(value, rel=1e-10)

    def test_box_vertex_needs_no_pivot(self, monkeypatch):
        # with no rows the start y = sign(objective) is the answer, even at
        # a pivot cap of 0
        monkeypatch.setattr(numerics, "LP_PIVOT_CAP", 0)
        pivots = count_pivots(monkeypatch)
        d = np.array([3.0, -1.0, 0.0, 2.5])
        value, y = lp_maximize(LPProblem(d, np.empty((0, 4))))
        assert (value, y.tolist(), pivots) == (6.5, [1.0, -1.0, 1.0, 1.0], [])

    def test_warm_rounds_match_cold_solves(self, monkeypatch):
        """One working set grown over four rounds, each re-solved from the
        basis the last round kept, in fewer pivots than a cold solve."""
        pivots, starts, real = count_pivots(monkeypatch), [], numerics._dual_simplex
        monkeypatch.setattr(numerics, "_dual_simplex",
                            lambda A, d, basis: starts.append(basis) or real(A, d, basis))
        nodes = np.cos((2 * np.arange(11) + 1) * np.pi / 22)
        rng = np.random.default_rng(7)
        batches = [np.cos(np.linspace(0, np.pi, 15))] + [rng.uniform(-1, 1, 30) for _ in range(3)]
        prob, values, kept = nodal_lp(nodes, batches[0]), [], None
        for k, pts in enumerate(batches):
            if k:
                prob.add_rows(nodal_lp(nodes, pts).rows)
            rows = prob.rows
            pivots.clear()
            value, y = lp_maximize(prob)
            warm = len(pivots)
            assert prob._basis is not None
            if k:
                assert starts[-1] is kept
                pivots.clear()
                assert lp_maximize(LPProblem(prob.objective, rows))[0] == pytest.approx(value, rel=1e-12)
                assert warm < len(pivots), k
            kept = prob._basis
            assert value == pytest.approx(cold_value(prob), rel=1e-9)
            assert np.max(np.abs(rows @ y)) <= 1.0 + 1e-9
            assert np.max(np.abs(y)) <= 1.0 + 1e-9
            values.append(value)
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))
        assert values[0] > values[-1] * (1.0 + 1e-3)  # the rounds moved the LP


def assert_matches_linprog(prob: LPProblem) -> tuple[float, np.ndarray]:
    """Solve, and check the value against a cold ``linprog`` solve (1e-9
    relative, absolute when it is 0) and the answer's feasibility."""
    value, y = lp_maximize(prob)
    assert value == pytest.approx(cold_value(prob), rel=1e-9, abs=1e-12)
    assert np.max(np.abs(prob.rows @ y), initial=0.0) <= 1.0 + 1e-9
    assert np.max(np.abs(y)) <= 1.0 + 1e-9
    return value, y


def probe_lp(K: IntervalSet, n: int, points: np.ndarray, a: float) -> LPProblem:
    """The Markov probe's LP on K: nodal values at its n + 1 interpolation
    nodes, the objective P'(a), and the Lagrange rows at ``points``."""
    nodes = _interpolation_nodes(solve_equilibrium(K), n)
    w = _bary_weights(nodes)
    return LPProblem(_deriv_row(nodes, w, a), _lagrange_rows(points, nodes, w))


# K = [-1, -1/2] u [1/2, 1] = Q^-1[-1, 1], Q = (8x^2 - 5)/3: T_k o Q is
# extremal at a = 1 for n = 2k, with value 16 k^2 / 3 and n + 2 tied maxima
SYM2 = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))


def sym2_maxima(k: int) -> np.ndarray:
    x = np.sqrt((3.0 * np.cos(np.arange(k + 1) * np.pi / k) + 5.0) / 8.0)
    return np.sort(np.concatenate([-x, x]))


class TestDualSimplexOracle:
    """The dual simplex against ``linprog`` on the probe's LPs and on the
    degenerate inputs where a hand-written simplex cycles."""

    # (degree, rows) at the corners of the range, then drawn from it
    @pytest.mark.parametrize("seed", range(12))
    def test_probe_lps_on_random_unions(self, seed):
        rng = np.random.default_rng(seed)
        K = random_interval_set(rng, max_components=4)
        corners = [(1, 0), (1, 600), (120, 0), (120, 600)]
        n, count = corners[seed] if seed < 4 else rng.integers((1, 0), (121, 601))
        comp = rng.integers(0, K.m, count)
        u, v = np.asarray(K.intervals)[comp].T
        prob = probe_lp(K, n, u + (v - u) * rng.random(len(comp)), K.max)
        assert_matches_linprog(prob)

    def test_duplicate_rows(self):
        prob = nodal_lp(FIRST_KIND5, np.cos(np.linspace(0, np.pi, 40)))
        value, _ = assert_matches_linprog(prob)
        twice = LPProblem(prob.objective, np.vstack([prob.rows, prob.rows, prob.rows[::-1]]))
        assert assert_matches_linprog(twice)[0] == pytest.approx(value, rel=1e-12)

    def test_rows_equal_to_box_rows(self):
        prob = nodal_lp(FIRST_KIND5, np.cos(np.linspace(0, np.pi, 40)))
        value, _ = assert_matches_linprog(prob)
        box = np.vstack([np.eye(6), -np.eye(6)])
        for rows in (np.vstack([box, prob.rows]), np.vstack([prob.rows, box])):
            assert assert_matches_linprog(LPProblem(prob.objective, rows))[0] == pytest.approx(
                value, rel=1e-12)

    def test_zero_objective_entries(self):
        prob = nodal_lp(FIRST_KIND5, np.cos(np.linspace(0, np.pi, 60)))
        for zero in ([0], [2, 3], [0, 1, 4, 5]):
            d = prob.objective.copy()
            d[zero] = 0.0
            assert_matches_linprog(LPProblem(d, prob.rows))

    def test_zero_objective(self):
        prob = nodal_lp(FIRST_KIND5, np.cos(np.linspace(0, np.pi, 60)))
        value, _ = assert_matches_linprog(LPProblem(np.zeros(6), prob.rows))
        assert value == 0.0

    @pytest.mark.parametrize("k", [1, 5, 20, 40])
    def test_tied_maxima_of_two_symmetric_intervals(self, k):
        # rows at all n + 2 maxima, the four ends among them, which are
        # interpolation nodes, so their rows equal box rows
        prob = probe_lp(SYM2, 2 * k, sym2_maxima(k), 1.0)
        value, _ = assert_matches_linprog(prob)
        assert value == pytest.approx(16.0 * k * k / 3.0, rel=1e-12)

    def test_ill_conditioned_bases_of_an_interior_objective(self, monkeypatch):
        # P'(0.61) on [-1, 1] at n = 40: the exchange appends maxima next to
        # earlier points, so the late bases hold nearly parallel rows (cond
        # up to 2.6e5), where y = inv @ signs alone misprices the rows; the
        # simplex then cycled (4992 pivots on one warm re-solve) or broke
        # a basis row and fell back to linprog
        pivots = count_pivots(monkeypatch)

        def no_linprog(*args, **kwargs):
            raise AssertionError("the simplex fell back to linprog")

        monkeypatch.setattr(numerics, "linprog", no_linprog)
        E = solve_equilibrium(IntervalSet(((-1.0, 1.0),)))
        nodes = _interpolation_nodes(E, 40)
        w = _bary_weights(nodes)
        r = _extremal_core(E, 40, nodes, w, _deriv_row(nodes, w, 0.61))
        assert r.exchange_rounds >= 10 and r.overshoot <= 1e-9
        assert len(pivots) < 2000
