import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from scipy.optimize import linprog

from equipot.config import DEFAULTS
from equipot.extremal import (
    BARY_CHUNK,
    EXCHANGE_TOL,
    _arccos_grid,
    _bary_eval,
    _bary_weights,
    _deriv_row,
    _interpolation_nodes,
    _lagrange_rows,
    _refined_maxima,
)
from equipot import (
    IntervalSet,
    SetSpecError,
    bernstein_audit,
    bernstein_walsh_audit,
    cantor_set,
    derivative_norm_probe,
    extremal,
    markov_extremal,
    markov_study,
    solve_equilibrium,
    study_rows,
)
from conftest import random_interval_set

UNIT = IntervalSet(((-1.0, 1.0),))
SYM2 = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))
WIDE = IntervalSet(((-2.0, 1.0),))

# A three-interval set on which a dense-grid exchange stalled 4.0e-8 short
# of the exact value at degree 24 (an inverse image of a scaled T_3, with
# the value known in closed form).
STALL3 = IntervalSet((
    (4.8422185492259695, 5.027806096813277),
    (5.713331410216814, 6.084506505391428),
    (6.770031818794964, 6.955619366382272),
))
STALL3_A = 5.027806096813277
STALL3_VALUE = 495.10042754509817

# Two tiny components beside [-1, 1] with 7% and 10% of the equilibrium
# mass: below n = 30 one of them has a share of fewer than two nodes.
SPECKS = IntervalSet(((-1.0, 1.0), (1.5, 1.5001), (2.0, 2.0001)))


def cheb_image(c, N, j):
    """K = (c T_N)^{-1}[-1, 1] for c > 1, the right endpoint a of its
    (j+1)-th component from the right, and |P'(a)| for P = c T_N.

    With x = cos(theta) the components are N theta in [k pi + phi,
    (k+1) pi - phi], phi = arccos(1/c), and
    |P'(cos theta)| = c N |sin(N theta)| / sin(theta).
    """
    phi = math.acos(1.0 / c)
    K = IntervalSet(tuple(sorted(
        (math.cos(((k + 1) * math.pi - phi) / N), math.cos((k * math.pi + phi) / N))
        for k in range(N)
    )))
    theta = (j * math.pi + phi) / N
    return K, math.cos(theta), c * N * math.sin(phi) / math.sin(theta)


def shifted_t3_image():
    """K = (1.5 T_3 - 0.5)^{-1}[-1, 1] = {T_3 >= -1/3}: T_3 = 1 at the double
    point -1/2 joins two bands into one component, so the masses are 2/3 and
    1/3; T_k o (1.5 T_3 - 0.5) is extremal at a = 1 with value 13.5 k^2."""
    phi = math.acos(-1.0 / 3.0)
    return IntervalSet(((math.cos((2 * math.pi + phi) / 3), math.cos((2 * math.pi - phi) / 3)),
                        (math.cos(phi / 3), 1.0)))


def dense_grid_value(K, a, n, per_component=4000):
    """max P'(a) over |P| <= 1 on a dense arccos grid of K, with P in the
    Chebyshev basis of the hull: an upper bound close to the true value at
    low degree, independent of the nodal LP."""
    basis = [Chebyshev.basis(j, domain=(K.min, K.max)) for j in range(n + 1)]
    A = np.array([b(_arccos_grid(K, per_component)) for b in basis]).T
    res = linprog(-np.array([b.deriv()(a) for b in basis]), A_ub=np.vstack([A, -A]),
                  b_ub=np.ones(2 * len(A)), bounds=[(None, None)] * (n + 1), method="highs")
    assert res.status == 0
    return -res.fun


class TestMarkovExtremal:
    def test_degree1_unit(self, E_unit):
        r = markov_extremal(E_unit, 1.0, 1)
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_degree1_two_intervals(self, E_sym2):
        # +-1 and +-1/2 in K force |c0| + |c1| <= 1, so P(x) = x is optimal
        r = markov_extremal(E_sym2, 1.0, 1)
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_degree5_chebyshev(self, E_unit):
        r = markov_extremal(E_unit, 1.0, 5)
        assert r.value == pytest.approx(25.0, rel=1e-9)
        assert r.ratio == pytest.approx(1.0, rel=1e-9)

    def test_chebyshev_recovery_coefficientwise(self, E_unit):
        r = markov_extremal(E_unit, 1.0, 7)
        xs = np.linspace(-1.0, 1.0, 200)
        assert np.max(np.abs(r.evaluate(xs) - np.cos(7 * np.arccos(xs)))) < 1e-9

    def test_active_points_are_extrema(self, E_unit):
        r = markov_extremal(E_unit, 1.0, 5)
        want = np.sort(np.cos(np.arange(6) * np.pi / 5))
        assert np.allclose(np.sort(r.active_points), want, atol=1e-9)

    def test_witness_feasible_on_validation_grid(self):
        for K, n in ((UNIT, 12), (SYM2, 16)):
            r = markov_extremal(solve_equilibrium(K), 1.0, n)
            for (u, v) in K.intervals:
                xs = (u + v) / 2 + (v - u) / 2 * np.cos(np.linspace(0, np.pi, 4 * 32 * (n + 1)))
                assert np.max(np.abs(r.evaluate(xs))) <= 1.0 + 1e-6

    def test_value_equals_witness_derivative(self, E_sym2):
        r = markov_extremal(E_sym2, 1.0, 8)
        h = 1e-7
        fd = (r.evaluate(1.0) - r.evaluate(1.0 - h)) / h
        assert abs(fd) == pytest.approx(r.value, rel=1e-5)

    def test_degree_cap(self, E_unit):
        with pytest.raises(SetSpecError):
            markov_extremal(E_unit, 1.0, 121)
        with pytest.raises(SetSpecError):
            markov_extremal(E_unit, 1.0, 0)

    def test_requires_right_endpoint(self, E_unit):
        with pytest.raises(SetSpecError):
            markov_extremal(E_unit, 0.3, 5)

    @pytest.mark.parametrize(
        "c,N,j,k", [(1.5, 1, 0, 16), (1.5, 2, 1, 8), (2.0, 3, 1, 6), (1.3, 4, 2, 5), (1.7, 4, 0, 5)]
    )
    def test_inverse_image_oracle(self, c, N, j, k):
        # T_k o (c T_N) is extremal at degree kN, with value k^2 |P'(a)|
        K, a, dP = cheb_image(c, N, j)
        r = markov_extremal(solve_equilibrium(K), a, k * N)
        assert r.value == pytest.approx(k * k * dP, rel=1e-9)
        assert r.value <= k * k * dP * (1.0 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shifted_t3_oracle(self, k):
        r = markov_extremal(solve_equilibrium(shifted_t3_image()), 1.0, 3 * k)
        assert len(r.nodes) == 3 * k + 1
        assert r.value == pytest.approx(13.5 * k * k, rel=1e-9)

    def test_specks_against_dense_grid(self):
        st = markov_study(SPECKS, 1.0, [5, 6, 8])
        assert st.flagged == ()
        for r in st.rows:
            dense = dense_grid_value(SPECKS, 1.0, r.degree)
            assert dense * (1.0 - 1e-4) <= r.value <= dense * (1.0 + 1e-9)

    def test_maxima_stay_on_the_set(self):
        # mid - half rounds one ulp below u here, where |P| is 1 + 1.1e-11 at n = 100
        u, v = 3.9734183925361046, 4.7767355702191026
        K = IntervalSet(((u, v),))
        assert (u + v) / 2 - (v - u) / 2 < u
        r = markov_extremal(solve_equilibrium(K), v, 100)
        xs, _ = _refined_maxima(r.evaluate, K, 100)
        assert u <= xs.min() and xs.max() <= v
        assert r.overshoot <= 1e-14
        assert r.value == pytest.approx(2e4 / (v - u), rel=1e-13)

    def test_no_stall_on_three_intervals(self):
        r = markov_extremal(solve_equilibrium(STALL3), STALL3_A, 24)
        assert r.value == pytest.approx(STALL3_VALUE, rel=1e-9)
        assert r.overshoot <= EXCHANGE_TOL
        assert not r.grid_doubled

    def test_overshoot_reports_an_unfinished_loop(self):
        capped = dataclasses.replace(DEFAULTS, lp_exchange_rounds=2)
        r = markov_extremal(solve_equilibrium(STALL3), STALL3_A, 24, capped)
        assert r.exchange_rounds == 2
        assert r.overshoot > EXCHANGE_TOL
        # renormalised by its refined sup-norm, the value stays a lower bound
        assert r.value < STALL3_VALUE * (1.0 - 0.5 * r.overshoot)


def _refined_maxima_loop(evalP, K, n, per_degree=16):
    """One maximum at a time: the reference for the batched polish."""
    out = []
    for (u, v) in K.intervals:
        mid, half = (u + v) / 2.0, (v - u) / 2.0
        theta = np.linspace(0.0, np.pi, per_degree * (n + 1))
        vals = np.abs(evalP(mid + half * np.cos(theta)))
        isloc = np.r_[True, vals[1:] >= vals[:-1]] & np.r_[vals[:-1] >= vals[1:], True]
        for j in np.nonzero(isloc)[0]:
            t0, h = theta[j], theta[1] - theta[0]
            for _ in range(3):
                tt = np.clip(np.array([t0 - h, t0, t0 + h]), 0.0, np.pi)
                vv = np.abs(evalP(mid + half * np.cos(tt)))
                curv = vv[0] - 2.0 * vv[1] + vv[2]
                if curv < -1e-300:
                    t0 = float(np.clip(tt[1] + 0.5 * h * (vv[0] - vv[2]) / curv, 0.0, np.pi))
                h /= 8.0
            x = mid + half * math.cos(t0)
            out.append((x, float(np.abs(evalP(np.array([x])))[0])))
    return out


def bisection_quantiles(tab, levels):
    """One component's quantiles by 60 bisection steps on the mass in angle:
    the reference for the batched Newton solve."""
    c = np.asarray(tab.coeffs)
    k = np.arange(1, len(c))

    def mass(phi):
        return tab.half * (c[0] * (np.pi - phi) - np.sin(np.outer(phi, k)) @ (c[1:] / k))

    lo, hi = np.zeros(len(levels)), np.full(len(levels), np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = mass(mid) < levels
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return tab.mid + tab.half * np.cos(0.5 * (lo + hi))


class TestInterpolationNodes:
    @pytest.mark.parametrize("K", [UNIT, SYM2, STALL3, SPECKS, cantor_set(3)])
    def test_quantiles_match_bisection(self, K):
        E = solve_equilibrium(K)
        frac = np.arange(1, 40) / 40
        comp = np.repeat(np.arange(K.m), len(frac))
        levels = np.concatenate([tab.mass * frac for tab in E.tables])
        got = extremal._quantiles(E.tables, comp, levels)
        for j, tab in enumerate(E.tables):
            want = bisection_quantiles(tab, tab.mass * frac)
            assert np.max(np.abs(got[comp == j] - want)) <= 1e-12 * tab.half

    def test_exactly_n_plus_one_distinct_nodes(self):
        rng = np.random.default_rng(15)
        sets = [random_interval_set(rng) for _ in range(60)] + [cantor_set(3), cantor_set(5), SPECKS]
        for K in sets:
            E = solve_equilibrium(K)
            for n in range(1, 121):
                nodes = _interpolation_nodes(E, n)
                assert len(nodes) == n + 1 and np.all(np.diff(nodes) > 0.0), (K, n)


class TestScaleCovariance:
    """SYM2 scaled by s is the same probe in units of s: no node test has an
    absolute tolerance."""

    SCALES = [1e-100, 1e-14, 1e-13, 1e-12, 1e6, 1e100]

    @pytest.fixture(scope="class")
    def unit(self):
        return markov_extremal(solve_equilibrium(SYM2), 1.0, 40)

    @pytest.mark.parametrize("s", SCALES)
    def test_value_and_witness(self, unit, s):
        Ks = IntervalSet(tuple((u * s, v * s) for u, v in SYM2.intervals))
        r = markov_extremal(solve_equilibrium(Ks), s, 40)
        assert r.value * s == pytest.approx(unit.value, rel=1e-10)
        xs = _arccos_grid(SYM2, 50)
        assert np.max(np.abs(r.evaluate(xs * s) - unit.evaluate(xs))) <= 1e-9

    @pytest.mark.parametrize("s", SCALES)
    def test_deriv_row(self, unit, s):
        nodes = unit.nodes
        w = _bary_weights(nodes)
        for x in (1.0, nodes[7], nodes[7] + 1e-15, 0.7, -0.55):
            want = _deriv_row(nodes, w, x)
            got = _deriv_row(nodes * s, _bary_weights(nodes * s), x * s) * s
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), x


class TestRefinedMaxima:
    @pytest.mark.parametrize("K,n", [(UNIT, 9), (SYM2, 16), (STALL3, 24)])
    def test_batched_polish_matches_loop(self, K, n):
        r = markov_extremal(solve_equilibrium(K), K.max, n)
        xs, ms = _refined_maxima(r.evaluate, K, n)
        want = _refined_maxima_loop(r.evaluate, K, n)
        assert len(xs) == len(want)
        assert np.allclose(xs, [x for x, _ in want], rtol=0.0, atol=1e-9 * (K.max - K.min))
        assert np.allclose(ms, [m for _, m in want], rtol=1e-13, atol=0.0)


class TestBarycentricEvaluation:
    @pytest.mark.parametrize("K,n", [(UNIT, 100), (SYM2, 60), (STALL3, 24)])
    def test_matches_lagrange_rows(self, K, n):
        r = markov_extremal(solve_equilibrium(K), K.max, n)
        w = _bary_weights(r.nodes)
        rng = np.random.default_rng(n)
        off = np.concatenate([_arccos_grid(K, 2 * BARY_CHUNK // K.m)]
                             + [rng.uniform(u, v, 500) for u, v in K.intervals])
        assert len(off) > 2 * BARY_CHUNK  # more than two blocks
        for values in (r.node_values, rng.uniform(-1.0, 1.0, n + 1)):
            at_nodes = _bary_eval(r.nodes, r.nodes, w, values)
            assert np.array_equal(at_nodes, values)
            got = _bary_eval(off, r.nodes, w, values)
            want = _lagrange_rows(off, r.nodes, w) @ values
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert r.evaluate(float(r.nodes[3])) == r.node_values[3]
        assert np.array_equal(r.evaluate(off), _bary_eval(off, r.nodes, w, r.node_values))


class TestMarkovStudy:
    def test_unit_interval(self):
        st = markov_study(UNIT, 1.0, [5, 10])
        assert st.limit_constant == pytest.approx(1.0, rel=1e-12)
        for row in st.rows:
            assert row.ratio == pytest.approx(1.0, rel=1e-9)
        assert st.flagged == ()

    def test_two_interval_limit_constant(self):
        st = markov_study(SYM2, 1.0, [4, 8])
        # 2 pi^2 Omega^2 = 1/(1 - alpha^2) = 4/3 at alpha = 1/2
        assert st.limit_constant == pytest.approx(4.0 / 3.0, rel=1e-12)
        for row in st.rows:
            assert row.ratio == pytest.approx(4.0 / 3.0, rel=1e-8)

    def test_wide_interval_limit_constant(self):
        st = markov_study(WIDE, 1.0, [6])
        assert st.limit_constant == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert st.rows[0].ratio == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_rows_export(self):
        st = markov_study(UNIT, 1.0, [3, 5])
        rows = study_rows(st)
        assert [r[0] for r in rows] == [3, 5]
        assert rows[1][1] == pytest.approx(25.0, rel=1e-9)

    def test_degrees_must_increase(self):
        with pytest.raises(SetSpecError):
            markov_study(UNIT, 1.0, [5, 5])

    @pytest.mark.parametrize("degrees", [[110, 121], [0, 5], [5, 5]])
    def test_sweep_checked_before_the_solve(self, monkeypatch, degrees):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before every degree was checked")

        monkeypatch.setattr(extremal, "solve_equilibrium", no_solve)
        with pytest.raises(SetSpecError):
            markov_study(SYM2, 1.0, degrees)


class TestBernsteinAudit:
    def test_chebyshev_at_center(self, E_unit):
        for n in (3, 7, 8):
            P = Chebyshev.basis(n)
            ratio = bernstein_audit(E_unit, P, [0.0])
            assert ratio == pytest.approx(abs(math.sin(n * math.pi / 2)), abs=1e-9)
            assert ratio <= 1.0 + 1e-9

    def test_constant_is_zero(self, E_unit):
        assert bernstein_audit(E_unit, Chebyshev((1.0,)), [0.3]) == 0.0

    def test_random_normalized(self, E_sym2):
        rng = np.random.default_rng(31)
        probes = []
        for (u, v) in E_sym2.set.intervals:
            probes.extend((u + v) / 2 + (v - u) / 2 * np.cos(np.linspace(0.1, 0.9, 10) * np.pi))
        worst = 0.0
        for _ in range(20):
            P = Chebyshev(rng.standard_normal(21))
            worst = max(worst, bernstein_audit(E_sym2, P, probes))
        assert worst <= 1.001


class TestBernsteinWalshAudit:
    def test_chebyshev_outside(self, E_unit):
        n = 6
        P = Chebyshev.basis(n)
        ratio = bernstein_walsh_audit(E_unit, P, 2.0)
        want = np.polynomial.chebyshev.chebval(2.0, [0.0] * n + [1.0]) / (2 + math.sqrt(3)) ** n
        assert ratio == pytest.approx(want, rel=1e-7)
        assert ratio <= 1.0 + 1e-9

    def test_padded_constant(self, E_unit):
        n = 5
        P = Chebyshev((1.0,) + (0.0,) * n)  # constant of nominal degree 5
        from equipot import green

        ratio = bernstein_walsh_audit(E_unit, P, 3.0)
        assert ratio == pytest.approx(math.exp(-n * green(E_unit, 3.0)), rel=1e-9)

    def test_random_outside(self, E_wide):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(20):
            P = Chebyshev(rng.standard_normal(11), domain=(-2.0, 1.0))
            worst = max(worst, bernstein_walsh_audit(E_wide, P, 2.0))
        assert worst <= 1.001

    def test_rejects_point_in_set(self, E_unit):
        with pytest.raises(SetSpecError):
            bernstein_walsh_audit(E_unit, Chebyshev((1.0, 1.0)), 0.5)


@pytest.mark.slow
class TestNormEquivalenceProbe:
    def test_pointwise_vs_runup_norm(self):
        at_a, best = derivative_norm_probe(UNIT, 1.0, 40, grid_points=50)
        assert abs(best - at_a) / max(at_a, best) <= 0.01
