import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from scipy.optimize import linprog

from equipot.extremal import (
    BARY_CHUNK,
    EXCHANGE_TOL,
    _angle_values,
    _bary_eval,
    _bary_weights,
    _deriv_row,
    _interpolation_nodes,
    _lagrange_rows,
    _refined_maxima,
)
from equipot.numerics import _dct1, lp_maximize
from equipot import (
    IntervalSet,
    NumericsError,
    SetSpecError,
    bernstein_audit,
    bernstein_walsh_audit,
    cantor_set,
    check_interval_condition,
    density,
    derivative_norm_probe,
    extremal,
    h_poly,
    markov_extremal,
    markov_study,
    solve_equilibrium,
    study_rows,
)
from conftest import arccos_grid, random_interval_set

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

# An affine image of (c T_2)^-1[-1, 1] = Q^-1[-1, 1], Q quadratic, and its
# inner end a: T_20 o Q is extremal there at n = 40.
IMAGE2 = IntervalSet(((-3.7255354862771353, -2.834363526724945),
                      (0.1003773079122352, 0.9915492674644253)))
IMAGE2_A = -2.834363526724945

# Three intervals that are no inverse image: the exchange loop takes four
# or five rounds from the quantile seed at n = 30-40.
THREE = IntervalSet(((-1.0, -0.6), (-0.3, 0.2), (0.5, 1.0)))

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
    A = np.array([b(arccos_grid(K, per_component)) for b in basis]).T
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

    @pytest.mark.parametrize("c,N,j", [(1.5, 2, 1), (2.0, 3, 1), (1.3, 4, 2), (2.7, 4, 1)])
    @pytest.mark.parametrize("alpha,beta", [(0.75, -3.0), (-2.5, 7.0)])
    def test_inverse_images_finish_in_one_round(self, c, N, j, alpha, beta):
        # the quantile seed holds every alternation point of T_k o (c T_N).
        # K is symmetric, so for alpha < 0 the right end of the image at
        # |alpha| x + beta is that of the left end -x, where |P'| is the same.
        # k = 1 is left out: c T_N itself is not always extremal at an inner
        # end (1.3 T_4 at j = 2 falls 3% short).  The rounded frame moves
        # the value by up to 2e-12 here; on the leftmost component of
        # (1.7 T_4)^-1[-1, 1] a few ulps of the ends move it by 1e-10.
        K, x, dP = cheb_image(c, N, j)
        Ka = IntervalSet(tuple(sorted(tuple(sorted((alpha * u + beta, alpha * v + beta)))
                                      for u, v in K.intervals)))
        a = min((v for _, v in Ka.intervals), key=lambda v: abs(v - (abs(alpha) * x + beta)))
        E = solve_equilibrium(Ka)
        for k in range(2, 48 // N + 1):
            r = markov_extremal(E, a, k * N)
            assert r.exchange_rounds == 1 and not r.grid_doubled, k
            assert r.value == pytest.approx(k * k * dP / abs(alpha), rel=1e-11), k

    def test_no_highs_shortfall_on_a_two_interval_image(self):
        # from an arccos seed, HiGHS ended the third of six exchange LPs
        # 1.7e-9 below the exact witness T_20 o Q; the exact value is from
        # 40-digit mpmath
        r = markov_extremal(solve_equilibrium(IMAGE2), IMAGE2_A, 40)
        assert r.value == pytest.approx(688.5938857258008, rel=1e-12)
        assert r.exchange_rounds == 1

    def test_no_exchange_lp_ends_below_the_exact_witness(self, monkeypatch):
        # the exchange from the arccos seed of 4(n + 1) points per component,
        # where HiGHS ended the third LP 1.7e-9 short: the witness
        # T_20 o Q has |P| <= 1 on K, so it satisfies every row of every LP
        # up to rounding, and no LP value may fall below its own
        (u0, v0), (u1, v1) = IMAGE2.intervals
        mid, g, h = (u0 + v1) / 2.0, (u1 - v0) / 2.0, (v1 - u0) / 2.0
        n, E = 40, solve_equilibrium(IMAGE2)
        nodes = _interpolation_nodes(E, n)
        w = _bary_weights(nodes)
        d = _deriv_row(nodes, w, IMAGE2_A)
        witness = d @ Chebyshev.basis(20)(2.0 * ((nodes - mid) ** 2 - g * g) / (h * h - g * g) - 1.0)
        assert witness == pytest.approx(688.5938857258008, rel=1e-13)
        values = []

        def recorded(problem):
            out = lp_maximize(problem)
            values.append(out[0])
            return out

        monkeypatch.setattr(extremal, "lp_maximize", recorded)
        extremal._solve_once(IMAGE2, n, nodes, w, d, arccos_grid(IMAGE2, 4 * (n + 1)))
        assert len(values) >= 3
        assert min(values) >= witness * (1.0 - 1e-12)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 101, 404, 12800])
    def test_quantile_seed_stays_on_the_set(self, n):
        # the one-ulp set of test_maxima_stay_on_the_set: mid - half < u
        u, v = 3.9734183925361046, 4.7767355702191026
        xs = extremal._quantile_seed(solve_equilibrium(IntervalSet(((u, v),))), n)
        assert xs[0] == u and xs[-1] == v
        assert np.all((u <= xs) & (xs <= v))
        assert len(xs) == n + 1 and np.all(np.diff(xs) > 0.0)

    def test_no_stall_on_three_intervals(self):
        r = markov_extremal(solve_equilibrium(STALL3), STALL3_A, 24)
        assert r.value == pytest.approx(STALL3_VALUE, rel=1e-9)
        assert r.overshoot <= EXCHANGE_TOL
        assert not r.grid_doubled

    def test_overshoot_reports_an_unfinished_loop(self, monkeypatch):
        # three rounds at n = 40 leave the witness about 3e-8 above 1,
        # below the validation grid's 1e-6
        E = solve_equilibrium(THREE)
        uncapped = markov_extremal(E, 1.0, 40).value
        monkeypatch.setattr(extremal, "EXCHANGE_ROUNDS", 3)
        r = markov_extremal(E, 1.0, 40)
        assert r.exchange_rounds == 3
        assert r.overshoot > EXCHANGE_TOL
        # renormalised by its refined sup-norm, the value stays a lower bound:
        # below the uncapped value, itself a lower bound of the exact one
        assert r.value < uncapped * (1.0 - 0.5 * r.overshoot)

    @staticmethod
    def _counted_solves(monkeypatch):
        """A list that each _solve_once call appends to."""
        solves, solve_once = [], extremal._solve_once
        monkeypatch.setattr(extremal, "_solve_once",
                            lambda *args: solves.append(1) or solve_once(*args))
        return solves

    def test_round_cap_is_named_when_validation_fails(self, monkeypatch):
        # two rounds at n = 30 leave the witness above the validation grid's
        # 1e-6; a doubled seed under the same cap would not finish the loop
        solves = self._counted_solves(monkeypatch)
        monkeypatch.setattr(extremal, "EXCHANGE_ROUNDS", 2)
        with pytest.raises(NumericsError, match=r"its cap of 2 rounds with overshoot \d"):
            markov_extremal(solve_equilibrium(THREE), 1.0, 30)
        assert len(solves) == 1

    @staticmethod
    def _validation_overshoots(monkeypatch, times):
        """The first ``times`` validation grids (M >= VALIDATION_PER_DEGREE
        (n + 1)) report |P| = 1 + 1e-5; every other angle grid is left as it
        is.  Returns the counted _solve_once calls."""
        angle_values, seen = extremal._angle_values, []

        def overshooting(evalP, K, n, M):
            out = angle_values(evalP, K, n, M)
            if M >= extremal.VALIDATION_PER_DEGREE * (n + 1):
                seen.append(M)
                if len(seen) <= times:
                    out[0, 0] = 1.0 + 1e-5
            return out

        monkeypatch.setattr(extremal, "_angle_values", overshooting)
        return TestMarkovExtremal._counted_solves(monkeypatch)

    def test_failed_validation_doubles_the_grids(self, monkeypatch):
        solves = self._validation_overshoots(monkeypatch, 1)
        r = markov_extremal(solve_equilibrium(STALL3), STALL3_A, 24)
        assert r.grid_doubled and len(solves) == 2
        assert r.value == pytest.approx(STALL3_VALUE, rel=1e-9)
        assert r.overshoot <= EXCHANGE_TOL

    def test_second_failed_validation_is_an_error(self, monkeypatch):
        solves = self._validation_overshoots(monkeypatch, 2)
        with pytest.raises(NumericsError, match="after one grid refinement at degree 24"):
            markov_extremal(solve_equilibrium(STALL3), STALL3_A, 24)
        assert len(solves) == 2

    # On [-1, 1] the LP on the nodes alone gives T_n, which every added row
    # keeps feasible, so validation passes whatever the maxima report.

    def test_out_of_points_ends_the_loop(self, E_unit, monkeypatch):
        # |P| = 1.01 reported at K.max, an interpolation node already in the
        # working set: no new point, so the first round ends the loop
        monkeypatch.setattr(extremal, "_refined_maxima",
                            lambda evalP, K, n: (np.array([K.max]), np.array([1.01])))
        r = markov_extremal(E_unit, 1.0, 5)
        assert r.exchange_rounds == 1
        assert r.overshoot == pytest.approx(0.01, rel=1e-12)
        assert r.value == pytest.approx(25 / 1.01, rel=1e-12)

    def test_stall_ends_the_loop(self, E_unit, monkeypatch):
        # |P| = 1.01 at a fresh point of K on every call: the first round
        # sets the best, three more without a new best are the stall exit
        calls = []

        def fresh(evalP, K, n):
            calls.append(1)
            return np.array([-0.8 + 0.02 * len(calls)]), np.array([1.01])

        monkeypatch.setattr(extremal, "_refined_maxima", fresh)
        r = markov_extremal(E_unit, 1.0, 5)
        assert r.exchange_rounds == 4 and len(calls) == 4
        assert r.overshoot == pytest.approx(0.01, rel=1e-12)

    def test_degenerate_norm_is_an_error(self, E_unit, monkeypatch):
        # maxima that report |P| = 0 leave nothing to renormalise by
        monkeypatch.setattr(extremal, "_refined_maxima",
                            lambda evalP, K, n: (np.array([K.max]), np.array([0.0])))
        with pytest.raises(NumericsError, match=r"degenerate witness norm 0\.0 at degree 10"):
            markov_extremal(E_unit, 1.0, 10)

    def test_single_interval_needs_no_lp_rows(self, E_unit, monkeypatch):
        # the n + 1 seed points of [-1, 1] are the interpolation nodes
        # themselves, so the LP has only its box bounds, whose optimum
        # alternates in sign: T_n
        rows = []

        def counting(problem):
            rows.append(len(problem.rows))
            return lp_maximize(problem)

        monkeypatch.setattr(extremal, "lp_maximize", counting)
        for n in (5, 40, 120):
            r = markov_extremal(E_unit, 1.0, n)
            assert r.value == pytest.approx(n * n, rel=1e-12)
            assert r.exchange_rounds == 1 and r.overshoot <= 1e-14
        assert rows == [0, 0, 0]


def _refined_maxima_loop(evalP, K, n, per_degree=16):
    """One maximum at a time: the reference for the batched polish."""
    out = []
    for (u, v) in K.intervals:
        mid, half = (u + v) / 2.0, (v - u) / 2.0
        theta = np.linspace(0.0, np.pi, per_degree * (n + 1))
        vals = np.abs(evalP(mid + half * np.cos(theta)))
        isloc = np.r_[True, vals[1:] >= vals[:-1]] & np.r_[vals[:-1] >= vals[1:], True]
        for j in np.nonzero(isloc)[0]:
            if j and isloc[j - 1] and vals[j] == vals[j - 1]:
                continue  # a run of tied maxima is polished from its first sample
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


class TestInterpolationNodes:
    def test_exactly_n_plus_one_distinct_nodes(self):
        rng = np.random.default_rng(15)
        sets = [random_interval_set(rng) for _ in range(60)] + [cantor_set(3), cantor_set(5), SPECKS]
        for K in sets:
            E = solve_equilibrium(K)
            for n in range(1, 121):
                nodes = _interpolation_nodes(E, n)
                assert len(nodes) == n + 1 and np.all(np.diff(nodes) > 0.0), (K, n)

    @pytest.mark.parametrize("s", [1e-100, 1e-14, 1e-13, 1e6, 1e100])
    def test_equal_masses_tie_at_every_scale(self, s):
        # shares 20.5 and 20.5 at n = 40: the extra node goes to the same
        # component whatever rounding noise the two masses carry
        want = _interpolation_nodes(solve_equilibrium(SYM2), 40)
        Ks = IntervalSet(tuple((u * s, v * s) for u, v in SYM2.intervals))
        got = _interpolation_nodes(solve_equilibrium(Ks), 40)
        assert np.sum(got < 0) == np.sum(want < 0)
        assert np.max(np.abs(got / s - want)) <= 1e-12


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
        xs = arccos_grid(SYM2, 50)
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

    def test_flat_p_keeps_one_maximum_per_component(self):
        # every scan sample of a zero P ties with its neighbours; polishing
        # each of them took 16,040 maxima and 161,402 points at n = 500
        points = []

        def zero(x):
            points.append(len(x))
            return np.zeros(len(x))

        xs, ms = _refined_maxima(zero, SYM2, 500)
        assert len(xs) <= SYM2.m and np.all(ms == 0.0)
        assert sum(points) <= 1100


def _on_angle_grid(K, M):
    """x = mid + half*cos(theta) on theta = linspace(0, pi, M) for every
    component, clipped onto it: the points _angle_values stands for."""
    u, v = np.asarray(K.intervals).T
    theta = np.linspace(0.0, np.pi, M)
    return np.clip((u + v)[:, None] / 2 + (v - u)[:, None] / 2 * np.cos(theta), u[:, None], v[:, None])


def _angle_tolerance(K, P, dP):
    """1e-13 max|P|, plus the change of P over a rounding of x: a few ulps
    of x times the largest |P'| on the component.  The second term is what
    two correct evaluations of a degree-600 P at rounded points can differ
    by (a few 1e-12 of max|P| on SYM2), whichever way each is formed."""
    scale = np.finfo(float).eps * np.max(np.abs(np.asarray(K.intervals)), axis=1)
    return 1e-13 * np.max(np.abs(P)) + 4.0 * scale[:, None] * np.max(np.abs(dP), axis=1, keepdims=True)


class TestAngleValues:
    SETS = {"SYM2": SYM2, "cantor3": cantor_set(3)}

    @pytest.fixture(scope="class")
    def equilibria(self):
        return {name: solve_equilibrium(K) for name, K in self.SETS.items()}

    @pytest.mark.parametrize("name", ["SYM2", "cantor3"])
    @pytest.mark.parametrize("n", [5, 60, 240, 600])
    def test_matches_bary_eval(self, equilibria, name, n):
        K = self.SETS[name]
        nodes = _interpolation_nodes(equilibria[name], n)
        w = _bary_weights(nodes)
        D = np.array([_deriv_row(nodes, w, x) for x in nodes])
        smooth = np.exp(nodes) * np.cos(3.0 * nodes)
        rough = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
        for values in (smooth, rough):
            got = _angle_values(lambda x: _bary_eval(x, nodes, w, values), K, n, 16 * (n + 1))
            M = got.shape[1]
            assert M >= 16 * (n + 1) and got.shape[0] == K.m
            x = _on_angle_grid(K, M).ravel()
            want = _bary_eval(x, nodes, w, values).reshape(got.shape)
            err = np.abs(got - want)
            if values is smooth:
                # P is close to a smooth function: |P'| is O(1), so there is
                # nothing for a rounding of x to amplify
                assert np.max(err) <= 1e-13 * np.max(np.abs(want))
            # P' at x from its values at the nodes (degree n - 1 <= n)
            dP = _bary_eval(x, nodes, w, D @ values).reshape(got.shape)
            assert np.all(err <= _angle_tolerance(K, want, dP))

    @pytest.mark.parametrize("n", [1, 7, 90])
    def test_matches_numpy_chebyshev(self, n):
        # the _poly_norm_on_set path: P is a numpy Chebyshev series on the hull
        K = cantor_set(3)
        coef = np.random.default_rng(n).standard_normal(n + 1) / (1.0 + np.arange(n + 1))
        P = Chebyshev(coef, domain=(K.min, K.max))
        got = _angle_values(P, K, n, 16 * (n + 1))
        x = _on_angle_grid(K, got.shape[1])
        want = P(x)
        assert np.all(np.abs(got - want) <= _angle_tolerance(K, want, P.deriv()(x)))
        assert extremal._poly_norm_on_set(P, K, n) >= np.max(np.abs(want)) * (1.0 - 1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_scaling_changes_no_bit(self, scale):
        # the DCTs unscaled, as the values come: the same bytes as the kernel
        # that scales them by a power of two first
        K, n = cantor_set(3), 90
        coef = scale * np.random.default_rng(5).standard_normal(n + 1)
        P = Chebyshev(coef, domain=(K.min, K.max))
        got = _angle_values(P, K, n, 16 * (n + 1))
        lobatto = _on_angle_grid(K, n + 1)
        series = np.zeros(got.shape)
        series[:, : n + 1] = _dct1(P(lobatto)) / (2 * n)
        series[:, n] /= 2.0
        assert np.array_equal(got, _dct1(series))

    def test_grid_length_is_never_rounded_down(self):
        # at least n + 2 angles, so that the series' last term is an inner one
        assert _angle_values(lambda x: x, UNIT, 1, 2).shape == (1, 3)
        for M in (97, 1615, 1616, 9616, 77000):
            assert _angle_values(np.cos, SYM2, 3, M).shape[1] >= M


class TestApart:
    @staticmethod
    def brute(x, pts, sep):
        return x[np.min(np.abs(x[:, None] - pts[None, :]), axis=1, initial=np.inf) > sep]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        sep = 1e-13 * 2.0
        nodes = np.sort(rng.uniform(-1.0, 1.0, 50))
        x = np.concatenate([rng.uniform(-1.2, 1.2, 400), nodes, [-1.3, 1.3],
                            nodes[:5] + 0.5 * sep, nodes[5:10] - 0.9 * sep,
                            nodes[10:15] + 1.5 * sep, nodes[15:20] - 3.0 * sep])
        for pts in (nodes, rng.permutation(nodes), nodes[:1], nodes[::7], x[:30]):
            assert np.array_equal(extremal._apart(x, pts, sep), self.brute(x, pts, sep))
        near = extremal._apart(x, nodes, sep)
        assert not np.isin(nodes[:10] + 0.5 * sep, near).any()
        assert np.isin(nodes[10:20] + np.r_[[1.5] * 5, [-3.0] * 5] * sep, near).all()

    def test_empty_working_set_keeps_every_point(self):
        x = np.linspace(-1.0, 1.0, 9)
        empty = np.empty(0)
        assert np.array_equal(extremal._apart(x, empty, 1e-13), x)
        assert np.array_equal(self.brute(x, empty, 1e-13), x)
        assert len(extremal._apart(empty, x, 1e-13)) == 0


class TestHighDegree:
    """n = 240, beyond the default degree cap of 120."""

    @pytest.fixture(autouse=True)
    def raise_cap(self, monkeypatch):
        monkeypatch.setattr(extremal, "MARKOV_DEGREE_CAP", 240)

    def check(self, K, a, exact):
        r = markov_extremal(solve_equilibrium(K), a, 240)
        assert exact * (1.0 - 1e-7) <= r.value <= exact * (1.0 + 1e-12)
        assert not r.grid_doubled
        assert len(r.nodes) == 241

    def test_symmetric_pair(self):
        # T_120 o (8x^2 - 5)/3, with value 120^2 * 16/3
        self.check(SYM2, 1.0, 76800.0)

    def test_cubic_inverse_image(self):
        # T_80 o (2 T_3), the derivative taken at the right end of the middle component
        K, a, dP = cheb_image(2.0, 3, 1)
        self.check(K, a, 80 * 80 * dP)


class TestBarycentricEvaluation:
    @pytest.mark.parametrize("K,n", [(UNIT, 100), (SYM2, 60), (STALL3, 24)])
    def test_matches_lagrange_rows(self, K, n):
        r = markov_extremal(solve_equilibrium(K), K.max, n)
        w = _bary_weights(r.nodes)
        rng = np.random.default_rng(n)
        off = np.concatenate([arccos_grid(K, 2 * BARY_CHUNK // K.m)]
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

    def test_batched_probes_match_one_at_a_time(self, E_sym2):
        rng = np.random.default_rng(29)
        probes = np.concatenate([rng.uniform(-0.95, -0.55, 5), rng.uniform(0.55, 0.95, 5)])
        for _ in range(5):
            P = Chebyshev(rng.standard_normal(30))
            norm = extremal._poly_norm_on_set(P, E_sym2.set, 29)
            want = max(abs(P.deriv()(x)) / (29 * math.pi * density(E_sym2, x) * norm) for x in probes)
            assert bernstein_audit(E_sym2, P, list(probes)) == want
        assert bernstein_audit(E_sym2, P, []) == 0.0

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

    def test_both_audits_return_float(self, E_unit):
        P = Chebyshev.basis(4)
        assert type(bernstein_walsh_audit(E_unit, P, 2.0)) is float
        assert type(bernstein_audit(E_unit, P, [0.3])) is float

    def test_rejects_point_in_set(self, E_unit):
        with pytest.raises(SetSpecError):
            bernstein_walsh_audit(E_unit, Chebyshev((1.0, 1.0)), 0.5)


class TestPolyNorm:
    WIDE = IntervalSet(((-2.0, 1.0),))

    def test_finite_up_to_overflow(self):
        # |H_538| peaks at 5.5e307 on [-2, 1]; the DCT sums of its samples
        # would overflow unscaled
        assert extremal._poly_norm_on_set(lambda x: h_poly(538, x), self.WIDE, 538) == 5.497148858200843e+307

    def test_finite_at_the_top_of_the_float_range(self):
        # max |P| = 1.7e308 >= 2**1023: its power-of-two scale 2**-1024 is
        # applied by ldexp, since 2.0**1024 itself overflows
        def P(x):
            return 1.7e308 * np.cos(40 * np.arccos(x))

        assert extremal._poly_norm_on_set(P, UNIT, 40) == 1.7e308

    @pytest.mark.parametrize("n", [539, 600, 2000])
    def test_inf_once_p_overflows(self, n):
        assert extremal._poly_norm_on_set(lambda x: h_poly(n, x), self.WIDE, n) == math.inf

    def test_inf_when_one_component_overflows(self):
        # the overflowed component has no maxima; the other one's 601 is
        # not the norm
        K = IntervalSet(((-2.0, -1.9), (0.0, 1.0)))
        assert extremal._poly_norm_on_set(lambda x: h_poly(600, x), K, 600) == math.inf


@pytest.mark.slow
class TestNormEquivalenceProbe:
    def test_pointwise_vs_runup_norm(self):
        at_a, best = derivative_norm_probe(UNIT, 1.0, 40, grid_points=50)
        assert abs(best - at_a) / max(at_a, best) <= 0.01

    def test_each_point_is_solved_once(self, monkeypatch):
        # the grid's first point is a itself: 1 + grid_points objective
        # rows, grid_points solves, and the values of one solve per row
        K, a, n, grid_points = SYM2, 1.0, 12, 6
        solves, core = [], extremal._extremal_core
        monkeypatch.setattr(extremal, "_extremal_core",
                            lambda *args: solves.append(1) or core(*args))
        at_a, best = derivative_norm_probe(K, a, n, grid_points=grid_points)
        assert len(solves) == grid_points
        E = solve_equilibrium(K)
        nodes = _interpolation_nodes(E, n)
        w = _bary_weights(nodes)
        rho = check_interval_condition(K, a).rho
        probes = a - rho / 2.0 + (rho / 2.0) * np.cos(np.linspace(0.0, np.pi, grid_points))
        assert probes[0] == a
        want = [core(E, n, nodes, w, _deriv_row(nodes, w, float(x))).value for x in (a, *probes)]
        assert at_a == want[0] and best == max(want[1:])

    @pytest.mark.parametrize("grid_points", [0, -1])
    def test_rejects_empty_grid(self, grid_points):
        with pytest.raises(SetSpecError, match="grid_points"):
            derivative_norm_probe(UNIT, 1.0, 40, grid_points=grid_points)
