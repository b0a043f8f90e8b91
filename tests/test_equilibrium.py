import math
import tracemalloc

import numpy as np
import pytest

from equipot import (
    BalayageQuery,
    IntervalSet,
    NumericsError,
    SetSpecError,
    balayage_density,
    balayage_edge_limit,
    balayage_mass,
    cantor_set,
    check_interval_condition,
    decomposition_residual,
    density,
    density_table,
    equilibrium_potential,
    green,
    omega_factor,
    outer_convergence_study,
    solve_equilibrium,
    to_record,
)
from equipot import equilibrium, numerics
from equipot.interval_sets import outer_approximants
from equipot.numerics import EXPAND_MIN_NODES
from conftest import random_interval_set

# Brute high-precision quadrature oracles for K = [-1,-1/2] u [1/2,1]
# (mpmath, 30 digits, with explicit splitting at the log singularity):
SYM2_ROBIN = 0.83698821678583577314
SYM2_U2 = -0.60664725839297456936
SYM2_G2 = 1.4436354751788103425
SYM2_G0 = 0.5493061443340548457
SYM2_G10 = 3.1364367232706985314
# Weighted-mean oracle for the gap root of [-2,0] u [1,2] (mpmath):
ASYM2_LAMBDA = 0.517805230489230644143015


class TestSolve:
    def test_single_interval_trivial_q(self, E_unit):
        assert E_unit.roots == ()

    def test_symmetric_root_at_zero(self, E_sym2):
        assert abs(E_sym2.roots[0]) < 1e-13

    def test_asymmetric_root_oracle(self, E_asym2):
        assert E_asym2.roots[0] == pytest.approx(ASYM2_LAMBDA, abs=1e-12)
        assert 0.0 < E_asym2.roots[0] < 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(SetSpecError):
            solve_equilibrium(IntervalSet(((0.0, 0.0), (1.0, 2.0))))

    def test_mass_is_one(self, E_unit, E_sym2, E_asym2):
        for E in (E_unit, E_sym2, E_asym2):
            assert E.mass == pytest.approx(1.0, abs=1e-12)

    def test_root_in_each_gap(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            K = random_interval_set(rng, max_components=5)
            if K.has_degenerate():
                continue
            E = solve_equilibrium(K)
            assert len(E.roots) == K.m - 1
            for (g0, g1), lam in zip(K.gaps(), E.roots):
                assert g0 < lam < g1


def cheb_image_roots(c, N, alpha, beta):
    """alpha (c T_N)^{-1}[-1, 1] + beta and its exact gap roots.

    The equilibrium density of P^{-1}[-1, 1] is |P'| / (N pi sqrt(1 - P^2)),
    so q is proportional to T_N' and the gap roots are the critical points
    alpha cos(k pi / N) + beta, k = 1 ... N - 1.  Components are
    N theta in [k pi + phi, (k+1) pi - phi] with x = cos(theta) and
    phi = arccos(1/c).
    """
    phi = math.acos(1.0 / c)
    K = IntervalSet(tuple(sorted(
        tuple(sorted((alpha * math.cos(((k + 1) * math.pi - phi) / N) + beta,
                      alpha * math.cos((k * math.pi + phi) / N) + beta)))
        for k in range(N)
    )))
    roots = np.sort([alpha * math.cos(k * math.pi / N) + beta for k in range(1, N)])
    return K, roots


class TestGapRootSolver:
    @pytest.mark.parametrize("N,c", [(2, 1.5), (17, 3.0), (96, 1.2), (128, 2.0)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (-2.5, 0.5), (3.0, -10.0), (-0.7, 3.0)])
    def test_critical_points_of_T_N(self, N, c, alpha, beta):
        K, want = cheb_image_roots(c, N, alpha, beta)
        got = np.asarray(solve_equilibrium(K).roots)
        lengths = np.array([g1 - g0 for g0, g1 in K.gaps()])
        # 1e-12 of the gap, plus two binary64 spacings of the frame: a gap of
        # 1e-4 at |beta| = 3 (N = 128) is only 2e11 spacings long, so the
        # rounded endpoints already move its root by about one spacing
        tol = 1e-12 * lengths + 2 * np.spacing(abs(alpha) + abs(beta))
        assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / lengths)

    def test_cantor_roots_symmetric(self):
        r = np.asarray(solve_equilibrium(cantor_set(8)).roots)
        assert len(r) == 255
        assert np.max(np.abs(r + r[::-1] - 1.0)) <= 1e-12

    def test_unconverged_gap_quadrature_names_the_gap(self, monkeypatch):
        K = IntervalSet(((0.0, 1.0), (1.5, 1.6), (3.0, 4.0)))
        monkeypatch.setattr(numerics, "QUAD_MIN_NODES", 2)
        monkeypatch.setattr(numerics, "QUAD_MAX_NODES", 4)
        with pytest.raises(NumericsError, match=r"gap quadrature on \[1\.0, 1\.5\] .* 4 nodes"):
            solve_equilibrium(K)

    def test_pass_cap_is_an_error(self, monkeypatch):
        # steps of 1e-3 0.99^k of the gap with alternating sign shrink too
        # slowly for the quadratic test and never grow; the asymmetric pair
        # has its root off the gap midpoint, so the mean step leaves room
        # for Newton steps
        calls = []

        def slow(groups, lam, lo, hi):
            calls.append(1)
            k = len(calls)
            return lam + (-1) ** k * 1e-3 * 0.99 ** k * (hi - lo)

        monkeypatch.setattr(equilibrium, "_newton_gap_step", slow)
        with pytest.raises(NumericsError, match="did not converge in 300 passes"):
            solve_equilibrium(IntervalSet(((-1.0, -0.5), (0.2, 1.0))))
        assert len(calls) == 300

    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_unresolved_table_names_the_component_and_gap(self, gap):
        K = IntervalSet(((-1.0, 0.0), (gap, 1.0)))
        want = rf"density table of \[-1\.0, 0\.0\] did not resolve at 8192 nodes next to a gap of width {gap:.3e}"
        with pytest.raises(NumericsError, match=want):
            solve_equilibrium(K)

    @pytest.mark.parametrize("K", [IntervalSet(((-3.0, -2.0), (-1.0, 0.5), (2.0, 2.25))), cantor_set(4)],
                             ids=["three", "cantor4"])
    def test_singular_jacobian_takes_the_mean_step(self, K, monkeypatch):
        want = solve_equilibrium(K)
        refused = []

        def singular(*args):
            refused.append(1)
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        got = solve_equilibrium(K)  # passes the verifier on mean steps alone
        assert refused
        lengths = np.array([g1 - g0 for g0, g1 in K.gaps()])
        assert np.all(np.abs(np.subtract(got.roots, want.roots)) <= 1e-12 * lengths)

    def test_gap_of_1e_3_solves(self):
        cap = solve_equilibrium(IntervalSet(((-1.0, 0.0), (1e-3, 1.0)))).cap
        assert cap == pytest.approx(0.4999999374999805, rel=1e-13)

    def test_quadratic_convergence(self, monkeypatch):
        steps = []
        step = equilibrium._newton_gap_step

        def logged(groups, lam, lo, hi):
            new = step(groups, lam, lo, hi)
            steps.append(float(np.max(np.abs(new - lam) / (hi - lo))))
            return new

        monkeypatch.setattr(equilibrium, "_newton_gap_step", logged)
        solve_equilibrium(cantor_set(6))
        assert 2 <= len(steps) <= 7
        # each step at least squares the previous one's size, down to rounding
        assert all(b <= max(10 * a * a, 1e-12) for a, b in zip(steps, steps[1:]))

    # peak traced memory of one solve on a 128-component set; an unchunked
    # gap pass holds (127 gaps x 128 nodes x 127 roots) doubles, about 16 MB
    # per temporary
    MEMORY_BUDGET = 8 << 20

    @staticmethod
    def _peak_bytes(K):
        tracemalloc.start()
        try:
            solve_equilibrium(K)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded(self):
        K, _ = cheb_image_roots(2.0, 128, 1.0, 0.0)
        assert self._peak_bytes(K) < self.MEMORY_BUDGET

    def test_memory_budget_catches_an_unchunked_pass(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "GAP_CHUNK", 1 << 40)
        K, _ = cheb_image_roots(2.0, 128, 1.0, 0.0)
        assert self._peak_bytes(K) > self.MEMORY_BUDGET


def bisection_quantiles(u, v, c, levels):
    """Quantiles of the component [u, v] with table c by 60 bisection steps
    on the mass in angle: the reference for the batched Newton solve."""
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    k = np.arange(1, len(c))

    def mass(phi):
        return half * (c[0] * (np.pi - phi) - np.sin(np.outer(phi, k)) @ (c[1:] / k))

    lo, hi = np.zeros(len(levels)), np.full(len(levels), np.pi)
    for _ in range(60):
        centre = 0.5 * (lo + hi)
        below = mass(centre) < levels
        lo, hi = np.where(below, lo, centre), np.where(below, centre, hi)
    return mid + half * np.cos(0.5 * (lo + hi))




class TestMassesAndQuantiles:
    @pytest.mark.parametrize("N", range(2, 9))
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (-2.5, 0.5), (3.0, -10.0), (1e-100, 0.0),
                                            (-1e100, 3e100)])
    def test_masses_of_chebyshev_images(self, N, alpha, beta):
        # each component of (c T_N)^{-1}[-1, 1] carries mass 1/N exactly
        K, _ = cheb_image_roots(1.5, N, alpha, beta)
        E = solve_equilibrium(K)
        assert E.masses.shape == (N,)
        assert np.max(np.abs(E.masses - 1.0 / N)) <= 1e-13
        assert E.mass == sum(E.masses.tolist())

    @pytest.mark.parametrize("K", [
        IntervalSet(((-1.0, 1.0),)),
        IntervalSet(((-1.0, -0.5), (0.5, 1.0))),
        # an inverse image of a scaled T_3
        IntervalSet(((4.8422185492259695, 5.027806096813277), (5.713331410216814, 6.084506505391428),
                     (6.770031818794964, 6.955619366382272))),
        # two tiny components beside [-1, 1]
        IntervalSet(((-1.0, 1.0), (1.5, 1.5001), (2.0, 2.0001))),
        cantor_set(3),
    ])
    def test_quantiles_match_bisection(self, K):
        E = solve_equilibrium(K)
        frac = np.arange(1, 40) / 40
        comp = np.repeat(np.arange(K.m), len(frac))
        levels = np.concatenate([mass * frac for mass in E.masses])
        got = equilibrium._quantiles(E, comp, levels)
        for j, ((u, v), c) in enumerate(zip(K.intervals, E.coeffs)):
            want = bisection_quantiles(u, v, c, E.masses[j] * frac)
            assert np.max(np.abs(got[comp == j] - want)) <= 1e-12 * (v - u) / 2.0


def scaled(K, s):
    return IntervalSet(tuple((u * s, v * s) for u, v in K.intervals))


class TestQuadratureFloor:
    """The gap doublings start at numerics.QUAD_MIN_NODES = 16 nodes; the
    frame-local moments keep their stopping test scale-free, so the low
    floor gives the answers of a floor of 64 at any scale."""

    SYM2 = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))

    @staticmethod
    def _solve_at_floor(K, floor):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "QUAD_MIN_NODES", floor)
            return solve_equilibrium(K)

    @staticmethod
    def _agree(K, cap_rtol=1e-13, floor=numerics.QUAD_MIN_NODES):
        got, want = (TestQuadratureFloor._solve_at_floor(K, f) for f in (floor, 64))
        lengths = np.array([g1 - g0 for g0, g1 in K.gaps()])
        # 1e-12 of the gap, plus two binary64 spacings of the root: a gap of
        # 3.8e-5 near 1 (Cantor level 7, ratio 0.2) is 3.5e11 spacings long
        tol = 1e-12 * lengths + 2 * np.spacing(np.abs(want.roots))
        assert np.all(np.abs(np.subtract(got.roots, want.roots)) <= tol)
        if cap_rtol is not None:
            assert got.cap == pytest.approx(want.cap, rel=cap_rtol, abs=0.0)

    @pytest.mark.parametrize("s", [1e-100, 1e100])
    def test_low_floor_solves_at_extreme_scale(self, s):
        # int t g of a symmetric gap is rounding noise of size ~1e84 at scale
        # 1e100, which an absolute first moment let swamp the stopping test
        self._agree(scaled(self.SYM2, s), floor=8)

    @pytest.mark.parametrize("N", [2, 3, 17, 64, 100, 128])
    @pytest.mark.parametrize("c", [1.01, 1.2, 3.0, 50.0])
    def test_matches_floor_64_on_chebyshev_images(self, N, c):
        self._agree(cheb_image_roots(c, N, 1.0, 0.0)[0])

    @pytest.mark.parametrize("level", range(2, 8))
    @pytest.mark.parametrize("ratio", [0.2, 1.0 / 3.0, 0.49])
    def test_matches_floor_64_on_cantor_sets(self, level, ratio):
        self._agree(cantor_set(level, ratio))

    @pytest.mark.parametrize("s", [1e-100, 1e-14, 1e-6, 1e6, 1e14, 1e100])
    @pytest.mark.parametrize("K", [SYM2, cantor_set(3), cheb_image_roots(1.2, 8, 1.0, 0.0)[0]],
                             ids=["sym2", "cantor3", "cheb8"])
    def test_matches_floor_64_on_scaled_sets(self, K, s):
        self._agree(scaled(K, s))

    def test_first_pass_settles_at_low_counts(self):
        K = cheb_image_roots(2.0, 64, 1.0, 0.0)[0]
        gaps = np.asarray(K.gaps()).reshape(-1, 2)
        levels, _ = equilibrium._gap_means(K, gaps.mean(axis=1))
        groups = equilibrium._settled(levels)
        # a gap settled at level 32 holds its 17 + 16 nested Lobatto points
        low = sum(nodes.idx.size for nodes, _ in groups if nodes.t.shape[1] <= 33)
        assert low >= 0.9 * len(gaps)


class TestSolveWork:
    """Work the solve skips: Newton's confirming pass, a second forming of
    the endpoint sums, and table levels spent on rounding noise."""

    def test_newton_stops_on_the_predicted_step(self, monkeypatch):
        K = cheb_image_roots(2.0, 64, 1.0, 0.0)[0]
        gaps = np.asarray(K.gaps()).reshape(-1, 2)
        lo, hi = gaps[:, 0], gaps[:, 1]
        passes = []
        step = equilibrium._newton_gap_step

        def counted(groups, lam, lo, hi):
            passes.append(groups)
            return step(groups, lam, lo, hi)

        monkeypatch.setattr(equilibrium, "_newton_gap_step", counted)
        roots, levels = equilibrium._solve_gap_roots(K)
        assert len(passes) <= 3
        # the pass the prediction skipped moves no root by more than 1e-12 of
        # its gap, plus two binary64 spacings of the root
        confirmed = step(passes[-1], roots, lo, hi)
        tol = 1e-12 * (hi - lo) + 2 * np.spacing(np.abs(confirmed))
        assert np.all(np.abs(roots - confirmed) <= tol)

    @pytest.mark.parametrize("K", [cheb_image_roots(50.0, 17, 1.0, 0.0)[0], cantor_set(7, 0.45),
                                   cantor_set(6)], ids=["cheb17", "cantor7", "cantor6"])
    def test_verifier_reuses_the_endpoint_sums_bit_for_bit(self, K):
        roots, first = equilibrium._solve_gap_roots(K)
        reused, mean = equilibrium._gap_means(K, roots, first)
        fresh, want = equilibrium._gap_means(K, roots)
        assert np.array_equal(mean, want)
        for a, b in zip(reused, fresh, strict=True):
            assert np.array_equal(a.idx, b.idx)
            assert np.array_equal(a.t, b.t) and np.array_equal(a.ends_lw, b.ends_lw)
        # every level the first pass holds in full is shared, not copied
        shared = [a for a in reused if any(a is p for p in first)]
        assert len(shared) >= 2

    @staticmethod
    def _table_levels(monkeypatch, *sets):
        """(solve, expansion levels as (nodes, components)) of each set."""
        counts = []
        expand = equilibrium.chebyshev_expand

        def logged(f, count=1):
            def g(s, rows):
                counts[-1].append((len(s), len(rows)))
                return f(s, rows)
            return expand(g, count)

        monkeypatch.setattr(equilibrium, "chebyshev_expand", logged)
        solves = []
        for K in sets:
            counts.append([])
            solves.append(solve_equilibrium(K))
        return solves, counts

    def test_tables_resolve_at_the_first_node_count(self, monkeypatch):
        _, (counts,) = self._table_levels(monkeypatch, cantor_set(7, 0.37))
        assert counts == [(EXPAND_MIN_NODES + 1, 128)]

    def test_affine_image_tables_resolve_at_the_first_node_count(self, monkeypatch):
        # sampled at mid + half s in absolute coordinates, -1.3 K + 6 took
        # 65, 129 and 257 nodes through the rounding of |mid|; sampled from
        # each component's left end it resolves at the first level, as K does
        K = cantor_set(7, 0.37)
        image = IntervalSet(tuple(sorted((-1.3 * v + 6.0, -1.3 * u + 6.0) for u, v in K.intervals)))
        (E, E_image), counts = self._table_levels(monkeypatch, K, image)
        assert counts == [[(EXPAND_MIN_NODES + 1, 128)]] * 2
        # the image's endpoints are rounded at |beta| = 6, by up to 4e-13 of a
        # component's length, and its gap roots are solved at nodes mid +
        # half s: its masses differ from K's by up to 1.5e-14
        assert np.max(np.abs(E.masses - E_image.masses[::-1])) <= 5e-14

    def test_first_pass_evaluates_each_gap_point_once(self):
        # the nested levels of -1.3 K + 6, K Cantor level 7 at ratio 0.37:
        # 127 gaps at 17 and 16 points, then 31, 7 and 3 of them at 32, 64
        # and 128 new points, 6,015 in all; the Gauss-Chebyshev levels of
        # 16, 32, 64, 128 and 256 nodes, none shared, took 9,744
        K = cantor_set(7, 0.37)
        image = IntervalSet(tuple(sorted((-1.3 * v + 6.0, -1.3 * u + 6.0) for u, v in K.intervals)))
        mid = np.asarray(image.gaps()).mean(axis=1)
        levels, _ = equilibrium._gap_means(image, mid)
        assert sum(nodes.t.size for nodes in levels) <= 6100
        for nodes in levels:
            assert np.unique(nodes.s).size == nodes.s.size
        assert np.unique(np.concatenate([nodes.s for nodes in levels])).size == sum(
            nodes.s.size for nodes in levels)
        # Newton takes each gap's blocks up to its level, weighted pi / N
        # with the ends halved: the weights of a level sum to pi
        for nodes, w in equilibrium._settled(levels):
            assert nodes.t.shape == nodes.ends_lw.shape == (nodes.idx.size, w.size)
            assert w.sum() == pytest.approx(np.pi, rel=1e-15)

    WORKLOAD_SETS = {
        "cantor6-0.30": (cantor_set(6, 0.3), -3.7, 9.3),
        "cantor6-0.35": (cantor_set(6, 0.35), 0.5, -9.9),
        "cantor7-0.35": (cantor_set(7, 0.35), 1.0, 0.0),
        "cantor7-0.40": (cantor_set(7, 0.4), -3.7, 9.3),
        "cheb96-1.25": (cheb_image_roots(1.25, 96, 1.0, 0.0)[0], 0.5, -9.9),
        "cheb128-1.25": (cheb_image_roots(1.25, 128, 1.0, 0.0)[0], -3.7, 9.3),
        "cheb112-2.1": (cheb_image_roots(2.1, 112, 1.0, 0.0)[0], 1.0, 0.0),
        "cheb128-3.0": (cheb_image_roots(3.0, 128, 1.0, 0.0)[0], 0.5, -9.9),
    }

    @pytest.mark.parametrize("name", list(WORKLOAD_SETS))
    def test_workload_tables_resolve_at_33_points(self, name, monkeypatch):
        # the capacity benchmark's sets: 64- and 128-component Cantor sets at
        # ratios 0.3-0.4 and inverse images of c T_N, N = 96-128, c = 1.2-3
        # (c near 1.2 in the next test), on frames |alpha| 0.5-4, |beta| <= 10
        K, alpha, beta = self.WORKLOAD_SETS[name]
        image = IntervalSet(tuple(sorted(tuple(sorted((alpha * u + beta, alpha * v + beta)))
                                         for u, v in K.intervals)))
        _, (counts,) = self._table_levels(monkeypatch, image)
        assert counts == [(33, K.m)]

    def test_outer_tables_of_narrow_gap_images_take_one_more_block(self, monkeypatch):
        # at c = 1.2, the low end of the benchmark's range, the tables of the
        # two outer components need 26 terms and so the 32 points level 64 adds
        K = cheb_image_roots(1.2, 104, 3.3, -1.7)[0]
        (E,), (counts,) = self._table_levels(monkeypatch, K)
        assert counts == [(33, 104), (32, 2)]
        assert E.coeffs.shape == (104, 26)

    @pytest.mark.parametrize("s", [1e-100, 1e-14, 1e14, 1e100])
    def test_exact_capacity_at_extreme_scale(self, s):
        K = scaled(cheb_image_roots(3.0, 17, 1.0, 0.0)[0], s)
        assert solve_equilibrium(K).cap == pytest.approx(s * 3.0 ** (-1.0 / 17) / 2.0, rel=1e-13, abs=0.0)


class TestGapVerifier:
    """The verifier must catch a root that misses its gap condition, and
    name the gap, whatever the solver returned."""

    SETS = {
        "cantor5": lambda: cantor_set(5),
        "cheb40": lambda: cheb_image_roots(1.5, 40, 1.0, 3.0)[0],
    }

    @staticmethod
    def _returning(monkeypatch, move):
        solve = equilibrium._solve_gap_roots

        def patched(K):
            roots, levels = solve(K)
            return move(K, roots.copy()), levels

        monkeypatch.setattr(equilibrium, "_solve_gap_roots", patched)

    @pytest.mark.parametrize("name", sorted(SETS))
    @pytest.mark.parametrize("where", [0, 0.5, 1])
    def test_moved_root_is_named(self, monkeypatch, name, where):
        K = self.SETS[name]()
        k = int(round(where * (K.m - 2)))

        def move(K, roots):
            g0, g1 = K.gaps()[k]
            roots[k] += 1e-7 * (g1 - g0)
            return roots

        self._returning(monkeypatch, move)
        with pytest.raises(NumericsError, match=rf"in gap {k}$"):
            solve_equilibrium(K)

    def test_true_roots_pass(self, monkeypatch):
        solve_equilibrium(self.SETS["cantor5"]())
        K, exact = cheb_image_roots(1.5, 40, 1.0, 3.0)
        self._returning(monkeypatch, lambda K, roots: exact)
        assert solve_equilibrium(K).roots == tuple(exact)


def per_component_potential(E, x):
    """U(x) and the sum of |terms|, one component at a time by the closed
    forms of (1/pi) int log(1/|xi - s|) T_k(s) / sqrt(1 - s^2) ds."""
    terms = []
    for (u, v), c in zip(E.set.intervals, E.coeffs):
        mid, half = (u + v) / 2.0, (v - u) / 2.0
        xi = (x - mid) / half
        ks = np.arange(1, len(c))
        if abs(xi) <= 1.0:
            phi0, phik = math.log(2.0), np.cos(ks * math.acos(xi)) / ks
        else:
            lz = math.log(abs(xi) + math.sqrt(xi * xi - 1.0))
            phi0 = math.log(2.0) - lz
            phik = np.sign(xi) ** ks * np.exp(-ks * lz) / ks
        terms.append(half * math.pi * (c[0] * (phi0 + math.log(1.0 / half)) + c[1:] @ phik))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


class TestBatchedStages:
    """The batched potential and component tables against the same sums
    and expansions formed one component at a time."""

    SETS = {
        "cantor6": lambda: cantor_set(6),
        "three": lambda: IntervalSet(((-3.0, -2.0), (-1.0, 0.5), (2.0, 2.25))),
        "cheb96": lambda: cheb_image_roots(1.5, 96, -2.5, 7.0)[0],
    }

    @staticmethod
    def _points(K):
        (u, v), (g0, g1) = K.intervals[K.m // 2], K.gaps()[K.m // 2 - 1]
        hull = K.max - K.min
        return [u + 0.3 * (v - u), g0 + 0.4 * (g1 - g0), K.min - 0.2 * hull, K.max + 3.0 * hull]

    @pytest.mark.parametrize("name", ["cantor6", "three"])
    def test_potential_is_the_per_component_sum(self, name):
        K = self.SETS[name]()
        E = solve_equilibrium(K)
        probes = [per_component_potential(E, x) for x in equilibrium._robin_probes(K)]
        robin = float(np.mean([u for u, _ in probes]))
        assert abs(E.robin - robin) <= 1e-14 * max(s for _, s in probes)
        inside, gap, left, right = self._points(K)
        for x in (inside, gap, left, right):
            want, scale = per_component_potential(E, x)
            assert abs(equilibrium_potential(E, x) - want) <= 1e-14 * scale
            if x != inside:
                assert abs(green(E, x) - (robin - want)) <= 1e-14 * max(scale, abs(robin))
        assert green(E, inside) == 0.0

    @pytest.mark.parametrize("name", ["cantor6", "cheb96"])
    def test_tables_match_one_at_a_time(self, name):
        from equipot.numerics import chebyshev_expand

        def log_weight(u, half, s, roots, ends):
            # unpaired reference: sum log|t - lam| - 1/2 sum log|t - e| at
            # t = u + half (1 + s), each distance formed from the left end
            # as (u - x) + half (1 + s), as the tables form it
            def dist(x):
                return np.abs((u - x)[None, :] + half * (1.0 + s)[:, None])
            return np.sum(np.log(dist(roots)), axis=1) - 0.5 * np.sum(np.log(dist(ends)), axis=1)

        K = self.SETS[name]()
        E = solve_equilibrium(K)
        roots, ends = np.asarray(E.roots), np.asarray(K.endpoints())
        for (u, v), got in zip(K.intervals, E.coeffs):
            half = (v - u) / 2.0
            others = ends[(ends != u) & (ends != v)]
            want, = chebyshev_expand(
                lambda s, rows: np.exp(log_weight(u, half, s, roots, others))[None]
                / (np.pi * half))
            n = max(len(got), len(want))
            diff = np.pad(got, (0, n - len(got))) - np.pad(want, (0, n - len(want)))
            assert np.max(np.abs(diff)) <= 1e-13 * abs(want[0])
            assert abs(half * math.pi * got[0] - half * math.pi * want[0]) <= 1e-14

    # peak traced memory of one Cantor level-8 solve; an unchunked level of
    # the tables alone holds (256 components x 64 nodes x 767 columns)
    # doubles, about 100 MB
    MEMORY_BUDGET = 32 << 20

    def test_memory_bounded(self):
        assert TestGapRootSolver._peak_bytes(cantor_set(8)) < self.MEMORY_BUDGET

    def test_memory_budget_catches_unchunked_passes(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "GAP_CHUNK", 1 << 40)
        assert TestGapRootSolver._peak_bytes(cantor_set(8)) > self.MEMORY_BUDGET


class TestDensity:
    def test_unit_interval_center(self, E_unit):
        assert density(E_unit, 0.0) == pytest.approx(1 / math.pi, rel=1e-13)

    def test_wide_interval_center(self, E_wide):
        assert density(E_wide, 0.0) == pytest.approx(1 / (math.pi * math.sqrt(2)), rel=1e-13)

    def test_two_interval_point(self, E_sym2):
        want = 0.8 / (math.pi * math.sqrt((0.64 - 0.25) * (1 - 0.64)))
        assert density(E_sym2, 0.8) == pytest.approx(want, rel=1e-12)

    def test_positive_everywhere_inside(self, E_asym2):
        for (u, v) in E_asym2.set.intervals:
            ts = np.linspace(u + 1e-6, v - 1e-6, 50)
            assert np.all(density(E_asym2, ts) > 0)

    def test_rejects_endpoint_and_gap(self, E_sym2):
        with pytest.raises(SetSpecError):
            density(E_sym2, 1.0)
        with pytest.raises(SetSpecError):
            density(E_sym2, 0.0)
        with pytest.raises(SetSpecError):
            density(E_sym2, 1.0 - 1e-13)

    def test_guard_scales_with_the_set(self):
        # w_{cK}(c t) = w_K(t) / c: the edge guard must shrink with the set
        E1 = solve_equilibrium(IntervalSet(((0.0, 1.0),)))
        Ec = solve_equilibrium(IntervalSet(((0.0, 1e-12),)))
        ts = np.array([t for t, _ in density_table(E1, 50)])
        got = density(Ec, 1e-12 * ts)
        assert np.allclose(got, 1e12 * density(E1, ts), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0 - 1e-13, -0.5, 2.0, -1.5, np.nan])
    def test_array_rejects_any_bad_point(self, E_sym2, bad):
        with pytest.raises(SetSpecError):
            density(E_sym2, np.array([0.8, bad, -0.7]))

    def test_array_matches_pointwise_product(self):
        # w(t) = |q(t)| / (pi sqrt(prod |t - e_j|)), one point at a time, no logs
        E = solve_equilibrium(IntervalSet(((-3.0, -2.0), (-1.0, -0.4), (0.2, 1.0), (1.5, 3.0))))
        ends = E.set.endpoints()
        ts = np.concatenate([np.linspace(u + 1e-3, v - 1e-3, 40) for u, v in E.set.intervals])
        want = [
            math.prod(abs(t - r) for r in E.roots)
            / (math.pi * math.sqrt(math.prod(abs(t - e) for e in ends)))
            for t in ts
        ]
        assert np.allclose(density(E, ts), want, rtol=1e-13, atol=0.0)


class TestOmega:
    def test_paper_constant_wide_interval(self, E_wide):
        assert omega_factor(E_wide, 1.0) == pytest.approx(
            1.0 / (math.pi * math.sqrt(3.0)), abs=1e-10
        )

    def test_unit_interval_markov_normalisation(self, E_unit):
        om = omega_factor(E_unit, 1.0)
        assert om == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), rel=1e-13)
        assert 2 * math.pi**2 * om**2 == pytest.approx(1.0, rel=1e-12)

    def test_two_interval(self, E_sym2):
        assert omega_factor(E_sym2, 1.0) == pytest.approx(
            1.0 / (math.pi * math.sqrt(1.5)), rel=1e-12
        )

    def test_not_a_right_endpoint(self, E_unit):
        with pytest.raises(SetSpecError):
            omega_factor(E_unit, 0.5)


class TestPotentialCapacityGreen:
    def test_classical_capacities(self, E_unit, E_wide):
        assert E_unit.cap == pytest.approx(0.5, abs=1e-8)
        assert E_wide.cap == pytest.approx(0.75, abs=1e-8)

    def test_unit_interval_potential_is_log2(self, E_unit):
        for x in (-0.9, -0.3, 0.0, 0.5, 0.99):
            assert equilibrium_potential(E_unit, x) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_interval_robin_closed_form(self, E_sym2):
        # cap([-1,-a] u [a,1]) = sqrt(1-a^2)/2
        assert E_sym2.robin == pytest.approx(SYM2_ROBIN, abs=1e-12)
        assert E_sym2.cap == pytest.approx(math.sqrt(0.75) / 2, abs=1e-12)

    def test_two_interval_potential_oracles(self, E_sym2):
        assert equilibrium_potential(E_sym2, 2.0) == pytest.approx(SYM2_U2, abs=1e-12)
        for x in (0.55, 0.6, 0.75, 0.9, -0.8):
            assert equilibrium_potential(E_sym2, x) == pytest.approx(SYM2_ROBIN, abs=1e-12)

    def test_potential_constancy(self, E_unit, E_wide, E_sym2, E_asym2):
        for E in (E_unit, E_wide, E_sym2, E_asym2):
            vals = []
            for (u, v) in E.set.intervals:
                mid, half = (u + v) / 2, (v - u) / 2
                for th in np.linspace(0.05, 0.95, 10) * math.pi:
                    vals.append(equilibrium_potential(E, mid + half * math.cos(th)))
            assert max(vals) - min(vals) <= 1e-7

    def test_green_closed_form(self, E_unit):
        assert green(E_unit, 2.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-8)
        assert green(E_unit, -2.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-8)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, E_unit, x):
        for f in (equilibrium_potential, green):
            with pytest.raises(SetSpecError, match="finite x"):
                f(E_unit, x)

    def test_green_zero_on_set(self, E_unit, E_sym2):
        for E, pts in ((E_unit, (-0.7, 0.0, 0.9)), (E_sym2, (-0.8, 0.6, 0.99))):
            for x in pts:
                assert green(E, x) == 0.0

    def test_green_two_interval_oracles(self, E_sym2):
        assert green(E_sym2, 2.0) == pytest.approx(SYM2_G2, abs=1e-12)
        assert green(E_sym2, 0.0) == pytest.approx(SYM2_G0, abs=1e-12)
        assert green(E_sym2, 10.0) == pytest.approx(SYM2_G10, abs=1e-12)

    def test_green_nonnegative(self, E_asym2):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-4, 4, 60):
            assert green(E_asym2, float(x)) >= -1e-9

    def test_green_asymptotics(self, E_sym2, E_asym2):
        for E in (E_sym2, E_asym2):
            z = 1e6
            want = math.log(abs(z)) - math.log(E.cap)
            assert green(E, z) == pytest.approx(want, abs=1e-5)


    @pytest.mark.parametrize("z", [1e200, 1e300, -1e300, 1e308, -1e308,
                                   1.7976931348623157e308, -1.7976931348623157e308])
    def test_green_far_from_the_set(self, E_unit, z):
        # g(z) = log(|z| + sqrt(z^2 - 1)) on [-1, 1]; z^2 alone overflows, and
        # |z| + sqrt(z^2 - 1) too near the top of the float range
        assert green(E_unit, z) == pytest.approx(math.log(2.0) + math.log(abs(z)), rel=1e-14)

    def test_capacity_near_the_float_limit(self):
        # the frames of components and gaps are formed without u + v, which
        # overflows here; a symmetric pair [-beta, -alpha] u [alpha, beta]
        # has capacity sqrt(beta^2 - alpha^2) / 2
        for pairs, cap in [(((1e308, 1.7e308),), 1.75e307),
                           (((1e308, 1.2e308), (1.5e308, 1.7e308)), 1e308 * math.sqrt(0.1) / 2.0)]:
            E = solve_equilibrium(IntervalSet(pairs))
            assert E.cap == pytest.approx(cap, rel=1e-13)
            assert E.mass == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("pairs", [((-1e308, 1e308),), ((1e307, 2e307), (3e307, 1.7e308))],
                             ids=["hull-overflows", "component-overflows"])
    def test_non_finite_equilibrium_is_an_error(self, pairs):
        # the tables' pi * half overflows before the check, which names the
        # limit; the solve itself warns of no overflow
        with pytest.raises(NumericsError, match="not finite"):
            solve_equilibrium(IntervalSet(pairs))


class TestBalayage:
    def test_kernel_value(self):
        qy = BalayageQuery(x=2.0, b=-1.0, a=1.0)
        assert balayage_density(qy, 0.0) == pytest.approx(
            math.sqrt(3) / (2 * math.pi), rel=1e-14
        )

    def test_kernel_value_left_source(self):
        qy = BalayageQuery(x=-3.0, b=-1.0, a=1.0)
        want = (1 / math.pi) * math.sqrt(2 * 4) / (3.5 * math.sqrt(0.5 * 1.5))
        assert balayage_density(qy, 0.5) == pytest.approx(want, rel=1e-14)

    def test_mass_preserved(self):
        # the sources 2e-5 to 6e-12 from [-1, 1] put the density's pole that
        # close; the 1.7e308 query's |x - b| |x - a| and pi |t - x| overflow;
        # the last two lie a subnormal 6e-312 from [-1e-300, 1e-300], where
        # the density in absolute units overflows
        for x, b, a in ((2.0, -1.0, 1.0), (-3.0, -1.0, 1.0), (1.0 + 1e-3, -1.0, 1.0),
                        (1.0 + 2e-5, -1.0, 1.0), (1.0 + 2e-8, -1.0, 1.0), (1.0 + 6e-12, -1.0, 1.0),
                        (-1.0 - 2e-5, -1.0, 1.0), (-1.0 - 2e-8, -1.0, 1.0), (-1.0 - 6e-12, -1.0, 1.0),
                        (100.0, -1.0, 1.0), (1e6, -1.0, 1.0), (1.75e308, 1e308, 1.7e308),
                        (1.000000000006e-300, -1e-300, 1e-300), (-1.000000000006e-300, -1e-300, 1e-300)):
            qy = BalayageQuery(x=x, b=b, a=a)
            assert balayage_mass(qy) == pytest.approx(1.0, abs=1e-12)

    def test_density_integrates_to_the_swept_mass(self):
        # balayage_mass's integrand is 1/pi at every node, so it checks the
        # kernel only at a - t = t - b = 1.  Here balayage_density itself is
        # integrated over inner pieces of [b, a] by numpy's Gauss-Legendre
        # rule, against the closed form of the mass between t and the end f
        # away from x: (2/pi) arctan sqrt(|x - e| |t - f| / (|x - f| |e - t|)),
        # e the end next to x
        b, a = -0.7, 1.3
        s, w = np.polynomial.legendre.leggauss(200)
        for e, f, side in ((a, b, 1.0), (b, a, -1.0)):
            for lengths in (1e-5, 1e-2, 1.0, 1e3, 1e6):
                x = e + side * lengths * (a - b)
                qy = BalayageQuery(x=x, b=b, a=a)

                def far_mass(t):
                    r = abs(x - e) * abs(t - f) / (abs(x - f) * abs(e - t))
                    return 2.0 / math.pi * math.atan(math.sqrt(r))

                for t1, t2 in ((-0.6, -0.1), (-0.1, 0.7), (0.7, 1.2)):
                    mid, half = (t1 + t2) / 2.0, (t2 - t1) / 2.0
                    got = half * np.dot(w, balayage_density(qy, mid + half * s))
                    assert got == pytest.approx(abs(far_mass(t2) - far_mass(t1)), rel=1e-12)

    def test_edge_limit_value(self):
        # (1/pi) sqrt(3)/sqrt(2); the defining limit of the kernel confirms it
        qy = BalayageQuery(x=2.0, b=-1.0, a=1.0)
        want = math.sqrt(3) / (math.pi * math.sqrt(2))
        assert balayage_edge_limit(qy) == pytest.approx(want, rel=1e-15)
        assert balayage_edge_limit(qy) == pytest.approx(0.38984840061683805, rel=1e-14)

    def test_edge_limit_is_the_limit(self):
        qy = BalayageQuery(x=2.0, b=-1.0, a=1.0)
        t = 1.0 - 1e-7
        got = balayage_density(qy, t) * math.sqrt(1.0 - t)
        assert abs(got - balayage_edge_limit(qy)) < 1e-3

    def test_edge_limit_far_source(self):
        qy = BalayageQuery(x=1e8, b=-1.0, a=1.0)
        assert balayage_edge_limit(qy) == pytest.approx(
            1.0 / (math.pi * math.sqrt(2.0)), rel=1e-7
        )

    def test_rejects_source_inside(self):
        with pytest.raises(SetSpecError):
            BalayageQuery(x=0.5, b=-1.0, a=1.0)
        for b in (1.0, 1.5):
            with pytest.raises(SetSpecError, match="needs b < a"):
                BalayageQuery(x=2.0, b=b, a=1.0)
        with pytest.raises(SetSpecError):
            balayage_density(BalayageQuery(x=2.0, b=-1.0, a=1.0), 1.5)

    def test_mass_nonconvergence_names_the_interval(self, monkeypatch):
        # one doubling level leaves no second estimate to agree with
        monkeypatch.setattr(numerics, "QUAD_MAX_NODES", numerics.QUAD_MIN_NODES)
        with pytest.raises(NumericsError, match=r"balayage quadrature on \[2\.0, 5\.0\] .* = 16 nodes"):
            balayage_mass(BalayageQuery(x=7.0, b=2.0, a=5.0))

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan], math.inf])
    def test_density_rejects_non_finite_point(self, t):
        with pytest.raises(SetSpecError, match="strictly inside"):
            balayage_density(BalayageQuery(x=2.0, b=-1.0, a=1.0), t)

    @pytest.mark.parametrize("x,b,a", [
        (math.nan, -1.0, 1.0), (math.inf, -1.0, 1.0), (-math.inf, -1.0, 1.0),
        (2.0, -math.inf, 1.0), (2.0, -1.0, math.nan),
        # finite ends whose a - b, x - b or x - a overflows
        (-1.5e308, -1e308, 1e308), (1e308, -1e308, -5e307), (-1e308, 5e307, 1e308),
    ])
    def test_rejects_non_finite(self, x, b, a):
        with pytest.raises(SetSpecError, match="finite"):
            BalayageQuery(x=x, b=b, a=a)


class TestDecomposition:
    def test_single_interval(self, E_unit):
        ctx = check_interval_condition(E_unit.set, 1.0)  # rho = 1
        for t in (0.05, 0.3, 0.5, 0.9, 0.99):
            assert decomposition_residual(E_unit, ctx, t) < 1e-8
        for t in (0.0, -0.5, 1.0, math.nan):
            with pytest.raises(SetSpecError, match=r"must lie in \(a - rho, a\)"):
                decomposition_residual(E_unit, ctx, t)

    def test_two_interval(self, E_sym2):
        ctx = check_interval_condition(E_sym2.set, 1.0)  # rho = 0.25
        assert decomposition_residual(E_sym2, ctx, 0.9) < 1e-6
        for t in np.linspace(0.76, 0.999, 10):
            assert decomposition_residual(E_sym2, ctx, float(t)) < 1e-6

    @pytest.mark.parametrize("K", [IntervalSet(((-3.0, -2.0), (-1.0, 0.5), (2.0, 2.25))),
                                   cantor_set(3, 0.3),
                                   IntervalSet(tuple(map(tuple, np.array([[-3.0, -2.0], [-1.0, 0.5]]))))],
                             ids=["three", "cantor3", "numpy-ends"])
    def test_every_right_endpoint(self, K):
        # the correction integral runs over components on both sides of
        # the home one, and over the home one cut at b
        E = solve_equilibrium(K)
        for _, a in K.intervals:
            ctx = check_interval_condition(K, a)
            for f in (0.05, 0.3, 0.5, 0.9, 0.99):
                assert decomposition_residual(E, ctx, a - (1.0 - f) * ctx.rho) < 1e-11

    def test_runup_density_dominates(self, E_sym2):
        ctx = check_interval_condition(E_sym2.set, 1.0)
        a, b = ctx.a, ctx.a - ctx.rho
        for t in np.linspace(b + 1e-3, a - 1e-3, 20):
            runup = 1.0 / (math.pi * math.sqrt((t - b) * (a - t)))
            assert runup >= density(E_sym2, float(t))


def edge_profile(E, a, offsets):
    """(d, w(a - d) sqrt d) over the offsets d: the edge-limit profile."""
    return [(d, density(E, a - d) * d**0.5) for d in offsets]


class TestEdgeProfile:
    def test_unit_interval_rate(self, E_unit):
        offsets = [10.0**-k for k in range(2, 9)]
        table = edge_profile(E_unit, 1.0, offsets)
        om = omega_factor(E_unit, 1.0)
        for delta, val in table:
            # analytic profile is 1/(pi sqrt(2 - delta)): linear error in delta
            assert abs(val - om) <= 0.6 * delta

    def test_monotone_single_interval(self, E_unit):
        table = edge_profile(E_unit, 1.0, [10.0**-k for k in range(1, 8)])
        vals = [v for _, v in table]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_two_interval_matches_omega(self, E_sym2):
        table = edge_profile(E_sym2, 1.0, [1e-6, 1e-8])
        om = omega_factor(E_sym2, 1.0)
        assert abs(table[-1][1] - om) < 1e-6


class TestMonotonicityAndConvergence:
    def test_two_interval_m2_is_exact(self, E_sym2):
        K = E_sym2.set
        ctx = check_interval_condition(K, 1.0)
        table = outer_convergence_study(K, ctx, [2])
        assert table[0][1] == pytest.approx(omega_factor(E_sym2, 1.0), rel=1e-12)

    def test_every_m_checked_before_any_solve(self, E_sym2, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before every m was checked")

        monkeypatch.setattr(equilibrium, "solve_equilibrium", no_solve)
        ctx = check_interval_condition(E_sym2.set, 1.0)
        with pytest.raises(SetSpecError, match="m >= 2, got 1"):
            outer_convergence_study(E_sym2.set, ctx, [2, 4, 1])

    def test_approximants_built_one_at_a_time(self, monkeypatch):
        from equipot import interval_sets

        K = cantor_set(4, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        built, solved = [], []

        class Counted(IntervalSet):
            def __post_init__(self):
                built.append(self.m)
                super().__post_init__()

        def solve(Km):
            solved.append(len(built))
            return solve_equilibrium(Km)

        monkeypatch.setattr(interval_sets, "IntervalSet", Counted)
        monkeypatch.setattr(equilibrium, "solve_equilibrium", solve)
        outer_convergence_study(K, ctx, [2, 3, 4])
        assert built == [2, 3, 4] and solved == [1, 2, 3]

    def test_cantor4_filtration(self):
        K = cantor_set(4, 1 / 3)
        ctx = check_interval_condition(K, 1.0)
        table = outer_convergence_study(K, ctx, [2, 4, 8, 16])
        vals = [v for _, v in table]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        E = solve_equilibrium(K)
        assert vals[-1] == pytest.approx(omega_factor(E, 1.0), rel=1e-12)

    def test_monotone_under_set_growth(self):
        # Omega decreases when the set grows (and shares the endpoint)
        rng = np.random.default_rng(17)
        for _ in range(10):
            K = random_interval_set(rng, max_components=6)
            if K.has_degenerate() or K.m < 3:
                continue
            a = K.max
            ctx = check_interval_condition(K, a)
            S = next(outer_approximants(K, ctx, [2]))
            if S == K:
                continue
            om_K = omega_factor(solve_equilibrium(K), a)
            om_S = omega_factor(solve_equilibrium(S), a)
            assert om_S <= om_K + 1e-10


class TestCrossFormulaAndExport:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_omega_against_quadratic_map_route(self, alpha):
        from equipot import quadratic_inverse_image

        imap = quadratic_inverse_image(alpha)
        E = solve_equilibrium(imap.target_set)
        via_density = omega_factor(E, 1.0)
        via_map = math.sqrt(abs(imap.slope)) / (math.sqrt(2) * math.pi * 2)
        assert via_density == pytest.approx(via_map, rel=1e-8)

    def test_record_roundtrip(self, E_asym2):
        import json

        rec = to_record(E_asym2)
        parsed = json.loads(json.dumps(rec))
        assert parsed == rec
        assert sorted(rec) == ["cap", "mass", "robin", "roots", "set"]
        assert rec["roots"] == [pytest.approx(ASYM2_LAMBDA, abs=1e-12)]
        assert omega_factor(E_asym2, 2.0) == pytest.approx(0.16680551683915835, rel=1e-10)

    def test_density_table_masses(self, E_sym2):
        rows = density_table(E_sym2, points_per_component=50)
        assert len(rows) == 100
        assert all(w > 0 for _, w in rows)
