"""Acceptance suite: one test per shipped criterion, run at the stated
tolerances, each printing a PASS line (pytest -s shows them)."""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from equipot import (
    BalayageQuery,
    IntervalSet,
    balayage_density,
    balayage_edge_limit,
    balayage_mass,
    bernstein_audit,
    bernstein_walsh_audit,
    build_witness,
    cantor_set,
    check_interval_condition,
    counterexample_demo,
    decomposition_residual,
    density,
    equilibrium_potential,
    green,
    markov_study,
    omega_factor,
    outer_convergence_study,
    quadratic_inverse_image,
    audit_witness,
    solve_equilibrium,
)
from conftest import random_interval_set


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def random_sets():
    rng = np.random.default_rng(20240817)
    out = []
    while len(out) < 50:
        K = random_interval_set(rng, max_components=8, lo=-5.0, hi=5.0,
                                min_len=0.05, min_gap=0.05)
        out.append(K)
    return out


@pytest.fixture(scope="module")
def random_solved(random_sets):
    t0 = time.time()
    solved = [(K, solve_equilibrium(K)) for K in random_sets]
    elapsed = time.time() - t0
    return solved, elapsed


def test_c01_normalization(random_solved):
    solved, elapsed = random_solved
    worst = max(abs(E.mass - 1.0) for _, E in solved)
    assert worst <= 1e-9
    assert elapsed / len(solved) < 1.0
    _report(1, f"50 random sets: max |mass - 1| = {worst:.2e}, "
               f"{elapsed / len(solved):.3f} s/set")


def test_c02_gap_root_location(random_solved):
    solved, _ = random_solved
    for K, E in solved:
        # q has degree m - 1: one root inside every gap, so none in a component
        assert len(E.roots) == K.m - 1
        for (g0, g1), lam in zip(K.gaps(), E.roots):
            assert g0 < lam < g1
    _report(2, "one root of q inside every gap (50 sets)")


def test_c03_paper_constant():
    t0 = time.time()
    E = solve_equilibrium(IntervalSet(((-2.0, 1.0),)))
    om = omega_factor(E, 1.0)
    elapsed = time.time() - t0
    want = 1.0 / (math.pi * math.sqrt(3.0))
    assert abs(om - want) <= 1e-10
    assert elapsed < 0.1
    _report(3, f"Omega([-2,1], 1) = {om:.12f} vs 1/(pi sqrt 3), "
               f"err {abs(om - want):.1e}, {elapsed * 1e3:.0f} ms")


def test_c04_cross_formula_consistency():
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8):
        imap = quadratic_inverse_image(alpha)
        om_density = omega_factor(solve_equilibrium(imap.target_set), 1.0)
        om_map = math.sqrt(abs(imap.slope)) / (math.sqrt(2.0) * math.pi * 2.0)
        worst = max(worst, abs(om_density - om_map) / om_map)
    assert worst <= 1e-8
    _report(4, f"Omega via density vs quadratic-map route: worst rel err {worst:.2e}")


TEST_SETS = (
    IntervalSet(((-1.0, 1.0),)),
    IntervalSet(((-2.0, 1.0),)),
    IntervalSet(((-1.0, -0.5), (0.5, 1.0))),
    IntervalSet(((-2.0, 0.0), (1.0, 2.0))),
)


def test_c05_capacity_and_constancy():
    E1 = solve_equilibrium(TEST_SETS[0])
    E2 = solve_equilibrium(TEST_SETS[1])
    assert abs(E1.cap - 0.5) <= 1e-8
    assert abs(E2.cap - 0.75) <= 1e-8
    worst = 0.0
    for K in TEST_SETS:
        E = solve_equilibrium(K)
        vals = []
        for (u, v) in K.intervals:
            mid, half = (u + v) / 2.0, (v - u) / 2.0
            for th in np.linspace(0.05, 0.95, 10) * math.pi:
                vals.append(equilibrium_potential(E, mid + half * math.cos(th)))
        worst = max(worst, max(vals) - min(vals))
    assert worst <= 1e-7
    _report(5, f"cap oracles (length/4) to 1e-8; potential spread <= {worst:.2e}")


def test_c06_green():
    E = solve_equilibrium(TEST_SETS[0])
    want = math.log(2.0 + math.sqrt(3.0))
    assert abs(green(E, 2.0) - want) <= 1e-8
    for K in TEST_SETS:
        EK = solve_equilibrium(K)
        for (u, v) in K.intervals:
            for t in np.linspace(u + 1e-6, v - 1e-6, 7):
                assert abs(green(EK, float(t))) <= 1e-9
    _report(6, "g_[-1,1](2) = log(2 + sqrt 3) to 1e-8; g = 0 on K to 1e-9")


def test_c07_balayage():
    qy = BalayageQuery(x=2.0, b=-1.0, a=1.0)
    mass = balayage_mass(qy)
    assert abs(mass - 1.0) <= 1e-9
    worst = 0.0
    for K in (TEST_SETS[0], TEST_SETS[2]):
        E = solve_equilibrium(K)
        ctx = check_interval_condition(K, 1.0)
        lo, hi = ctx.a - ctx.rho, ctx.a
        for t in np.linspace(lo + 0.01 * ctx.rho, hi - 0.01 * ctx.rho, 20):
            worst = max(worst, decomposition_residual(E, ctx, float(t)))
    assert worst < 1e-6
    t = 1.0 - 1e-7
    edge_err = abs(balayage_density(qy, t) * math.sqrt(1.0 - t) - balayage_edge_limit(qy))
    assert edge_err < 1e-3
    _report(7, f"kernel mass err {abs(mass - 1):.1e}; decomposition residual "
               f"< {worst:.1e} at 20 probes x 2 sets; edge-limit err {edge_err:.1e}")


def test_c08_cantor_filtration():
    t0 = time.time()
    K = cantor_set(6, 1.0 / 3.0)
    ctx = check_interval_condition(K, 1.0)
    table = outer_convergence_study(K, ctx, [2, 4, 8, 16, 32, 64])
    elapsed = time.time() - t0
    vals = [v for _, v in table]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    E = solve_equilibrium(K)
    assert vals[-1] == pytest.approx(omega_factor(E, 1.0), rel=1e-12)
    assert elapsed < 30.0
    _report(8, f"Omega(K_m^+, 1) nondecreasing over m = 2..64 and terminates at "
               f"Omega(K, 1) = {vals[-1]:.9f}; {elapsed:.1f} s")


def test_c09_markov_single_interval():
    t0 = time.time()
    st = markov_study(IntervalSet(((-1.0, 1.0),)), 1.0, [5, 10, 20, 30])
    elapsed = time.time() - t0
    for row in st.rows:
        assert 0.999 <= row.ratio <= 1.0001
    assert elapsed < 60.0
    _report(9, f"LP ratio/n^2 in [0.999, 1.0001] for n = 5, 10, 20, 30 "
               f"(worst dev {max(abs(r.ratio - 1) for r in st.rows):.1e}); {elapsed:.1f} s")


def test_c10_markov_two_intervals():
    t0 = time.time()
    st = markov_study(IntervalSet(((-1.0, -0.5), (0.5, 1.0))), 1.0, [10, 20, 40, 60])
    elapsed = time.time() - t0
    limit = st.limit_constant
    assert limit == pytest.approx(4.0 / 3.0, rel=1e-12)
    ratios = [r.ratio for r in st.rows]
    assert all(r2 >= r1 - 1e-6 for r1, r2 in zip(ratios, ratios[1:]))
    assert all(r <= limit * 1.02 for r in ratios)
    assert ratios[-1] >= 0.85 * limit
    assert elapsed < 600.0
    _report(10, f"alpha = 1/2 ratios {['%.10f' % r for r in ratios]} vs 4/3: "
                f"trend + envelope hold; {elapsed:.1f} s")


def test_c11_markov_wide_interval():
    t0 = time.time()
    st = markov_study(IntervalSet(((-2.0, 1.0),)), 1.0, [10, 20, 40, 60])
    elapsed = time.time() - t0
    limit = st.limit_constant
    assert limit == pytest.approx(2.0 / 3.0, rel=1e-12)
    ratios = [r.ratio for r in st.rows]
    assert all(r2 >= r1 - 1e-6 for r1, r2 in zip(ratios, ratios[1:]))
    assert all(r <= limit * 1.02 for r in ratios)
    assert ratios[-1] >= 0.85 * limit
    _report(11, f"[-2,1] ratios vs 2/3: trend + envelope hold "
                f"(worst dev {max(abs(r - limit) for r in ratios):.1e}); {elapsed:.1f} s")


def test_c12_bernstein_audits():
    rng = np.random.default_rng(421)
    worst_b = 0.0
    worst_w = 0.0
    for K in (TEST_SETS[0], TEST_SETS[1], TEST_SETS[2]):
        E = solve_equilibrium(K)
        probes = []
        for (u, v) in K.intervals:
            mid, half = (u + v) / 2.0, (v - u) / 2.0
            probes.extend(mid + half * np.cos(np.linspace(0.05, 0.95, 100 // K.m) * np.pi))
        z_out = K.max + 1.0
        for _ in range(100):
            P = Chebyshev(rng.standard_normal(21), domain=(K.min, K.max))
            worst_b = max(worst_b, bernstein_audit(E, P, probes))
            worst_w = max(worst_w, bernstein_walsh_audit(E, P, z_out))
    assert worst_b <= 1.001
    assert worst_w <= 1.001
    _report(12, f"100 random degree-20 polynomials x 3 sets: max derivative-bound "
                f"ratio {worst_b:.6f}, max growth-bound ratio {worst_w:.6f}")


def test_c13_schur_counterexample():
    t0 = time.time()
    for n in (10, 50, 200):
        rep = counterexample_demo(n)
        want = ((n + 1) / n) / math.sqrt(2.0 / 3.0)
        assert rep.point_ratio == pytest.approx(want, rel=1e-9)
        assert rep.point_ratio > 1.0
        assert rep.local_ok
    rep200 = counterexample_demo(200)
    assert rep200.growth_estimate == pytest.approx(2.0 + math.sqrt(3.0), rel=0.01)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(13, f"point ratio ((n+1)/n)/sqrt(2/3) > 1 at n = 10, 50, 200; norm "
                f"growth {rep200.growth_estimate:.4f} ~ 2 + sqrt 3; {elapsed:.1f} s")


def test_c14_schur_witness():
    t0 = time.time()
    imap = quadratic_inverse_image(0.5)
    wit = build_witness(imap, 1.0, 400, 0.05)
    rep = audit_witness(wit)
    elapsed = time.time() - t0
    assert rep.local_ok and rep.local_grid_points == 2000
    want = (wit.m + 1) * 2.0 / 400.0 / 1.05**2
    assert abs(rep.point_ratio - want) <= 1e-3
    assert rep.norm_ratio <= 1.0
    assert elapsed < 30.0
    _report(14, f"witness n = 400: local hypothesis at 2000 points, point ratio "
                f"{rep.point_ratio:.6f} ~ {want:.6f}, norm ratio "
                f"{rep.norm_ratio:.4f} <= 1; {elapsed:.1f} s")


def test_c15_edge_limit_profile():
    E = solve_equilibrium(IntervalSet(((-1.0, 1.0),)))
    offsets = [10.0**-k for k in range(2, 9)]
    table = [(d, density(E, 1.0 - d) * d**0.5) for d in offsets]
    om = omega_factor(E, 1.0)
    worst_ratio = max(abs(val - om) / delta for delta, val in table)
    assert worst_ratio <= 0.6
    _report(15, f"|w(1 - d) sqrt d - Omega| <= {worst_ratio:.3f} * d over "
                f"d = 1e-2 .. 1e-8 (analytic slope 1/(4 sqrt 2 pi) ~ 0.056)")
