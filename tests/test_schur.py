import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from equipot import (
    IntervalSet,
    SetSpecError,
    affine_inverse_image,
    audit_bound,
    audit_witness,
    build_witness,
    cantor_set,
    check_interval_condition,
    counterexample_demo,
    h_poly,
    peaking_poly,
    quadratic_inverse_image,
    solve_equilibrium,
)
from equipot.schur import _cheb_u


class TestInverseImages:
    def test_quadratic_values(self):
        imap = quadratic_inverse_image(0.5)
        assert imap(1.0) == pytest.approx(1.0, abs=1e-14)
        assert imap(0.5) == pytest.approx(-1.0, abs=1e-14)
        assert imap(0.75) == pytest.approx(-1.0 / 6.0, abs=1e-14)

    def test_quadratic_derivative(self):
        for alpha in (0.2, 0.5, 0.8):
            imap = quadratic_inverse_image(alpha)
            assert imap.slope == pytest.approx(4.0 / (1 - alpha**2), rel=1e-13)
            assert imap.slope == 4.0 / (1.0 - alpha * alpha)

    def test_target_is_inverse_image(self):
        imap = quadratic_inverse_image(0.4)
        for e in imap.target_set.endpoints():
            assert abs(abs(imap(e)) - 1.0) < 1e-12
        for (u, v) in imap.target_set.intervals:
            xs = np.linspace(u, v, 101)
            assert np.max(np.abs(imap(xs))) <= 1.0 + 1e-12
        # strictly outside the target the map leaves [-1, 1]
        assert abs(imap(0.0)) > 1.0

    def test_affine_family(self):
        imap = affine_inverse_image(-2.0, 1.0)
        assert imap(1.0) == 1.0 and imap(-2.0) == -1.0
        assert imap.slope == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert imap.slope == 2.0 / 3.0

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(SetSpecError):
                quadratic_inverse_image(alpha)


class TestHPoly:
    @pytest.mark.parametrize("m", [0, 1, 5, 50, 200, 500])
    def test_endpoint_identity(self, m):
        assert abs(h_poly(m, 1.0)) == pytest.approx(m + 1, rel=1e-12)
        assert abs(h_poly(m, -1.0)) == pytest.approx(m + 1, rel=1e-12)

    def test_h0_is_one(self):
        assert h_poly(0, 0.3) == 1.0

    def test_interior_bound(self):
        ws = np.cos(np.linspace(0.05, 0.95, 200) * np.pi)
        for m in (3, 10, 41):
            vals = np.abs(h_poly(m, ws))
            assert np.all(vals <= 1.0 / np.sqrt(1 - ws**2) + 1e-9)


class TestPeaking:
    def test_value_at_peak(self):
        U = peaking_poly(IntervalSet(((-1.0, 1.0),)), 1.0, 10)
        assert U(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_center_zero_and_geometric_decay(self):
        U = peaking_poly(IntervalSet(((-1.0, 1.0),)), 1.0, 10)
        assert abs(U(0.0)) < 1e-12
        assert U(0.5) == pytest.approx(0.5**10, rel=1e-10)

    def test_bounded_on_set(self):
        K = IntervalSet(((-1.0, -0.5), (0.5, 1.0)))
        U = peaking_poly(K, 1.0, 13)
        for (u, v) in K.intervals:
            xs = np.linspace(u, v, 200)
            assert np.max(np.abs(U(xs))) <= 1.0 + 1e-10

    def test_rejects(self):
        with pytest.raises(SetSpecError):
            peaking_poly(IntervalSet(((-1.0, 1.0),)), 0.5, 3)
        with pytest.raises(SetSpecError):
            peaking_poly(IntervalSet(((-1.0, 1.0),)), 1.0, 0)


class TestWitness:
    def test_counting(self):
        imap = quadratic_inverse_image(0.5)
        wit = build_witness(imap, 1.0, 400, 0.05)
        assert wit.m == 190  # floor((400 - 20)/2)
        assert wit.degree <= 400

    def test_value_at_a_closed_form(self):
        imap = quadratic_inverse_image(0.5)
        wit = build_witness(imap, 1.0, 400, 0.05)
        want = 191 * math.sqrt(2 * 16 / 3) / 1.05**2
        # H_m(T(1)) is exactly m + 1 (the factored 1 - T(1) is 0); the loose
        # tolerance dates from a rounded T(1), which the steep H_m amplified
        assert abs(wit(1.0)) == pytest.approx(want, rel=1e-9)
        assert wit.value_at_a == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("h_a", [0.0, -1.0, math.nan, math.inf])
    def test_h_a_must_be_finite_and_positive(self, h_a):
        with pytest.raises(SetSpecError, match="h_a"):
            build_witness(quadratic_inverse_image(0.5), h_a, 100, 0.05)

    @pytest.mark.parametrize("n", [16, 100, 417])
    def test_degree_budget(self, n):
        imap = quadratic_inverse_image(0.3)
        wit = build_witness(imap, 2.0, n, 0.1)
        assert wit.degree <= n

    @pytest.mark.parametrize("imap,T", [
        (quadratic_inverse_image(0.5), lambda x: (8 * x * x - 5) / 3),
        (affine_inverse_image(-2.0, 1.0), lambda x: (2 * x + 1) / 3),
    ], ids=["quadratic", "affine"])
    def test_h_factor_matches_mpmath(self, imap, T):
        """H_m(T(x)) and the peaking factor as the witness evaluates them,
        against 50 digits at the float x, log-spaced toward both ends of
        every component."""
        wit = build_witness(imap, 1.0, 400, 0.05)
        m = wit.m
        xs = []
        for (u, v) in imap.target_set.intervals:
            xs += [v - (v - u) * np.logspace(-16, 0, 400), u + (v - u) * np.logspace(-16, 0, 200)]
        xs = np.clip(np.concatenate(xs), imap.target_set.min, imap.target_set.max)
        got = _cheb_u(m, *imap.factors(xs))
        assert np.array_equal(wit(xs), wit.h_a * got * wit.peak(xs) * wit.scale)
        with mpmath.workdps(50):
            def exact(x):
                w = T(mpmath.mpf(float(x)))
                if abs(w) == 1:
                    return (m + 1) * w**m
                t = mpmath.acos(w)
                return mpmath.sin((m + 1) * t) / mpmath.sin(t)

            err = max(abs(float(g - exact(x))) for g, x in zip(got, xs))
            c = (mpmath.mpf(imap.target_set.min) + imap.a) / 2
            peak_err = max(abs(float(g / ((mpmath.mpf(float(x)) - c) / (imap.a - c)) ** wit.d - 1))
                           for g, x in zip(wit.peak(xs), xs))
        assert err <= 1e-14 * (m + 1)
        assert peak_err <= 1e-14

    @staticmethod
    def _audit_peak_bytes():
        wit = build_witness(quadratic_inverse_image(0.3), 1.0, 799, 0.1)
        tracemalloc.start()
        try:
            audit_witness(wit)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the growth sup samples the witness at the n + 1 Lobatto angles of each
    # component and at three probes per maximum, and the local hypothesis at
    # 2,000 run-up points: about 1.1 MB at n = 799
    AUDIT_BUDGET = 1.5e6

    def test_audit_memory_bounded(self):
        assert self._audit_peak_bytes() < self.AUDIT_BUDGET

    @pytest.mark.parametrize("m", [1, 2, 190])
    def test_a_point_alone_gets_its_bytes_in_an_array(self, m):
        imap = quadratic_inverse_image(0.3)
        xs = np.linspace(-1.2, 1.2, 12305)
        whole = _cheb_u(m, *imap.factors(xs))
        for i in range(0, len(xs), 97):
            assert _cheb_u(m, *imap.factors(xs[i])) == whole[i]

    def test_rejects_bad_parameters(self):
        imap = quadratic_inverse_image(0.5)
        with pytest.raises(SetSpecError):
            build_witness(imap, 1.0, 15, 0.05)
        with pytest.raises(SetSpecError):
            build_witness(imap, 1.0, 100, 0.0)
        with pytest.raises(SetSpecError):
            build_witness(imap, 0.0, 100, 0.05)

    def test_point_ratio_identity(self):
        # |P(a)| / (n 2 pi h(a) Omega) telescopes to (m+1) N / (n (1+eta)^2)
        imap = quadratic_inverse_image(0.5)
        for n, eta in ((400, 0.05), (1024, 0.2)):
            wit = build_witness(imap, 1.0, n, eta)
            rep = audit_witness(wit)
            want = (wit.m + 1) * imap.N / (n * (1 + eta) ** 2)
            assert rep.point_ratio == pytest.approx(want, rel=1e-10)

    def test_audit_of_witness(self):
        imap = quadratic_inverse_image(0.5)
        wit = build_witness(imap, 1.0, 400, 0.05)
        rep = audit_witness(wit)
        assert rep.local_ok
        # headroom: the margin stays below 1/(1+eta) close to a
        assert rep.local_margin <= 1.0 / 1.05 + 1e-3
        assert rep.norm_ratio <= 1.0
        # the shifted-power peak is 1 at the mirror endpoint, so the norm
        # growth is (m+1)-ish and only decays like exp(log(cn)/n)
        assert 1.0 < rep.growth_estimate < 1.02

    def test_affine_witness_on_interval(self):
        imap = affine_inverse_image(-1.0, 1.0)
        wit = build_witness(imap, 1.0, 144, 0.05)
        rep = audit_witness(wit)
        assert rep.local_ok
        assert rep.norm_ratio <= 1.0


class TestAuditBound:
    def test_zero_polynomial(self):
        K = IntervalSet(((-1.0, 1.0),))
        ctx = check_interval_condition(K, 1.0)
        E = solve_equilibrium(K)
        rep = audit_bound(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          lambda x: 1.0, K, ctx, 10, E)
        assert rep.local_ok
        assert rep.growth_estimate == 0.0
        assert rep.norm_ratio == 0.0 and rep.point_ratio == 0.0

    @pytest.mark.parametrize("imap,n,eta", [
        (quadratic_inverse_image(0.3), 799, 0.1),
        (quadratic_inverse_image(0.7), 450, 0.5),
        (quadratic_inverse_image(0.5), 200, 0.02),
        (affine_inverse_image(-2.0, 1.0), 300, 0.3),
    ])
    def test_growth_is_the_sup_over_the_sorted_grid(self, imap, n, eta):
        from equipot.extremal import _arccos_grid

        wit = build_witness(imap, 1.3, n, eta)
        K = imap.target_set
        sup = float(np.max(np.abs(wit(_arccos_grid(K, 64 * (n + 1))))))
        assert audit_witness(wit).growth_estimate == sup ** (1.0 / n)

    def test_rejects_nonpositive_h(self):
        K = IntervalSet(((-1.0, 1.0),))
        ctx = check_interval_condition(K, 1.0)
        E = solve_equilibrium(K)
        with pytest.raises(SetSpecError):
            audit_bound(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        lambda x: -1.0, K, ctx, 10, E)

    def test_rejects_degree_zero(self):
        K = IntervalSet(((-1.0, 1.0),))
        ctx = check_interval_condition(K, 1.0)
        E = solve_equilibrium(K)
        with pytest.raises(SetSpecError, match="degree n"):
            audit_bound(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                        lambda x: 1.0, K, ctx, 0, E)


class TestCounterexample:
    def test_point_value_and_ratio(self):
        for n in (10, 50, 200):
            rep = counterexample_demo(n)
            want = ((n + 1) / n) / math.sqrt(2.0 / 3.0)
            assert rep.point_ratio == pytest.approx(want, rel=1e-9)
            assert rep.point_ratio > 1.0

    def test_local_hypothesis_holds(self):
        rep = counterexample_demo(120)
        assert rep.local_ok
        assert rep.local_margin <= 1.0 + 1e-9

    def test_growth_is_large(self):
        rep = counterexample_demo(200)
        assert rep.growth_estimate == pytest.approx(2 + math.sqrt(3), rel=0.01)
        assert rep.growth_estimate > 1.5  # global hypothesis clearly fails

    def test_threshold_value(self):
        n = 100
        rep = counterexample_demo(n)
        assert rep.bound_threshold == pytest.approx(n * math.sqrt(2.0 / 3.0), rel=1e-10)

    def test_growth_up_to_and_past_overflow(self):
        # |H_538(-2)| = 5.5e307 is still a float; |H_539(-2)| overflows
        assert counterexample_demo(538).growth_estimate == 3.7325676739298888
        assert counterexample_demo(539).growth_estimate == math.inf
