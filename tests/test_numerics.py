import math

import numpy as np
import pytest

from equipot import (
    ChebPoly,
    LPProblem,
    NumericsError,
    SetSpecError,
    cheb_T_deriv,
    chebyshev_expand,
    integrate_endpoint_singular,
    lp_maximize,
)


class TestQuadrature:
    def test_weight_mass(self):
        assert integrate_endpoint_singular(lambda t: np.ones_like(t), -1, 1) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_second_moment(self):
        got = integrate_endpoint_singular(lambda t: t * t, -1, 1)
        assert got == pytest.approx(math.pi / 2, rel=1e-13)

    def test_affine_invariance_of_mass(self):
        assert integrate_endpoint_singular(lambda t: np.ones_like(t), 0, 1) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_polynomial_exactness(self):
        # int t^8 / sqrt(1-t^2) = pi * 7!!/8!! = pi * 35/128
        got = integrate_endpoint_singular(lambda t: t**8, -1, 1)
        assert got == pytest.approx(math.pi * 35 / 128, rel=1e-12)

    def test_affine_change_of_variables(self):
        u, v = 0.3, 2.7
        f = lambda t: np.exp(t) * np.cos(t)
        direct = integrate_endpoint_singular(f, u, v)
        pulled = integrate_endpoint_singular(lambda s: f(u + (v - u) * s), 0.0, 1.0)
        assert direct == pytest.approx(pulled, rel=1e-12)

    def test_smooth_nonpolynomial(self):
        # int exp(t)/sqrt(1-t^2) = pi * I_0(1)  (modified Bessel)
        from scipy.special import i0

        got = integrate_endpoint_singular(np.exp, -1, 1)
        assert got == pytest.approx(math.pi * i0(1.0), rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(SetSpecError):
            integrate_endpoint_singular(np.exp, 1.0, 1.0)

    def test_nonconvergence_reported(self):
        # a kink inside the interval only converges algebraically
        with pytest.raises(NumericsError):
            integrate_endpoint_singular(lambda t: np.abs(t) ** 0.1, -1, 1)


class TestChebyshevExpand:
    def test_exact_low_degree(self):
        c = chebyshev_expand(lambda s: 2.0 * s * s, -1, 1)
        # 2 s^2 = 1 + T_2
        assert c == pytest.approx([1.0, 0.0, 1.0], abs=1e-14)

    def test_runge(self):
        c = chebyshev_expand(lambda s: 1.0 / (1.0 + 25.0 * s * s), -1, 1)
        s = np.linspace(-1, 1, 101)
        got = np.polynomial.chebyshev.chebval(s, c)
        assert np.max(np.abs(got - 1.0 / (1.0 + 25.0 * s * s))) < 1e-11


class TestChebT:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 60])
    def test_endpoint_derivative(self, n):
        assert cheb_T_deriv(n, 1.0) == pytest.approx(n * n, rel=1e-13)

    def test_deriv_interior(self):
        for n in (3, 4, 9, 10):
            assert cheb_T_deriv(n, 0.0) == pytest.approx(
                n * math.sin(n * math.pi / 2), abs=1e-12
            )


class TestPolys:
    def test_cheb_eval_matches_numpy(self):
        rng = np.random.default_rng(2)
        coeffs = tuple(rng.standard_normal(8))
        p = ChebPoly((-2.0, 3.0), coeffs)
        xs = rng.uniform(-2, 3, 40)
        s = (2 * xs - 1.0) / 5.0
        want = np.polynomial.chebyshev.chebval(s, coeffs)
        assert np.allclose(p(xs), want, rtol=1e-13, atol=1e-13)

    def test_cheb_deriv(self):
        p = ChebPoly((0.0, 2.0), (0.5, 1.0, -0.25, 2.0))
        xs = np.linspace(0.1, 1.9, 11)
        h = 1e-6
        fd = (p(xs + h) - p(xs - h)) / (2 * h)
        assert np.allclose(p.deriv()(xs), fd, rtol=1e-7, atol=1e-7)

    def test_cheb_valid_outside_interval(self):
        p = ChebPoly((-1.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0))  # T_4
        assert p(2.0) == pytest.approx(97.0, rel=1e-14)


def cheb_lp(degree, objective_point, points):
    """LPProblem for max P'(objective_point) over Chebyshev coefficients on [-1, 1]."""
    C = np.polynomial.chebyshev
    pts = np.asarray(points, dtype=float)
    # column k of chebder(I) is the derivative of T_k
    objective = C.chebval(objective_point, C.chebder(np.eye(degree + 1)))
    return LPProblem(objective=objective, constraint_points=pts,
                     rows=C.chebvander(pts, degree))


class TestLP:
    def test_degree1_three_points(self):
        prob = cheb_lp(1, 1.0, [-1.0, 0.0, 1.0])
        value, coeffs, active = lp_maximize(prob)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert coeffs == pytest.approx([0.0, 1.0], abs=1e-9)  # P(x) = x
        assert set(np.round(active, 12)) == {-1.0, 1.0}

    def test_degree0(self):
        # the derivative objective of a constant is 0; use a value objective instead
        prob = LPProblem(
            objective=np.array([1.0]),
            constraint_points=np.array([-1.0, 1.0]),
            rows=np.ones((2, 1)),
        )
        value, coeffs, _ = lp_maximize(prob)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert coeffs == pytest.approx([1.0], abs=1e-10)

    def test_degree5_markov_value(self):
        pts = np.cos(np.linspace(0, np.pi, 2000))
        prob = cheb_lp(5, 1.0, pts)
        value, coeffs, _ = lp_maximize(prob)
        assert value == pytest.approx(25.0, rel=2e-4)  # finite-grid relaxation
        assert coeffs[5] == pytest.approx(1.0, abs=1e-3)  # witness close to T_5

    def test_grid_too_sparse(self):
        with pytest.raises(SetSpecError):
            cheb_lp(5, 1.0, [-1.0, 0.0, 1.0])

    def test_value_monotone_under_refinement(self):
        coarse = np.cos(np.linspace(0, np.pi, 40))
        fine = np.cos(np.linspace(0, np.pi, 400))
        v_coarse, _, _ = lp_maximize(cheb_lp(5, 1.0, coarse))
        v_fine, _, _ = lp_maximize(cheb_lp(5, 1.0, fine))
        assert v_fine <= v_coarse + 1e-9

    def test_witness_feasible(self):
        pts = np.cos(np.linspace(0, np.pi, 300))
        prob = cheb_lp(7, 1.0, pts)
        _, coeffs, _ = lp_maximize(prob)
        assert np.max(np.abs(prob.rows @ coeffs)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("box", [False, True], ids=["rows-active", "box-active"])
    def test_duality_gap_audit(self, monkeypatch, box):
        from equipot import numerics

        if box:
            # |y| <= 0.5 binds before the rows do, so only the box marginals are nonzero
            prob = LPProblem(objective=np.array([1.0]), constraint_points=np.array([-1.0, 1.0]),
                             rows=np.ones((2, 1)), var_bound=0.5)
        else:
            prob = cheb_lp(5, 1.0, np.cos(np.linspace(0, np.pi, 200)))
        assert lp_maximize(prob)[0] > 0.0  # the audit passes on the real marginals
        real = numerics.linprog

        def doubled_marginals(*args, **kwargs):
            res = real(*args, **kwargs)
            for part in (res.ineqlin, res.lower, res.upper):
                part.marginals = 2.0 * part.marginals
            return res

        monkeypatch.setattr(numerics, "linprog", doubled_marginals)
        with pytest.raises(NumericsError, match="duality gap"):
            lp_maximize(prob)
