"""Affine covariance of the equilibrium solve, as properties over random
unions of 2-6 intervals scaled by alpha = +-2^k, |alpha| from 1e-100 to
1e100.  A power of two scales every endpoint exactly, so the scaled set is
exactly alpha K and any difference is the solver's own.  Capacity is also
checked to be monotone under inclusion.  Derandomised, so the examples are
the same on every run."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equipot import IntervalSet, density, green, omega_factor, solve_equilibrium

# 2^-332 ~ 1.1e-100 and 2^332 ~ 8.7e99
SCALE_EXP = 332


@st.composite
def unions(draw):
    """A union of 2-6 intervals in [-5, 5], lengths and gaps at least 0.05."""
    m = draw(st.integers(2, 6))
    cuts = draw(st.lists(st.floats(0.05, 1.0), min_size=2 * m - 1, max_size=2 * m - 1))
    pts = -5.0 + np.concatenate([[0.0], np.cumsum(cuts)]) * 10.0 / math.fsum(cuts) * 0.999
    return IntervalSet(tuple(zip(pts[0::2].tolist(), pts[1::2].tolist())))


def scaled(K: IntervalSet, alpha: float) -> IntervalSet:
    return IntervalSet(tuple(sorted(tuple(sorted((alpha * u, alpha * v))) for u, v in K.intervals)))


COVARIANCE = settings(derandomize=True, max_examples=50, deadline=None)


@COVARIANCE
@given(unions(), st.integers(-SCALE_EXP, SCALE_EXP), st.sampled_from([-1.0, 1.0]))
def test_capacity_scales_with_alpha(K, k, sign):
    alpha = sign * 2.0 ** k
    got = solve_equilibrium(scaled(K, alpha)).cap
    want = abs(alpha) * solve_equilibrium(K).cap
    assert abs(got / want - 1.0) <= 1e-13


@COVARIANCE
@given(unions(), st.integers(-SCALE_EXP, SCALE_EXP), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 5))
def test_omega_scales_with_alpha_to_the_minus_half(K, k, sign, j):
    # a right endpoint a of sign K; alpha a is a right endpoint of alpha K
    base = scaled(K, sign)
    a = base.intervals[j % base.m][1]
    got = omega_factor(solve_equilibrium(scaled(K, sign * 2.0 ** k)), a * 2.0 ** k)
    want = 2.0 ** (-k / 2) * omega_factor(solve_equilibrium(base), a)
    assert abs(got / want - 1.0) <= 1e-13


@COVARIANCE
@given(unions(), st.integers(-SCALE_EXP, SCALE_EXP), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 5), st.floats(0.01, 0.99))
def test_density_scales_with_alpha(K, k, sign, j, f):
    # t at fraction f across component j of K
    u, v = K.intervals[j % K.m]
    t = u + f * (v - u)
    alpha = sign * 2.0 ** k
    got = abs(alpha) * density(solve_equilibrium(scaled(K, alpha)), alpha * t)
    want = density(solve_equilibrium(K), t)
    assert abs(got / want - 1.0) <= 1e-13


@COVARIANCE
@given(unions(), st.integers(-SCALE_EXP, SCALE_EXP), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 6), st.floats(0.01, 0.99))
def test_green_invariant_under_scaling(K, k, sign, j, f):
    # z at fraction f across gap j of K; past the last gap, z lies right
    # (then left) of K at a distance 10 f/(1 - f), from 0.1 to 990
    ends = K.intervals
    j %= K.m + 1
    if j < K.m - 1:
        z = ends[j][1] + f * (ends[j + 1][0] - ends[j][1])
    elif j == K.m - 1:
        z = ends[-1][1] + 10.0 * f / (1.0 - f)
    else:
        z = ends[0][0] - 10.0 * f / (1.0 - f)
    alpha = sign * 2.0 ** k
    got = green(solve_equilibrium(scaled(K, alpha)), alpha * z)
    want = green(solve_equilibrium(K), z)
    assert want > 0.0
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@COVARIANCE
@given(unions(), st.integers(0, 5), st.floats(0.0, 0.8), st.floats(0.0, 0.8))
def test_capacity_monotone_under_inclusion(K, i, left, right):
    # S is K with component i widened by the fractions left and right of
    # the gaps beside it (by as much of 1.0 where it has no neighbour)
    ends = list(K.intervals)
    i %= K.m
    u, v = ends[i]
    room_left = u - ends[i - 1][1] if i > 0 else 1.0
    room_right = ends[i + 1][0] - v if i < K.m - 1 else 1.0
    ends[i] = (u - left * room_left, v + right * room_right)
    S = IntervalSet(tuple(ends))
    assert solve_equilibrium(K).cap <= solve_equilibrium(S).cap * (1.0 + 1e-13)
