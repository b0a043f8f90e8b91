import numpy as np
import pytest

from equipot import IntervalSet, solve_equilibrium


@pytest.fixture(scope="session")
def E_unit():
    return solve_equilibrium(IntervalSet(((-1.0, 1.0),)))


@pytest.fixture(scope="session")
def E_wide():
    return solve_equilibrium(IntervalSet(((-2.0, 1.0),)))


@pytest.fixture(scope="session")
def E_sym2():
    return solve_equilibrium(IntervalSet(((-1.0, -0.5), (0.5, 1.0))))


@pytest.fixture(scope="session")
def E_asym2():
    return solve_equilibrium(IntervalSet(((-2.0, 0.0), (1.0, 2.0))))


def random_interval_set(rng: np.random.Generator, max_components: int = 8,
                        lo: float = -5.0, hi: float = 5.0,
                        min_len: float = 0.05, min_gap: float = 0.05) -> IntervalSet:
    """Random disjoint union with minimum component length and gap."""
    m = int(rng.integers(1, max_components + 1))
    while True:
        pts = np.sort(rng.uniform(lo, hi, 2 * m))
        lengths = pts[1::2] - pts[0::2]
        gaps = pts[2::2] - pts[1:-1:2]
        if np.all(lengths >= min_len) and (len(gaps) == 0 or np.all(gaps >= min_gap)):
            return IntervalSet(tuple(zip(pts[0::2], pts[1::2])))


def arccos_grid(K: IntervalSet, per_component: int) -> np.ndarray:
    """``per_component`` arccos-spaced points on each component, clipped onto
    it (mid -/+ half can round one ulp past an end), sorted, without repeats."""
    u, v = np.asarray(K.intervals).T
    x = (u + v)[:, None] / 2.0 + (v - u)[:, None] / 2.0 * np.cos(np.linspace(0.0, np.pi, per_component))
    return np.unique(np.clip(x, u[:, None], v[:, None]))


def is_subset(K: IntervalSet, S: IntervalSet) -> bool:
    """Exact point-set decision K <= S by interval arithmetic."""
    j = 0
    for l, r in K.intervals:
        while j < S.m and S.intervals[j][1] < l:
            j += 1
        if j == S.m or not (S.intervals[j][0] <= l and r <= S.intervals[j][1]):
            return False
    return True
