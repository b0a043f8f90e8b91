"""Closed forms that the benchmark checks equipot's outputs against.

For P = c*T_N with c > 1 the set K = P^{-1}[-1, 1] has N components, and
(polynomial inverse-image method, Totik, Acta Math. 187, 2001):

    cap K              = (c * 2**N) ** (-1/N)
    w(t)               = |P'(t)| / (N pi sqrt(1 - P(t)**2))
    Omega(K, a)        = sqrt(|P'(a)| / 2) / (N pi)
    2 pi^2 Omega^2     = |P'(a)| / N**2
    Markov at deg kN   = k**2 |P'(a)|          (witness T_k o P)

On the affine frame y = alpha*x + beta every length scales by |alpha|:
cap by |alpha|, densities by 1/|alpha|, derivatives at endpoints by
1/|alpha|.  Everything here is evaluated in angle form, x = cos(theta),
T_N(x) = cos(N theta), T_N'(x) = N sin(N theta)/sin(theta), so nothing
is shared with equipot's log-space products.

Also here: Cantor prefractals (the covariance and bound checks need only
the intervals) and the two closed forms of the quadratic Schur witness.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class ChebImage:
    """alpha * (c T_N)^{-1}[-1, 1] + beta."""

    c: float
    N: int
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c > 1.0 and self.N >= 1 and self.alpha != 0.0):
            raise ValueError(f"need c > 1, N >= 1, alpha != 0: {self}")

    def _thetas(self) -> list[tuple[float, float]]:
        """Angle pairs (theta_left, theta_right) of the canonical components.

        Component k surrounds the zero (k + 1/2) pi / N of T_N, where
        |c cos(N theta)| <= 1 means N theta in [k pi + phi, (k+1) pi - phi]
        with phi = arccos(1/c).  Listed left to right in x.
        """
        phi = math.acos(1.0 / self.c)
        N = self.N
        pairs = [(((k + 1) * math.pi - phi) / N, (k * math.pi + phi) / N) for k in range(N)]
        return pairs[::-1]

    def _endpoints(self) -> list[tuple[float, float]]:
        """(y, theta) for all 2N endpoints in the frame, ascending in y."""
        out = []
        for th_l, th_r in self._thetas():
            out.append((self.alpha * math.cos(th_l) + self.beta, th_l))
            out.append((self.alpha * math.cos(th_r) + self.beta, th_r))
        return sorted(out)

    def intervals(self) -> list[list[float]]:
        ys = [y for y, _ in self._endpoints()]
        return [[ys[2 * j], ys[2 * j + 1]] for j in range(self.N)]

    def right_endpoints(self) -> list[float]:
        return [hi for _, hi in self.intervals()]

    def cap(self) -> float:
        return abs(self.alpha) * (self.c * 2.0 ** self.N) ** (-1.0 / self.N)

    def endpoint_slope(self, a: float) -> float:
        """|Q'(a)| for Q(y) = P((y - beta)/alpha) at an endpoint a of the set.

        At an endpoint |cos(N theta)| = 1/c, so |sin(N theta)| = sqrt(1 - 1/c^2)
        and |P'| = N sqrt(c^2 - 1) / sin(theta).
        """
        for y, th in self._endpoints():
            if y == a:
                return self.N * math.sqrt(self.c ** 2 - 1.0) / math.sin(th) / abs(self.alpha)
        raise ValueError(f"{a} is not an endpoint of {self}")

    def limit_constant(self, a: float) -> float:
        """2 pi^2 Omega(K, a)^2 = |Q'(a)| / N^2."""
        return self.endpoint_slope(a) / self.N ** 2

    def markov_value(self, a: float, n: int) -> float:
        """Sharp max |p'(a)| over deg p <= n, |p| <= 1 on the set, for n = kN."""
        if n % self.N:
            raise ValueError(f"degree {n} is not a multiple of {self.N}")
        return (n // self.N) ** 2 * self.endpoint_slope(a)

    def density(self, y: float) -> float:
        """|Q'(y)| / (N pi sqrt(1 - Q(y)^2)) at an interior point y."""
        x = (y - self.beta) / self.alpha
        th = math.acos(x)
        cN = self.c * math.cos(self.N * th)
        slope = self.c * abs(math.sin(self.N * th)) / math.sin(th)
        return slope / (math.pi * math.sqrt((1.0 - cN) * (1.0 + cN)) * abs(self.alpha))


def cantor_intervals(level: int, ratio: float) -> list[list[float]]:
    """Level-`level` prefractal of [0, 1]: each interval keeps its two end
    subintervals of relative length `ratio`."""
    ivs = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for lo, hi in ivs:
            L = hi - lo
            nxt.append((lo, lo + ratio * L))
            nxt.append((hi - ratio * L, hi))
        ivs = nxt
    return [[lo, hi] for lo, hi in ivs]


def affine(intervals: list[list[float]], alpha: float, beta: float) -> list[list[float]]:
    """alpha * K + beta, re-sorted when alpha < 0."""
    out = [sorted((alpha * lo + beta, alpha * hi + beta)) for lo, hi in intervals]
    return sorted(out)


def polya_hull_bounds(intervals: list[list[float]]) -> tuple[float, float]:
    """|K|/4 <= cap K <= (max K - min K)/4 for any compact K on the line."""
    total = sum(hi - lo for lo, hi in intervals)
    return total / 4.0, (intervals[-1][1] - intervals[0][0]) / 4.0


def schur_threshold(alpha: float, n: int, h_a: float) -> float:
    """n * 2 pi h(a) Omega(K, 1) on K = [-1, -alpha] u [alpha, 1]:
    n h sqrt(2 / (1 - alpha^2))."""
    return n * h_a * math.sqrt(2.0 / (1.0 - alpha * alpha))


def schur_value_at_a(alpha: float, n: int, eta: float, h_a: float) -> float:
    """h (m + 1) sqrt(8 / (1 - alpha^2)) / (1 + eta)^2, m = floor((n - sqrt n)/2)."""
    m = math.floor((n - math.sqrt(n)) / 2.0)
    return h_a * (m + 1) * math.sqrt(8.0 / (1.0 - alpha * alpha)) / (1.0 + eta) ** 2
