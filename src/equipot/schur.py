"""Witness constructions and audits for the local endpoint growth bound.

The bound under audit: if |P_n(x)| <= h(x)/sqrt(a - x) on the run-up
interval [a - rho, a) (local hypothesis) and ||P_n||_K^{1/n} stays bounded
by 1 (global hypothesis), then ||P_n||_[a-rho,a] <= n(1+o(1)) 2 pi h(a)
Omega(K, a), and this is sharp.

Sharpness witnesses are built on polynomial inverse images
K* = T_N^{-1}[-1, 1]:

    P_n(x) = h(a) * H_m(T_N(x)) * U_d(x) * sqrt(2 |T_N'(a)|) / (1 + eta)^2,

with H_m = T_{m+1}' / (m+1) = U_m (the classical extremal family with
|H_m(+-1)| = m + 1), m = floor((n - sqrt n)/N), and U_d a peaking
polynomial of degree d = floor(sqrt n) equal to 1 at a.  Two closed-form
inverse-image families ship: the affine map of a single interval (N = 1)
and the symmetric quadratic family T_2(x) = (2x^2 - 1 - alpha^2)/(1 -
alpha^2) with T_2^{-1}[-1, 1] = [-1, -alpha] u [alpha, 1] (N = 2).

Each factor is evaluated in the closed form that defines it.  A map gives
p, q = 1 -+ T_N as products of distances, T_N = (q - p)/(q + p), and its
slope T_N'(a) in closed form.  ``_cheb_u`` takes H_m(T_N(x)) in angle form,
U_m(cos t) = sin((m+1) t)/sin t, with t from p and q, so T_N(x) is never
rounded near +-1, where H_m is steepest.  U_d is a plain power.

``counterexample_demo`` audits H_n = T_{n+1}'/(n+1) on [-2, 1]: it satisfies the
local hypothesis with h(x) = 1/sqrt(1+x) but violates the global one, and
its endpoint value n + 1 exceeds the bound's threshold - showing the global
hypothesis cannot be dropped.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .equilibrium import EquilibriumData, omega_factor, solve_equilibrium
from .errors import SetSpecError
from .extremal import _poly_norm_on_set
from .interval_sets import EndpointContext, IntervalSet, check_interval_condition


@dataclasses.dataclass(frozen=True)
class InverseImageMap:
    """T_N with T_N^{-1}[-1, 1] equal to ``target_set`` and ``slope`` = T_N'(a);
    ``factors(x)`` is p = c (1 - T_N(x)), q = c (1 + T_N(x)) for a c > 0, as
    products of distances, and T_N(x) = (q - p)/(q + p)."""

    N: int
    target_set: IntervalSet
    a: float
    slope: float
    factors: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __call__(self, x):
        p, q = self.factors(np.asarray(x, dtype=float))
        out = (q - p) / (q + p)
        return out if out.ndim else float(out)


def affine_inverse_image(u: float, v: float) -> InverseImageMap:
    """N = 1 family: the affine map of [u, v] onto [-1, 1]."""
    if not u < v:
        raise SetSpecError(f"affine map needs u < v, got [{u}, {v}]")
    return InverseImageMap(N=1, target_set=IntervalSet(((u, v),)), a=v, slope=2.0 / (v - u),
                           factors=lambda x: (v - x, x - u))


def quadratic_inverse_image(alpha: float) -> InverseImageMap:
    """N = 2 family: T_2(x) = (2x^2 - 1 - alpha^2)/(1 - alpha^2) maps both
    [-1, -alpha] and [alpha, 1] onto [-1, 1]; a = 1 and T_2'(1) = 4/(1 - alpha^2)."""
    if not 0.0 < alpha < 1.0:
        raise SetSpecError(f"alpha must lie in (0, 1), got {alpha}")
    target = IntervalSet(((-1.0, -alpha), (alpha, 1.0)))
    return InverseImageMap(N=2, target_set=target, a=1.0, slope=4.0 / (1.0 - alpha * alpha),
                           factors=lambda x: ((1.0 - x) * (1.0 + x), (x - alpha) * (x + alpha)))


def _cheb_u(m: int, p, q):
    """U_m(w) from p = c (1 - w) and q = c (1 + w), for any common c > 0.

    U_m(-w) = (-1)^m U_m(w) folds every point onto w >= 0 (p <= q).  On
    [0, 1], w = cos(theta) with tan(theta/2) = sqrt(p/q), so theta comes
    from the factored distance to w = 1, never from 1 - w, and U_m =
    sin((m+1) theta)/sin(theta).  Beyond 1 (p < 0), w = cosh(phi) with
    e^phi - 1 = 2 sqrt(-p) (sqrt(-p) + sqrt(q))/(p + q), a sum of positive
    terms over p + q = 2c (tanh(phi/2) = sqrt(-p/q) would lose m eps |w| to
    the rounding of the ratio), and U_m = sinh((m+1) phi)/sinh(phi) is
    formed as e^{m phi} (1 - e^{-2(m+1) phi})/(1 - e^{-2 phi}), which
    overflows to +-inf, not to inf - inf.  Both limits at w = 1 are m + 1.
    Each point costs O(1) whatever m, and its value does not depend on the
    other points it is evaluated with.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    out = np.ones(lo.shape)
    if m > 0:
        inside = lo >= 0.0
        beyond = ~inside  # nan lands here and stays nan
        th = 2.0 * np.arctan2(np.sqrt(lo[inside]), np.sqrt(hi[inside]))
        with np.errstate(invalid="ignore"):
            out[inside] = np.where(th == 0.0, m + 1.0, np.sin((m + 1) * th) / np.sin(th))
        s, t, two_c = np.sqrt(-lo[beyond]), np.sqrt(hi[beyond]), lo[beyond] + hi[beyond]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # two_c > 0 in exact arithmetic; if rounding cancels it, phi = inf
            phi = np.log1p(2.0 * s * (s + t) / np.maximum(two_c, 0.0))
            u = np.exp(m * phi) * np.expm1(-2.0 * (m + 1) * phi) / np.expm1(-2.0 * phi)
        out[beyond] = np.where(phi == 0.0, m + 1.0, u)
        if m % 2:
            out[q < p] *= -1.0
    return out if out.ndim else float(out)


def h_poly(m: int, w):
    """H_m(w) = T_{m+1}'(w)/(m+1) = U_m(w); |H_m(+-1)| = m + 1, |H_m| <= 1/sqrt(1-w^2) inside.

    O(1) per point.  Beyond [-1, 1] the accuracy rests on the rounded 1 - w
    and 1 + w still summing to about 2: it degrades as |w| nears 2**53, and
    from 2**54 on the value is +-inf for m > 0.
    """
    if m < 0:
        raise SetSpecError(f"h_poly needs m >= 0, got {m}")
    w = np.asarray(w, dtype=float)
    return _cheb_u(m, 1.0 - w, 1.0 + w)


def peaking_poly(K: IntervalSet, a: float, d: int) -> Callable:
    """U(x) = ((x - c)/(a - c))**d with c the midpoint of [min K, a].

    U(a) = 1 and |U| <= 1 on K (a must be max K); the decay away from a is
    geometric in the rescaled distance from c.  Note |U| = 1 again at the
    mirror point 2c - a = min K, so the peak is one-sided.  Binary powering
    (relative error about (d - 1) eps/2) gives a point the same bytes alone
    as inside an array, which ``np.float64 ** int`` does not.
    """
    if d < 1:
        raise SetSpecError(f"peaking degree must be >= 1, got {d}")
    if a != K.max:
        raise SetSpecError(f"peaking point {a} must be the maximum of the set")
    c = (K.min + a) / 2.0
    if a == c:
        raise SetSpecError("set is a single point; no peaking polynomial")

    def U(x):
        s = (np.asarray(x, dtype=float) - c) / (a - c)
        out = np.ones_like(s)
        for bit in bin(d)[2:]:
            out = out * out * s if bit == "1" else out * out
        return out if out.ndim else float(out)

    return U


@dataclasses.dataclass(frozen=True)
class SchurWitness:
    """Sharpness witness; evaluation on demand, degree N m + d <= n by construction."""

    n: int
    m: int
    d: int
    eta: float
    h_a: float
    map: InverseImageMap
    peak: Callable

    @property
    def scale(self) -> float:
        return math.sqrt(2.0 * abs(self.map.slope)) / (1.0 + self.eta) ** 2

    @property
    def degree(self) -> int:
        return self.map.N * self.m + self.d

    @property
    def value_at_a(self) -> float:
        return self.h_a * (self.m + 1) * self.scale

    def __call__(self, x):
        return self.h_a * _cheb_u(self.m, *self.map.factors(x)) * self.peak(x) * self.scale


def build_witness(map: InverseImageMap, h_a: float, n: int, eta: float) -> SchurWitness:
    """Assemble the witness for degree budget n and headroom parameter eta."""
    if n < 16:
        raise SetSpecError(f"witness needs n >= 16, got {n}")
    if not 0.0 < eta <= 1.0:
        raise SetSpecError(f"eta must lie in (0, 1], got {eta}")
    if not (math.isfinite(h_a) and h_a > 0.0):
        raise SetSpecError(f"h_a must be finite and positive, got {h_a}")
    m = int((n - math.sqrt(n)) // map.N)
    d = int(math.isqrt(n))
    peak = peaking_poly(map.target_set, map.a, d)
    wit = SchurWitness(n=n, m=m, d=d, eta=eta, h_a=h_a, map=map, peak=peak)
    if wit.degree > n:
        raise SetSpecError(f"witness degree {wit.degree} exceeds budget {n}")
    return wit


def runup_grid(ctx: EndpointContext, points: int) -> np.ndarray:
    """``points`` arccos-spaced points of the run-up interval [a - rho, a),
    ascending; a itself is left out."""
    theta = np.linspace(0.0, np.pi, points + 1)[1:]
    return (ctx.a - ctx.rho / 2.0 + (ctx.rho / 2.0) * np.cos(theta))[::-1]


# points of the run-up grid on which the local hypothesis is audited
LOCAL_GRID_POINTS = 2000


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Hypothesis and conclusion checks for one polynomial at one degree.

    local_margin is the worst value of |P(x)| sqrt(a-x) / h(x) on the
    LOCAL_GRID_POINTS-point run-up grid; local_ok allows 1 + 1e-9.
    growth_estimate is ||P||_K^{1/n}, with ||P||_K the refined sup on K that
    the Bernstein audits share (``extremal._poly_norm_on_set``), inf once P
    overflows on K; a lower bound on the true norm growth.  norm_ratio and
    point_ratio compare the run-up norm and |P(a)| against
    n * 2 pi h(a) Omega(K, a).
    """

    n: int
    local_ok: bool
    local_margin: float
    growth_estimate: float
    norm_ratio: float
    point_ratio: float
    bound_threshold: float
    local_grid_points: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def audit_bound(
    P: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
    K: IntervalSet,
    ctx: EndpointContext,
    n: int,
    E: EquilibriumData,
) -> AuditReport:
    """Audit one polynomial evaluator against both hypotheses and the bound.

    h maps the array of run-up points to positive values (an array of the
    same shape, or one value for all of them); it is called once more at
    the float a for the bound threshold.
    P must have degree <= n: the growth sup-norm samples P as a cosine
    series of degree n on each component of K.
    """
    if n < 1:
        raise SetSpecError(f"audit needs degree n >= 1, got {n}")
    a = ctx.a
    xs = runup_grid(ctx, LOCAL_GRID_POINTS)
    Px = np.abs(np.asarray(P(xs), dtype=float))
    hx = np.broadcast_to(np.asarray(h(xs), dtype=float), xs.shape)
    if np.any(hx <= 0.0):
        raise SetSpecError("h must be positive on [a - rho, a]")
    local_margin = float(np.max(Px * np.sqrt(a - xs) / hx, initial=0.0))
    local_ok = local_margin <= 1.0 + 1e-9

    sup = _poly_norm_on_set(P, K, n)
    growth = sup ** (1.0 / n) if sup > 0 else 0.0

    threshold = n * 2.0 * math.pi * float(h(a)) * omega_factor(E, a)
    point = abs(float(np.asarray(P(np.array([a])), dtype=float)[0]))
    runup_sup = max(float(np.max(Px, initial=0.0)), point)
    return AuditReport(
        n=n,
        local_ok=bool(local_ok),
        local_margin=local_margin,
        growth_estimate=growth,
        norm_ratio=runup_sup / threshold if threshold > 0 else math.inf,
        point_ratio=point / threshold if threshold > 0 else math.inf,
        bound_threshold=threshold,
        local_grid_points=LOCAL_GRID_POINTS,
    )


def audit_witness(wit: SchurWitness) -> AuditReport:
    """Audit a built witness on its own target set with the constant h = h_a."""
    K = wit.map.target_set
    ctx = check_interval_condition(K, wit.map.a)
    return audit_bound(wit, lambda x: wit.h_a, K, ctx, wit.n, solve_equilibrium(K))


def counterexample_demo(n: int) -> AuditReport:
    """Audit P_n = T_{n+1}'/(n+1) on [-2, 1] with a = 1, rho = 1.

    The local hypothesis holds with h(x) = 1/sqrt(1+x), the global one fails
    (norm growth 2 + sqrt 3 from the excursion to -2), and |P_n(1)| = n + 1
    exceeds the bound threshold n * sqrt(2/3).
    """
    if n < 1:
        raise SetSpecError(f"counterexample needs n >= 1, got {n}")
    K = IntervalSet(((-2.0, 1.0),))
    ctx = check_interval_condition(K, 1.0, rho=1.0)
    E = solve_equilibrium(K)
    return audit_bound(lambda x: h_poly(n, x), lambda x: 1.0 / np.sqrt(1.0 + x), K, ctx, n, E)
