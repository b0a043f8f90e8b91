"""Equilibrium measures on finite unions of closed intervals.

For K = union of m non-degenerate intervals the equilibrium density has the
closed form

    w(t) = |q(t)| / (pi * sqrt(prod_j |t - a_j| |t - b_j|)),   t in Int(K),

where q is the monic polynomial of degree m - 1 whose integral against the
weight vanishes over every bounded gap; q has exactly one root per gap.

``solve_equilibrium`` determines q through its roots: freezing all roots
but the k-th turns gap k's vanishing condition into a weighted mean

    lambda_k = int_gap t |R_k| W / int_gap |R_k| W,

which always lands inside the gap, and sweeping the gaps in order is a
rapidly convergent fixed-point iteration (a dozen sweeps for 64 intervals).
Products over roots and endpoints are accumulated in log space, so density
and gap-polynomial values stay well scaled at any number of components;
a coefficient-form solve would lose all precision beyond ~30 gaps.

The logarithmic potential is evaluated spectrally: with t = mid + half*s on
a component and G the smooth factor of w there, the component's
contribution to U(x) = int log(1/|x-t|) w(t) dt is a closed-form series in
the Chebyshev coefficients of G, valid for x inside the component, in a
gap, or outside the set, with geometric convergence and no special handling
of the log singularity.

Also here: the explicit point-mass balayage kernel onto an interval, its
edge limit, the density decomposition residual on the run-up interval
[a - rho, a], edge-limit profiles, and the outer-approximant convergence
study for the edge factor.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .config import DEFAULTS, NumericsConfig
from .errors import NumericsError, SetSpecError
from .interval_sets import EndpointContext, IntervalSet, outer_approx
from .numerics import _gauss_cheb_adaptive, chebyshev_expand

# density is undefined within this fraction of its component's half-length
# of an endpoint
DENSITY_EDGE_GUARD = 1e-12
# interior points at which the Robin constant is read off the potential
ROBIN_PROBE_COUNT = 5


@dataclasses.dataclass(frozen=True)
class ComponentTable:
    """Chebyshev expansion of the smooth density factor on one component.

    With t = mid + half*s, G(s) collects |q(t)| and the square roots of the
    distances to all endpoints of the *other* components, so that
    w(t) dt = G(s)/sqrt(1 - s^2) * half ds on the component.  The leading
    coefficient carries the component's equilibrium mass.
    """

    mid: float
    half: float
    coeffs: tuple[float, ...]

    @property
    def mass(self) -> float:
        return self.half * math.pi * self.coeffs[0]


@dataclasses.dataclass(frozen=True)
class EquilibriumData:
    """A solved set: roots of the gap polynomial, Robin constant, capacity,
    total density mass, and per-component tables."""

    set: IntervalSet
    roots: tuple[float, ...]
    robin: float
    cap: float
    mass: float
    tables: tuple[ComponentTable, ...] = dataclasses.field(repr=False)


@dataclasses.dataclass(frozen=True)
class BalayageQuery:
    """Point mass at x swept onto the interval [b, a]; x strictly outside."""

    x: float
    b: float
    a: float

    def __post_init__(self) -> None:
        if not self.b < self.a:
            raise SetSpecError(f"balayage target needs b < a, got [{self.b}, {self.a}]")
        guard = 1e-12 * (self.a - self.b)
        if self.b - guard <= self.x <= self.a + guard:
            raise SetSpecError(f"source point {self.x} must lie outside [{self.b}, {self.a}]")


# ---------------------------------------------------------------------------
# gap polynomial


def _log_weight(t: np.ndarray, roots: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """sum_k log|t - roots_k| - 1/2 sum_j log|t - ends_j|, vectorised over t.

    The log of pi * w(t) when ``roots`` are the gap-polynomial roots and
    ``ends`` all endpoints; with some of either left out, the log of the
    factor that multiplies the omitted ones.  Either array may be empty.
    """
    t = t[:, None]
    return (np.sum(np.log(np.abs(t - roots)), axis=1)
            - 0.5 * np.sum(np.log(np.abs(t - ends)), axis=1))


def _q_sign(roots: np.ndarray, t: float) -> int:
    """Sign of q(t) from the parity of the roots above t."""
    return -1 if (np.sum(roots > t) % 2) else 1


def _gap_mean(
    gap: tuple[float, float],
    other_roots: np.ndarray,
    other_ends: np.ndarray,
    cfg: NumericsConfig,
) -> float:
    """Weighted gap mean int_gap t |R| W / int_gap |R| W.

    R is the product over ``other_roots`` and W the weight over
    ``other_ends``, the endpoints that do not bound the gap.  With the other
    roots frozen, the mean is the root that meets the gap's vanishing
    condition.
    """
    g0, g1 = gap
    # fixed rescaling so the adaptive quadrature sees one function
    shift = _log_weight(np.array([(g0 + g1) / 2.0]), other_roots, other_ends)[0]

    def f(t):
        g = np.exp(_log_weight(t, other_roots, other_ends) - shift)
        return np.vstack([t * g, g])

    moments = _gauss_cheb_adaptive(f, g0, g1, cfg)
    return float(moments[0] / moments[1])


def _gap_others(K: IntervalSet) -> list[np.ndarray]:
    """Per gap, the endpoints of K that do not bound it."""
    ends = np.asarray(K.endpoints())
    return [ends[(ends != g0) & (ends != g1)] for g0, g1 in K.gaps()]


def _solve_gap_roots(K: IntervalSet, cfg: NumericsConfig) -> np.ndarray:
    """Fixed-point sweeps for the gap roots; one root per bounded gap."""
    gaps = K.gaps()
    others = _gap_others(K)
    lam = np.array([(g0 + g1) / 2.0 for g0, g1 in gaps])
    lengths = np.array([g1 - g0 for g0, g1 in gaps])
    max_sweeps = 300
    floor_tol = 1e-13
    prev_delta = np.inf
    for _ in range(max_sweeps):
        delta = 0.0
        for k, gap in enumerate(gaps):
            new = _gap_mean(gap, np.delete(lam, k), others[k], cfg)
            delta = max(delta, abs(new - lam[k]) / lengths[k])
            lam[k] = new
        if delta < floor_tol or delta >= prev_delta:
            return lam
        prev_delta = delta
    raise NumericsError(
        f"gap-root iteration did not converge in {max_sweeps} sweeps (delta {delta:.2e})"
    )


def _verify_gap_conditions(
    K: IntervalSet, roots: np.ndarray, cfg: NumericsConfig
) -> None:
    """Residual audit: each root must be the weighted gap mean it defines.

    Equivalent to the vanishing of int_gap q W (divide by the constant-sign
    cofactor); stated this way the integrands stay smooth.
    """
    for k, ((g0, g1), others) in enumerate(zip(K.gaps(), _gap_others(K))):
        mean = _gap_mean((g0, g1), np.delete(roots, k), others, cfg)
        resid = abs(mean - roots[k]) / (g1 - g0)
        if resid > 5e-10:
            raise NumericsError(f"gap condition residual {resid:.2e} in gap {k}")


def solve_equilibrium(K: IntervalSet, cfg: NumericsConfig = DEFAULTS) -> EquilibriumData:
    """Solve for the equilibrium measure of K."""
    if K.has_degenerate():
        raise SetSpecError("equilibrium needs all intervals non-degenerate; widen() first")
    roots = _solve_gap_roots(K, cfg)
    _verify_gap_conditions(K, roots, cfg)
    tables = _component_tables(K, roots)
    mass = float(sum(tab.mass for tab in tables))
    probes = _robin_probes(K)
    robin = float(np.mean([_potential_from_tables(tables, x) for x in probes]))
    cap = math.exp(-robin)
    return EquilibriumData(
        set=K, roots=tuple(float(r) for r in roots), robin=robin, cap=cap,
        mass=mass, tables=tables,
    )


def _component_tables(K: IntervalSet, roots: np.ndarray) -> tuple[ComponentTable, ...]:
    ends = np.asarray(K.endpoints())
    tables = []
    for (u, v) in K.intervals:
        mid, half = (u + v) / 2.0, (v - u) / 2.0
        others = ends[(ends != u) & (ends != v)]

        def G(s, _others=others, _mid=mid, _half=half):
            return np.exp(_log_weight(_mid + _half * s, roots, _others)) / (np.pi * _half)

        coeffs = chebyshev_expand(G, -1.0, 1.0)
        tables.append(
            ComponentTable(mid=mid, half=half, coeffs=tuple(float(x) for x in coeffs))
        )
    return tuple(tables)


def _robin_probes(K: IntervalSet) -> list[float]:
    """ROBIN_PROBE_COUNT deterministic interior points spread over the set."""
    if K.m >= ROBIN_PROBE_COUNT:
        idx = np.unique(np.round(np.linspace(0, K.m - 1, ROBIN_PROBE_COUNT)).astype(int))
        return [(K.intervals[j][0] + K.intervals[j][1]) / 2.0 for j in idx]
    probes = [(u + v) / 2.0 for u, v in K.intervals]
    widest = max(range(K.m), key=lambda j: K.intervals[j][1] - K.intervals[j][0])
    u, v = K.intervals[widest]
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    extra = ROBIN_PROBE_COUNT - K.m
    angles = np.pi * np.arange(1, extra + 1) / (extra + 2)
    probes.extend(mid + half * 0.8 * np.cos(angles))
    return probes[:ROBIN_PROBE_COUNT]


# ---------------------------------------------------------------------------
# pointwise evaluation


def q_value(E: EquilibriumData, t: float) -> float:
    """Signed gap-polynomial value, stable at any degree."""
    r = np.asarray(E.roots)
    return _q_sign(r, t) * float(np.exp(_log_weight(np.array([t]), r, np.empty(0))[0]))


def density(E: EquilibriumData, t: float):
    """Equilibrium density w(t) strictly inside a component of the set.

    ``t`` may be a scalar or an array of points, evaluated together.  Points
    within DENSITY_EDGE_GUARD times their component's half-length of an
    endpoint are refused, so the guard scales with the set.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ends = np.asarray(E.set.endpoints())
    # t lies in a component iff an odd number of endpoints are <= t
    above = np.searchsorted(ends, t_arr, side="right")
    outside = above % 2 == 0
    j = 2 * np.clip((above - 1) // 2, 0, E.set.m - 1)
    u, v = ends[j], ends[j + 1]
    near = np.minimum(t_arr - u, v - t_arr) <= DENSITY_EDGE_GUARD * (v - u) / 2.0
    bad = outside | near
    if np.any(bad):
        raise SetSpecError(
            f"density undefined at {t_arr[np.argmax(bad)]}: not strictly inside a "
            f"component (guard {DENSITY_EDGE_GUARD} of its half-length)"
        )
    out = np.exp(_log_weight(t_arr, np.asarray(E.roots), ends)) / np.pi
    return out if np.ndim(t) else float(out[0])


def omega_factor(E: EquilibriumData, a: float) -> float:
    """Edge factor Omega(K, a) = lim_{t -> a-} w(t) sqrt(a - t) at a right endpoint."""
    rights = [r for _, r in E.set.intervals]
    if a not in rights:
        raise SetSpecError(f"{a} is not a right endpoint of the set")
    ends = np.asarray(E.set.endpoints())
    others = ends[ends != a]
    if len(others) != len(ends) - 1:
        raise SetSpecError("degenerate interval at the distinguished endpoint")
    logw = float(_log_weight(np.array([a]), np.asarray(E.roots), others)[0])
    return math.exp(logw) / math.pi


def _phi_terms(xi: float, nterms: int) -> tuple[float, np.ndarray]:
    """Closed forms of (1/pi) int log(1/|xi - s|) T_k(s)/sqrt(1-s^2) ds.

    Inside [-1, 1]: log 2 for k = 0 and T_k(xi)/k for k >= 1; outside, with
    zeta = |xi| + sqrt(xi^2 - 1): log 2 - log zeta and sign(xi)^k zeta^-k /k.
    """
    ks = np.arange(1, nterms) if nterms > 1 else np.empty(0)
    if abs(xi) <= 1.0:
        theta = math.acos(min(1.0, max(-1.0, xi)))
        return math.log(2.0), (np.cos(ks * theta) / ks if len(ks) else ks)
    lz = math.log(abs(xi) + math.sqrt(xi * xi - 1.0))
    signs = np.ones(len(ks)) if xi > 0 else (-1.0) ** ks
    return math.log(2.0) - lz, (signs * np.exp(-ks * lz) / ks if len(ks) else ks)


def _potential_from_tables(tables: Sequence[ComponentTable], x: float) -> float:
    total = 0.0
    for tab in tables:
        xi = (x - tab.mid) / tab.half
        c = np.asarray(tab.coeffs)
        phi0, phik = _phi_terms(xi, len(c))
        series = c[0] * (phi0 + math.log(1.0 / tab.half))
        if len(c) > 1:
            series += float(c[1:] @ phik)
        total += tab.half * math.pi * series
    return total


def equilibrium_potential(E: EquilibriumData, x: float) -> float:
    """Logarithmic potential U(x) = int log(1/|x - t|) dnu(t), any real x."""
    if not math.isfinite(x):
        raise SetSpecError(f"potential needs finite x, got {x}")
    return _potential_from_tables(E.tables, x)


def green(E: EquilibriumData, z: float) -> float:
    """Green's function with pole at infinity, g(z) = -U(z) - log cap, real z.

    Clamped to exactly 0 when z lies in the set and the computed value is
    within 1e-9 of zero.
    """
    g = E.robin - equilibrium_potential(E, z)
    if abs(g) <= 1e-9 and E.set.contains(z):
        return 0.0
    return g


# ---------------------------------------------------------------------------
# balayage


def balayage_density(qy: BalayageQuery, t) -> float:
    """Density at t of the balayage of a point mass at qy.x onto [qy.b, qy.a]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= qy.b) or np.any(t_arr >= qy.a):
        raise SetSpecError(f"density point must lie strictly inside [{qy.b}, {qy.a}]")
    x, b, a = qy.x, qy.b, qy.a
    num = math.sqrt(abs(x - b) * abs(x - a))
    out = num / (np.pi * np.abs(t_arr - x) * np.sqrt(np.abs(t_arr - a) * np.abs(t_arr - b)))
    return out if t_arr.ndim else float(out)


def balayage_edge_limit(qy: BalayageQuery) -> float:
    """lim_{t -> a-} sqrt(a - t) * balayage_density(qy, t)."""
    x, b, a = qy.x, qy.b, qy.a
    return math.sqrt(abs(x - b)) / (math.pi * math.sqrt(abs(x - a) * abs(a - b)))


def balayage_mass(qy: BalayageQuery, cfg: NumericsConfig = DEFAULTS) -> float:
    """Total swept mass; 1 for any admissible query (regression check)."""
    x, b, a = qy.x, qy.b, qy.a
    num = math.sqrt(abs(x - b) * abs(x - a))

    def f(t):
        return num / (np.pi * np.abs(t - x))

    return float(_gauss_cheb_adaptive(f, b, a, cfg))


def decomposition_residual(
    E: EquilibriumData,
    ctx: EndpointContext,
    t: float,
    cfg: NumericsConfig = DEFAULTS,
) -> float:
    """|w_K(t) - (w_[b,a](t) - int_{K \\ [b,a]} Bal(x; t) dnu(x))| with b = a - rho.

    The run-up density dominates w_K pointwise; the correction integral runs
    over all of K left of b.  Full components keep their own endpoint
    singularities; the truncated home component contributes a smooth
    integrand because the kernel's sqrt|x - b| factor cancels the
    quadrature weight's artificial cut at b.
    """
    a, rho = ctx.a, ctx.rho
    b = a - rho
    if not (b < t < a):
        raise SetSpecError(f"probe {t} must lie in (a - rho, a) = ({b}, {a})")
    lhs = density(E, t)
    interval_term = 1.0 / (np.pi * math.sqrt((t - b) * (a - t)))

    ends = np.asarray(E.set.endpoints())
    roots = np.asarray(E.roots)
    home = E.set.component_of(a)
    hu, _ = E.set.intervals[home]
    correction = 0.0

    def bal(x):
        return (
            np.sqrt(np.abs(x - b) * np.abs(x - a))
            / (np.pi * np.abs(t - x) * math.sqrt(abs(t - a) * abs(t - b)))
        )

    def w_smooth(x, excluded):
        return np.exp(_log_weight(x, roots, ends[~np.isin(ends, excluded)])) / np.pi

    for j, (u, v) in enumerate(E.set.intervals):
        if j == home:
            continue

        def f_full(x, _u=u, _v=v):
            return bal(x) * w_smooth(x, np.array([_u, _v]))

        correction += float(_gauss_cheb_adaptive(f_full, u, v, cfg))

    if hu < b:

        def f_home(x):
            return bal(x) * w_smooth(x, np.array([hu])) * np.sqrt(b - x)

        correction += float(_gauss_cheb_adaptive(f_home, hu, b, cfg))

    rhs = interval_term - correction
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# studies


def edge_limit_profile(
    E: EquilibriumData,
    a: float,
    offsets: Sequence[float],
) -> list[tuple[float, float]]:
    """Table of (delta, w(a - delta) * sqrt(delta)) for empirical rate checks."""
    offs = [float(d) for d in offsets]
    if any(d <= 0 for d in offs):
        raise SetSpecError("offsets must be positive")
    if any(d2 >= d1 for d1, d2 in zip(offs, offs[1:])):
        raise SetSpecError("offsets must be strictly decreasing")
    home = E.set.component_of(a)
    hu, hv = E.set.intervals[home]
    if hv != a:
        raise SetSpecError(f"{a} is not the right endpoint of its component")
    if offs[0] >= hv - hu:
        raise SetSpecError("largest offset leaves the component interval")
    return [(d, density(E, a - d) * math.sqrt(d)) for d in offs]


def outer_convergence_study(
    K: IntervalSet,
    ctx: EndpointContext,
    m_list: Sequence[int],
    cfg: NumericsConfig = DEFAULTS,
) -> list[tuple[int, float]]:
    """Omega(K_m^+, a) along the outer filtration; nondecreasing in m."""
    out = []
    for m in m_list:
        Km = outer_approx(K, ctx, int(m))
        Em = solve_equilibrium(Km, cfg)
        out.append((int(m), omega_factor(Em, ctx.a)))
    return out


# ---------------------------------------------------------------------------
# export


def to_record(E: EquilibriumData, a: float | None = None) -> dict:
    """JSON-ready record {set, roots, cap, robin, mass[, omega]}.

    ``roots`` are the gap-polynomial roots, one per bounded gap; q itself is
    their monic product (see ``q_value``), whose monomial coefficients are
    numerically meaningless beyond a few dozen gaps.
    """
    rec = {
        "set": {"intervals": [[l, r] for l, r in E.set.intervals]},
        "roots": list(E.roots),
        "cap": E.cap,
        "robin": E.robin,
        "mass": E.mass,
    }
    if a is not None:
        rec["omega"] = {"a": a, "value": omega_factor(E, a)}
    return rec


def density_table(
    E: EquilibriumData, points_per_component: int = 200
) -> list[tuple[float, float]]:
    """(t, w(t)) rows on interior arccos-spaced grids, one block per component."""
    rows = []
    theta = np.linspace(0.0, np.pi, points_per_component + 2)[1:-1]
    for (u, v) in E.set.intervals:
        ts = (u + v) / 2.0 + (v - u) / 2.0 * np.cos(theta[::-1])
        rows.extend(zip(ts.tolist(), density(E, ts).tolist()))
    return rows
