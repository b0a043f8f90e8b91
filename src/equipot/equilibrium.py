"""Equilibrium measures on finite unions of closed intervals.

For K = union of m non-degenerate intervals the equilibrium density has the
closed form

    w(t) = |q(t)| / (pi * sqrt(prod_j |t - a_j| |t - b_j|)),   t in Int(K),

where q is the monic polynomial of degree m - 1 whose integral against the
weight vanishes over every bounded gap; q has exactly one root per gap.

``solve_equilibrium`` determines q through its roots.  With g_k = |R_k| W,
R_k the product over all roots but the k-th and W the weight over the
endpoints that do not bound gap k, the gap conditions read

    H_k(lambda) = int_gap_k (t - lambda_k) g_k(t) dt = 0.

Freezing the other roots turns H_k = 0 into a weighted mean lambda_k =
int t g_k / int g_k, which always lands inside the gap; that mean step is
the globaliser.  It makes the first pass, which also fixes each gap's
Gauss-Chebyshev node count, and it replaces any Newton component that
leaves its gap.  The Newton passes solve H = 0 with the Jacobian
dH_k/dlambda_k = -int g_k and dH_k/dlambda_j = -int (t - lambda_k) g_k /
(t - lambda_j), all gaps in one chunked pass; they converge quadratically
(four or five passes at 256 intervals).  An independent adaptive
quadrature per gap then verifies every condition.

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
        if not all(math.isfinite(v) for v in (self.x, self.b, self.a)):
            raise SetSpecError(
                f"balayage needs finite x, b and a, got x={self.x}, b={self.b}, a={self.a}"
            )
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


# elements in one (gaps x nodes x roots) temporary of a batched gap pass
GAP_CHUNK = 1 << 16


@dataclasses.dataclass(frozen=True)
class _GapNodes:
    """Gauss-Chebyshev nodes of the gaps that share one node count.

    ``ends_lw`` is -1/2 sum log|t - e| over the endpoints that do not bound
    the node's gap; it does not depend on the roots, so it is formed once.
    """

    idx: np.ndarray      # (g,) gap indices
    t: np.ndarray        # (g, n) nodes
    ends_lw: np.ndarray  # (g, n)

    def subset(self, keep: np.ndarray) -> "_GapNodes":
        return _GapNodes(self.idx[keep], self.t[keep], self.ends_lw[keep])


def _gap_nodes(gaps: np.ndarray, others: list[np.ndarray], idx: np.ndarray, n: int) -> _GapNodes:
    """The n nodes of ``_gauss_cheb_adaptive`` on each gap in ``idx``."""
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    g0, g1 = gaps[idx, 0, None], gaps[idx, 1, None]
    t = (g0 + g1) / 2.0 + (g1 - g0) / 2.0 * np.cos(theta)
    ends_lw = np.empty_like(t)
    for r, k in enumerate(idx):
        step = max(1, GAP_CHUNK // others[k].size)
        for b in range(0, n, step):
            ends_lw[r, b:b + step] = _log_weight(t[r, b:b + step], np.empty(0), others[k])
    return _GapNodes(idx, t, ends_lw)


def _gap_blocks(nodes: _GapNodes, G: int):
    """(gap slice, node slice) blocks of about GAP_CHUNK / G nodes each."""
    g_count, n = nodes.t.shape
    per_gap = max(1, GAP_CHUNK // (n * G))
    per_node = min(n, max(1, GAP_CHUNK // G))
    for a in range(0, g_count, per_gap):
        for b in range(0, n, per_node):
            yield slice(a, a + per_gap), slice(b, b + per_node)


def _root_diffs(nodes: _GapNodes, lam: np.ndarray, gs: slice, ns: slice) -> np.ndarray:
    """t - lam_j on one block, with 1 in the column of each gap's own root."""
    d = nodes.t[gs, ns, None] - lam
    d[np.arange(d.shape[0]), :, nodes.idx[gs]] = 1.0
    return d


def _gap_pass(nodes: _GapNodes, lam: np.ndarray, shift: np.ndarray | None = None,
              jac: bool = False):
    """One batched Gauss-Chebyshev pass over the gaps in ``nodes``.

    With g_k = |R_k| W the weight of ``_gap_mean`` (all roots but the k-th,
    all endpoints but the gap's own) and each row scaled by exp(-shift_k),
    returns per gap shift_k (by default the row's largest log g), the
    moments M0 = int g and M1 = int t g, the residual H = int (t - lam_k) g
    and, with ``jac``, the Jacobian rows dH_k/dlam_j: -M0_k on the diagonal
    and -int (t - lam_k) g / (t - lam_j) off it.
    """
    G = lam.size
    lw = nodes.ends_lw.copy()
    for gs, ns in _gap_blocks(nodes, G):
        d = _root_diffs(nodes, lam, gs, ns)
        lw[gs, ns] += np.sum(np.log(np.abs(d, out=d), out=d), axis=2)
    if shift is None:
        shift = lw.max(axis=1)
    g = np.exp(lw - shift[:, None]) * (np.pi / nodes.t.shape[1])
    ug = (nodes.t - lam[nodes.idx, None]) * g
    m0, m1, h = g.sum(axis=1), (nodes.t * g).sum(axis=1), ug.sum(axis=1)
    J = None
    if jac:
        J = np.zeros((len(nodes.idx), G))
        for gs, ns in _gap_blocks(nodes, G):
            d = _root_diffs(nodes, lam, gs, ns)
            J[gs] -= np.matmul(ug[gs, ns][:, None, :], np.reciprocal(d, out=d))[:, 0, :]
        J[np.arange(len(nodes.idx)), nodes.idx] = -m0
    return shift, m0, m1, h, J


def _first_gap_pass(
    K: IntervalSet, lam: np.ndarray, cfg: NumericsConfig
) -> tuple[list[_GapNodes], np.ndarray]:
    """Weighted gap means at ``lam``, fixing each gap's node count.

    Counts double from quad_min_nodes under the stopping rule of
    ``_gauss_cheb_adaptive`` on (M1, M0), all unsettled gaps together, each
    level's rows scaled as at the first level.  Returns the settled nodes,
    grouped by count, and the means M1/M0.
    """
    gaps = np.asarray(K.gaps()).reshape(-1, 2)
    others = _gap_others(K)
    todo = np.arange(len(gaps))
    groups: list[_GapNodes] = []
    mean = np.empty(len(gaps))
    n, shift, prev = cfg.quad_min_nodes, None, None
    while todo.size:
        if n > cfg.quad_max_nodes:
            g0, g1 = gaps[todo[0]]
            raise NumericsError(
                f"gap quadrature on [{g0}, {g1}] did not converge at "
                f"{cfg.quad_max_nodes} nodes ({todo.size} gaps unsettled)"
            )
        nodes = _gap_nodes(gaps, others, todo, n)
        shift, m0, m1, _, _ = _gap_pass(nodes, lam, shift)
        est = np.stack([m1, m0], axis=1)
        if prev is not None:
            scale = np.maximum(np.abs(est).max(axis=1), np.abs(prev).max(axis=1))
            done = np.abs(est - prev).max(axis=1) <= cfg.quad_rel_tol * scale
            if done.any():
                groups.append(nodes.subset(done))
            mean[todo[done]] = m1[done] / m0[done]
            todo, est, shift = todo[~done], est[~done], shift[~done]
        prev = est
        n *= 2
    return groups, mean


def _newton_gap_step(
    groups: list[_GapNodes], lam: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Newton step on H(lam) = 0; a component that leaves its gap, or all of
    them when J is singular, takes the weighted-mean step instead."""
    G = lam.size
    H, M0, J = np.empty(G), np.empty(G), np.empty((G, G))
    for nodes in groups:
        _, m0, _, h, rows = _gap_pass(nodes, lam, jac=True)
        H[nodes.idx], M0[nodes.idx], J[nodes.idx] = h, m0, rows
    mean = lam + H / M0
    try:
        new = lam - np.linalg.solve(J, H)
    except np.linalg.LinAlgError:
        return mean
    bad = ~((lo < new) & (new < hi))
    new[bad] = mean[bad]
    return new


def _solve_gap_roots(K: IntervalSet, cfg: NumericsConfig) -> np.ndarray:
    """Gap roots by batched Newton on the gap conditions; one root per bounded gap."""
    gaps = np.asarray(K.gaps()).reshape(-1, 2)
    lo, hi = gaps[:, 0], gaps[:, 1]
    lam = (lo + hi) / 2.0
    if not lam.size:
        return lam
    groups, new = _first_gap_pass(K, lam, cfg)
    max_passes = 300
    floor_tol = 1e-13
    prev_delta = np.inf
    for _ in range(max_passes):
        delta = float(np.max(np.abs(new - lam) / (hi - lo)))
        lam = new
        if delta < floor_tol or delta >= prev_delta:
            return lam
        prev_delta = delta
        new = _newton_gap_step(groups, lam, lo, hi)
    raise NumericsError(
        f"gap-root iteration did not converge in {max_passes} passes (delta {delta:.2e})"
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
