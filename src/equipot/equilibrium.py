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
(four or five passes at 256 intervals).

The endpoint factor of g_k does not depend on the roots: the first pass
forms it for all gaps of a doubling level at once, and the Newton passes
reuse it at the node counts that pass settled.  The verifier recomputes
every gap mean at the final roots from scratch, in one batched doubling
of its own (its own node counts, rows scaled at the gap midpoints), and
refuses a root more than 5e-10 of its gap away from its mean.  Both gap
doublings are one call of ``_gauss_cheb_adaptive`` over all gaps, and the
component tables one call of ``chebyshev_expand`` over all components.

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


def _q_sign(roots: np.ndarray, t: float) -> int:
    """Sign of q(t) from the parity of the roots above t."""
    return -1 if (np.sum(roots > t) % 2) else 1


# elements in one (rows x nodes x columns) temporary of a batched pass
GAP_CHUNK = 1 << 16


def _blocks(rows: int, n: int, cols: int):
    """(row slice, node slice) blocks of about GAP_CHUNK / cols nodes each."""
    cols = max(cols, 1)
    per_row = max(1, GAP_CHUNK // max(n * cols, 1))
    per_node = max(1, min(n, GAP_CHUNK // cols))
    for a in range(0, rows, per_row):
        for b in range(0, n, per_node):
            yield slice(a, a + per_row), slice(b, b + per_node)


def _diff_blocks(t: np.ndarray, cols: np.ndarray, own: np.ndarray):
    """(row slice, node slice, t - cols_j) over t (rows x nodes) in blocks of
    about GAP_CHUNK elements, with 1 in the columns own[r] of row r."""
    for rs, ns in _blocks(t.shape[0], t.shape[1], cols.size):
        d = t[rs, ns, None] - cols
        d[np.arange(d.shape[0])[:, None], :, own[rs]] = 1.0
        yield rs, ns, d


def _log_dist(t: np.ndarray, cols: np.ndarray, own: np.ndarray) -> np.ndarray:
    """sum_j log|t - cols_j| at every entry of t, leaving out the columns
    own[r] of row r; in place, block by block."""
    out = np.empty(t.shape)
    for rs, ns, d in _diff_blocks(t, cols, own):
        out[rs, ns] = np.sum(np.log(np.abs(d, out=d), out=d), axis=2)
    return out


def _log_weight(t: np.ndarray, roots: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """sum_k log|t - roots_k| - 1/2 sum_j log|t - ends_j|, vectorised over t.

    The log of pi * w(t) when ``roots`` are the gap-polynomial roots and
    ``ends`` all endpoints; with some of either left out, the log of the
    factor that multiplies the omitted ones.  Either array may be empty.
    """
    t, none = t[None], np.empty((1, 0), dtype=int)
    return (_log_dist(t, roots, none) - 0.5 * _log_dist(t, ends, none))[0]


@dataclasses.dataclass(frozen=True)
class _GapNodes:
    """Gauss-Chebyshev nodes of a set of gaps that share one node count.

    ``ends_lw`` is -1/2 sum log|t - e| over the endpoints that do not bound
    the node's gap; it does not depend on the roots, so the Newton passes
    reuse the one formed by the first pass.
    """

    idx: np.ndarray      # (g,) gap indices, increasing
    t: np.ndarray        # (g, n) nodes
    ends_lw: np.ndarray  # (g, n)

    def subset(self, keep: np.ndarray) -> "_GapNodes":
        return _GapNodes(self.idx[keep], self.t[keep], self.ends_lw[keep])


def _gap_nodes(gaps: np.ndarray, ends: np.ndarray, idx: np.ndarray, s: np.ndarray) -> _GapNodes:
    """The reference nodes s in [-1, 1] mapped onto each gap in ``idx``; gap
    k lies between ends[2k + 1] and ends[2k + 2]."""
    g0, g1 = gaps[idx, 0, None], gaps[idx, 1, None]
    t = (g0 + g1) / 2.0 + (g1 - g0) / 2.0 * s
    own = np.stack([2 * idx + 1, 2 * idx + 2], axis=1)
    return _GapNodes(idx, t, -0.5 * _log_dist(t, ends, own))


def _gap_log_weight(nodes: _GapNodes, lam: np.ndarray) -> np.ndarray:
    """log g_k at the nodes: g_k = |R_k| W, R_k the product over all roots
    but the k-th and W the weight over all endpoints but the gap's own."""
    return nodes.ends_lw + _log_dist(nodes.t, lam, nodes.idx[:, None])


def _gap_means(
    K: IntervalSet, lam: np.ndarray, shift: np.ndarray | None, cfg: NumericsConfig
) -> tuple[list[_GapNodes], np.ndarray]:
    """Weighted gap means M1/M0 = int t g / int g at ``lam``, all gaps in one
    ``_gauss_cheb_adaptive`` doubling with its stopping rule per gap.

    Rows are scaled by exp(-shift), or when ``shift`` is None by their
    largest log g at the first level.  Returns the nodes each gap settled
    at, grouped by count, and the means.
    """
    gaps = np.asarray(K.gaps()).reshape(-1, 2)
    ends = np.asarray(K.endpoints())
    levels: list[_GapNodes] = []

    def moments(s, rows):
        nonlocal shift
        nodes = _gap_nodes(gaps, ends, rows, s)
        levels.append(nodes)
        lw = _gap_log_weight(nodes, lam)
        if shift is None:
            shift = lw.max(axis=1)
        g = np.exp(lw - shift[rows, None])
        return np.stack([nodes.t * g, g], axis=1)

    try:
        m1, m0 = _gauss_cheb_adaptive(moments, -1.0, 1.0, cfg, count=len(gaps)).T
    except NumericsError:
        open_gaps = levels[-1].idx
        g0, g1 = gaps[open_gaps[0]]
        raise NumericsError(
            f"gap quadrature on [{g0}, {g1}] did not converge at "
            f"{cfg.quad_max_nodes} nodes ({open_gaps.size} gaps unsettled)"
        ) from None
    # a gap settles at the last level that samples it
    groups = [a.subset(~np.isin(a.idx, b.idx)) for a, b in zip(levels, levels[1:])]
    return [nodes for nodes in groups + levels[-1:] if nodes.idx.size], m1 / m0


def _newton_rows(nodes: _GapNodes, lam: np.ndarray):
    """One batched Gauss-Chebyshev pass over the gaps in ``nodes``, rows
    scaled at their largest log g: per gap M0 = int g, the residual H = int
    (t - lam_k) g and the Jacobian rows dH_k/dlam_j, -M0_k on the diagonal
    and -int (t - lam_k) g / (t - lam_j) off it."""
    lw = _gap_log_weight(nodes, lam)
    g = np.exp(lw - lw.max(axis=1, keepdims=True)) * (np.pi / nodes.t.shape[1])
    ug = (nodes.t - lam[nodes.idx, None]) * g
    m0, h = g.sum(axis=1), ug.sum(axis=1)
    J = np.zeros((len(nodes.idx), lam.size))
    for gs, ns, d in _diff_blocks(nodes.t, lam, nodes.idx[:, None]):
        J[gs] -= np.matmul(ug[gs, ns][:, None, :], np.reciprocal(d, out=d))[:, 0, :]
    J[np.arange(len(nodes.idx)), nodes.idx] = -m0
    return m0, h, J


def _newton_gap_step(
    groups: list[_GapNodes], lam: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Newton step on H(lam) = 0; a component that leaves its gap, or all of
    them when J is singular, takes the weighted-mean step instead."""
    G = lam.size
    H, M0, J = np.empty(G), np.empty(G), np.empty((G, G))
    for nodes in groups:
        M0[nodes.idx], H[nodes.idx], J[nodes.idx] = _newton_rows(nodes, lam)
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
    # the first pass, a mean step from the midpoints, fixes the node counts
    groups, new = _gap_means(K, lam, None, cfg)
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


def _verify_gap_conditions(K: IntervalSet, roots: np.ndarray, cfg: NumericsConfig) -> None:
    """Residual audit: each root must be the weighted gap mean it defines.

    Equivalent to the vanishing of int_gap q W (divide by the constant-sign
    cofactor); stated this way the integrands stay smooth.  The means come
    from a fresh doubling at the final roots, rows scaled at the gap
    midpoints, independent of the Newton passes.
    """
    if not roots.size:
        return
    gaps = np.asarray(K.gaps()).reshape(-1, 2)
    ends = np.asarray(K.endpoints())
    idx = np.arange(len(gaps))
    mid = _gap_nodes(gaps, ends, idx, np.zeros(1))
    _, mean = _gap_means(K, roots, _gap_log_weight(mid, roots)[:, 0], cfg)
    resid = np.abs(mean - roots) / (gaps[:, 1] - gaps[:, 0])
    k = int(np.argmax(resid))
    if not resid[k] <= 5e-10:
        raise NumericsError(f"gap condition residual {resid[k]:.2e} in gap {k}")


def solve_equilibrium(K: IntervalSet, cfg: NumericsConfig = DEFAULTS) -> EquilibriumData:
    """Solve for the equilibrium measure of K."""
    if K.has_degenerate():
        raise SetSpecError("equilibrium needs all intervals non-degenerate; widen() first")
    roots = _solve_gap_roots(K, cfg)
    _verify_gap_conditions(K, roots, cfg)
    tables = _component_tables(K, roots)
    mass = float(sum(tab.mass for tab in tables))
    robin = float(np.mean(_potential_from_tables(tables, np.asarray(_robin_probes(K)))))
    cap = math.exp(-robin)
    return EquilibriumData(
        set=K, roots=tuple(float(r) for r in roots), robin=robin, cap=cap,
        mass=mass, tables=tables,
    )


def _component_tables(K: IntervalSet, roots: np.ndarray) -> tuple[ComponentTable, ...]:
    """Every component's table from one batched expansion: at each doubling
    level the still-open components are sampled together, block by block."""
    ends = np.asarray(K.endpoints())
    mid, half = (ends[::2] + ends[1::2]) / 2.0, (ends[1::2] - ends[::2]) / 2.0
    own = np.arange(2 * K.m).reshape(-1, 2)
    no_root = np.empty((K.m, 0), dtype=int)

    def G(s, rows):
        t = mid[rows, None] + half[rows, None] * s
        lw = _log_dist(t, roots, no_root[rows]) - 0.5 * _log_dist(t, ends, own[rows])
        return np.exp(lw) / (np.pi * half[rows, None])

    coeffs = chebyshev_expand(G, -1.0, 1.0, count=K.m)
    return tuple(
        ComponentTable(mid=float(a), half=float(h), coeffs=tuple(c.tolist()))
        for a, h, c in zip(mid, half, coeffs)
    )


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


def _potential_from_tables(tables: Sequence[ComponentTable], x) -> np.ndarray:
    """U at the points x (any shape) from the component tables.

    With xi = (x - mid)/half, component j adds half pi sum_k c_k phi_k(xi)
    plus c_0 half pi log(1/half), where phi_k(xi) = (1/pi) int log(1/|xi -
    s|) T_k(s)/sqrt(1-s^2) ds has the closed forms log 2 (k = 0) and
    T_k(xi)/k inside [-1, 1], and, with log zeta = arccosh |xi| (zeta =
    |xi| + sqrt(xi^2 - 1)), log 2 - log zeta and sign(xi)^k zeta^-k / k
    outside.  All components go in one zero-padded (components x terms)
    coefficient matrix.
    """
    C = np.zeros((len(tables), max(len(tab.coeffs) for tab in tables)))
    for j, tab in enumerate(tables):
        C[j, :len(tab.coeffs)] = tab.coeffs
    mid = np.array([tab.mid for tab in tables])
    half = np.array([tab.half for tab in tables])
    xi = (np.asarray(x, dtype=float)[..., None] - mid) / half
    inside = np.abs(xi) <= 1.0
    lz = np.arccosh(np.where(inside, 1.0, np.abs(xi)))
    k = np.arange(1, C.shape[1])
    theta = np.arccos(np.clip(xi, -1.0, 1.0))[..., None]
    sign = np.where((xi[..., None] < 0) & (k % 2 == 1), -1.0, 1.0)
    phik = np.where(inside[..., None], np.cos(k * theta), sign * np.exp(-k * lz[..., None])) / k
    series = C[:, 0] * (math.log(2.0) - lz - np.log(half)) + np.sum(C[:, 1:] * phik, axis=-1)
    return np.sum(half * math.pi * series, axis=-1)


def equilibrium_potential(E: EquilibriumData, x: float) -> float:
    """Logarithmic potential U(x) = int log(1/|x - t|) dnu(t), any real x."""
    if not math.isfinite(x):
        raise SetSpecError(f"potential needs finite x, got {x}")
    return float(_potential_from_tables(E.tables, x))


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


def _balayage_kernel(x, t, b, a):
    """Density at t of the balayage of a unit mass at x onto [b, a]; x or t may be an array."""
    return np.sqrt(np.abs(x - b) * np.abs(x - a)) / (
        np.pi * np.abs(t - x) * np.sqrt(np.abs(t - a) * np.abs(t - b)))


def balayage_density(qy: BalayageQuery, t) -> float:
    """Density at t of the balayage of a point mass at qy.x onto [qy.b, qy.a]."""
    t_arr = np.asarray(t, dtype=float)
    # written so that nan fails it too
    if not np.all((t_arr > qy.b) & (t_arr < qy.a)):
        raise SetSpecError(f"density point must lie strictly inside [{qy.b}, {qy.a}]")
    out = _balayage_kernel(qy.x, t_arr, qy.b, qy.a)
    return out if t_arr.ndim else float(out)


def balayage_edge_limit(qy: BalayageQuery) -> float:
    """lim_{t -> a-} sqrt(a - t) * balayage_density(qy, t)."""
    x, b, a = qy.x, qy.b, qy.a
    return math.sqrt(abs(x - b)) / (math.pi * math.sqrt(abs(x - a) * abs(a - b)))


def balayage_mass(qy: BalayageQuery, cfg: NumericsConfig = DEFAULTS) -> float:
    """Total swept mass; 1 for any admissible query (regression check)."""
    x, b, a = qy.x, qy.b, qy.a
    num = math.sqrt(abs(x - b) * abs(x - a))

    def f(t, rows):
        return (num / (np.pi * np.abs(t - x)))[None]

    return float(_gauss_cheb_adaptive(f, b, a, cfg)[0])


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

    def w_smooth(x, excluded):
        return np.exp(_log_weight(x, roots, ends[~np.isin(ends, excluded)])) / np.pi

    for j, (u, v) in enumerate(E.set.intervals):
        if j == home:
            continue

        def f_full(x, rows, _u=u, _v=v):
            return (_balayage_kernel(x, t, b, a) * w_smooth(x, np.array([_u, _v])))[None]

        correction += float(_gauss_cheb_adaptive(f_full, u, v, cfg)[0])

    if hu < b:

        def f_home(x, rows):
            bal = _balayage_kernel(x, t, b, a)
            return (bal * w_smooth(x, np.array([hu])) * np.sqrt(b - x))[None]

        correction += float(_gauss_cheb_adaptive(f_home, hu, b, cfg)[0])

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
    """Omega(K_m^+, a) along the outer filtration; nondecreasing in m.
    Every m is checked before the first solve."""
    ms = [int(m) for m in m_list]
    if ms and min(ms) < 2:
        raise SetSpecError(f"outer approximant needs m >= 2, got {min(ms)}")
    out = []
    for m in ms:
        Km = outer_approx(K, ctx, m)
        Em = solve_equilibrium(Km, cfg)
        out.append((m, omega_factor(Em, ctx.a)))
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
