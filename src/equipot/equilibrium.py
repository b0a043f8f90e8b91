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
Chebyshev-Lobatto level, and it replaces any Newton component that
leaves its gap.  The Newton passes solve H = 0 with the Jacobian
dH_k/dlambda_k = -int g_k and dH_k/dlambda_j = -int (t - lambda_k) g_k /
(t - lambda_j), all gaps in one chunked pass that forms each block's
differences t - lambda_j once, for both log g_k and the reciprocals.  They
converge quadratically, so two Newton steps d_prev, d (in gap widths)
predict the next, d^3 / d_prev^2; once that is below 1e-13 the iteration
stops without the pass that would only confirm it (three Newton passes
from 64 to 512 intervals).

The mean is taken in frame-local moments: with t = mid + half*s on the
gap, M1 = int s g_k and M0 = int g_k, and lambda_k = mid + half M1/M0.
Since |M1| <= M0, the doubling's stopping test weighs both moments on the
scale of M0, at any scale of the set; an absolute first moment int t g_k
of a symmetric gap at scale 1e100 is rounding noise of about 1e84 that
swamps it.  The doublings start at ``numerics.QUAD_MIN_NODES`` = 16, the
17 Lobatto points cos(pi k / 16), and each one adds only the points the
level before lacks: most gap integrands settle at level 32, 33 points.

The endpoint factor of g_k does not depend on the roots, so it is formed
once per solve, at each point once: the first pass keeps one block per
level, the points it added on the gaps it sampled and their endpoint
sums.  The Newton passes take, for each gap, the union of its blocks up
to the level where it settled, with that level's Lobatto weights pi / N
(halved at s = +-1), and scale each row at its s = 0 point.  The verifier
takes a first-pass block as it is wherever it samples the same gaps at
the same level.  It otherwise recomputes every gap mean at the final
roots, in one batched doubling of its own (its own levels and row
scales), and refuses a root more than 5e-10 of its gap away from its
mean.  Both gap doublings are one call of ``_gauss_cheb_adaptive`` over
all gaps, and the component tables one call of ``chebyshev_expand`` over
all components, whose first level of 33 points resolves the tables of
Cantor prefractals and polynomial inverse images of 64-128 components
(but the two outer ones of (c T_N)^-1[-1, 1] with c near 1.2, which take
the 32 points of the next level too).

Products over roots and endpoints are accumulated in log space, so density
and gap-polynomial values stay well scaled at any number of components;
a coefficient-form solve would lose all precision beyond ~30 gaps.  The
density, component tables, Omega and decomposition residual share one
kernel on K, ``_log_factor``, which sums paired gap factors
log(|t - lambda_k| / sqrt|(t - b_k)(t - a_{k+1})|) for the gap between b_k
and a_{k+1}: each term is dimensionless and near 0 away from its gap, so
their rounding does not grow with the scale of the set, and Cantor-type
tables resolve at the expansion's first node count.  The density keeps
w_{alpha K}(alpha t) |alpha| = w_K(t) to 5.3e-15 for |alpha| from 1e-100
to 1e100; unpaired log-distance sums were up to 1.4e-13 off.

``_log_factor`` forms every difference in the frame of its row, (off - x) +
h with x a root or an endpoint and h the node's offset from off.  The
component tables and the decomposition residual sample each piece from
its exact left end u, with h = half (1 + s): a node carries the rounding
of its distance to x, not of |mid|, and no rounded midpoint u/2 + v/2
shifts the piece.  So alpha K + beta resolves at the node count of K
(Cantor level 7, ratio 0.37, at -1.3 K + 6: one level of 33 points, where
nodes mid + half s took 65, 129 and 257 from a first level of 65), and the
tables' summed mass is 1 to 6e-16 at |beta| = 6.4-8.4, where the rounded
midpoints left 1.6e-14.  The density and Omega pass their points as
``off`` and no offsets, where the difference is exactly t - x.  The gap
sweep (``_gap_nodes``, ``_newton_rows`` and the verifier) still forms t -
x at nodes mid + half s, so its roots carry the rounding of |mid|: up to
3e-12 of a gap's width at |beta| = 6.4-8.4, which moves the capacity of a
shifted set by up to 5e-14.  It moves to the local frame once the
benchmark's far-shift probes are checked against the rounded set they
solve: their closed form is 7.6e-8 off at beta = 1e9, so a sweep that
solved them would be scored incorrect.

The logarithmic potential is evaluated spectrally: with t = mid + half*s on
a component and G the smooth factor of w there, the component's
contribution to U(x) = int log(1/|x-t|) w(t) dt is a closed-form series in
the Chebyshev coefficients of G, valid for x inside the component, in a
gap, or outside the set, with geometric convergence and no special handling
of the log singularity.  The coefficients of all components are one
zero-padded array, ``EquilibriumData.coeffs``, formed once per solve and
read here alone: by the potential, the component masses and the quantiles
that place the Markov probe's nodes (``_quantiles``).
Robin constant and capacity use the unit total mass of the equilibrium
measure, not the tables' summed mass (which ``EquilibriumData.mass``
still reports): the half-lengths enter in units of ell, a quarter of the
hull's length, and log(1/ell) is added once with mass 1.  The summed mass
is 1 only to about 1e-15, and its error times |log ell|, 230 at scale
1e100, would be the largest one in the capacity;
the paired gap factors alone leave (3 T_17)^-1[-1,1] at scale 1e100 1.8e-13
off its exact capacity, the two together make cap(alpha K) = |alpha| cap K
hold to 1e-13 for |alpha| from 1e-100 to 1e100.  At scale near 1 the two
forms differ by (mass - 1) log ell, a few 1e-14 of the capacity.

Also here: the explicit point-mass balayage kernel onto an interval, its
edge limit, the density decomposition residual on the run-up interval
[a - rho, a], and the outer-approximant convergence study for the edge
factor.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from . import numerics
from .errors import NumericsError, SetSpecError
from .interval_sets import (EndpointContext, IntervalSet, _component_frames, _frame, _gap_frames,
                            check_interval_condition, outer_approximants)
from .numerics import EXPAND_MAX_NODES, _gauss_cheb_adaptive, chebyshev_expand

# density is undefined within this fraction of its component's half-length
# of an endpoint
DENSITY_EDGE_GUARD = 1e-12
# interior points at which the Robin constant is read off the potential
ROBIN_PROBE_COUNT = 5


@dataclasses.dataclass(frozen=True)
class EquilibriumData:
    """A solved set: roots of the gap polynomial, Robin constant, capacity,
    total density mass, the component tables ``coeffs`` and masses ``masses``.

    Row j of ``coeffs`` holds the Chebyshev coefficients of G on component
    j, zero-padded to the longest row.  With t = mid + half*s on the
    component, G(s) collects |q(t)| and the square roots of the distances
    to all endpoints of the *other* components, so that w(t) dt =
    G(s)/sqrt(1 - s^2) * half ds there; the component's equilibrium mass
    ``masses[j]`` is half*pi*c_0.  Only this module reads the tables; the
    others take masses from ``masses`` and quantiles from ``_quantiles``.
    """

    set: IntervalSet
    roots: tuple[float, ...]
    robin: float
    cap: float
    mass: float
    coeffs: np.ndarray = dataclasses.field(repr=False, compare=False)
    masses: np.ndarray = dataclasses.field(repr=False, compare=False)


@dataclasses.dataclass(frozen=True)
class BalayageQuery:
    """Point mass at x swept onto the interval [b, a]; x strictly outside."""

    x: float
    b: float
    a: float

    def __post_init__(self) -> None:
        # a non-finite x, b or a makes a difference non-finite too
        if not all(map(math.isfinite, (self.a - self.b, self.x - self.a, self.x - self.b))):
            raise SetSpecError(
                f"balayage needs finite x, b and a whose differences stay below the float limit "
                f"{np.finfo(float).max:.6g}, got x={self.x}, b={self.b}, a={self.a}"
            )
        if not self.b < self.a:
            raise SetSpecError(f"balayage target needs b < a, got [{self.b}, {self.a}]")
        guard = 1e-12 * (self.a - self.b)
        if self.b - guard <= self.x <= self.a + guard:
            raise SetSpecError(f"source point {self.x} must lie outside [{self.b}, {self.a}]")


# ---------------------------------------------------------------------------
# gap polynomial


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


def _log_factor(
    off: np.ndarray, h: np.ndarray | None, comp: np.ndarray, roots: np.ndarray, ends: np.ndarray,
) -> np.ndarray:
    """log(pi half G) at t = off_r + h_rn (rows x nodes), row r on component
    j = comp[r]: G is the smooth factor of the density there, |q| over the
    square roots of the distances to the endpoints of the other components.

    Every difference is formed in the frame of its row, (off_r - x) + h_rn
    with x a root or an endpoint, so a node carries the rounding of its
    distance to x, not of |off_r|.  Samplers pass the exact left end u of
    each piece as ``off`` and the offsets half (1 + s) as ``h``; points are
    passed as ``off`` with h None, one node each, where the difference is
    exactly t - x.

    The log is summed gap by gap: gap k, between b_k and a_{k+1}, adds
    log(|t - lam_k| / sqrt|(t - b_k)(t - a_{k+1})|), which is dimensionless
    and near 0 away from the gap, so its rounding does not grow with the
    log-distances or with the scale of the set.  The own ends a_j and b_j
    are no factors of G: in the two gaps beside component j they are
    swapped for a_0 and b_{m-1}, the outer ends that no pair holds.  Block
    by block, with the three differences of a block in GAP_CHUNK elements.
    """
    lo, hi, outer = ends[1:-1:2], ends[2::2], ends[[0, -1]]
    out = np.empty((off.size, 1 if h is None else h.shape[1]))
    for rs, ns in _blocks(*out.shape, 3 * roots.size):
        j, o = comp[rs], off[rs, None]
        # (off_r - x) + h_rn for the roots, the low and high gap ends and the two outer ends
        d, dl, dh, do = ((o - x)[:, None] if h is None else (o - x)[:, None] + h[rs, ns, None]
                         for x in (roots, lo, hi, outer))
        left, right = np.flatnonzero(j > 0), np.flatnonzero(j < roots.size)
        dh[left, :, j[left] - 1] = do[left, :, 0]
        dl[right, :, j[right]] = do[right, :, 1]
        dl = np.divide(d, dl, out=dl)
        dl *= np.divide(d, dh, out=dh)
        out[rs, ns] = 0.5 * np.sum(np.log(np.abs(dl, out=dl), out=dl), axis=2)
    return out


@dataclasses.dataclass(frozen=True)
class _GapNodes:
    """Reference nodes s in [-1, 1] on a set of gaps: the block of points one
    Lobatto level adds, or the union of a gap's blocks up to a level.

    ``ends_lw`` is -1/2 sum log|t - e| over the endpoints that do not bound
    the node's gap.  It does not depend on the roots: the Newton passes
    reuse the one the first pass formed, and the verifier reuses a block of
    the first pass that holds the same gaps at the same level.
    """

    idx: np.ndarray      # (g,) gap indices, increasing
    s: np.ndarray        # (n,) reference nodes
    t: np.ndarray        # (g, n) nodes mid + half s
    ends_lw: np.ndarray  # (g, n)


def _gap_nodes(
    gaps: tuple, ends: np.ndarray, idx: np.ndarray, s: np.ndarray,
    prior: _GapNodes | None = None,
) -> _GapNodes:
    """The reference nodes s in [-1, 1] mapped onto each gap in ``idx`` by the
    frames ``gaps`` of ``_gap_frames``; gap k lies between ends[2k + 1] and
    ends[2k + 2].  ``prior``, the block of an earlier doubling at the same
    level, is returned as it is when it holds the same gaps: its endpoint
    sums are the same function of the same nodes, so bit-identical."""
    if prior is not None and np.array_equal(prior.idx, idx):
        return prior
    _, _, mid, half = gaps
    t = mid[idx, None] + half[idx, None] * s
    own = np.stack([2 * idx + 1, 2 * idx + 2], axis=1)
    return _GapNodes(idx, s, t, -0.5 * _log_dist(t, ends, own))


def _gap_means(
    K: IntervalSet, lam: np.ndarray, prior: Sequence[_GapNodes] = ()
) -> tuple[list[_GapNodes], np.ndarray]:
    """Weighted gap means int t g / int g at ``lam``, all gaps in one
    ``_gauss_cheb_adaptive`` doubling with its stopping rule per gap.

    The moments are frame-local, M1 = int s g and M0 = int g with s in
    [-1, 1] the gap's reference variable, and the mean is mid + half M1/M0.
    Since |M1| <= M0, the stopping rule weighs both moments on the scale of
    M0 wherever the set sits and however large it is.  Rows are scaled by
    their largest log g at the first level.  ``prior`` are the blocks of an
    earlier doubling on K, whose endpoint sums are reused (``_gap_nodes``).
    Returns one block per level, the points it added on the gaps it
    sampled, and the means.
    """
    gaps = g0, g1, mid, half = _gap_frames(K)
    ends = np.asarray(K.endpoints())
    levels: list[_GapNodes] = []
    shift = None

    def moments(s, rows):
        nonlocal shift
        same = prior[len(levels)] if len(levels) < len(prior) else None
        nodes = _gap_nodes(gaps, ends, rows, s, same)
        levels.append(nodes)
        # log g_k = log |R_k| W, the weight of gap k's condition
        lw = nodes.ends_lw + _log_dist(nodes.t, lam, rows[:, None])
        if shift is None:
            shift = lw.max(axis=1)
        g = np.exp(lw - shift[rows, None])
        return np.stack([s * g, g], axis=1)

    try:
        m1, m0 = _gauss_cheb_adaptive(moments, count=mid.size).T
    except NumericsError:
        k = levels[-1].idx
        raise NumericsError(
            f"gap quadrature on [{g0[k[0]]}, {g1[k[0]]}] did not converge at QUAD_MAX_NODES = "
            f"{numerics.QUAD_MAX_NODES} nodes ({k.size} gaps unsettled)"
        ) from None
    return levels, mid + half * (m1 / m0)


def _settled(levels: list[_GapNodes]) -> list[tuple[_GapNodes, np.ndarray]]:
    """(nodes, weights) for each level at which some gaps settle, the last
    level that samples them: the union of those gaps' blocks up to it, and
    that level's Lobatto weights pi / N, halved at the ends s = +-1."""
    out = []
    for i, level in enumerate(levels):
        idx = level.idx[~np.isin(level.idx, levels[i + 1].idx)] if i + 1 < len(levels) else level.idx
        if not idx.size:
            continue
        # every earlier block samples these gaps too, at increasing indices
        blocks = [(b, np.searchsorted(b.idx, idx)) for b in levels[:i + 1]]
        s = np.concatenate([b.s for b, _ in blocks])
        t = np.concatenate([b.t[r] for b, r in blocks], axis=1)
        ends_lw = np.concatenate([b.ends_lw[r] for b, r in blocks], axis=1)
        w = np.full(s.size, np.pi / (s.size - 1))
        w[np.abs(s) == 1.0] *= 0.5
        out.append((_GapNodes(idx, s, t, ends_lw), w))
    return out


def _newton_rows(nodes: _GapNodes, w: np.ndarray, lam: np.ndarray):
    """One batched pass of the weights ``w`` over the gaps of ``nodes``, rows
    scaled at the node s = 0: per gap M0 = int g, the residual H = int (t -
    lam_k) g and the Jacobian rows dH_k/dlam_j, -M0_k on the diagonal and
    -int (t - lam_k) g / (t - lam_j) off it.  Each block's differences t -
    lam_j give both log g and the reciprocals, so the row scale must be
    known before the first block: g is smooth and positive on its gap, and
    its central value stands in for its largest."""
    idx, c = nodes.idx, int(np.argmin(np.abs(nodes.s)))
    shift = nodes.ends_lw[:, c:c + 1] + _log_dist(nodes.t[:, c:c + 1], lam, idx[:, None])
    m0, h, J = np.zeros(idx.size), np.zeros(idx.size), np.zeros((idx.size, lam.size))
    for gs, ns, d in _diff_blocks(nodes.t, lam, idx[:, None]):
        ad = np.abs(d)
        lw = nodes.ends_lw[gs, ns] + np.sum(np.log(ad, out=ad), axis=2)
        g = np.exp(lw - shift[gs]) * w[ns]
        ug = (nodes.t[gs, ns] - lam[idx[gs], None]) * g
        m0[gs] += g.sum(axis=1)
        h[gs] += ug.sum(axis=1)
        J[gs] -= np.matmul(ug[:, None, :], np.reciprocal(d, out=d))[:, 0, :]
    J[np.arange(idx.size), idx] = -m0
    return m0, h, J


def _newton_gap_step(
    groups: list[tuple[_GapNodes, np.ndarray]],
    lam: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> np.ndarray:
    """Newton step on H(lam) = 0 over the (nodes, weights) groups of
    ``_settled``; a component that leaves its gap, or all of them when J is
    singular, takes the weighted-mean step instead."""
    G = lam.size
    H, M0, J = np.empty(G), np.empty(G), np.empty((G, G))
    for nodes, w in groups:
        M0[nodes.idx], H[nodes.idx], J[nodes.idx] = _newton_rows(nodes, w, lam)
    mean = lam + H / M0
    try:
        new = lam - np.linalg.solve(J, H)
    except np.linalg.LinAlgError:
        return mean
    bad = ~((lo < new) & (new < hi))
    new[bad] = mean[bad]
    return new


def _solve_gap_roots(K: IntervalSet) -> tuple[np.ndarray, list[_GapNodes]]:
    """Gap roots by batched Newton on the gap conditions, one root per
    bounded gap, and the levels of the first pass.

    Steps are measured in gap widths.  After two Newton steps d_prev and d,
    quadratic convergence puts the next one near d^3 / d_prev^2; once that
    is below the floor the pass that would only confirm it is skipped.
    The first step is a mean step and predicts nothing.
    """
    lo, hi, mid, _ = _gap_frames(K)
    if not mid.size:
        return mid, []
    # the first pass, a mean step from the midpoints, fixes the levels
    levels, lam = _gap_means(K, mid)
    groups = _settled(levels)
    max_passes = 300
    floor_tol = 1e-13
    delta = float(np.max(np.abs(lam - mid) / (hi - lo)))
    newton = False
    for _ in range(max_passes):
        if delta < floor_tol:
            return lam, levels
        new = _newton_gap_step(groups, lam, lo, hi)
        step = float(np.max(np.abs(new - lam) / (hi - lo)))
        lam = new
        if step >= delta or (newton and step ** 3 < floor_tol * delta ** 2):
            return lam, levels
        delta, newton = step, True
    raise NumericsError(
        f"gap-root iteration did not converge in {max_passes} passes (delta {delta:.2e})"
    )


def _verify_gap_conditions(K: IntervalSet, roots: np.ndarray, prior: Sequence[_GapNodes] = ()) -> None:
    """Residual audit: each root must be the weighted gap mean it defines.

    Equivalent to the vanishing of int_gap q W (divide by the constant-sign
    cofactor); stated this way the integrands stay smooth.  The means come
    from a fresh doubling at the final roots, independent of the Newton
    passes; only the root-free endpoint sums of the first pass's levels
    ``prior`` are reused.
    """
    if not roots.size:
        return
    g0, g1 = _gap_frames(K)[:2]
    _, mean = _gap_means(K, roots, prior)
    resid = np.abs(mean - roots) / (g1 - g0)
    k = int(np.argmax(resid))
    if not resid[k] <= 5e-10:
        raise NumericsError(f"gap condition residual {resid[k]:.2e} in gap {k}")


def solve_equilibrium(K: IntervalSet) -> EquilibriumData:
    """Solve for the equilibrium measure of K."""
    if K.has_degenerate():
        raise SetSpecError("equilibrium needs all intervals non-degenerate")
    roots, levels = _solve_gap_roots(K)
    _verify_gap_conditions(K, roots, levels)
    with np.errstate(all="ignore"):  # pi * half overflows near the float limit; checked below
        coeffs = _component_tables(K, roots)
        masses = _component_frames(K)[3] * math.pi * coeffs[:, 0]  # half pi c_0
        mass = sum(masses.tolist())
        robin = float(np.mean(_potential_from_tables(K, coeffs, _robin_probes(K))))
        cap = math.exp(-robin)
    if not all(map(math.isfinite, (robin, cap, mass))):
        raise NumericsError(
            f"equilibrium not finite (cap {cap}, robin {robin}, mass {mass}): pi/2 times a "
            f"component's length and the hull's length must stay below {np.finfo(float).max:.6g}"
        )
    return EquilibriumData(
        set=K, roots=tuple(float(r) for r in roots), robin=robin, cap=cap,
        mass=mass, coeffs=coeffs, masses=masses,
    )


def _component_tables(K: IntervalSet, roots: np.ndarray) -> np.ndarray:
    """Every component's table from one batched expansion, as the
    zero-padded (K.m, terms) array of ``EquilibriumData.coeffs``: at each
    doubling level the still-open components are sampled together, block
    by block (``_log_factor``), at t = u + half (1 + s) from each
    component's left end u.  If the expansion does not resolve, the error
    names the component left open at the last level next to the narrowest
    gap."""
    ends = np.asarray(K.endpoints())
    u, _, _, half = _component_frames(K)
    sampled = []

    def G(s, rows):
        sampled.append(rows)
        lw = _log_factor(u[rows], half[rows, None] * (1.0 + s), rows, roots, ends)
        return np.exp(lw) / (np.pi * half[rows, None])

    try:
        rows = chebyshev_expand(G, count=K.m)
    except NumericsError:
        gap = np.r_[np.inf, np.diff(ends)[1::2], np.inf]
        near = np.minimum(gap[:-1], gap[1:])[sampled[-1]]
        j = sampled[-1][np.argmin(near)]
        raise NumericsError(
            f"density table of [{ends[2 * j]}, {ends[2 * j + 1]}] did not resolve at "
            f"{EXPAND_MAX_NODES} nodes next to a gap of width {near.min():.3e}"
        ) from None
    coeffs = np.zeros((K.m, max(map(len, rows))))
    for j, c in enumerate(rows):
        coeffs[j, :len(c)] = c
    return coeffs


def _robin_probes(K: IntervalSet) -> np.ndarray:
    """ROBIN_PROBE_COUNT deterministic interior points spread over the set:
    component midpoints, and with fewer components than probes, more
    points inside the widest one."""
    u, v, mid, half = _component_frames(K)
    if K.m >= ROBIN_PROBE_COUNT:
        # steps of at least 1 round to distinct, increasing indices
        return mid[np.round(np.linspace(0, K.m - 1, ROBIN_PROBE_COUNT)).astype(int)]
    widest = np.argmax(v - u)
    extra = ROBIN_PROBE_COUNT - K.m
    angles = np.pi * np.arange(1, extra + 1) / (extra + 2)
    return np.concatenate([mid, mid[widest] + half[widest] * 0.8 * np.cos(angles)])


# ---------------------------------------------------------------------------
# pointwise evaluation


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
    j = np.clip((above - 1) // 2, 0, E.set.m - 1)
    u, v, _, half = (f[j] for f in _component_frames(E.set))
    near = np.minimum(t_arr - u, v - t_arr) <= DENSITY_EDGE_GUARD * half
    bad = outside | near
    if np.any(bad):
        raise SetSpecError(
            f"density undefined at {t_arr[np.argmax(bad)]}: not strictly inside a "
            f"component (guard {DENSITY_EDGE_GUARD} of its half-length)"
        )
    # w = exp(log(pi half G)) / (pi sqrt((t - u)(v - t))) on component j
    lw = _log_factor(t_arr, None, j, np.asarray(E.roots), ends)[:, 0]
    out = np.exp(lw) / (np.pi * np.sqrt(t_arr - u) * np.sqrt(v - t_arr))
    return out if np.ndim(t) else float(out[0])


def omega_factor(E: EquilibriumData, a: float) -> float:
    """Edge factor Omega(K, a) = lim_{t -> a-} w(t) sqrt(a - t) at a right endpoint."""
    j = check_interval_condition(E.set, a).component
    ends = np.asarray(E.set.endpoints())
    # w(t) sqrt(a - t) -> G(a) sqrt(half / 2) on [a_j, a], half = (a - a_j) / 2
    lw = _log_factor(np.array([a]), None, np.array([j]), np.asarray(E.roots), ends)[0, 0]
    return math.exp(lw - 0.5 * math.log(a - ends[2 * j])) / math.pi


def _potential_from_tables(K: IntervalSet, coeffs: np.ndarray, x) -> np.ndarray:
    """U at the points x (any shape) from the component tables ``coeffs``
    of K (``EquilibriumData.coeffs``).

    With xi = (x - mid)/half, component j adds half pi sum_k c_k phi_k(xi)
    plus c_0 half pi log(1/half), where phi_k(xi) = (1/pi) int log(1/|xi -
    s|) T_k(s)/sqrt(1-s^2) ds has the closed forms log 2 (k = 0) and
    T_k(xi)/k inside [-1, 1], and, with log zeta = arccosh |xi| (zeta =
    |xi| + sqrt(xi^2 - 1)), log 2 - log zeta and sign(xi)^k zeta^-k / k
    outside.  All components go in one pass over the zero-padded
    (components x terms) array.  The half-lengths enter in units of ell,
    the capacity of the hull (a quarter of its length), and log(1/ell) with
    the unit mass of the equilibrium measure: the tables' summed mass would
    multiply its own rounding by |log ell|, 230 at scale 1e100, while the
    capacity itself is near ell.
    """
    _, _, mid, half = _component_frames(K)
    xi = (np.asarray(x, dtype=float)[..., None] - mid) / half
    inside = np.abs(xi) <= 1.0
    lz = np.arccosh(np.where(inside, 1.0, np.abs(xi)))
    k = np.arange(1, coeffs.shape[1])
    theta = np.arccos(np.clip(xi, -1.0, 1.0))[..., None]
    sign = np.where((xi[..., None] < 0) & (k % 2 == 1), -1.0, 1.0)
    phik = np.where(inside[..., None], np.cos(k * theta), sign * np.exp(-k * lz[..., None])) / k
    ell = ((mid + half).max() - (mid - half).min()) / 4.0
    c0, ck = coeffs[:, 0], coeffs[:, 1:]
    series = c0 * (math.log(2.0) - lz - np.log(half / ell)) + np.sum(ck * phik, axis=-1)
    return np.sum(half * math.pi * series, axis=-1) - math.log(ell)


def _quantiles(E: EquilibriumData, comp: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Points x of component ``comp[i]`` of E.set with equilibrium mass
    ``levels[i]`` on [left end, x]: with x = mid + half*cos(phi) that mass is
    half*(c_0*(pi - phi) - sum_k c_k sin(k phi)/k), falling at the rate
    half*G(cos phi) > 0.  Newton steps from the arcsine quantile (c_0 alone),
    bisecting the bracket whenever a step would leave it, until every step
    is below 1e-10."""
    _, _, mid, half = _component_frames(E.set)
    c, mid, half = E.coeffs[comp], mid[comp], half[comp]
    k = np.arange(1, E.coeffs.shape[1])
    c0, ck, ck_k = c[:, 0], c[:, 1:], c[:, 1:] / k
    lo, hi = np.zeros(len(levels)), np.full(len(levels), np.pi)
    phi = np.pi * (1.0 - levels / E.masses[comp])
    for _ in range(100):
        kphi = phi[:, None] * k
        excess = half * (c0 * (np.pi - phi) - (np.sin(kphi) * ck_k).sum(axis=1)) - levels
        rate = half * (c0 + (np.cos(kphi) * ck).sum(axis=1))
        lo, hi = np.where(excess > 0.0, phi, lo), np.where(excess > 0.0, hi, phi)
        new = phi + excess / rate
        new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
        phi, step = new, np.max(np.abs(new - phi), initial=0.0)
        if step <= 1e-10:
            break
    return mid + half * np.cos(phi)


def equilibrium_potential(E: EquilibriumData, x: float) -> float:
    """Logarithmic potential U(x) = int log(1/|x - t|) dnu(t), any real x."""
    if not math.isfinite(x):
        raise SetSpecError(f"potential needs finite x, got {x}")
    return float(_potential_from_tables(E.set, E.coeffs, x))


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


def _balayage_kernel(xb, xa, tx, ta, tb):
    """Density at t of the balayage of a unit mass at x onto [b, a], from the
    distances |x - b|, |x - a|, |t - x|, a - t and t - b (floats or arrays).
    Roots and quotients are taken alone: a product of distances can overflow."""
    return np.sqrt(xb) / tx * np.sqrt(xa) / np.sqrt(ta) / np.sqrt(tb) / np.pi


def balayage_density(qy: BalayageQuery, t) -> float:
    """Density at t of the balayage of a point mass at qy.x onto [qy.b, qy.a]."""
    t_arr = np.asarray(t, dtype=float)
    # written so that nan fails it too
    if not np.all((t_arr > qy.b) & (t_arr < qy.a)):
        raise SetSpecError(f"density point must lie strictly inside [{qy.b}, {qy.a}]")
    x, b, a = qy.x, qy.b, qy.a
    out = _balayage_kernel(abs(x - b), abs(x - a), np.abs(t_arr - x), a - t_arr, t_arr - b)
    return out if t_arr.ndim else float(out)


def balayage_edge_limit(qy: BalayageQuery) -> float:
    """lim_{t -> a-} sqrt(a - t) * balayage_density(qy, t)."""
    return math.sqrt(abs(qy.x - qy.b)) / math.sqrt(abs(qy.x - qy.a)) / math.sqrt(qy.a - qy.b) / math.pi


def balayage_mass(qy: BalayageQuery) -> float:
    """Total swept mass, 1 for any admissible query.  After the cancellation
    below the integrand is 1/pi at every node: the value checks the change of
    variable, but ``_balayage_kernel`` only at a - t = t - b = 1.

    With t = mid + half*s and x = mid + half*xi, the integral is taken in
    tau, s = (tau - r)/(1 - r tau) with r = -1/xi, which cancels the pole at
    x.  With P = |x - a|, Q = |x - b|, L = a - b and h = (P(1 - tau) + Q(1 +
    tau))/2: a - t = L P(1 - tau)/2h, t - b = L Q(1 + tau)/2h, |x - t| = PQ/h
    and dt/dtau = L PQ/2h^2, no distance taken from t.  The quadrature
    weight's sqrt((1 - tau)(1 + tau)) cancels in closed form against
    sqrt(a - t) sqrt(t - b) = (L/2h) sqrt(PQ) sqrt((1 - tau)(1 + tau)), so
    the integrand is finite at tau = +-1.

    The integrand, with L cancelled, is scale-free, so P and Q are taken
    in units of an even power of two near sqrt(L max(P, Q)): no distance is
    subnormal and no density overflows when the set sits near 1e-300, and
    elsewhere every step rounds as it does in absolute units."""
    x, b, a = qy.x, qy.b, qy.a
    P, Q, L = abs(x - a), abs(x - b), a - b
    k = -2 * ((math.frexp(L)[1] + math.frexp(max(P, Q))[1]) // 4)
    P, Q = math.ldexp(P, k), math.ldexp(Q, k)

    def f(tau, rows):
        h = P * ((1.0 - tau) / 2.0) + Q * ((1.0 + tau) / 2.0)
        # the density times sqrt((a - t)(t - b)), times dt/dtau = L PQ/2h^2
        # and over sqrt((a - t)(t - b)) / sqrt(1 - tau^2) = L sqrt(PQ)/2h
        bal = _balayage_kernel(Q, P, P * (Q / h), 1.0, 1.0)
        return (bal * ((P / h) * (Q / h)) * (h / np.sqrt(P) / np.sqrt(Q)))[None]

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # subnormal distances: refused
            return float(_gauss_cheb_adaptive(f)[0])
    except NumericsError:
        raise NumericsError(f"balayage quadrature on [{b}, {a}] did not converge at "
                            f"QUAD_MAX_NODES = {numerics.QUAD_MAX_NODES} nodes") from None


def decomposition_residual(E: EquilibriumData, ctx: EndpointContext, t: float) -> float:
    """|w_K(t) - (w_[b,a](t) - int_{K \\ [b,a]} Bal(x; t) dnu(x))| with b = a - rho.

    The run-up density dominates w_K pointwise; the correction integral runs
    over K outside [b, a]: every other component, and the home component
    [u, v] cut at b.  All pieces go in one batched quadrature, each in its
    reference variable, with w = exp(``_log_factor``)/(pi sqrt((x-u)(v-x))):
    full components keep their own endpoint singularities in the quadrature
    weight, and on the home piece the factor sqrt((b-x)/(v-x)) swaps the
    weight's artificial cut at b for the singularity at v.
    """
    a, rho = ctx.a, ctx.rho
    b = a - rho
    if not (b < t < a):
        raise SetSpecError(f"probe {t} must lie in (a - rho, a) = ({b}, {a})")
    roots, ends = np.asarray(E.roots), np.asarray(E.set.endpoints())
    home = ctx.component
    hu = E.set.intervals[home][0]
    comp = np.array([j for j in range(E.set.m) if j != home] + [home] * int(hu < b), dtype=int)
    lo, hi = ends[2 * comp], np.where(comp == home, b, ends[2 * comp + 1])
    half = _frame(lo, hi)[1]

    def f(s, rows):
        # sampled from the exact left end: no rounded midpoint shifts a
        # piece; x is clipped to the piece's right end (b on the cut piece,
        # where sqrt(b - x) must not go negative), which s = 1 may round past
        h = half[rows, None] * (1.0 + s)
        x = np.minimum(lo[rows, None] + h, hi[rows, None])
        bal = _balayage_kernel(np.abs(x - b), np.abs(x - a), np.abs(t - x), a - t, t - b)
        out = bal * np.exp(_log_factor(lo[rows], h, comp[rows], roots, ends)) / np.pi
        cut = comp[rows] == home
        out[cut] *= np.sqrt((b - x[cut]) / (a - x[cut]))
        return out

    correction = float(np.sum(_gauss_cheb_adaptive(f, count=comp.size)))
    rhs = 1.0 / (np.pi * math.sqrt((t - b) * (a - t))) - correction
    return float(abs(density(E, t) - rhs))


# ---------------------------------------------------------------------------
# studies


def outer_convergence_study(
    K: IntervalSet, ctx: EndpointContext, m_list: Sequence[int]
) -> list[tuple[int, float]]:
    """Omega(K_m^+, a) along the outer filtration; nondecreasing in m.
    Every m is checked before the first solve; the approximants are then
    built and solved one at a time."""
    ms = [int(m) for m in m_list]
    return [(m, omega_factor(solve_equilibrium(Km), ctx.a))
            for m, Km in zip(ms, outer_approximants(K, ctx, ms))]


# ---------------------------------------------------------------------------
# export


def to_record(E: EquilibriumData) -> dict:
    """JSON-ready record {set, roots, cap, robin, mass}.

    ``roots`` are the gap-polynomial roots, one per bounded gap; q itself is
    their monic product, whose monomial coefficients are numerically
    meaningless beyond a few dozen gaps.
    """
    return {
        "set": {"intervals": [[l, r] for l, r in E.set.intervals]},
        "roots": list(E.roots),
        "cap": E.cap,
        "robin": E.robin,
        "mass": E.mass,
    }


def density_table(
    E: EquilibriumData, points_per_component: int = 200
) -> list[tuple[float, float]]:
    """(t, w(t)) rows on interior arccos-spaced grids, one block per component."""
    theta = np.linspace(0.0, np.pi, points_per_component + 2)[1:-1]
    _, _, mid, half = _component_frames(E.set)
    ts = (mid[:, None] + half[:, None] * np.cos(theta[::-1])).ravel()
    return list(zip(ts.tolist(), density(E, ts).tolist()))
