"""Sup-norm extremal probes of the endpoint derivative growth constant.

For each degree n this module solves

    maximise |P'(a)|  over polynomials with deg P <= n, |P| <= 1 on K,

as a linear program and worms the finite relaxation down to the continuum
by an exchange loop.  Dividing the optimal |P'(a)| by n^2 gives a per-degree
ratio whose asymptotic envelope is the sharp constant 2 pi^2 Omega(K, a)^2
computed independently from the equilibrium density; a study collects the
ratios and flags any excursion above that envelope.

Numerical core: polynomials are parametrised by their values at exactly
n + 1 interpolation nodes at equilibrium quantiles, shared out to the
components by mass with largest remainders (all component endpoints
included when each gets two or more).  On a union of intervals any fixed
global polynomial basis explodes in the gaps - Chebyshev coefficients of
the hull grow like exp(n * g_K inside the gap) and are unusable in double
precision beyond degree ~40 - while equilibrium-distributed nodal values
keep every constraint row bounded by a small Lebesgue constant at all
tested degrees.  No node test has an absolute tolerance, so results follow
the set's affine covariance at any scale.  Each result carries its witness
in this one form, nodes plus nodal values.

The LP is solved on a small working set, not on a dense grid, in the manner
of the barycentric Remez exchange (Pachon & Trefethen, BIT 49, 2009): by
Caratheodory the optimum rests on at most n + 1 active points.  The set is
seeded with an arccos-spaced grid of n + 1 points per component, less any
that are interpolation nodes (on a single interval all of them are, and the
LP starts with its box bounds alone); each exchange round appends the
witness's refined local maxima that overshoot, in order, so the set only
grows and the LP value falls monotonically until the overshoot is below
tolerance.  The rounds grow one LP in place: only the new points' Lagrange
rows are formed and appended, and the LP's own HiGHS model re-solves warm
from its last basis.  The witness itself is evaluated matrix-free by the
barycentric formula, and on fine grids in angle: on each component it is a
cosine series of degree n, so its values at the n + 1 Lobatto angles give
its values at M equispaced angles by two DCT-Is.  Two certificates stay
independent of the working set: the witness is validated on such a grid
of 128*(n+1) angles per component (one doubling of the seed and of that
grid is allowed), and it is finally renormalised by its refined sup-norm,
so the reported value is a certified lower bound.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Chebyshev

from .config import DEFAULTS, NumericsConfig
from .equilibrium import EquilibriumData, density, green, omega_factor, solve_equilibrium
from .errors import NumericsError, SetSpecError
from .interval_sets import IntervalSet, _component_frames, check_interval_condition
from .numerics import LPProblem, _dct1, _fast_len, lp_maximize

# points per component and per unit of n + 1: the exchange loop's arccos
# seed grid, which only starts the working set (the exchange adds the points
# the witness needs), the coarse scan of the refined maxima, and the
# witness's angle-domain validation grid
SEED_PER_DEGREE = 1
SCAN_PER_DEGREE = 16
VALIDATION_PER_DEGREE = 128
# accepted overshoot of the exchange loop's witness above 1, and the loop's
# round cap (read at each solve)
EXCHANGE_TOL = 1e-9
EXCHANGE_ROUNDS = 30


# ---------------------------------------------------------------------------
# interpolation nodes at equilibrium quantiles


def _quantiles(K: IntervalSet, coeffs: np.ndarray, comp: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Points x of component ``comp[i]`` of K with equilibrium mass
    ``levels[i]`` on [left end, x], from the component tables ``coeffs``
    (``EquilibriumData.coeffs``): with x = mid + half*cos(phi) that mass is
    half*(c_0*(pi - phi) - sum_k c_k sin(k phi)/k), falling at the rate
    half*G(cos phi) > 0.  Newton steps from the arcsine quantile (c_0 alone),
    bisecting the bracket whenever a step would leave it, until every step
    is below 1e-10."""
    _, _, mid, half = _component_frames(K)
    c, mid, half = coeffs[comp], mid[comp], half[comp]
    k = np.arange(1, coeffs.shape[1])
    c0, ck, ck_k = c[:, 0], c[:, 1:], c[:, 1:] / k
    lo, hi = np.zeros(len(levels)), np.full(len(levels), np.pi)
    phi = np.pi * (1.0 - levels / (half * np.pi * c0))
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


def _interpolation_nodes(E: EquilibriumData, n: int) -> np.ndarray:
    """Exactly n + 1 nodes at equilibrium quantiles, apportioned to the
    components by mass with largest remainders.  When every component's
    share is at least 2, each gets its endpoints plus interior quantiles at
    equal mass steps; otherwise the nodes are global equilibrium quantiles
    at midpoint levels, which stay distinct and well spread.
    """
    total = n + 1
    masses = _component_frames(E.set)[3] * math.pi * E.coeffs[:, 0]
    # shares rounded to 9 decimals, so that equal masses tie exactly
    # whatever rounding noise they carry
    raw = np.round(masses / masses.sum() * total, 9)
    alloc = np.floor(raw).astype(int)
    alloc[np.argsort(alloc - raw, kind="stable")[: total - alloc.sum()]] += 1
    if alloc.min() < 2:
        levels = masses.sum() * (np.arange(total) + 0.5) / total
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        comp = np.searchsorted(cum, levels) - 1
        return np.sort(_quantiles(E.set, E.coeffs, comp, levels - cum[comp]))
    comp = np.repeat(np.arange(len(alloc)), alloc - 2)
    levels = np.concatenate([mass * np.arange(1, nj - 1) / (nj - 1) for mass, nj in zip(masses, alloc)])
    return np.sort(np.concatenate([np.ravel(E.set.intervals), _quantiles(E.set, E.coeffs, comp, levels)]))


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights in log space, rescaled to max modulus 1."""
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    lw = -np.sum(np.log(np.abs(diff)), axis=1)
    sg = np.prod(np.sign(diff), axis=1)
    return sg * np.exp(lw - lw.max())


def _lagrange_rows(x: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matrix of Lagrange basis values l_j(x_i), the LP rows; exact unit rows at nodes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    q = w[None, :] / np.where(hit, 1.0, diff)
    rows = q / q.sum(axis=1, keepdims=True)
    at_node = hit.any(axis=1)
    rows[at_node] = hit[at_node]
    return rows


# points per block of the matrix-free barycentric evaluation
BARY_CHUNK = 2048


def _bary_eval(x, nodes: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """P(x) = sum_j w_j v_j/(x - x_j) / sum_j w_j/(x - x_j), P = v_j at a node.

    The second barycentric formula, formed BARY_CHUNK points at a time, so
    no Lagrange matrix of all the points is ever held.  ``nodes`` ascend; a
    point equal to a node takes that node's value (the formula is stable
    arbitrarily close to one, so no window around the nodes is needed).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.searchsorted(nodes, x).clip(0, len(nodes) - 1)
    hit = x == nodes[j]
    weights = np.column_stack([w * values, w])
    out = np.empty(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(x), BARY_CHUNK):
            q = np.subtract.outer(x[s:s + BARY_CHUNK], nodes)
            np.divide(1.0, q, out=q)
            num, den = (q @ weights).T
            out[s:s + BARY_CHUNK] = num / den
    out[hit] = values[j[hit]]
    return out


def _deriv_row(nodes: np.ndarray, w: np.ndarray, x: float) -> np.ndarray:
    """Row of l_j'(x): the node formula within 1e-13 of the node span of a node,
    else l_j (sum_k q_k r_k/Q - r_j), r_k = 1/(x - x_k), q_k = w_k r_k, Q = sum q_k."""
    j = int(np.argmin(np.abs(nodes - x)))
    if abs(nodes[j] - x) <= 1e-13 * (nodes[-1] - nodes[0]):
        D = np.zeros(len(nodes))
        mask = np.arange(len(nodes)) != j
        D[mask] = (w[mask] / w[j]) / (nodes[j] - nodes[mask])
        D[j] = -D.sum()
        return D
    r = 1.0 / (x - nodes)
    q = w * r
    Q = q.sum()
    return q / Q * ((q * r).sum() / Q - r)


# ---------------------------------------------------------------------------
# grids and refined maxima


def _arccos_grid(K: IntervalSet, per_component: int) -> np.ndarray:
    """``per_component`` arccos-spaced points on each component, clipped
    onto it, since mid -/+ half can round one ulp past an endpoint; all of
    them sorted, without repeats."""
    u, v, mid, half = _component_frames(K)
    theta = np.linspace(0.0, np.pi, per_component)
    return np.unique(np.clip(mid[:, None] + half[:, None] * np.cos(theta), u[:, None], v[:, None]))


def _angle_values(evalP: Callable[[np.ndarray], np.ndarray], K: IntervalSet, n: int, M: int) -> np.ndarray:
    """Values of a polynomial P of degree <= n at the M equispaced angles
    theta = linspace(0, pi, M) of every component, x = mid + half*cos(theta):
    an (m, M) array, M raised so that M - 1 is a fast FFT length: the
    smallest 11-smooth number >= max(M, n + 2) - 1, ``numerics._fast_len``.

    On each component P is a cosine series of degree n in theta.  P is
    evaluated only at the n + 1 Lobatto angles pi*k/n of every component;
    a DCT-I of those values gives the series, and a DCT-I of the series
    zero-padded to M terms gives its values on the fine grid.  The DCTs
    run on the values scaled by the power of two that brings their largest
    modulus into [1/2, 1), which changes no bit of a finite result but keeps
    sums near the top of the float range finite; an inf among the values
    leaves its row nan.
    """
    # at least n + 2 angles, so that the series' last term is an inner one
    # of the padded DCT-I (its end terms carry half weight)
    M = _fast_len(max(M, n + 2) - 1) + 1
    u, v, mid, half = _component_frames(K)
    lobatto = np.cos(np.linspace(0.0, np.pi, n + 1))
    x = np.clip(mid[:, None] + half[:, None] * lobatto, u[:, None], v[:, None])
    vals = evalP(x.ravel()).reshape(K.m, n + 1)
    e = np.frexp(np.max(np.abs(vals)))[1]
    series = np.zeros((K.m, M))
    series[:, : n + 1] = _dct1(np.ldexp(vals, -e)) / (2 * n)
    # the Lobatto end term enters the forward DCT-I with half the weight of an inner one
    series[:, n] /= 2.0
    return np.ldexp(_dct1(series), e)


def _refined_maxima(
    evalP: Callable[[np.ndarray], np.ndarray], K: IntervalSet, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima (x, |P(x)|) of |P| on K, polished by three parabola stages in angle.

    The coarse scan takes P on SCAN_PER_DEGREE*(n + 1) angles per component
    (or a few more) from ``_angle_values``.  Each stage then evaluates P
    once, at the three probe angles of every maximum of every component
    together.  A point that rounds past an endpoint is moved onto it, since
    |P| one ulp outside K can exceed its norm on K.
    """
    u, v, mid, half = _component_frames(K)

    def at(c: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.clip(mid[c] + half[c] * np.cos(t), u[c], v[c])

    vals = np.abs(_angle_values(evalP, K, n, SCAN_PER_DEGREE * (n + 1)))
    theta = np.linspace(0.0, np.pi, vals.shape[1])
    h = theta[1] - theta[0]
    edge = np.ones((K.m, 1), dtype=bool)
    isloc = np.hstack([edge, vals[:, 1:] >= vals[:, :-1]]) & np.hstack(
        [vals[:, :-1] >= vals[:, 1:], edge]
    )
    # a run of tied maxima keeps its first sample: a flat |P| would otherwise
    # be polished at every scan angle
    isloc[:, 1:] &= ~(isloc[:, :-1] & (vals[:, 1:] == vals[:, :-1]))
    comp, j = np.nonzero(isloc)
    t0 = theta[j]
    for _ in range(3):
        tt = np.clip(t0[:, None] + np.array([-h, 0.0, h]), 0.0, np.pi)
        vv = np.abs(evalP(at(comp[:, None], tt).ravel())).reshape(-1, 3)
        curv = vv[:, 0] - 2.0 * vv[:, 1] + vv[:, 2]
        step = curv < -1e-300
        vertex = tt[:, 1] + 0.5 * h * (vv[:, 0] - vv[:, 2]) / np.where(step, curv, -1.0)
        t0 = np.where(step, np.clip(vertex, 0.0, np.pi), t0)
        h /= 8.0
    x = at(comp, t0)
    return x, np.abs(evalP(x))


def _apart(x: np.ndarray, pts: np.ndarray, sep: float) -> np.ndarray:
    """The points of x farther than ``sep`` from every point of ``pts``
    (all of x when ``pts`` is empty), by a binary search of the sorted pts
    for each point's two neighbours."""
    if len(pts) == 0:
        return x
    s = np.sort(pts)
    j = np.searchsorted(s, x)
    near = np.minimum(np.abs(x - s[np.maximum(j - 1, 0)]), np.abs(x - s[np.minimum(j, len(s) - 1)]))
    return x[near > sep]


# ---------------------------------------------------------------------------
# results


@dataclasses.dataclass(frozen=True)
class ExtremalResult:
    """One degree of the extremal probe.

    ``value`` is |P'(a)| of the final normalised witness, a certified lower
    bound for the continuum optimum; ``ratio`` = value / degree**2.  The
    witness is its values ``node_values`` at the ascending interpolation
    ``nodes``; ``evaluate`` applies the barycentric formula to them (Berrut
    & Trefethen, SIAM Rev. 46, 2004), which stays accurate on K at high
    degree, where coefficients in a global basis of the hull do not.
    ``overshoot`` is the worst |P| - 1 on K of the exchange loop's final
    witness before renormalisation; above ``EXCHANGE_TOL`` it shows that
    the loop stalled, ran out of new points or hit its round cap.
    """

    degree: int
    value: float
    ratio: float
    active_points: np.ndarray
    nodes: np.ndarray = dataclasses.field(repr=False)
    node_values: np.ndarray = dataclasses.field(repr=False)
    exchange_rounds: int = 0
    grid_doubled: bool = False
    overshoot: float = 0.0

    def evaluate(self, x):
        """The witness at x by the barycentric formula: accurate on K only.
        In the gaps of K, where |P| grows like exp(n g_K), the formula's
        sum cancels and the value can be off by orders of magnitude."""
        out = _bary_eval(x, self.nodes, _bary_weights(self.nodes), self.node_values)
        return out if np.ndim(x) else float(out[0])


@dataclasses.dataclass(frozen=True)
class MarkovStudy:
    set: IntervalSet
    a: float
    rows: tuple[ExtremalResult, ...]
    limit_constant: float
    flagged: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# the probe


def _solve_once(
    K: IntervalSet,
    n: int,
    nodes: np.ndarray,
    w: np.ndarray,
    objective: np.ndarray,
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Working-set LP plus exchange, seeded with ``grid``.

    One LP per call: each round appends its new points' rows to it, and
    HiGHS re-solves it warm from its last basis.  Returns (node values,
    then x and |P(x)| at the refined maxima of that witness, rounds, and
    whether the loop stopped at ``EXCHANGE_ROUNDS``).
    """
    sep = 1e-13 * (K.max - K.min)

    def maxima(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _refined_maxima(lambda x: _bary_eval(x, nodes, w, vals), K, n)

    pts = _apart(grid, nodes, sep)
    prob = LPProblem(objective, _lagrange_rows(pts, nodes, w))
    vals = lp_maximize(prob)[1]
    rounds = 0
    best_worst = np.inf
    stall = 0
    capped = False
    for rounds in range(1, EXCHANGE_ROUNDS + 1):
        xs, ms = maxima(vals)
        worst = float(np.max(ms))
        if worst <= 1.0 + EXCHANGE_TOL:
            break
        # progress may be non-monotone; give up only after three stalled rounds
        if worst < best_worst:
            best_worst, stall = worst, 0
        else:
            stall += 1
            if stall >= 3:
                break
        new = _apart(xs[ms > 1.0 + 1e-12], np.concatenate([nodes, pts]), sep)
        if len(new) == 0:
            break
        pts = np.concatenate([pts, new])
        prob.add_rows(_lagrange_rows(new, nodes, w))
        vals = lp_maximize(prob)[1]
    else:
        xs, ms = maxima(vals)  # the round cap was hit after a fresh solve
        capped = True
    return vals, xs, ms, rounds, capped


def _check_degrees(degrees: Sequence[int], cfg: NumericsConfig) -> None:
    bad = [n for n in degrees if not 1 <= n <= cfg.markov_degree_cap]
    if bad:
        raise SetSpecError(f"degree must lie in [1, {cfg.markov_degree_cap}], got {bad[0]}")


def markov_extremal(
    E: EquilibriumData,
    a: float,
    n: int,
    cfg: NumericsConfig = DEFAULTS,
) -> ExtremalResult:
    """Solve max |P'(a)| over degree <= n with |P| <= 1 on K = E.set.

    ``E`` is the solved equilibrium of K, which places the interpolation
    nodes.  The objective maximises P'(a) directly; by the P -> -P symmetry
    of the feasible set this equals the maximum of |P'(a)|.
    """
    _check_degrees([n], cfg)
    check_interval_condition(E.set, a)
    nodes = _interpolation_nodes(E, n)
    w = _bary_weights(nodes)
    return _extremal_core(E.set, n, nodes, w, _deriv_row(nodes, w, a))


def _extremal_core(
    K: IntervalSet,
    n: int,
    nodes: np.ndarray,
    w: np.ndarray,
    d: np.ndarray,
) -> ExtremalResult:
    """max d . y over the nodal values y of P of degree <= n with |P| <= 1
    on K, for the objective row d on the interpolation nodes and their
    barycentric weights w; the witness is renormalised to sup-norm 1."""
    # seed grid and validation grid; one doubling of both allowed before
    # giving up, unless the loop ran out of rounds, which a denser seed
    # would not give back
    for doubling in (1, 2):
        seed = _arccos_grid(K, doubling * SEED_PER_DEGREE * (n + 1))
        vals, xs, ms, rounds, capped = _solve_once(K, n, nodes, w, d, seed)
        check = _angle_values(lambda x: _bary_eval(x, nodes, w, vals), K, n,
                              doubling * VALIDATION_PER_DEGREE * (n + 1))
        if np.max(np.abs(check)) <= 1.0 + 1e-6:
            break
        if capped:
            raise NumericsError(
                f"witness validation failed at degree {n}: the exchange loop stopped at "
                f"its cap of {EXCHANGE_ROUNDS} rounds with overshoot {float(np.max(ms)) - 1.0:.2e}"
            )
    else:
        raise NumericsError(
            f"witness validation failed after one grid refinement at degree {n}"
        )

    # the final witness's maxima give both its sup-norm and its oscillation set
    S = float(np.max(ms))
    if not math.isfinite(S) or S <= 0:
        raise NumericsError(f"degenerate witness norm {S} at degree {n}")
    vals = vals / S
    value = abs(float(d @ vals))
    return ExtremalResult(
        degree=n,
        value=value,
        ratio=value / n**2,
        active_points=np.sort(xs[ms / S >= 1.0 - 1e-9]),
        nodes=nodes,
        node_values=vals,
        exchange_rounds=rounds,
        grid_doubled=doubling == 2,
        overshoot=S - 1.0,
    )


def markov_study(
    K: IntervalSet,
    a: float,
    degrees: Sequence[int],
    cfg: NumericsConfig = DEFAULTS,
) -> MarkovStudy:
    """Per-degree extremal results against the equilibrium limit constant.
    Every degree is checked before the equilibrium solve."""
    degs = [int(n) for n in degrees]
    _check_degrees(degs, cfg)
    if any(n2 <= n1 for n1, n2 in zip(degs, degs[1:])):
        raise SetSpecError("degrees must be strictly increasing")
    E = solve_equilibrium(K)
    limit = 2.0 * math.pi**2 * omega_factor(E, a) ** 2
    rows = tuple(markov_extremal(E, a, n, cfg) for n in degs)
    flagged = tuple(r.degree for r in rows if r.ratio > limit * 1.02)
    return MarkovStudy(set=K, a=a, rows=rows, limit_constant=limit, flagged=flagged)


def derivative_norm_probe(
    K: IntervalSet,
    a: float,
    n: int,
    grid_points: int = 50,
    cfg: NumericsConfig = DEFAULTS,
) -> tuple[float, float]:
    """(value at a, max value over a grid on [a - rho, a]) for the pointwise
    objective versus run-up-norm objective comparison."""
    if grid_points < 1:
        raise SetSpecError(f"grid_points must be at least 1, got {grid_points}")
    _check_degrees([n], cfg)
    ctx = check_interval_condition(K, a)
    theta = np.linspace(0.0, np.pi, grid_points)
    probes = a - ctx.rho / 2.0 + (ctx.rho / 2.0) * np.cos(theta)
    # one node set and one weight vector serve every objective row
    nodes = _interpolation_nodes(solve_equilibrium(K), n)
    w = _bary_weights(nodes)
    at_a, *rest = (_extremal_core(K, n, nodes, w, _deriv_row(nodes, w, float(x))).value
                   for x in (a, *probes))
    return at_a, max(rest)


# ---------------------------------------------------------------------------
# inequality audits


def _poly_norm_on_set(P, K: IntervalSet, n: int) -> float:
    """||P||_K for P of degree <= n: the largest of its refined maxima, or
    inf once a value of P taken on K is not finite (an overflowed sample
    leaves its component with no maxima, and the rest would understate it)."""
    finite = []

    def evalP(x):
        v = np.asarray(P(x), dtype=float)
        finite.append(np.isfinite(v).all())
        return v

    with np.errstate(over="ignore", invalid="ignore"):
        _, moduli = _refined_maxima(evalP, K, max(n, 1))
    return float(np.max(moduli)) if all(finite) else math.inf


def bernstein_audit(
    E: EquilibriumData,
    P: Chebyshev,
    probes: Sequence[float],
) -> float:
    """max over probes of |P'(x)| / (n pi w(x) ||P||_K); at most 1 for true
    polynomials of degree n (the interior derivative bound)."""
    n = P.degree()
    if n == 0:
        return 0.0
    norm = _poly_norm_on_set(P, E.set, n)
    x = np.asarray(probes, dtype=float)
    ratio = np.abs(P.deriv()(x)) / (n * math.pi * density(E, x) * norm)
    return float(np.max(ratio, initial=0.0))


def bernstein_walsh_audit(
    E: EquilibriumData,
    P: Chebyshev,
    z: float,
) -> float:
    """|P(z)| / (||P||_K exp(n g(z))) for z outside the set; at most 1."""
    if E.set.contains(z):
        raise SetSpecError(f"audit point {z} must lie outside the set")
    n = P.degree()
    norm = _poly_norm_on_set(P, E.set, n)
    return float(abs(P(z)) / (norm * math.exp(n * green(E, z))))


# ---------------------------------------------------------------------------
# export


def study_rows(study: MarkovStudy) -> list[tuple[int, float, float, float]]:
    """(degree, value, ratio, limit_constant) rows for CSV/JSON export."""
    return [(r.degree, r.value, r.ratio, study.limit_constant) for r in study.rows]
