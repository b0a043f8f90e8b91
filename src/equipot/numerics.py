"""Shared numeric kernels.

Four kernels live here, each with a caller in the library:

* ``_gauss_cheb_adaptive(f, u, v[, cfg, count])``: Gauss-Chebyshev sums of
  int_u^v f(t) / sqrt((t-u)(v-t)) dt for smooth f (the inverse-square-root
  endpoint singularities are absorbed by the weight), with node doubling
  until successive estimates agree; with ``count``, of that many integrands
  at once, each stopping by its own estimates.  ``balayage_mass`` and
  ``decomposition_residual`` integrate one function; the equilibrium
  solver's first gap pass and gap verifier each integrate the moments of
  all gaps in one call, mapped onto [-1, 1].
* ``chebyshev_expand(f, u, v[, count])``: adaptively truncated Chebyshev
  coefficients of a smooth f on [u, v]; with ``count``, of that many
  functions at once, as the equilibrium solver expands the density factors
  of all components together.
* ``_cheb_u(m, p, q)``: the second-kind Chebyshev polynomial U_m(w), given
  w through p = c (1 - w) and q = c (1 + w) for a common c > 0, in angle
  form: O(1) per point, and accurate near w = +-1 when the caller forms the
  two factors without cancellation.  The Schur witnesses evaluate
  H_m = U_m through it, and ``cheb_T_deriv(n, x)`` = n U_{n-1}(x) on all of
  R is its public face.  Chebyshev series themselves are
  ``numpy.polynomial.Chebyshev``.
* ``lp_maximize(LPProblem(objective, rows[, base]))``: max objective . y
  subject to |rows . y| <= 1 and |y_j| <= 1, the nodal-value LP of the
  extremal probe, each row one ranged HiGHS row -1 <= rows . y <= 1, with
  a deterministic three-rung ladder and a duality-gap audit.  The caller
  drives semi-infinite refinement by appending rows: a problem whose
  ``base`` is the previous one of its probe takes over that problem's
  HiGHS model, adds only the new rows and re-solves from the last basis.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.fft
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .config import DEFAULTS, NumericsConfig
from .errors import NumericsError, SetSpecError

# ---------------------------------------------------------------------------
# quadrature


def _gauss_cheb_adaptive(
    f: Callable[..., np.ndarray],
    u: float,
    v: float,
    cfg: NumericsConfig = DEFAULTS,
    count: int | None = None,
) -> np.ndarray:
    """int_u^v f(t)/sqrt((t-u)(v-t)) dt by Gauss-Chebyshev sums.

    f takes the array of nodes and may return shape (N,) or (k, N); the
    result is a 0-d or (k,) array.  Node counts double from quad_min_nodes
    until the sup-change between successive estimates falls below
    quad_rel_tol relative to the largest component magnitude; the sum is
    exact for polynomial f of degree < 2N at N nodes.

    With ``count``, ``count`` integrands are summed together and the result
    has one leading row per integrand: f(t, rows) gives those numbered
    ``rows`` (indices into range(count)) at the nodes t as a (len(rows),
    N) or (len(rows), k, N) array, and each integrand stops doubling by the
    rule above on its own components.
    """
    if not v > u:
        raise SetSpecError(f"integration interval needs u < v, got [{u}, {v}]")
    single = count is None
    if single:
        one, count = f, 1

        def f(t, rows):
            return np.asarray(one(t), dtype=float)[None]

    mid, half = (u + v) / 2.0, (v - u) / 2.0
    todo = np.arange(count)
    out = prev = None
    N = cfg.quad_min_nodes
    while N <= cfg.quad_max_nodes:
        theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
        t = mid + half * np.cos(theta)
        est = np.asarray(f(t, todo), dtype=float).sum(axis=-1) * (np.pi / N)
        if prev is not None:
            axes = tuple(range(1, est.ndim))
            scale = np.maximum(np.abs(est).max(axis=axes), np.abs(prev).max(axis=axes))
            done = (scale == 0.0) | (np.abs(est - prev).max(axis=axes) <= cfg.quad_rel_tol * scale)
            out[todo[done]] = est[done]
            todo, est = todo[~done], est[~done]
            if not todo.size:
                return out[0] if single else out
        else:
            out = np.empty((count,) + est.shape[1:])
        prev = est
        N *= 2
    which = "" if single else f" of integrand {todo[0]}"
    raise NumericsError(
        f"endpoint-singular quadrature{which} on [{u}, {v}] did not converge at "
        f"{cfg.quad_max_nodes} nodes; last estimate {np.ravel(est[0])[:4]}"
    )


# Chebyshev expansion: node range and the relative size of a negligible tail
EXPAND_MIN_NODES = 64
EXPAND_MAX_NODES = 1 << 13
EXPAND_TAIL_TOL = 1e-14


def _truncate_coeffs(c: np.ndarray, threshold: float) -> np.ndarray:
    keep = np.nonzero(np.abs(c) > threshold)[0]
    return c[: keep[-1] + 1].copy() if len(keep) else c[:1].copy()


def chebyshev_expand(
    f: Callable[..., np.ndarray],
    u: float,
    v: float,
    count: int | None = None,
):
    """Chebyshev coefficients of a smooth f on [u, v], adaptively truncated.

    Interpolates at first-kind nodes, doubling the count until the trailing
    quarter of the coefficients is negligible relative to the largest one.
    When the tail stops shrinking between doublings it has hit the rounding
    floor of the sampled values (the floor itself grows like sqrt(N)); the
    level with the smaller tail is then accepted.  Trailing coefficients
    below the accepted floor are dropped.

    With ``count``, ``count`` functions are expanded together and a list of
    their coefficient arrays is returned: f(t, rows) gives the functions
    numbered ``rows`` (indices into range(count)) at the nodes t as a
    (len(rows), len(t)) array, and each function stops doubling by its own
    rule.
    """
    if not v > u:
        raise SetSpecError(f"expansion interval needs u < v, got [{u}, {v}]")
    single = count is None
    if single:
        one, count = f, 1

        def f(t, rows):
            return np.reshape(one(t), (1, -1))

    mid, half = (u + v) / 2.0, (v - u) / 2.0
    out: list = [None] * count
    todo = np.arange(count)
    best_c, best_tail = None, None
    N = EXPAND_MIN_NODES
    while True:
        theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
        vals = np.asarray(f(mid + half * np.cos(theta), todo), dtype=float)
        # discrete cosine transform at first-kind nodes
        c = scipy.fft.dct(vals, type=2, axis=1) / N
        c[:, 0] *= 0.5
        scale = np.max(np.abs(c), axis=1)
        tail = np.max(np.abs(c[:, -max(N // 4, 1):]), axis=1)
        # a zero function ends here too, as one zero coefficient
        done = tail <= EXPAND_TAIL_TOL * scale
        for r in np.flatnonzero(done):
            out[todo[r]] = _truncate_coeffs(c[r], EXPAND_TAIL_TOL * scale[r])
        if best_tail is not None:
            floor = ~done & (tail >= 0.5 * best_tail)
            for r in np.flatnonzero(floor):
                cb, tb = (c[r], tail[r]) if tail[r] < best_tail[r] else (best_c[r], best_tail[r])
                out[todo[r]] = _truncate_coeffs(cb, max(EXPAND_TAIL_TOL * scale[r], 2.0 * tb))
            done |= floor
        if done.all():
            return out[0] if single else out
        if N >= EXPAND_MAX_NODES:
            r = np.flatnonzero(~done)[0]
            which = "" if single else f" of function {todo[r]}"
            raise NumericsError(
                f"Chebyshev expansion{which} on [{u}, {v}] did not resolve at "
                f"{EXPAND_MAX_NODES} nodes (tail {tail[r]:.3e} vs scale {scale[r]:.3e})"
            )
        todo, best_c, best_tail = todo[~done], c[~done], tail[~done]
        N *= 2


# ---------------------------------------------------------------------------
# second-kind Chebyshev polynomials


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
    Each point costs O(1) whatever m.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
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


def cheb_T_deriv(n: int, x):
    """Derivative T_n'(x) = n U_{n-1}(x), in O(1) per point.

    Beyond [-1, 1] the accuracy rests on the rounded 1 - x and 1 + x still
    summing to about 2: it degrades as |x| nears 2**53, and from 2**54 on
    the value is +-inf for n > 1.
    """
    if n < 0:
        raise SetSpecError(f"cheb_T_deriv needs n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.zeros_like(x) if x.ndim else 0.0
    return n * _cheb_u(n - 1, 1.0 - x, 1.0 + x)


# ---------------------------------------------------------------------------
# LP kernel


@dataclasses.dataclass(frozen=True)
class LPProblem:
    """max objective . y  subject to  |rows . y| <= 1 and |y_j| <= 1.

    In the extremal probe y holds the values of P at its interpolation
    nodes and ``rows`` the Lagrange basis at the working-set points, so the
    box bounds say |P| <= 1 at the nodes and every variable is bounded.
    ``base``, if given, is an earlier problem of the same probe whose rows
    are the leading rows of this one; ``lp_maximize`` then hands base's
    HiGHS model on to this problem instead of building a fresh one.
    """

    objective: np.ndarray
    rows: np.ndarray
    base: LPProblem | None = None
    # the solved HiGHS model, held until a later problem takes it as its base
    _model: list = dataclasses.field(default_factory=list, init=False, repr=False, compare=False)


# HiGHS options of the first rung: tight feasibility tolerances, and no
# presolve, which on these dense rows takes longer than the cold solve it
# precedes (a warm re-solve skips it anyway); accepted duality gap,
# relative to max(1, |value|)
LP_FEASIBILITY_TOL = 1e-10
LP_GAP_TOL = 1e-9
_WARM_OPTIONS = {"primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                 "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
                 "presolve": "off"}


def _add_rows(h: _Highs, rows: np.ndarray) -> None:
    """Append dense rows to the model as ranged rows -1 <= row . y <= 1."""
    k, n = rows.shape
    if k:
        h.addRows(k, np.full(k, -1.0), np.full(k, 1.0), k * n,
                  np.arange(0, k * n, n, dtype=np.int32),
                  np.tile(np.arange(n, dtype=np.int32), k), rows.ravel())


def _highs_rung(problem: LPProblem, cost: np.ndarray, rows: np.ndarray, warm: bool):
    """Solve on a HiGHS model; returns (y, duals), or None when HiGHS ends
    in any status but optimal.

    ``warm``: base's model with the new rows appended (a fresh one when
    there is no base, it holds no model or its rows do not lead) at tight
    tolerances, kept for a later problem when it solves; otherwise a fresh
    model at the default tolerances.
    """
    base = problem.base
    h = None
    if warm and base is not None and base._model:
        h = base._model.pop()
        if not np.array_equal(base.rows, rows[:len(base.rows)]):
            h = None
    if h is None:
        h = _Highs()
        h.setOptionValue("output_flag", False)
        for key, val in (_WARM_OPTIONS if warm else {}).items():
            h.setOptionValue(key, val)
        h.addVars(len(cost), np.full(len(cost), -1.0), np.full(len(cost), 1.0))
    h.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
    _add_rows(h, rows[h.getNumRow():])
    h.run()
    if h.getModelStatus() != HighsModelStatus.kOptimal:
        return None
    if warm:
        problem._model.append(h)
    sol = h.getSolution()
    return np.array(sol.col_value), np.concatenate([sol.row_dual, sol.col_dual])


def _linprog_rung(cost: np.ndarray, rows: np.ndarray):
    """Solve with scipy's public ``linprog``, each row stacked twice as
    rows . y <= 1 and -rows . y <= 1, without presolve; None on failure."""
    res = linprog(cost, A_ub=np.vstack([rows, -rows]), b_ub=np.ones(2 * len(rows)),
                  bounds=[(-1.0, 1.0)] * len(cost), method="highs",
                  options={"presolve": False})
    if res.status != 0:
        return None
    return np.asarray(res.x, dtype=float), np.concatenate(
        [res.ineqlin.marginals, res.upper.marginals, res.lower.marginals])


def lp_maximize(problem: LPProblem) -> tuple[float, np.ndarray]:
    """Solve the finite sup-norm LP; returns (value, maximiser).

    HiGHS sees the objective scaled to max-modulus 1, since its dual
    feasibility tolerance is absolute.  The ladder's first rung runs the
    model handed on from ``problem.base`` (a fresh one without it) at tight
    feasibility tolerances, re-solving warm from its last basis; on a
    solver failure it retries on a fresh model at the default tolerances,
    then with ``linprog`` without presolve.
    """
    d = np.asarray(problem.objective, dtype=float)
    scale = float(np.max(np.abs(d))) or 1.0
    cost = -d / scale
    rows = np.ascontiguousarray(problem.rows, dtype=float)
    out = (_highs_rung(problem, cost, rows, warm=True)
           or _highs_rung(problem, cost, rows, warm=False)
           or _linprog_rung(cost, rows))
    if out is None:
        raise NumericsError("LP solver failed on every rung of the ladder")
    y, duals = out
    value = float(d @ y)
    # duality gap audit: with every row and variable bounded by -1 and 1,
    # the dual objective of the minimisation is -sum |dual|, whichever
    # bound each multiplier belongs to
    gap = abs(float(cost @ y) + float(np.sum(np.abs(duals)))) * scale
    if gap > LP_GAP_TOL * max(1.0, abs(value)):
        raise NumericsError(
            f"LP duality gap {gap:.3e} exceeds {LP_GAP_TOL} relative"
        )
    return value, y
