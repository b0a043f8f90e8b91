"""Shared numeric kernels: quadrature, expansion and LP.

The two adaptive kernels work on the reference interval [-1, 1] only, in
one calling convention: ``f(s, rows)`` gives the functions numbered
``rows`` (indices into range(count), ``count`` 1 by default) at the nodes
s in [-1, 1], one leading row each, and every function stops doubling by
its own rule, no longer sampled once it settles.  Callers map s onto
their intervals by ``interval_sets._frame`` (the equilibrium tables and
the decomposition residual from each interval's left end u, as u + half
(1 + s)), so the relative tests mean the same at any scale.

* ``_gauss_cheb_adaptive(f[, count])``: nested Chebyshev-Lobatto sums of
  int_-1^1 f(s) / sqrt(1 - s^2) ds for smooth f (the inverse-square-root
  endpoint singularities are absorbed by the weight).  Level N is the
  trapezoid rule in angle: the points cos(pi k / N), k = 0..N, each
  weighted pi / N with the two end weights halved, exact to degree 2N - 1,
  so every integrand must be finite at s = +-1.  The levels nest: from
  ``QUAD_MIN_NODES`` = 16 (17 points) each doubling up to
  ``QUAD_MAX_NODES`` evaluates only the N points the level before lacks,
  until successive estimates agree to ``QUAD_REL_TOL`` relative to the
  largest component of each integrand; a non-finite estimate never
  settles.  ``balayage_mass`` integrates one function;
  ``decomposition_residual`` integrates its pieces of the set, and the
  equilibrium solver's first gap pass and gap verifier the moments of all
  gaps, each in one call.
* ``chebyshev_expand(f[, count])``: adaptively truncated Chebyshev
  coefficients of smooth functions of s from their values at the
  Chebyshev-Lobatto points, as the equilibrium solver expands the density
  factors of all components together.  It starts at ``EXPAND_MIN_NODES`` =
  32 (33 points) and nests its levels as the quadrature does: a doubling
  samples only the odd points.  Chebyshev series themselves are
  ``numpy.polynomial.Chebyshev``.
* ``_dct1(x)`` and ``_fast_len(n)``: the DCT-I along the last axis,
  unnormalised as ``scipy.fft.dct``'s and bit-identical to it, computed by
  ``numpy.fft.rfft`` of the even extension, and the smallest 11-smooth
  length >= n, as ``scipy.fft.next_fast_len``'s.  The one DCT serves every
  Chebyshev series from Lobatto samples: the expansion's coefficients, and
  ``_lobatto_resample(vals, M)``, which takes a cosine series from its
  values at the n + 1 Lobatto angles to M equispaced ones, the Markov
  probe's angle grids.  No other module reads the three.
* ``lp_maximize(LPProblem(objective, rows))``: max objective . y subject
  to |rows . y| <= 1 and |y_j| <= 1, the nodal-value LP of the extremal
  probe, by a dense bounded dual simplex in numpy (``_dual_simplex``),
  with scipy's ``linprog`` as the one last rung and a duality-gap audit.
  The caller drives semi-infinite refinement by growing one problem with
  ``add_rows``: the problem keeps its last optimal basis, which the new
  rows leave dual feasible, and re-solves from it.  ``linprog`` is bound
  on its first use, or by the first lookup of that name on this module,
  and a bound name is never re-bound: an LP the simplex solves imports no
  scipy.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .errors import NumericsError

# ---------------------------------------------------------------------------
# quadrature

# Chebyshev-Lobatto quadrature: level range and the relative change between
# successive estimates that settles an integrand; read at each call
QUAD_MIN_NODES = 16
QUAD_MAX_NODES = 1 << 16
QUAD_REL_TOL = 1e-13


def _lobatto_new(N: int, first: bool) -> np.ndarray:
    """The Lobatto points cos(pi k / N) of level N that the level N / 2 does
    not hold: all N + 1 of them at the first level, the N / 2 of odd k after."""
    k = np.arange(N + 1) if first else np.arange(1, N, 2)
    return np.cos(k * (np.pi / N))


def _gauss_cheb_adaptive(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], count: int = 1
) -> np.ndarray:
    """int_-1^1 f(s)/sqrt(1 - s^2) ds of ``count`` integrands by nested
    Chebyshev-Lobatto sums.

    f(s, rows) gives the integrands numbered ``rows`` at the nodes s in
    [-1, 1] as a (len(rows), n) or (len(rows), k, n) array, finite at s =
    +-1; the result has shape (count,) or (count, k).  Level N is the
    trapezoid rule in angle, the points cos(pi k / N), k = 0..N, each
    weighted pi / N with the two end weights halved, exact for polynomial f
    of degree < 2N.  The first level N = QUAD_MIN_NODES samples all N + 1
    points; each doubling samples only the N new points cos(pi (2k + 1) /
    2N) and keeps the sums, est_2N = est_N / 2 + (pi / 2N) sum f(new).  An
    integrand settles when the sup-change between its successive estimates
    falls below QUAD_REL_TOL relative to its largest component magnitude; a
    non-finite estimate never settles.
    """
    todo = np.arange(count)
    out = est = None
    N = QUAD_MIN_NODES
    while N <= QUAD_MAX_NODES:
        first = est is None
        vals = np.asarray(f(_lobatto_new(N, first), todo), dtype=float)
        # an overflowing sum, or inf - inf, makes an estimate that never settles
        with np.errstate(over="ignore", invalid="ignore"):
            if first:
                # the end points s = 1 and s = -1 carry half weight
                est = (vals[..., 1:-1].sum(axis=-1) + 0.5 * (vals[..., 0] + vals[..., -1])) * (np.pi / N)
                out = np.empty((count,) + est.shape[1:])
            else:
                prev, est = est, 0.5 * est + vals.sum(axis=-1) * (np.pi / N)
                axes = tuple(range(1, est.ndim))
                scale = np.maximum(np.abs(est).max(axis=axes), np.abs(prev).max(axis=axes))
                change = np.abs(est - prev).max(axis=axes)
                done = np.isfinite(scale) & ((scale == 0.0) | (change <= QUAD_REL_TOL * scale))
                out[todo[done]] = est[done]
                todo, est = todo[~done], est[~done]
                if not todo.size:
                    return out
        N *= 2
    raise NumericsError(
        f"endpoint-singular quadrature of integrand {todo[0]} on [-1, 1] did not "
        f"converge at {QUAD_MAX_NODES} nodes; last estimate {np.ravel(est[0])[:4]}"
    )


# ---------------------------------------------------------------------------
# discrete cosine transforms


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I along the last axis (length >= 2): the rfft of the even
    extension [x_0, ..., x_{n-1}, x_{n-2}, ..., x_1]."""
    return np.fft.rfft(np.concatenate([x, x[..., -2:0:-1]], axis=-1), axis=-1).real


def _fast_len(n: int) -> int:
    """The smallest 11-smooth number >= n (and >= 1), a fast FFT length."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _lobatto_resample(vals: np.ndarray, M: int) -> np.ndarray:
    """The cosine series of degree n that takes the values ``vals`` at the
    n + 1 Lobatto angles pi k / n (row by row), at the M equispaced angles
    linspace(0, pi, M), M raised so that M - 1 is the smallest 11-smooth
    number >= max(M, n + 2) - 1 (``_fast_len``).  A DCT-I of the values
    gives the series, and a DCT-I of the series zero-padded to M terms its
    values.  The DCTs run on the values scaled by the power of two that
    brings their largest modulus into [1/2, 1), which changes no bit of a
    finite result but keeps sums near the top of the float range finite;
    an inf among the values leaves its row nan."""
    n = vals.shape[-1] - 1
    # at least n + 2 angles, so that the series' last term is an inner one
    # of the padded DCT-I (its end terms carry half weight)
    M = _fast_len(max(M, n + 2) - 1) + 1
    e = np.frexp(np.max(np.abs(vals)))[1]
    series = np.zeros(vals.shape[:-1] + (M,))
    series[..., : n + 1] = _dct1(np.ldexp(vals, -e)) / (2 * n)
    # the Lobatto end term enters the forward DCT-I with half the weight of an inner one
    series[..., n] /= 2.0
    return np.ldexp(_dct1(series), e)


# Chebyshev expansion: node range and the relative size of a negligible tail
EXPAND_MIN_NODES = 32
EXPAND_MAX_NODES = 1 << 13
EXPAND_TAIL_TOL = 1e-14


def _truncate_coeffs(c: np.ndarray, threshold: float) -> np.ndarray:
    keep = np.nonzero(np.abs(c) > threshold)[0]
    return c[: keep[-1] + 1].copy() if len(keep) else c[:1].copy()


def chebyshev_expand(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], count: int = 1
) -> list[np.ndarray]:
    """Chebyshev coefficients of ``count`` smooth functions on [-1, 1],
    adaptively truncated; one coefficient array per function.

    f(s, rows) gives the functions numbered ``rows`` at the nodes s in
    [-1, 1] as a (len(rows), len(s)) array.  Each function is interpolated
    at the N + 1 Lobatto points cos(pi k / N), k = 0..N, its N + 1
    coefficients taken by one DCT-I, doubling N from EXPAND_MIN_NODES until
    the trailing quarter of its coefficients is negligible relative to the
    largest one.  The levels nest: a doubling keeps the samples of level N
    as the even k of level 2N and samples only the N odd k.  When the tail
    stops shrinking between doublings it has hit the rounding floor of the
    sampled values (the floor itself grows like sqrt(N)); the level with the
    smaller tail is then accepted.  Trailing coefficients below the accepted
    floor are dropped.
    """
    out: list = [None] * count
    todo = np.arange(count)
    vals = best_c = best_tail = None
    N = EXPAND_MIN_NODES
    while True:
        new = np.asarray(f(_lobatto_new(N, vals is None), todo), dtype=float)
        if vals is None:
            vals = new
        else:
            vals, kept = np.empty((todo.size, N + 1)), vals
            vals[:, ::2], vals[:, 1::2] = kept, new
        # the end coefficients carry half the weight of the inner ones
        c = _dct1(vals) / N
        c[:, [0, N]] *= 0.5
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
            return out
        if N >= EXPAND_MAX_NODES:
            r = np.flatnonzero(~done)[0]
            raise NumericsError(
                f"Chebyshev expansion of function {todo[r]} on [-1, 1] did not resolve at "
                f"{EXPAND_MAX_NODES} nodes (tail {tail[r]:.3e} vs scale {scale[r]:.3e})"
            )
        todo, vals, best_c, best_tail = todo[~done], vals[~done], c[~done], tail[~done]
        N *= 2


# ---------------------------------------------------------------------------
# LP kernel


@dataclasses.dataclass
class LPProblem:
    """max objective . y  subject to  |rows . y| <= 1 and |y_j| <= 1.

    In the extremal probe y holds the values of P at its interpolation
    nodes and ``rows`` the Lagrange basis at the working-set points, so the
    box bounds say |P| <= 1 at the nodes and every variable is bounded.
    The problem grows in place: ``add_rows`` appends rows, and the problem
    keeps its last optimal basis between ``lp_maximize`` calls, which the
    appended rows leave dual feasible, so a re-solve starts from it.
    """

    objective: np.ndarray
    rows: np.ndarray
    _basis: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def add_rows(self, new: np.ndarray) -> None:
        self.rows = np.vstack([self.rows, new])


def __getattr__(name: str):
    # scipy's ``linprog``, the last rung, bound on first use: importing
    # scipy.optimize costs more than most LPs; a bound name (the real
    # function or a stand-in set in its place) is never re-bound
    if name == "linprog":
        from scipy.optimize import linprog

        return globals().setdefault(name, linprog)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# largest violation |a . y| - 1 the simplex accepts, and its pivot cap;
# accepted duality gap, relative to max(1, |value|)
LP_FEASIBILITY_TOL = 1e-13
LP_PIVOT_CAP = 5000
LP_GAP_TOL = 1e-9


def _replace_row(inv: np.ndarray, i: int, alpha: np.ndarray) -> None:
    """Update the basis inverse in place for row i of the basis replaced by
    the row whose coordinates in the basis rows are alpha (rank 1)."""
    col = inv[:, i] / alpha[i]
    inv -= np.outer(col, alpha)
    inv[:, i] = col


def _dual_simplex(A: np.ndarray, d: np.ndarray, basis: tuple[np.ndarray, ...]):
    """max d . y subject to |A y| <= 1 by the bounded dual simplex, from a
    basis (rows of A, the bound +-1 each is held at, and the inverse of
    those rows) whose duals lambda = A_B^-T d have the signs of their
    bounds.

    The vertex is y = A_B^-1 signs and d . y = sum |lambda|.  The most
    violated row enters at the bound it breaks (after a degenerate pivot
    the first violated row, with ties of the ratio test going to the
    first row: Bland's rule); the ratio test picks the basis row whose
    dual reaches zero first, among near ties the one with the largest
    pivot.  The inverse takes one rank-1 update per pivot and is formed
    afresh every 32 pivots and before the answer.  Returns (y, lambda,
    basis), or None at ``LP_PIVOT_CAP`` pivots, when no basis row can
    leave, or when y breaks one of its own basis rows.
    """
    idx, sgn, inv = (x.copy() for x in basis)
    B = A[idx]
    since, bland = 0, False
    for _ in range(LP_PIVOT_CAP + 1):
        # one step of iterative refinement: with nearly parallel rows in
        # the basis, inv alone leaves residuals of cond(B) ulps
        y = inv @ sgn
        y += inv @ (sgn - B @ y)
        Ay = A @ y
        viol = np.abs(Ay)
        viol[idx] = 0.0
        c = int((viol > 1.0 + LP_FEASIBILITY_TOL).argmax() if bland else viol.argmax())
        if viol[c] <= 1.0 + LP_FEASIBILITY_TOL:
            if since:
                inv, since = np.linalg.inv(B), 0
                continue
            if np.abs(Ay[idx]).max() > 1.0 + LP_FEASIBILITY_TOL:
                return None
            lam = d @ inv
            return y, lam + (d - lam @ B) @ inv, (idx, sgn, inv)
        t = 1.0 if Ay[c] > 0.0 else -1.0
        alpha = A[c] @ inv
        # the duals move as lambda - theta t alpha while lambda_c = theta t
        step = t * sgn * alpha
        room = np.maximum(sgn * (d @ inv), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = room / step
        ratio[step <= 1e-9 * np.abs(alpha).max()] = np.inf
        theta = ratio.min()
        if not theta < np.inf:
            return None
        tie = np.flatnonzero(ratio <= theta * (1.0 + 1e-9) + 1e-300)
        i = int(tie[idx[tie].argmin()] if bland else tie[step[tie].argmax()])
        bland = room[i] <= 1e-14 * room.max()
        _replace_row(inv, i, alpha)
        idx[i], sgn[i], B[i], since = c, t, A[c], since + 1
        if since == 32:
            inv, since = np.linalg.inv(B), 0
    return None


def _linprog_rung(cost: np.ndarray, rows: np.ndarray):
    """Solve with scipy's public ``linprog``, each row stacked twice as
    rows . y <= 1 and -rows . y <= 1, without presolve, at HiGHS's tightest
    feasibility tolerances (its default 1e-7 let rows break by 1e-7); None
    on failure or when the answer breaks a row or a bound by more."""
    tol = 1e-10
    res = __getattr__("linprog")(
        cost, A_ub=np.vstack([rows, -rows]), b_ub=np.ones(2 * len(rows)),
        bounds=[(-1.0, 1.0)] * len(cost), method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": tol,
                 "dual_feasibility_tolerance": tol})
    if res.status != 0:
        return None
    y = np.asarray(res.x, dtype=float)
    if max(np.max(np.abs(rows @ y), initial=0.0), np.max(np.abs(y))) > 1.0 + tol:
        return None
    return y, np.concatenate([res.ineqlin.marginals, res.upper.marginals, res.lower.marginals])


def lp_maximize(problem: LPProblem) -> tuple[float, np.ndarray]:
    """Solve the finite sup-norm LP; returns (value, maximiser).

    The objective is scaled to max-modulus 1.  The dual simplex starts from
    the problem's last optimal basis, or cold from the box vertex
    y = sign(objective), whose basis is the box rows; when it fails
    (pivot cap, singular basis, or an answer that breaks a row by more
    than ``LP_FEASIBILITY_TOL``), ``linprog`` without presolve solves
    from scratch.
    """
    d = np.asarray(problem.objective, dtype=float)
    scale = float(np.max(np.abs(d))) or 1.0
    cost = -d / scale
    rows = np.ascontiguousarray(problem.rows, dtype=float)
    n = len(d)
    basis = problem._basis or (np.arange(n), np.where(d < 0.0, -1.0, 1.0), np.eye(n))
    try:
        out = _dual_simplex(np.vstack([np.eye(n), rows]), -cost, basis)
    except np.linalg.LinAlgError:
        out = None
    if out is not None:
        y, duals, problem._basis = out
    else:
        out = _linprog_rung(cost, rows)
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
