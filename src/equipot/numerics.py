"""Shared numeric kernels: quadrature, expansion and LP.

The two adaptive kernels take a batch of functions in one calling
convention: ``f(t, rows)`` gives the functions numbered ``rows`` (indices
into range(count), ``count`` 1 by default) at the nodes t, one leading row
each, and every function stops doubling by its own rule, no longer sampled
once it settles.

* ``_gauss_cheb_adaptive(f, u, v[, count])``: Gauss-Chebyshev sums of
  int_u^v f(t) / sqrt((t-u)(v-t)) dt for smooth f (the inverse-square-root
  endpoint singularities are absorbed by the weight), with node doubling
  from ``QUAD_MIN_NODES`` = 16 up to ``QUAD_MAX_NODES`` until successive
  estimates agree to ``QUAD_REL_TOL`` relative to the largest component of
  each integrand.  ``balayage_mass`` integrates one function;
  ``decomposition_residual`` integrates its pieces of the set, and the
  equilibrium solver's first gap pass and gap verifier the moments of all
  gaps, each in one call, mapped onto [-1, 1] and taken in that reference
  variable, so the relative test means the same at any scale.
* ``chebyshev_expand(f, u, v[, count])``: adaptively truncated Chebyshev
  coefficients of smooth functions on [u, v] from their values at the
  Chebyshev-Lobatto points, as the equilibrium solver expands the density
  factors of all components together.  Chebyshev series themselves are
  ``numpy.polynomial.Chebyshev``.
* ``_dct1(x)`` and ``_fast_len(n)``: the DCT-I along the last axis,
  unnormalised as ``scipy.fft.dct``'s and bit-identical to it, computed by
  ``numpy.fft.rfft`` of the even extension, and the smallest 11-smooth
  length >= n, as ``scipy.fft.next_fast_len``'s.  The one DCT serves every
  Chebyshev series from Lobatto samples: the expansion's coefficients and
  the Markov probe's angle grids.
* ``lp_maximize(LPProblem(objective, rows))``: max objective . y subject
  to |rows . y| <= 1 and |y_j| <= 1, the nodal-value LP of the extremal
  probe, each row one ranged HiGHS row -1 <= rows . y <= 1, with a
  two-rung ladder (the warm HiGHS model, then ``linprog``) and a
  duality-gap audit.  The caller drives semi-infinite refinement by
  growing one problem with ``add_rows``: the problem keeps its HiGHS
  model, which takes only the new rows and re-solves from the last basis.
  The LP backend (``_Highs``, ``HighsModelStatus`` and ``linprog``, from
  ``scipy.optimize``) is bound by the first LP, or by the first lookup of
  one of those names on this module, and a bound name is never re-bound:
  a command that runs no LP imports no scipy.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NumericsError, SetSpecError

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import _Highs

# ---------------------------------------------------------------------------
# quadrature

# Gauss-Chebyshev quadrature: node range and the relative change between
# successive estimates that settles an integrand; read at each call
QUAD_MIN_NODES = 16
QUAD_MAX_NODES = 1 << 16
QUAD_REL_TOL = 1e-13


def _gauss_cheb_adaptive(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u: float,
    v: float,
    count: int = 1,
) -> np.ndarray:
    """int_u^v f(t)/sqrt((t-u)(v-t)) dt of ``count`` integrands by
    Gauss-Chebyshev sums.

    f(t, rows) gives the integrands numbered ``rows`` at the nodes t as a
    (len(rows), N) or (len(rows), k, N) array; the result has shape (count,)
    or (count, k).  Each integrand's node count doubles from QUAD_MIN_NODES
    until the sup-change between its successive estimates falls below
    QUAD_REL_TOL relative to its largest component magnitude; the sum is
    exact for polynomial f of degree < 2N at N nodes.
    """
    if not v > u:
        raise SetSpecError(f"integration interval needs u < v, got [{u}, {v}]")
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    todo = np.arange(count)
    out = prev = None
    N = QUAD_MIN_NODES
    while N <= QUAD_MAX_NODES:
        theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
        t = mid + half * np.cos(theta)
        est = np.asarray(f(t, todo), dtype=float).sum(axis=-1) * (np.pi / N)
        if prev is not None:
            axes = tuple(range(1, est.ndim))
            scale = np.maximum(np.abs(est).max(axis=axes), np.abs(prev).max(axis=axes))
            done = (scale == 0.0) | (np.abs(est - prev).max(axis=axes) <= QUAD_REL_TOL * scale)
            out[todo[done]] = est[done]
            todo, est = todo[~done], est[~done]
            if not todo.size:
                return out
        else:
            out = np.empty((count,) + est.shape[1:])
        prev = est
        N *= 2
    raise NumericsError(
        f"endpoint-singular quadrature of integrand {todo[0]} on [{u}, {v}] did not "
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


# Chebyshev expansion: node range and the relative size of a negligible tail
EXPAND_MIN_NODES = 64
EXPAND_MAX_NODES = 1 << 13
EXPAND_TAIL_TOL = 1e-14


def _truncate_coeffs(c: np.ndarray, threshold: float) -> np.ndarray:
    keep = np.nonzero(np.abs(c) > threshold)[0]
    return c[: keep[-1] + 1].copy() if len(keep) else c[:1].copy()


def chebyshev_expand(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u: float,
    v: float,
    count: int = 1,
) -> list[np.ndarray]:
    """Chebyshev coefficients of ``count`` smooth functions on [u, v],
    adaptively truncated; one coefficient array per function.

    f(t, rows) gives the functions numbered ``rows`` at the nodes t as a
    (len(rows), len(t)) array.  Each function is interpolated at the N + 1
    Lobatto points mid + half cos(pi k / N), k = 0..N, its N + 1
    coefficients taken by one DCT-I, doubling N until the trailing quarter
    of its coefficients is negligible relative to the largest one.  When
    the tail stops shrinking between doublings it has hit the rounding
    floor of the sampled values (the floor itself grows like sqrt(N)); the
    level with the smaller tail is then accepted.  Trailing coefficients
    below the accepted floor are dropped.
    """
    if not v > u:
        raise SetSpecError(f"expansion interval needs u < v, got [{u}, {v}]")
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    out: list = [None] * count
    todo = np.arange(count)
    best_c, best_tail = None, None
    N = EXPAND_MIN_NODES
    while True:
        theta = np.arange(N + 1) * (np.pi / N)
        vals = np.asarray(f(mid + half * np.cos(theta), todo), dtype=float)
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
                f"Chebyshev expansion of function {todo[r]} on [{u}, {v}] did not resolve at "
                f"{EXPAND_MAX_NODES} nodes (tail {tail[r]:.3e} vs scale {scale[r]:.3e})"
            )
        todo, best_c, best_tail = todo[~done], c[~done], tail[~done]
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
    keeps its HiGHS model between ``lp_maximize`` calls, so a re-solve adds
    only the new rows and starts from the last basis.
    """

    objective: np.ndarray
    rows: np.ndarray
    _model: _Highs | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def add_rows(self, new: np.ndarray) -> None:
        self.rows = np.vstack([self.rows, new])


# the LP backend, bound by the first LP (or the first lookup of one of these
# names on the module): importing scipy.optimize costs more than most
# commands that run no LP
_LP_BACKEND = ("_Highs", "HighsModelStatus", "linprog")


def _bind_lp_backend() -> None:
    """Bind each LP backend name that is not bound yet; a bound one, the
    real class or a stand-in set in its place, is left as it is."""
    names = globals()
    if all(name in names for name in _LP_BACKEND):
        return
    from scipy.optimize import linprog
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    for name, value in zip(_LP_BACKEND, (_Highs, HighsModelStatus, linprog)):
        names.setdefault(name, value)


def __getattr__(name: str):
    if name in _LP_BACKEND:
        _bind_lp_backend()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# HiGHS options: tight feasibility tolerances, and no presolve, which on
# these dense rows takes longer than the cold solve it precedes (a warm
# re-solve skips it anyway); accepted duality gap, relative to
# max(1, |value|)
LP_FEASIBILITY_TOL = 1e-10
LP_GAP_TOL = 1e-9
_HIGHS_OPTIONS = {"output_flag": False,
                  "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                  "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
                  "presolve": "off"}


def _highs_rung(problem: LPProblem, cost: np.ndarray, rows: np.ndarray):
    """Solve on the problem's HiGHS model (built with the cost on first use)
    with the rows it lacks appended as ranged rows -1 <= row . y <= 1, kept
    only when it solves; returns (y, duals), or None when HiGHS ends in any
    status but optimal."""
    h, problem._model = problem._model, None
    if h is None:
        h = _Highs()
        for key, val in _HIGHS_OPTIONS.items():
            h.setOptionValue(key, val)
        h.addVars(len(cost), np.full(len(cost), -1.0), np.full(len(cost), 1.0))
        h.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
    new = rows[h.getNumRow():]
    k, n = new.shape
    if k:
        h.addRows(k, np.full(k, -1.0), np.full(k, 1.0), k * n,
                  np.arange(0, k * n, n, dtype=np.int32),
                  np.tile(np.arange(n, dtype=np.int32), k), new.ravel())
    h.run()
    if h.getModelStatus() != HighsModelStatus.kOptimal:
        return None
    problem._model = h
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
    feasibility tolerance is absolute.  The ladder has two rungs: the
    problem's own HiGHS model at tight feasibility tolerances, re-solving
    warm from its last basis; on a solver failure, ``linprog`` without
    presolve from scratch.
    """
    _bind_lp_backend()
    d = np.asarray(problem.objective, dtype=float)
    scale = float(np.max(np.abs(d))) or 1.0
    cost = -d / scale
    rows = np.ascontiguousarray(problem.rows, dtype=float)
    out = _highs_rung(problem, cost, rows) or _linprog_rung(cost, rows)
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
