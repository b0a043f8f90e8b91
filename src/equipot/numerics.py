"""Shared numeric kernels.

Three independent facilities live here:

* Gauss-Chebyshev quadrature for integrands with inverse-square-root
  singularities exactly at both interval endpoints, with adaptive node
  doubling.  ``integrate_endpoint_singular(f, u, v)`` computes
  int_u^v f(t) / sqrt((t-u)(v-t)) dt for a smooth factor f.
* A polynomial container, ``ChebPoly`` (Chebyshev coefficients over a
  reference interval, Clenshaw evaluation), plus the derivative of the
  first-kind Chebyshev polynomial, ``cheb_T_deriv``, valid on all of R.
* A linear-program kernel for sup-norm-constrained polynomial extremal
  problems: maximise a linear functional of the coefficient vector subject
  to |P(x_i)| <= bound on a finite point set.  Solved by HiGHS with a
  deterministic fallback ladder; callers drive semi-infinite refinement by
  adding points.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .config import DEFAULTS, NumericsConfig
from .errors import NumericsError, SetSpecError

# ---------------------------------------------------------------------------
# quadrature


def _gauss_cheb_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    u: float,
    v: float,
    cfg: NumericsConfig = DEFAULTS,
) -> np.ndarray:
    """Adaptive Gauss-Chebyshev sum; f may return shape (N,) or (k, N).

    Returns a 0-d or (k,) array.  Convergence: the sup-change between
    successive doublings falls below quad_rel_tol relative to the largest
    component magnitude.
    """
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    N = cfg.quad_min_nodes
    prev = None
    while N <= cfg.quad_max_nodes:
        theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
        t = mid + half * np.cos(theta)
        vals = np.asarray(f(t), dtype=float)
        est = vals.sum(axis=-1) * (np.pi / N)
        if prev is not None:
            scale = max(np.max(np.abs(est)), np.max(np.abs(prev)))
            if scale == 0.0 or np.max(np.abs(est - prev)) <= cfg.quad_rel_tol * scale:
                return est
        prev = est
        N *= 2
    raise NumericsError(
        f"endpoint-singular quadrature on [{u}, {v}] did not converge at "
        f"{cfg.quad_max_nodes} nodes; last two estimates "
        f"{np.atleast_1d(prev)[:4]} vs {np.atleast_1d(est)[:4]}"
    )


def integrate_endpoint_singular(
    f: Callable[[np.ndarray], np.ndarray],
    u: float,
    v: float,
    cfg: NumericsConfig = DEFAULTS,
) -> float:
    """int_u^v f(t)/sqrt((t-u)(v-t)) dt for f continuous on [u, v].

    f must accept a numpy array of nodes and return values elementwise.
    Node counts double from 64 until the relative change between successive
    estimates is below 1e-13 (configurable); exact for polynomial f of
    degree < N - 1 at node count N.
    """
    if not v > u:
        raise SetSpecError(f"integration interval needs u < v, got [{u}, {v}]")
    return float(_gauss_cheb_adaptive(f, u, v, cfg))


def _truncate_coeffs(c: np.ndarray, threshold: float) -> np.ndarray:
    keep = np.nonzero(np.abs(c) > threshold)[0]
    return c[: keep[-1] + 1] if len(keep) else c[:1]


def chebyshev_expand(
    f: Callable[[np.ndarray], np.ndarray],
    u: float,
    v: float,
    cfg: NumericsConfig = DEFAULTS,
) -> np.ndarray:
    """Chebyshev coefficients of a smooth f on [u, v], adaptively truncated.

    Interpolates at first-kind nodes, doubling the count until the trailing
    quarter of the coefficients is negligible relative to the largest one.
    When the tail stops shrinking between doublings it has hit the rounding
    floor of the sampled values (the floor itself grows like sqrt(N)); the
    level with the smaller tail is then accepted.  Trailing coefficients
    below the accepted floor are dropped.
    """
    if not v > u:
        raise SetSpecError(f"expansion interval needs u < v, got [{u}, {v}]")
    mid, half = (u + v) / 2.0, (v - u) / 2.0
    N = cfg.expand_min_nodes
    best: tuple[np.ndarray, float] | None = None
    while True:
        theta = (2.0 * np.arange(1, N + 1) - 1.0) * np.pi / (2.0 * N)
        vals = np.asarray(f(mid + half * np.cos(theta)), dtype=float)
        # discrete cosine transform at first-kind nodes
        k = np.arange(N)
        c = (2.0 / N) * np.cos(np.outer(k, theta)) @ vals
        c[0] *= 0.5
        scale = np.max(np.abs(c))
        if scale == 0.0:
            return np.zeros(1)
        tail = np.max(np.abs(c[-max(N // 4, 1):]))
        if tail <= cfg.expand_tail_tol * scale:
            return _truncate_coeffs(c, cfg.expand_tail_tol * scale)
        if best is not None and tail >= 0.5 * best[1]:
            cb, tb = (c, tail) if tail < best[1] else best
            return _truncate_coeffs(cb, max(cfg.expand_tail_tol * scale, 2.0 * tb))
        best = (c, tail)
        if N >= cfg.expand_max_nodes:
            raise NumericsError(
                f"Chebyshev expansion on [{u}, {v}] did not resolve at "
                f"{cfg.expand_max_nodes} nodes (tail {tail:.3e} vs scale {scale:.3e})"
            )
        N *= 2


# ---------------------------------------------------------------------------
# polynomial containers


def cheb_T_deriv(n: int, x):
    """Derivative T_n'(x) = n * U_{n-1}(x) via the second-kind recurrence."""
    if n < 0:
        raise SetSpecError(f"cheb_T_deriv needs n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.zeros_like(x) if x.ndim else 0.0
    # U_{n-1}: U_0 = 1, U_1 = 2x
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    out = n * cur
    return out if x.ndim else float(out)


@dataclasses.dataclass(frozen=True)
class ChebPoly:
    """Chebyshev-basis polynomial over a reference interval (alpha, beta).

    ``coeffs[k]`` multiplies T_k of the affine image of (alpha, beta) onto
    (-1, 1).  Evaluation is Clenshaw's backward recurrence; the recurrence
    stays valid outside the reference interval.
    """

    ref_interval: tuple[float, float]
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        alpha, beta = self.ref_interval
        if not alpha < beta:
            raise SetSpecError(f"reference interval needs alpha < beta, got {self.ref_interval}")
        if not self.coeffs:
            raise SetSpecError("ChebPoly needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _map(self, x):
        alpha, beta = self.ref_interval
        return (2.0 * np.asarray(x, dtype=float) - (alpha + beta)) / (beta - alpha)

    def __call__(self, x):
        s = self._map(x)
        c = self.coeffs
        if len(c) == 1:
            out = np.full_like(s, c[0])
            return out if s.ndim else float(out)
        b1 = np.zeros_like(s)
        b2 = np.zeros_like(s)
        for ck in reversed(c[1:]):
            b1, b2 = ck + 2.0 * s * b1 - b2, b1
        out = c[0] + s * b1 - b2
        return out if s.ndim else float(out)

    def deriv(self) -> "ChebPoly":
        """Derivative, as a ChebPoly over the same reference interval."""
        alpha, beta = self.ref_interval
        c = np.asarray(self.coeffs)
        n = len(c) - 1
        if n == 0:
            return ChebPoly(self.ref_interval, (0.0,))
        d = np.zeros(n)
        # standard downward recurrence for d/ds sum c_k T_k(s)
        work = np.zeros(n + 2)
        for k in range(n, 0, -1):
            work[k - 1] = work[k + 1] + 2.0 * k * c[k]
        d[:] = work[:n]
        d[0] /= 2.0
        d *= 2.0 / (beta - alpha)
        return ChebPoly(self.ref_interval, tuple(d))


# ---------------------------------------------------------------------------
# LP kernel


@dataclasses.dataclass(frozen=True)
class LPProblem:
    """max objective . y  subject to  |row_i . y| <= bound at every point.

    ``rows`` holds the evaluation matrix of the polynomial parametrisation
    at ``constraint_points`` (one row per point); the parametrisation is the
    caller's choice (Chebyshev coefficients, nodal values, ...).  Optional
    ``var_bound`` adds |y_j| <= var_bound box constraints, natural for nodal
    parametrisations.
    """

    objective: np.ndarray
    constraint_points: np.ndarray
    rows: np.ndarray
    bound: float = 1.0
    var_bound: float | None = None

    def __post_init__(self) -> None:
        if self.rows.shape != (len(self.constraint_points), len(self.objective)):
            raise SetSpecError(
                f"LP shape mismatch: rows {self.rows.shape}, "
                f"{len(self.constraint_points)} points, {len(self.objective)} vars"
            )
        if len(self.constraint_points) < len(self.objective) + 1:
            raise SetSpecError(
                "constraint grid too sparse: need at least degree + 2 points"
            )
        if self.bound <= 0:
            raise SetSpecError(f"bound must be positive, got {self.bound}")


def lp_maximize(
    problem: LPProblem, cfg: NumericsConfig = DEFAULTS
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve the finite sup-norm LP; returns (value, coefficients, active points).

    Active points are those where the witness modulus reaches
    bound * (1 - 1e-9).  HiGHS sees the objective scaled to max-modulus 1,
    since its dual feasibility tolerance is absolute.  It is run at tight
    feasibility tolerances; on a solver failure the ladder retries with the
    default tolerances and then without presolve.
    """
    d = np.asarray(problem.objective, dtype=float)
    nvar = len(d)
    scale = float(np.max(np.abs(d))) or 1.0
    vb = problem.var_bound
    bounds = [(None, None)] * nvar if vb is None else [(-vb, vb)] * nvar
    A_ub = np.vstack([problem.rows, -problem.rows])
    b_ub = np.full(len(A_ub), problem.bound)
    attempts = [
        {"primal_feasibility_tolerance": cfg.lp_feasibility_tol,
         "dual_feasibility_tolerance": cfg.lp_feasibility_tol},
        {},
        {"presolve": False},
    ]
    for options in attempts:
        res = linprog(-d / scale, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                      method="highs", options=options)
        if res.status == 0:
            break
        if res.status == 3:
            raise NumericsError(
                "unbounded LP relaxation: constraint grid too sparse for the degree"
            )
    else:
        raise NumericsError(f"LP solver failed: status {res.status} ({res.message})")
    y = np.asarray(res.x, dtype=float)
    value = float(d @ y)
    # duality gap audit from the HiGHS marginals; the dual of the
    # minimisation is b_ub . lam + u . mu_up + l . mu_low
    dual_min = float(b_ub @ res.ineqlin.marginals)
    if vb is not None:
        dual_min += vb * float(np.sum(res.upper.marginals) - np.sum(res.lower.marginals))
    gap = abs(float(res.fun) - dual_min) * scale
    if gap > cfg.lp_gap_tol * max(1.0, abs(value)):
        raise NumericsError(
            f"LP duality gap {gap:.3e} exceeds {cfg.lp_gap_tol} relative"
        )
    moduli = np.abs(problem.rows @ y)
    active = problem.constraint_points[moduli >= problem.bound * (1.0 - 1e-9)]
    return value, y, active
