"""Finite unions of closed real intervals.

An ``IntervalSet`` is the universal set model of the toolkit: an ordered
tuple of pairwise disjoint closed intervals.  This module provides
construction (raw pairs, Cantor-type prefractals), every interval frame
(``_frame``), the endpoint/free-gap check and run-up grid that downstream
computations rely on, the gap-filling outer approximants used in
convergence studies, and exact subset decisions.  ``check_interval_condition``
alone searches K for the component [u_j, a] of a right endpoint a; every
endpoint quantity reads j and rho from the ``EndpointContext`` it returns.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SetSpecError

# largest Cantor level a spec may ask for: 2**12 components (read at each call)
CANTOR_LEVEL_CAP = 12


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """Ordered disjoint closed intervals; immutable and hashable.

    Invariants: every pair is finite with left <= right, and consecutive
    intervals satisfy right_j < left_{j+1} (touching intervals must be
    merged via :func:`normalize` before construction).
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise SetSpecError("an IntervalSet needs at least one interval")
        for left, right in self.intervals:
            if not (math.isfinite(left) and math.isfinite(right)):
                raise SetSpecError(f"non-finite endpoint in ({left}, {right})")
            if left > right:
                raise SetSpecError(f"interval ({left}, {right}) has left > right")
        for (_, r0), (l1, _) in zip(self.intervals, self.intervals[1:]):
            if r0 >= l1:
                raise SetSpecError(
                    f"intervals must be strictly increasing and disjoint; "
                    f"got right={r0} >= next left={l1}"
                )

    @property
    def m(self) -> int:
        return len(self.intervals)

    @property
    def min(self) -> float:
        return self.intervals[0][0]

    @property
    def max(self) -> float:
        return self.intervals[-1][1]

    def endpoints(self) -> list[float]:
        """All 2m endpoints in increasing order."""
        return [e for pair in self.intervals for e in pair]

    def lengths(self) -> list[float]:
        return [r - l for l, r in self.intervals]

    def total_length(self) -> float:
        return sum(self.lengths())

    def gaps(self) -> list[tuple[float, float]]:
        """The bounded complementary gaps (right_j, left_{j+1})."""
        return [
            (r0, l1) for (_, r0), (l1, _) in zip(self.intervals, self.intervals[1:])
        ]

    def contains(self, x: float) -> bool:
        return any(l <= x <= r for l, r in self.intervals)

    def has_degenerate(self) -> bool:
        return any(l == r for l, r in self.intervals)

    def to_json(self) -> str:
        return json.dumps({"intervals": [[l, r] for l, r in self.intervals]})


def _frame(u, v):
    """(mid, half) of [u, v], float or array ends: t = mid + half*s maps s in
    [-1, 1] onto [u, v].  Every frame is formed here, halving before adding
    (u + v overflows near the float limit)."""
    return u / 2.0 + v / 2.0, v / 2.0 - u / 2.0


def _component_frames(K: IntervalSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, mid, half) arrays over the components [u, v] of K."""
    u, v = np.asarray(K.intervals).T
    return (u, v, *_frame(u, v))


def _gap_frames(K: IntervalSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g0, g1, mid, half) arrays over the bounded gaps (g0, g1) of K."""
    g0, g1 = np.asarray(K.gaps()).reshape(-1, 2).T
    return (g0, g1, *_frame(g0, g1))


@dataclasses.dataclass(frozen=True)
class EndpointContext:
    """A distinguished right endpoint ``a`` with its free-gap radius.

    ``rho`` certifies that [a - 2*rho, a] lies inside the set while
    (a, a + 2*rho) misses it entirely; ``component`` is the index j of the
    component [u_j, a].  Made by ``check_interval_condition`` only.
    """

    a: float
    rho: float
    component: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.rho)):
            raise SetSpecError("endpoint context values must be finite")
        if self.rho <= 0:
            raise SetSpecError(f"rho must be positive, got {self.rho}")


def runup_grid(ctx: EndpointContext, points: int) -> np.ndarray:
    """``points`` arccos-spaced points of the run-up interval [a - rho, a),
    ascending; a itself is left out."""
    theta = np.linspace(0.0, np.pi, points + 1)[1:]
    return (ctx.a - ctx.rho / 2.0 + (ctx.rho / 2.0) * np.cos(theta))[::-1]


def normalize(raw: Iterable[Sequence[float]]) -> IntervalSet:
    """Sort raw (left, right) pairs and merge overlapping or touching ones.

    Degenerate pairs (left == right) survive as isolated points unless they
    touch a neighbour.  Idempotent.
    """
    pairs = [(float(l), float(r)) for l, r in raw]
    if not pairs:
        raise SetSpecError("empty interval list")
    for l, r in pairs:
        if not (math.isfinite(l) and math.isfinite(r)):
            raise SetSpecError(f"non-finite endpoint in ({l}, {r})")
        if l > r:
            raise SetSpecError(f"interval ({l}, {r}) has left > right")
    pairs.sort()
    merged = [pairs[0]]
    for l, r in pairs[1:]:
        ml, mr = merged[-1]
        if l <= mr:
            merged[-1] = (ml, max(mr, r))
        else:
            merged.append((l, r))
    return IntervalSet(tuple(merged))


def check_interval_condition(
    K: IntervalSet, a: float, rho: float | None = None
) -> EndpointContext:
    """Validate ``a`` as a right endpoint of K and compute its gap radius.

    Returns the maximal rho with [a - 2*rho, a] inside K and (a, a + 2*rho)
    outside it: the half-length (``_frame``) of the component [u_j, a], or
    of the gap after it if that is smaller.  A smaller ``rho`` may be
    supplied explicitly and is then checked against both clauses.
    """
    j = next((j for j, (_, r) in enumerate(K.intervals) if r == a), None)
    if j is None:
        raise SetSpecError(f"{a} is not a right endpoint of the set")
    left = K.intervals[j][0]
    if left == a:
        raise SetSpecError(f"endpoint {a} belongs to a degenerate interval")
    rho_max = _frame(left, a)[1]
    if j + 1 < K.m:
        rho_max = min(rho_max, _frame(a, K.intervals[j + 1][0])[1])
    if rho is None:
        return EndpointContext(a=a, rho=rho_max, component=j)
    if rho > rho_max:
        raise SetSpecError(
            f"rho={rho} violates the interval condition at {a}; maximal rho is {rho_max}"
        )
    return EndpointContext(a=a, rho=float(rho), component=j)


def outer_approx(K: IntervalSet, ctx: EndpointContext, m: int) -> IntervalSet:
    """Fill all but m - 1 bounded gaps of K, keeping the free gap at ctx.a.

    Retained gaps are chosen by descending length (leftmost wins ties); the
    gap immediately to the right of ``ctx.a`` is always retained when it is
    bounded.  The result contains K and has at most m intervals.  K is
    returned unchanged when it has m - 1 or fewer bounded gaps.
    """
    return next(outer_approximants(K, ctx, [m]))


def outer_approximants(
    K: IntervalSet, ctx: EndpointContext, ms: Sequence[int]
) -> Iterator[IntervalSet]:
    """``outer_approx(K, ctx, m)`` for each m of ``ms``, built one at a time
    as they are drawn.  Every m is checked, and the gaps sorted once, before
    the first is built."""
    ms = [int(m) for m in ms]
    bad = next((m for m in ms if m < 2), None)
    if bad is not None:
        raise SetSpecError(f"outer approximant needs m >= 2, got {bad}")
    gaps = K.gaps()
    order = sorted(range(len(gaps)), key=lambda i: (-(gaps[i][1] - gaps[i][0]), gaps[i][0]))
    # gap j lies right of component j, so gap ctx.component is the free one
    free = [ctx.component] if ctx.component < len(gaps) else []
    order = free + [i for i in order if i != ctx.component]

    def build(m: int) -> IntervalSet:
        if len(gaps) <= m - 1:
            return K
        ends = [K.min] + [e for i in sorted(order[:m - 1]) for e in gaps[i]] + [K.max]
        return IntervalSet(tuple(zip(ends[::2], ends[1::2])))

    return map(build, ms)


def cantor_set(level: int, ratio: float = 1.0 / 3.0) -> IntervalSet:
    """Level-``level`` prefractal of the [0, 1] Cantor construction.

    Each interval of length L is replaced by its two end subintervals of
    length ratio*L; the result has 2**level intervals.  Levels above
    ``CANTOR_LEVEL_CAP`` are rejected.
    """
    if not 0 < ratio < 0.5:
        raise SetSpecError(f"cantor ratio must lie in (0, 1/2), got {ratio}")
    if level < 0:
        raise SetSpecError(f"cantor level must be >= 0, got {level}")
    if level > CANTOR_LEVEL_CAP:
        raise SetSpecError(f"cantor level {level} exceeds the cap {CANTOR_LEVEL_CAP}")
    intervals = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for l, r in intervals:
            L = r - l
            nxt.append((l, l + ratio * L))
            nxt.append((r - ratio * L, r))
        intervals = nxt
    return IntervalSet(tuple(intervals))


def is_subset(K: IntervalSet, S: IntervalSet) -> bool:
    """Exact point-set decision K <= S by interval arithmetic."""
    j = 0
    for l, r in K.intervals:
        while j < S.m and S.intervals[j][1] < l:
            j += 1
        if j == S.m or not (S.intervals[j][0] <= l and r <= S.intervals[j][1]):
            return False
    return True


def widen(K: IntervalSet, eps: float) -> IntervalSet:
    """Replace each degenerate interval [x, x] by [x - eps/2, x + eps/2].

    Non-degenerate intervals are untouched; collisions created by widening
    are merged.
    """
    if eps <= 0:
        raise SetSpecError(f"widen needs eps > 0, got {eps}")
    pairs = [
        (l - eps / 2, r + eps / 2) if l == r else (l, r) for l, r in K.intervals
    ]
    return normalize(pairs)


def _is_number(x) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def from_spec(spec: str | dict) -> IntervalSet:
    """Build a set from its JSON specification.

    Accepted forms: ``{"intervals": [[l, r], ...]}`` and
    ``{"cantor": {"level": n, "ratio": r}}`` (ratio defaults to 1/3; the
    level is capped by ``CANTOR_LEVEL_CAP``).
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise SetSpecError(f"invalid set spec JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SetSpecError("set spec must be a JSON object")
    if "intervals" in spec:
        ivs = spec["intervals"]
        if not isinstance(ivs, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_number, p))
            for p in ivs
        ):
            raise SetSpecError("'intervals' must be a list of [left, right] pairs of numbers")
        return normalize(ivs)
    if "cantor" in spec:
        c = spec["cantor"]
        if not isinstance(c, dict) or "level" not in c:
            raise SetSpecError("'cantor' needs at least a 'level' field")
        level, ratio = c["level"], c.get("ratio", 1.0 / 3.0)
        if type(level) is not int:
            raise SetSpecError(f"'cantor' field 'level' must be an integer, got {level!r}")
        if not _is_number(ratio):
            raise SetSpecError(f"'cantor' field 'ratio' must be a number, got {ratio!r}")
        return cantor_set(level, float(ratio))
    raise SetSpecError("set spec needs an 'intervals' or 'cantor' field")
