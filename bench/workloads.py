"""Seeded workloads and the checks on their outputs.

A workload is an endless sequence of rounds drawn from one seeded stream; a
round is a fixed list of ops, each op one or two `equipot` CLI invocations
on freshly drawn inputs plus a check of what they wrote.  Every round of a
workload has the same make-up (the same op kinds, with sizes drawn from the
same strata), so a run of whole rounds has the same mix of op sizes, and the
same share of failing probes, whatever its seed and length.

Checks return a list of problems (empty when the output is right).  They
compare against the closed forms in `oracles` or against properties every
correct answer has; none compares against stored output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from typing import Callable, Iterator

import oracles

# tolerances (relative unless stated); measured errors are in README.md
CAP_RTOL = 1e-12          # inverse-image capacity against the closed form
COVARIANCE_RTOL = 1e-12   # cap(alpha K + beta) against |alpha| cap K
MASS_ATOL = 1e-9          # total equilibrium mass, the CLI's own invariant
LIMIT_RTOL = 1e-11        # limit_constant against |Q'(a)| / N^2
MARKOV_LOW = 1e-7         # certified LP value may fall short of k^2 |Q'(a)| by this
MARKOV_HIGH = 1e-12       # ... and may exceed it only by rounding
DENSITY_RTOL = 1e-11      # density rows, plus the endpoint-rounding term below
SCHUR_RTOL = 1e-12        # the two closed-form Schur witness quantities

PROBE_FRAMES = ((2, 1e9), (3, 1e9), (2, 1e12), (3, 1e12))
DENSITY_POINTS = 200


@dataclasses.dataclass(frozen=True)
class Op:
    """CLI invocations (argv without `--out`) and the check on their outputs.

    A probe is expected to fail at this version; it is counted as attempted and failed
    when its CLI exits non-zero, checked like any other op when it succeeds,
    and left out of every timing metric.
    """

    kind: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[dict]], list[str]]
    probe: bool = False


def _rel(x: float, ref: float) -> float:
    return abs(x / ref - 1.0)


def _set_arg(intervals) -> str:
    return json.dumps({"intervals": intervals})


def _frame(rng: random.Random) -> tuple[float, float]:
    """alpha with |alpha| in [0.5, 4] and either sign, beta in [-10, 10]."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 4.0), rng.uniform(-10.0, 10.0)


def _stratum(rng: random.Random, lo: int, hi: int, j: int, k: int) -> int:
    """Integer from the j-th of k equal strata of [lo, hi]."""
    width = (hi - lo + 1) / k
    return rng.randint(lo + math.ceil(j * width), lo + math.ceil((j + 1) * width) - 1)


# ---------------------------------------------------------------------------
# capacity


def check_capacity(img: oracles.ChebImage, rec: dict) -> list[str]:
    out = []
    if _rel(rec["cap"], img.cap()) > CAP_RTOL:
        out.append(f"cap {rec['cap']!r} vs exact {img.cap()!r} for {img}")
    if abs(rec["mass"] - 1.0) > MASS_ATOL:
        out.append(f"mass {rec['mass']!r} for {img}")
    return out


def check_cantor_pair(intervals, alpha: float, beta: float, rec0: dict, rec1: dict) -> list[str]:
    out = []
    moved = oracles.affine(intervals, alpha, beta)
    for ivs, rec in ((intervals, rec0), (moved, rec1)):
        lo, hi = oracles.polya_hull_bounds(ivs)
        if not lo <= rec["cap"] <= hi:
            out.append(f"cap {rec['cap']!r} outside [{lo!r}, {hi!r}]")
        if abs(rec["mass"] - 1.0) > MASS_ATOL:
            out.append(f"mass {rec['mass']!r}")
    if _rel(rec1["cap"], abs(alpha) * rec0["cap"]) > COVARIANCE_RTOL:
        out.append(f"cap(alpha K + beta) {rec1['cap']!r} vs |alpha| cap K "
                   f"{abs(alpha) * rec0['cap']!r} (alpha {alpha!r}, beta {beta!r})")
    return out


def capacity_op(img: oracles.ChebImage, probe: bool = False) -> Op:
    return Op(
        kind="probe" if probe else f"chebyshev_image N={img.N}",
        calls=(("capacity", "--set", _set_arg(img.intervals())),),
        check=lambda outs: check_capacity(img, outs[0]),
        probe=probe,
    )


def cantor_op(level: int, ratio: float, alpha: float, beta: float) -> Op:
    """Solve K = Cantor(level, ratio) and alpha K + beta; check covariance."""
    ivs = oracles.cantor_intervals(level, ratio)
    return Op(
        kind=f"cantor L={level}",
        calls=(
            ("capacity", "--set", json.dumps({"cantor": {"level": level, "ratio": ratio}})),
            ("capacity", "--set", _set_arg(oracles.affine(ivs, alpha, beta))),
        ),
        check=lambda outs: check_cantor_pair(ivs, alpha, beta, outs[0], outs[1]),
    )


def capacity_round(rng: random.Random) -> list[Op]:
    """Four inverse images of c T_N, N from the four quarters of [96, 128]
    paired with c from a shuffled quarter of [1.2, 3]; one Cantor pair at
    level 6 (64 components, ratio in [0.3, 0.35]) and one at level 7 (128
    components, ratio in [0.35, 0.4]); then the fixed far-shift probes.

    The inverse images and the level-6 pair cost about the same, so the
    median op falls inside that group rather than between two sizes; the
    level-7 pair is the round's one large op.  Ratios below 0.3 are left
    out: there the smallest components of a level-7 set on a frame with
    |beta| near 10 drive the gap quadrature to 10^4-10^5 nodes, and the op
    takes 4-120 s or fails, depending on the seed (CHANGES.md, FOUND).
    """
    ops = []
    quarters = [0, 1, 2, 3]
    rng.shuffle(quarters)
    for j, q in enumerate(quarters):
        alpha, beta = _frame(rng)
        c = rng.uniform(1.2 + 0.45 * q, 1.2 + 0.45 * (q + 1))
        ops.append(capacity_op(oracles.ChebImage(c, _stratum(rng, 96, 128, j, 4), alpha, beta)))
    for level, lo in ((6, 0.3), (7, 0.35)):
        ops.append(cantor_op(level, rng.uniform(lo, lo + 0.05), *_frame(rng)))
    for N, centre in PROBE_FRAMES:
        ops.append(capacity_op(oracles.ChebImage(2.0, N, 1.0, centre), probe=True))
    return ops


# ---------------------------------------------------------------------------
# markov

# Degrees per number of components N, all multiples of N, so the sharp
# value is exactly k^2 |Q'(a)|.  Each pair costs about one second on the
# reference machine, so every op of a round is of one size and the median
# does not fall between sizes; the interval (N = 1, where Markov's n^2 is
# exact) is the cheapest per degree and gets the highest degrees.
MARKOV_DEGREES = {1: (50, 100), 2: (24, 40), 3: (18, 30), 4: (20, 24)}


def check_markov(img: oracles.ChebImage, a: float, degrees, rec: dict) -> list[str]:
    out = []
    limit = img.limit_constant(a)
    if _rel(rec["limit_constant"], limit) > LIMIT_RTOL:
        out.append(f"limit_constant {rec['limit_constant']!r} vs exact {limit!r} at a={a!r}")
    if [r["degree"] for r in rec["rows"]] != list(degrees):
        out.append(f"degrees {[r['degree'] for r in rec['rows']]} vs requested {list(degrees)}")
        return out
    for row in rec["rows"]:
        exact = img.markov_value(a, row["degree"])
        v = row["value"]
        if not exact * (1.0 - MARKOV_LOW) <= v <= exact * (1.0 + MARKOV_HIGH):
            out.append(f"degree {row['degree']}: value {v!r} vs exact {exact!r} at a={a!r}")
    if rec["flagged_degrees"]:
        out.append(f"flagged degrees {rec['flagged_degrees']}")
    return out


def markov_op(img: oracles.ChebImage, a: float, degrees: tuple[int, ...]) -> Op:
    return Op(
        kind=f"markov N={img.N}",
        calls=(("markov", "--set", _set_arg(img.intervals()), "--a", repr(a),
                "--degrees", ",".join(map(str, degrees))),),
        check=lambda outs: check_markov(img, a, degrees, outs[0]),
    )


def markov_round(rng: random.Random) -> list[Op]:
    """One op per N = 1..4: a fresh c T_N image on a random frame and a
    random right endpoint (interior ones included)."""
    ops = []
    for N, degrees in MARKOV_DEGREES.items():
        alpha, beta = _frame(rng)
        img = oracles.ChebImage(rng.uniform(1.2, 3.0), N, alpha, beta)
        ops.append(markov_op(img, rng.choice(img.right_endpoints()), degrees))
    return ops


# ---------------------------------------------------------------------------
# evaluate


def density_tolerance(img: oracles.ChebImage, ends: list[float], t: float) -> float:
    """DENSITY_RTOL plus the relative shift of w(t) that rounding the
    endpoints and t to binary64 can cause: w ~ 1/sqrt(distance d to the
    nearest endpoint), so a position error delta moves it by delta/(2 d)."""
    d = min(abs(t - e) for e in ends)
    delta = 2.0 * sys.float_info.epsilon * (abs(t) + abs(img.beta) + abs(img.alpha))
    return DENSITY_RTOL + delta / d


def check_density(img: oracles.ChebImage, points: int, rec: dict) -> list[str]:
    rows = rec["rows"]
    if len(rows) != img.N * points:
        return [f"{len(rows)} density rows, expected {img.N * points}"]
    ends = [e for pair in img.intervals() for e in pair]
    out = []
    for t, w in rows:
        exact = img.density(t)
        if _rel(w, exact) > density_tolerance(img, ends, t):
            out.append(f"density {w!r} vs exact {exact!r} at t={t!r} for {img}")
    return out


def check_schur(alpha: float, n: int, eta: float, h_a: float, rec: dict) -> list[str]:
    out = []
    thr = oracles.schur_threshold(alpha, n, h_a)
    val = oracles.schur_value_at_a(alpha, n, eta, h_a)
    if _rel(rec["report"]["bound_threshold"], thr) > SCHUR_RTOL:
        out.append(f"bound_threshold {rec['report']['bound_threshold']!r} vs {thr!r}")
    if _rel(rec["value_at_a"], val) > SCHUR_RTOL:
        out.append(f"value_at_a {rec['value_at_a']!r} vs {val!r}")
    if rec["report"]["local_ok"] is not True:
        out.append("local_ok is not true")
    return out


def evaluate_op(img: oracles.ChebImage, s_alpha: float, n: int, eta: float, h_a: float) -> Op:
    """Density table of img, then a Schur witness audit on the quadratic family."""
    return Op(
        kind=f"evaluate N={img.N}",
        calls=(
            ("density", "--set", _set_arg(img.intervals()), "--points", str(DENSITY_POINTS)),
            ("schur-witness", "--alpha", repr(s_alpha), "--n", str(n),
             "--eta", repr(eta), "--h-a", repr(h_a)),
        ),
        check=lambda outs: (check_density(img, DENSITY_POINTS, outs[0])
                            + check_schur(s_alpha, n, eta, h_a, outs[1])),
    )


def evaluate_round(rng: random.Random) -> list[Op]:
    """Three ops: c T_N images with N from the three thirds of [8, 16], each
    paired with a Schur witness of degree n from a shuffled third of
    [200, 800)."""
    thirds = [0, 1, 2]
    rng.shuffle(thirds)
    ops = []
    for j, q in enumerate(thirds):
        alpha, beta = _frame(rng)
        img = oracles.ChebImage(rng.uniform(1.2, 3.0), _stratum(rng, 8, 16, j, 3), alpha, beta)
        ops.append(evaluate_op(img, rng.uniform(0.1, 0.9), _stratum(rng, 200, 799, q, 3),
                               rng.uniform(0.02, 0.5), rng.uniform(0.5, 2.0)))
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "capacity": capacity_round,
    "markov": markov_round,
    "evaluate": evaluate_round,
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's rounds for `seed`, in order; the same seed gives the
    same rounds."""
    rng = random.Random(seed)
    make = WORKLOADS[workload]
    while True:
        yield make(rng)


def warmup_op(workload: str) -> Op:
    """A small fixed op of the workload's kind, independent of the seed: it
    loads the modules the workload's ops use, at a cost well below one
    regular op, so the set-up time is mostly process start and
    imports."""
    if workload == "capacity":
        return capacity_op(oracles.ChebImage(2.0, 16, 1.5, 1.0))
    if workload == "markov":
        img = oracles.ChebImage(2.0, 2, 1.5, 1.0)
        return markov_op(img, img.right_endpoints()[-1], (4, 8))
    if workload == "evaluate":
        return evaluate_op(oracles.ChebImage(2.0, 8, 1.5, 1.0), 0.5, 200, 0.1, 1.0)
    raise KeyError(workload)
