"""Batch front-end.

Commands: density, omega, capacity, green, balayage, markov, schur-witness,
schur-counterexample, converge.  Set specifications are inline JSON or a
path to a JSON file; sweeps use ``a..b`` (arithmetic, step 1) or ``a..b:x2``
(geometric, starting at 1 or above).  Output formats, declared per command
in ``_COMMANDS``: json (default) for every command, csv for all but green
and schur-counterexample, svg for density, markov and converge; any other
format is a parse error.
Numbers round-trip binary64: csv has 17 significant digits, and json is
``json.dumps(record, indent=2, sort_keys=True)``.  Output files are
written atomically (temp + rename), and byte-identical runs follow from
identical configs.

Exit codes: 0 success, 2 input/parse errors (argument errors, and an output
path in a missing or unwritable directory, included; checked before any
work), 3 numeric failures, 4 violated run invariants, after the output is
written; errors emit a one-line machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import equilibrium, extremal, schur
from .config import NumericsConfig, load_config, read_json_text
from .errors import EquipotError, InvariantViolation, NumericsError, SetSpecError
from .interval_sets import IntervalSet, check_interval_condition, from_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


# ---------------------------------------------------------------------------
# formatting


def fmt(x: float) -> str:
    """17 significant digits: enough to round-trip any binary64 value."""
    return f"{x:.17g}"


def to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _indented(obj, "") + "\n"


def _indented(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) starting at indentation ``pad``.

    The indenting encoder is pure Python, so a numeric table (non-empty rows
    of int or float) goes through the compact C encoder and is re-indented
    by string replacement: no number token contains ", " or "], [".
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if (all(isinstance(row, (list, tuple)) and row for row in obj)
                and {type(v) for row in obj for v in row} <= {int, float}):
            cells = json.dumps(obj)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{inner}  ")
            cells = cells.replace(", ", f",\n{inner}  ")
            return f"[\n{inner}[\n{inner}  {cells}\n{inner}]\n{pad}]"
        items = [_indented(v, inner) for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    # scalars, empty containers, and dicts whose keys json itself must coerce
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Ticks on [lo, hi] at the multiples of a 1-2-5 step that gives about five."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 5:
            step *= mult
            break
    # count whole steps: a running float sum stalls when step < ulp(lo) / 2
    ticks = []
    k = math.ceil(lo / step)
    while k * step <= hi + 1e-12 * span:
        ticks.append(k * step)
        k += 1
    return ticks


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    axes: tuple[str, str] = ("x", "y"),
) -> str:
    """Self-contained 640 x 480 SVG 1.1 line chart: linear axes, one polyline
    per series, legend.  Byte-deterministic for identical input."""
    if not series or any(len(xs) == 0 for _, xs, _ in series):
        raise SetSpecError("emit_svg needs nonempty series")
    W, H = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 45
    xlo = min(min(xs) for _, xs, _ in series)
    xhi = max(max(xs) for _, xs, _ in series)
    ylo = min(min(ys) for _, _, ys in series)
    yhi = max(max(ys) for _, _, ys in series)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05
    xlo, xhi = xlo - pad * (xhi - xlo), xhi + pad * (xhi - xlo)
    ylo, yhi = ylo - pad * (yhi - ylo), yhi + pad * (yhi - ylo)

    def sx(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * (W - ml - mr)

    def sy(y: float) -> float:
        return H - mb - (y - ylo) / (yhi - ylo) * (H - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>',
    ]
    for tx in _nice_ticks(xlo, xhi):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{H - mb}" x2="{px:.2f}" y2="{H - mb + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{H - mb + 18}" font-size="11" text-anchor="middle">{tx:.6g}</text>'
        )
    for ty in _nice_ticks(ylo, yhi):
        py = sy(ty)
        out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{ty:.6g}</text>'
        )
    out.append(
        f'<text x="{(ml + W - mr) / 2:.2f}" y="{H - 8}" font-size="12" text-anchor="middle">{axes[0]}</text>'
    )
    out.append(
        f'<text x="14" y="{(mt + H - mb) / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(mt + H - mb) / 2:.2f})">{axes[1]}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(float(x)):.3f},{sy(float(y)):.3f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        out.append(f'<line x1="{W - mr - 130}" y1="{ly}" x2="{W - mr - 110}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{W - mr - 104}" y="{ly + 4}" font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it; an OSError (a
    missing directory, no permission, a full disk) becomes a SetSpecError
    naming the path."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".equipot-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise SetSpecError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


# ---------------------------------------------------------------------------
# argument parsing


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated items; each an int, ``a..b`` or ``a..b:x2`` sweep
    (a geometric sweep must start at 1 or above, or it would never end)."""

    def to_int(s: str, msg: str) -> int:
        try:
            return int(s)
        except ValueError as exc:
            raise SetSpecError(msg) from exc

    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." not in item:
            out.append(to_int(item, f"bad integer {item!r}"))
            continue
        lohi, _, suffix = item.partition(":")
        lo_s, _, hi_s = lohi.partition("..")
        lo, hi = (to_int(s, f"bad range {item!r}") for s in (lo_s, hi_s))
        if not suffix:
            out.extend(range(lo, hi + 1))
            continue
        if not suffix.startswith("x"):
            raise SetSpecError(f"bad sweep suffix in {item!r} (want e.g. ':x2')")
        factor = to_int(suffix[1:], f"bad sweep factor in {item!r}")
        if factor < 2:
            raise SetSpecError(f"geometric factor must be >= 2 in {item!r}")
        if lo < 1:
            raise SetSpecError(f"geometric sweep must start at 1 or above in {item!r}")
        v = lo
        while v <= hi:
            out.append(v)
            v *= factor
    if not out:
        raise SetSpecError("empty integer list")
    return tuple(out)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_set(spec: str, cfg: NumericsConfig) -> IntervalSet:
    return from_spec(read_json_text(spec, "set spec"), cfg)


class _Parser(argparse.ArgumentParser):
    """An argument error raises SetSpecError (exit 2, JSON record); subparsers share the class.

    A token counts as a negative number, not an option, when it is '-' and
    then a digit or '.digit' (the rule of Python 3.13's argparse), so a value
    in exponent form such as ``--a -1.5e-05`` parses; before 3.13 only
    -123 and -1.5 did.  No option of this parser starts with '-' and a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise SetSpecError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: a build takes milliseconds,
    and parsing leaves no state in it."""
    p = _Parser(prog="equipot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help, with_set=True):
        sp = sub.add_parser(name, help=help)
        if with_set:
            sp.add_argument("--set", required=True, help="inline JSON or path")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", default="json", choices=_COMMANDS[name][1])
        return sp

    sp = add("density", "density table over interior grids")
    sp.add_argument("--points", type=_positive_int, default=200, help="points per component")

    sp = add("omega", "edge factor at a right endpoint")
    sp.add_argument("--a", type=float, required=True)

    add("capacity", "capacity and Robin constant")

    sp = add("green", "Green's function at a point")
    sp.add_argument("--z", type=float, required=True)

    sp = add("balayage", "point-mass balayage kernel onto [b, a]", with_set=False)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--t", type=float, default=None, help="density point (default: table)")
    sp.add_argument("--points", type=_positive_int, default=200)

    sp = add("markov", "extremal derivative study per degree")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--degrees", required=True, help="e.g. 5,10 or 10..60:x2")
    sp.add_argument("--dump-witness", dest="dump_witness", default=None,
                    help="also write each witness as JSON: its interpolation "
                         "nodes and its values there (barycentric form)")

    sp = add("schur-witness", "witness audit on the quadratic family", with_set=False)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eta", type=float, default=0.05)
    sp.add_argument("--h-a", dest="h_a", type=float, default=1.0)
    sp.add_argument("--points", type=_positive_int, default=2000, help="csv table size")

    sp = add("schur-counterexample", "audit of the global-hypothesis failure", with_set=False)
    sp.add_argument("--n", type=int, required=True)

    sp = add("converge", "edge factor along the outer filtration")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--m", dest="m_values", required=True, help="e.g. 2..64:x2")
    return p


# ---------------------------------------------------------------------------
# command implementations


class Output(NamedTuple):
    """What a command computed.  Each format is built by its own callable, so
    a run does no work for a format nobody asked for."""

    record: Callable[[], object]                                   # json
    table: Callable[[], tuple[Sequence[str], Sequence]] | None = None  # csv: header, rows
    plot: Callable[[], tuple[list, tuple[str, str]]] | None = None     # svg: series, axes
    violation: str | None = None    # a broken run invariant, reported after delivery


def _density(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    E = equilibrium.solve_equilibrium(K)
    rows = equilibrium.density_table(E, ns.points)

    def plot():
        # density_table gives one equal block of rows per component, in order
        blocks = np.array(rows).reshape(len(K.intervals), -1, 2)
        series = [(f"component {j}", b[:, 0], b[:, 1]) for j, b in enumerate(blocks)]
        return series, ("t", "density")

    return Output(record=lambda: {"rows": rows},
                  table=lambda: (("t", "density"), rows), plot=plot)


def _omega(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    E = equilibrium.solve_equilibrium(K)
    val = equilibrium.omega_factor(E, ns.a)
    return Output(record=lambda: {"a": ns.a, "omega": val},
                  table=lambda: (("a", "omega"), [(ns.a, val)]))


def _capacity(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    E = equilibrium.solve_equilibrium(K)
    violation = (f"density mass {E.mass} deviates from 1 beyond 1e-9"
                 if abs(E.mass - 1.0) > 1e-9 else None)
    return Output(record=lambda: equilibrium.to_record(E),
                  table=lambda: (("cap", "robin", "mass"), [(E.cap, E.robin, E.mass)]),
                  violation=violation)


def _green(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    E = equilibrium.solve_equilibrium(K)
    g = equilibrium.green(E, ns.z)
    violation = f"negative Green value {g} at {ns.z}" if g < -1e-9 else None
    return Output(record=lambda: {"z": ns.z, "green": g}, violation=violation)


def _balayage(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    qy = equilibrium.BalayageQuery(x=ns.x, b=ns.b, a=ns.a)
    mass = equilibrium.balayage_mass(qy)
    limit = equilibrium.balayage_edge_limit(qy)
    violation = (f"balayage mass {mass} deviates from 1 beyond 1e-9"
                 if abs(mass - 1.0) > 1e-9 else None)
    if ns.t is None:
        theta = np.linspace(0.0, np.pi, ns.points + 2)[1:-1]
        ts = (ns.b + ns.a) / 2.0 + (ns.a - ns.b) / 2.0 * np.cos(theta[::-1])
    else:
        ts = np.array([ns.t])
    rows = list(zip(ts.tolist(), equilibrium.balayage_density(qy, ts).tolist()))
    record = {"mass": mass, "edge_limit": limit, "rows": rows}
    if ns.t is not None:
        record = {"x": ns.x, "b": ns.b, "a": ns.a, "t": ns.t, "density": rows[0][1],
                  "mass": mass, "edge_limit": limit}
    return Output(record=lambda: record, table=lambda: (("t", "balayage_density"), rows),
                  violation=violation)


def _markov(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    study = extremal.markov_study(K, ns.a, parse_int_list(ns.degrees), cfg)
    rows = extremal.study_rows(study)
    if ns.dump_witness:
        dump = {
            str(r.degree): {"nodes": r.nodes.tolist(), "values": r.node_values.tolist()}
            for r in study.rows
        }
        _write_atomic(ns.dump_witness, to_json(dump))
    lc = study.limit_constant

    def plot():
        degs = [float(r.degree) for r in study.rows]
        series = [("ratio", degs, [r.ratio for r in study.rows]),
                  ("limit", [degs[0], degs[-1]], [lc, lc])]
        return series, ("degree", "value / degree^2")

    violation = (f"ratio exceeds limit envelope at degrees {list(study.flagged)}"
                 if study.flagged else None)
    return Output(
        record=lambda: {
            "a": ns.a,
            "limit_constant": lc,
            "rows": [{"degree": d, "value": v, "ratio": r, "limit_constant": c}
                     for d, v, r, c in rows],
            "flagged_degrees": list(study.flagged),
        },
        table=lambda: (("degree", "value", "ratio", "limit_constant"), rows),
        plot=plot, violation=violation)


def _schur_witness(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    imap = schur.quadratic_inverse_image(ns.alpha)
    wit = schur.build_witness(imap, ns.h_a, ns.n, ns.eta)
    report = schur.audit_witness(wit)

    def table():
        # witness evaluation table on the run-up interval: x, P(x), h/sqrt(a-x)
        xs = schur.runup_grid(check_interval_condition(imap.target_set, imap.a), ns.points)
        bound = ns.h_a / np.sqrt(imap.a - xs)
        return ("x", "witness", "local_bound"), list(zip(xs.tolist(), wit(xs).tolist(),
                                                         bound.tolist()))

    violation = None if report.local_ok else "witness violates its own local hypothesis"
    return Output(record=lambda: {"alpha": ns.alpha, "n": ns.n, "eta": ns.eta, "h_a": ns.h_a,
                                  "m": wit.m, "witness_degree": wit.degree,
                                  "value_at_a": wit.value_at_a, "report": report.to_dict()},
                  table=table, violation=violation)


def _schur_counterexample(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    report = schur.counterexample_demo(ns.n)
    violation = None
    if not report.local_ok:
        violation = "counterexample should satisfy the local hypothesis"
    elif report.point_ratio <= 1.0:
        violation = f"counterexample point ratio {report.point_ratio} should exceed 1"
    return Output(record=lambda: {"n": ns.n, "report": report.to_dict()}, violation=violation)


def _converge(ns: argparse.Namespace, cfg: NumericsConfig) -> Output:
    K = _load_set(ns.set, cfg)
    ctx = check_interval_condition(K, ns.a)
    table = equilibrium.outer_convergence_study(K, ctx, parse_int_list(ns.m_values))
    drops = [f"omega not nondecreasing along the filtration: m={m1}:{v1} > m={m2}:{v2}"
             for (m1, v1), (m2, v2) in zip(table, table[1:]) if v2 < v1 - 1e-9]
    return Output(
        record=lambda: {"a": ns.a, "rows": table},
        table=lambda: (("m", "omega"), table),
        plot=lambda: ([("omega", [float(m) for m, _ in table], [v for _, v in table])],
                      ("m", "omega")),
        violation=next(iter(drops), None))


# command: (implementation, formats it renders)
_COMMANDS = {
    "density": (_density, ("json", "csv", "svg")),
    "omega": (_omega, ("json", "csv")),
    "capacity": (_capacity, ("json", "csv")),
    "green": (_green, ("json",)),
    "balayage": (_balayage, ("json", "csv")),
    "markov": (_markov, ("json", "csv", "svg")),
    "schur-witness": (_schur_witness, ("json", "csv")),
    "schur-counterexample": (_schur_counterexample, ("json",)),
    "converge": (_converge, ("json", "csv", "svg")),
}


def _check_writable(path: str) -> None:
    """Refuse an output path that names a directory or lies in a missing or
    unwritable one, before any work; ``_write_atomic`` still reports what
    fails later."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise SetSpecError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise SetSpecError(f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise SetSpecError(f"cannot write {path}: directory {folder} is not writable")


def run(ns: argparse.Namespace, cfg: NumericsConfig) -> int:
    """Run a parsed command, deliver the requested format to ``--out`` or
    stdout, then raise InvariantViolation if the result broke a run invariant."""
    for path in (ns.out, getattr(ns, "dump_witness", None)):
        if path:
            _check_writable(path)
    out = _COMMANDS[ns.command][0](ns, cfg)
    if ns.format == "csv":
        text = to_csv(*out.table())
    elif ns.format == "svg":
        series, axes = out.plot()
        text = emit_svg(series, axes=axes)
    else:
        text = to_json(out.record())
    if ns.out:
        _write_atomic(ns.out, text)
    else:
        sys.stdout.write(text)
    if out.violation:
        raise InvariantViolation(out.violation)
    return EXIT_OK


def _error_record(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)})


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(build_parser().parse_args(argv), load_config())
    except SetSpecError as exc:
        print(_error_record("parse", exc), file=sys.stderr)
        return EXIT_PARSE
    except NumericsError as exc:
        print(_error_record("numeric", exc), file=sys.stderr)
        return EXIT_NUMERIC
    except InvariantViolation as exc:
        print(_error_record("invariant", exc), file=sys.stderr)
        return EXIT_INVARIANT
    except EquipotError as exc:
        print(_error_record("error", exc), file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
