"""Batch front-end.

Commands: density, omega, capacity, green, balayage, markov, schur-witness,
schur-counterexample, converge.  Set specifications are inline JSON or a
path to a JSON file; sweeps use ``a..b`` (arithmetic, step 1) or ``a..b:x2``
(geometric).  Output formats: json (default), csv, svg.  Numbers are
serialised with 17 significant digits so binary64 values round-trip; output
files are written atomically (temp + rename) and byte-identical runs follow
from identical configs.

Exit codes: 0 success, 2 input/parse errors, 3 numeric failures, 4 violated
run invariants; errors emit a one-line machine-readable JSON record on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from . import equilibrium, extremal, schur
from .config import NumericsConfig, load_config
from .errors import EquipotError, InvariantViolation, NumericsError, SetSpecError
from .interval_sets import IntervalSet, check_interval_condition, from_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    set_spec: str | None = None
    dump_witness: str | None = None
    a: float | None = None
    z: float | None = None
    x: float | None = None
    b: float | None = None
    t: float | None = None
    degrees: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    n: int | None = None
    alpha: float = 0.5
    eta: float = 0.05
    h_a: float = 1.0
    points: int = 200
    output: str | None = None
    format: str = "json"
    numerics: NumericsConfig = dataclasses.field(default_factory=load_config)


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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _nice_ticks(lo: float, hi: float, want: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / want))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= want:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(round(v / step) * step)
        v += step
    return ticks


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    axes: tuple[str, str] = ("x", "y"),
    size: tuple[int, int] = (640, 480),
) -> str:
    """Self-contained SVG 1.1 line chart: linear axes, one polyline per series,
    legend.  Byte-deterministic for identical input."""
    if not series or any(len(xs) == 0 for _, xs, _ in series):
        raise SetSpecError("emit_svg needs nonempty series")
    W, H = size
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
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".equipot-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _deliver(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated items; each an int, ``a..b`` or ``a..b:x2`` sweep."""
    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lohi, _, suffix = item.partition(":")
            lo_s, _, hi_s = lohi.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError as exc:
                raise SetSpecError(f"bad range {item!r}") from exc
            if suffix:
                if not suffix.startswith("x"):
                    raise SetSpecError(f"bad sweep suffix in {item!r} (want e.g. ':x2')")
                try:
                    factor = int(suffix[1:])
                except ValueError as exc:
                    raise SetSpecError(f"bad sweep factor in {item!r}") from exc
                if factor < 2:
                    raise SetSpecError(f"geometric factor must be >= 2 in {item!r}")
                v = lo
                while v <= hi:
                    out.append(v)
                    v *= factor
            else:
                out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(item))
            except ValueError as exc:
                raise SetSpecError(f"bad integer {item!r}") from exc
    if not out:
        raise SetSpecError("empty integer list")
    return tuple(out)


def _load_set(cfg: RunConfig) -> IntervalSet:
    spec = cfg.set_spec
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SetSpecError(f"cannot read set spec file {spec!r}: {exc}") from exc
    return from_spec(text, cfg.numerics)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="equipot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_set=True):
        if with_set:
            sp.add_argument("--set", required=True, help="inline JSON or path")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", default="json", choices=["json", "csv", "svg"])

    sp = sub.add_parser("density", help="density table over interior grids")
    add_common(sp)
    sp.add_argument("--points", type=int, default=200, help="points per component")

    sp = sub.add_parser("omega", help="edge factor at a right endpoint")
    add_common(sp)
    sp.add_argument("--a", type=float, required=True)

    sp = sub.add_parser("capacity", help="capacity and Robin constant")
    add_common(sp)

    sp = sub.add_parser("green", help="Green's function at a point")
    add_common(sp)
    sp.add_argument("--z", type=float, required=True)

    sp = sub.add_parser("balayage", help="point-mass balayage kernel onto [b, a]")
    add_common(sp, with_set=False)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--t", type=float, default=None, help="density point (default: table)")
    sp.add_argument("--points", type=int, default=200)

    sp = sub.add_parser("markov", help="extremal derivative study per degree")
    add_common(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--degrees", required=True, help="e.g. 5,10 or 10..60:x2")
    sp.add_argument("--dump-witness", dest="dump_witness", default=None,
                    help="also write each witness as JSON: its interpolation "
                         "nodes and its values there (barycentric form)")

    sp = sub.add_parser("schur-witness", help="witness audit on the quadratic family")
    add_common(sp, with_set=False)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eta", type=float, default=0.05)
    sp.add_argument("--h-a", dest="h_a", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=2000, help="csv table size")

    sp = sub.add_parser("schur-counterexample", help="audit of the global-hypothesis failure")
    add_common(sp, with_set=False)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("converge", help="edge factor along the outer filtration")
    add_common(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--m", dest="m_values", required=True, help="e.g. 2..64:x2")
    return p


def config_from_args(argv: Sequence[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    kwargs = dict(
        command=ns.command,
        output=getattr(ns, "out", None),
        format=getattr(ns, "format", "json"),
    )
    for field in ("a", "z", "x", "b", "t", "n", "alpha", "eta", "h_a",
                  "points", "dump_witness"):
        if hasattr(ns, field) and getattr(ns, field) is not None:
            kwargs[field] = getattr(ns, field)
    if hasattr(ns, "set"):
        kwargs["set_spec"] = ns.set
    if hasattr(ns, "degrees"):
        kwargs["degrees"] = parse_int_list(ns.degrees)
    if hasattr(ns, "m_values"):
        kwargs["m_values"] = parse_int_list(ns.m_values)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# command implementations


def _run_density(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    E = equilibrium.solve_equilibrium(K, cfg.numerics)
    rows = equilibrium.density_table(E, cfg.points, cfg.numerics)
    if cfg.format == "csv":
        _deliver(to_csv(("t", "density"), rows), cfg)
    elif cfg.format == "svg":
        series = []
        for j, (u, v) in enumerate(K.intervals):
            block = [(t, w) for t, w in rows if u < t < v]
            series.append((f"component {j}", [t for t, _ in block], [w for _, w in block]))
        _deliver(emit_svg(series, axes=("t", "density")), cfg)
    else:
        _deliver(to_json({"rows": [[t, w] for t, w in rows]}), cfg)
    return EXIT_OK


def _run_omega(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    E = equilibrium.solve_equilibrium(K, cfg.numerics)
    val = equilibrium.omega_factor(E, cfg.a)
    if cfg.format == "csv":
        _deliver(to_csv(("a", "omega"), [(cfg.a, val)]), cfg)
    else:
        _deliver(to_json({"a": cfg.a, "omega": val}), cfg)
    return EXIT_OK


def _run_capacity(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    E = equilibrium.solve_equilibrium(K, cfg.numerics)
    rec = equilibrium.to_record(E)
    if abs(E.mass - 1.0) > 1e-9:
        raise InvariantViolation(f"density mass {E.mass} deviates from 1 beyond 1e-9")
    if cfg.format == "csv":
        _deliver(to_csv(("cap", "robin", "mass"), [(E.cap, E.robin, E.mass)]), cfg)
    else:
        _deliver(to_json(rec), cfg)
    return EXIT_OK


def _run_green(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    E = equilibrium.solve_equilibrium(K, cfg.numerics)
    g = equilibrium.green(E, cfg.z, cfg.numerics)
    if g < -1e-9:
        raise InvariantViolation(f"negative Green value {g} at {cfg.z}")
    _deliver(to_json({"z": cfg.z, "green": g}), cfg)
    return EXIT_OK


def _run_balayage(cfg: RunConfig) -> int:
    qy = equilibrium.BalayageQuery(x=cfg.x, b=cfg.b, a=cfg.a)
    mass = equilibrium.balayage_mass(qy, cfg.numerics)
    limit = equilibrium.balayage_edge_limit(qy)
    if abs(mass - 1.0) > 1e-9:
        raise InvariantViolation(f"balayage mass {mass} deviates from 1 beyond 1e-9")
    if cfg.t is not None:
        rec = {
            "x": cfg.x, "b": cfg.b, "a": cfg.a, "t": cfg.t,
            "density": equilibrium.balayage_density(qy, cfg.t),
            "mass": mass, "edge_limit": limit,
        }
        _deliver(to_json(rec), cfg)
        return EXIT_OK
    theta = np.linspace(0.0, np.pi, cfg.points + 2)[1:-1]
    ts = (cfg.b + cfg.a) / 2.0 + (cfg.a - cfg.b) / 2.0 * np.cos(theta[::-1])
    rows = [(float(t), float(equilibrium.balayage_density(qy, float(t)))) for t in ts]
    if cfg.format == "csv":
        _deliver(to_csv(("t", "balayage_density"), rows), cfg)
    else:
        _deliver(to_json({"mass": mass, "edge_limit": limit,
                          "rows": [[t, v] for t, v in rows]}), cfg)
    return EXIT_OK


def _run_markov(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    study = extremal.markov_study(K, cfg.a, cfg.degrees, cfg.numerics)
    rows = extremal.study_rows(study)
    if cfg.dump_witness:
        dump = {
            str(r.degree): {"nodes": r.nodes.tolist(), "values": r.node_values.tolist()}
            for r in study.rows
        }
        _write_atomic(cfg.dump_witness, to_json(dump))
    if cfg.format == "csv":
        _deliver(to_csv(("degree", "value", "ratio", "limit_constant"), rows), cfg)
    elif cfg.format == "svg":
        degs = [r.degree for r in study.rows]
        series = [
            ("ratio", [float(d) for d in degs], [r.ratio for r in study.rows]),
            ("limit", [float(degs[0]), float(degs[-1])],
             [study.limit_constant, study.limit_constant]),
        ]
        _deliver(emit_svg(series, axes=("degree", "value / degree^2")), cfg)
    else:
        _deliver(to_json({
            "a": cfg.a,
            "limit_constant": study.limit_constant,
            "rows": [
                {"degree": d, "value": v, "ratio": r, "limit_constant": lc}
                for d, v, r, lc in rows
            ],
            "flagged_degrees": list(study.flagged),
        }), cfg)
    if study.flagged:
        raise InvariantViolation(
            f"ratio exceeds limit envelope at degrees {list(study.flagged)}"
        )
    return EXIT_OK


def _run_schur_witness(cfg: RunConfig) -> int:
    imap = schur.quadratic_inverse_image(cfg.alpha)
    wit = schur.build_witness(imap, cfg.h_a, cfg.n, cfg.eta)
    report = schur.audit_witness(wit, cfg=cfg.numerics)
    if cfg.format == "csv":
        # witness evaluation table on the run-up interval: x, P(x), h/sqrt(a-x)
        K = imap.target_set
        ctx = check_interval_condition(K, imap.a)
        theta = np.linspace(0.0, np.pi, cfg.points + 1)[1:]
        xs = imap.a - ctx.rho / 2.0 + (ctx.rho / 2.0) * np.cos(theta)
        rows = [(float(x), float(wit(float(x))),
                 cfg.h_a / math.sqrt(imap.a - float(x))) for x in xs[::-1]]
        _deliver(to_csv(("x", "witness", "local_bound"), rows), cfg)
    else:
        rec = {"alpha": cfg.alpha, "n": cfg.n, "eta": cfg.eta, "h_a": cfg.h_a,
               "m": wit.m, "witness_degree": wit.degree, "value_at_a": wit.value_at_a,
               "report": report.to_dict()}
        _deliver(to_json(rec), cfg)
    if not report.local_ok:
        raise InvariantViolation("witness violates its own local hypothesis")
    return EXIT_OK


def _run_schur_counterexample(cfg: RunConfig) -> int:
    report = schur.counterexample_demo(cfg.n, cfg.numerics)
    _deliver(to_json({"n": cfg.n, "report": report.to_dict()}), cfg)
    if not report.local_ok:
        raise InvariantViolation("counterexample should satisfy the local hypothesis")
    if report.point_ratio <= 1.0:
        raise InvariantViolation(
            f"counterexample point ratio {report.point_ratio} should exceed 1"
        )
    return EXIT_OK


def _run_converge(cfg: RunConfig) -> int:
    K = _load_set(cfg)
    ctx = check_interval_condition(K, cfg.a)
    table = equilibrium.outer_convergence_study(K, ctx, cfg.m_values, cfg.numerics)
    if cfg.format == "csv":
        _deliver(to_csv(("m", "omega"), table), cfg)
    elif cfg.format == "svg":
        _deliver(emit_svg([("omega", [float(m) for m, _ in table], [v for _, v in table])],
                          axes=("m", "omega")), cfg)
    else:
        _deliver(to_json({"a": cfg.a, "rows": [[m, v] for m, v in table]}), cfg)
    for (m1, v1), (m2, v2) in zip(table, table[1:]):
        if v2 < v1 - 1e-9:
            raise InvariantViolation(
                f"omega not nondecreasing along the filtration: m={m1}:{v1} > m={m2}:{v2}"
            )
    return EXIT_OK


_COMMANDS = {
    "density": _run_density,
    "omega": _run_omega,
    "capacity": _run_capacity,
    "green": _run_green,
    "balayage": _run_balayage,
    "markov": _run_markov,
    "schur-witness": _run_schur_witness,
    "schur-counterexample": _run_schur_counterexample,
    "converge": _run_converge,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a RunConfig; returns the exit status, artifacts on disk."""
    return _COMMANDS[cfg.command](cfg)


def _error_record(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)})


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = config_from_args(argv)
        return run(cfg)
    except (SetSpecError, json.JSONDecodeError) as exc:
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
