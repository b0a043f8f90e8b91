"""Central numeric configuration.

One frozen record holds every node count, tolerance and iteration cap used
by the numeric kernels, so behaviour is reproducible and overridable from a
single place.  The CLI honours the ``EQUIPOT_CONFIG`` environment variable:
a JSON object (inline or a path to a file) whose keys override the defaults
below.
"""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import SetSpecError


@dataclasses.dataclass(frozen=True)
class NumericsConfig:
    # Gauss-Chebyshev quadrature: nodes double from quad_min_nodes until the
    # relative change between successive estimates drops below quad_rel_tol.
    quad_min_nodes: int = 64
    quad_max_nodes: int = 1 << 16
    quad_rel_tol: float = 1e-13

    # Chebyshev expansion of smooth per-component factors: doubled until the
    # trailing quarter of coefficients is negligible relative to the largest.
    expand_min_nodes: int = 64
    expand_max_nodes: int = 1 << 13
    expand_tail_tol: float = 1e-14

    # LP relaxations of sup-norm extremal problems.
    # The exchange loop's working set is seeded with lp_grid_per_degree*(degree+1)
    # arccos-spaced points per interval; the witness is validated on a grid
    # lp_validation_factor times finer, 128*(degree+1) points by default.
    lp_grid_per_degree: int = 4
    lp_validation_factor: int = 32
    lp_feasibility_tol: float = 1e-10
    lp_gap_tol: float = 1e-9
    lp_exchange_tol: float = 1e-9       # accepted witness overshoot above 1
    lp_exchange_rounds: int = 30

    # Misc caps and guards.
    density_edge_guard: float = 1e-12   # density undefined this close to an endpoint
    cantor_level_cap: int = 12
    markov_degree_cap: int = 120
    potential_probe_count: int = 5


DEFAULTS = NumericsConfig()

ENV_VAR = "EQUIPOT_CONFIG"


def read_json_text(raw: str, what: str) -> str:
    """``raw`` itself when it is inline JSON (starts with ``{``), else the
    contents of the file it names; ``what`` names the input in errors."""
    text = raw.strip()
    if text.startswith("{"):
        return text
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SetSpecError(f"cannot read {what} file {text!r}: {exc}") from exc


def load_config(env: dict[str, str] | None = None) -> NumericsConfig:
    """Return DEFAULTS with any overrides taken from ``EQUIPOT_CONFIG``.

    The variable may hold inline JSON (``{"quad_rel_tol": 1e-12}``) or the
    path of a JSON file.  Unknown keys are rejected.
    """
    env = os.environ if env is None else env
    raw = env.get(ENV_VAR)
    if not raw:
        return DEFAULTS
    try:
        overrides = json.loads(read_json_text(raw, ENV_VAR))
    except json.JSONDecodeError as exc:
        raise SetSpecError(f"invalid JSON in {ENV_VAR}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise SetSpecError(f"{ENV_VAR} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(NumericsConfig)}
    bad = set(overrides) - known
    if bad:
        raise SetSpecError(f"unknown config keys in {ENV_VAR}: {sorted(bad)}")
    return dataclasses.replace(DEFAULTS, **overrides)
