"""Central numeric configuration.

A setting is a field of ``NumericsConfig`` only if a caller moves it: the
quadrature's node range and tolerance (starving them is how the numeric and
invariant failure paths are reached), the exchange loop's round cap, and
the two input-size limits users raise, the Cantor level and the Markov
degree.  Every other node count, tolerance and iteration cap is a named
constant beside its one reader.  The CLI honours the ``EQUIPOT_CONFIG``
environment variable: a JSON object (inline or a path to a file) whose keys
override the defaults below; an unknown key, or a value of the wrong type
or range, is refused.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from .errors import SetSpecError


@dataclasses.dataclass(frozen=True)
class NumericsConfig:
    # Gauss-Chebyshev quadrature: nodes double from quad_min_nodes until the
    # relative change between successive estimates drops below quad_rel_tol.
    quad_min_nodes: int = 16
    quad_max_nodes: int = 1 << 16
    quad_rel_tol: float = 1e-13

    # Rounds of the extremal probe's exchange loop.
    lp_exchange_rounds: int = 30

    # Input-size limits.
    cantor_level_cap: int = 12
    markov_degree_cap: int = 120

    def __post_init__(self) -> None:
        # counts are ints (never bools) at or above their floor; quad_min_nodes
        # is checked before it serves as the floor of quad_max_nodes
        floors = {"quad_min_nodes": 1, "quad_max_nodes": self.quad_min_nodes,
                  "lp_exchange_rounds": 0, "cantor_level_cap": 0, "markov_degree_cap": 0}
        for name, floor in floors.items():
            value = getattr(self, name)
            if type(value) is not int or value < floor:
                raise SetSpecError(
                    f"config field {name!r} must be an integer >= {floor}, got {value!r}"
                )
        tol = self.quad_rel_tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not (
            math.isfinite(tol) and tol > 0
        ):
            raise SetSpecError(
                f"config field 'quad_rel_tol' must be a finite number > 0, got {tol!r}"
            )


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
    path of a JSON file.  Unknown keys and out-of-range values are rejected.
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
    try:
        return dataclasses.replace(DEFAULTS, **overrides)
    except SetSpecError as exc:
        raise SetSpecError(f"bad value in {ENV_VAR}: {exc}") from exc
