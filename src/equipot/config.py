"""Central numeric configuration.

A setting is a field of ``NumericsConfig`` only if a caller moves it: the
two input-size limits users raise, the Cantor level and the Markov degree.
Every node count, tolerance and iteration cap is a named constant beside
its one reader, read when it is used: the quadrature's
``numerics.QUAD_MIN_NODES``, ``QUAD_MAX_NODES`` and ``QUAD_REL_TOL``, and
the exchange loop's ``extremal.EXCHANGE_ROUNDS``.  The CLI honours the
``EQUIPOT_CONFIG`` environment variable: a JSON object (inline or a path
to a file) whose keys override the defaults below; an unknown key, or a
value of the wrong type or range, is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import SetSpecError


@dataclasses.dataclass(frozen=True)
class NumericsConfig:
    # Input-size limits.
    cantor_level_cap: int = 12
    markov_degree_cap: int = 120

    def __post_init__(self) -> None:
        # ints (never bools) >= 0
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 0:
                raise SetSpecError(
                    f"config field {f.name!r} must be an integer >= 0, got {value!r}"
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

    The variable may hold inline JSON (``{"markov_degree_cap": 200}``) or the
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
