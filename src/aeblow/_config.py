"""The one reader of config values, and the keys each kind of block takes.

Every number, number list and [x, y] row table of a config block is read
here: true/false is no number, and null is taken only where the default is
None.  A default of MISSING marks a required key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

from .errors import ConfigurationError

# the keys a metric or damping block takes, by its kind
KIND_KEYS = {
    "metric": {"flat": ("kind", "n"), "power-law": ("kind", "n", "c", "rho"),
               "tabulated": ("kind", "n", "table", "rho")},
    "damping": {"zero": ("kind",), "scattering-power": ("kind", "mu", "beta"),
                "signed-oscillatory": ("kind", "mu", "beta"),
                "tabulated": ("kind", "table", "tail_l1")},
}


def _given(block: dict, bname: str, key: str, default) -> bool:
    """Whether block[key] is set; raises if it is required and absent, or null."""
    if key not in block:
        if default is MISSING:
            raise ConfigurationError(f"config {bname!r} block missing key {key!r}")
        return False
    if block[key] is None and default is not None:
        raise ConfigurationError(f"config key {bname}.{key} must not be null")
    return block[key] is not None


def _as_number(val, name: str, integer: bool = False, positive: bool = False):
    try:
        num = math.nan if isinstance(val, bool) else float(val)
    except (TypeError, ValueError):
        num = math.nan
    if not (math.isfinite(num) and (not integer or num.is_integer())
            and (not positive or num > 0)):
        what = "positive " * positive + ("integer" if integer else "number")
        raise ConfigurationError(f"config key {name} must be a {what}")
    return int(num) if integer else num


def number(block: dict, bname: str, key: str, default=MISSING,
           integer: bool = False, positive: bool = False):
    """block[key] as a finite float (an int if integer), or default."""
    if not _given(block, bname, key, default):
        return default
    return _as_number(block[key], f"{bname}.{key}", integer, positive)


def numbers(block: dict, bname: str, key: str,
            positive: bool = False) -> list[float]:
    """block[key] as a list of floats, [] when the key is left out."""
    vals = block.get(key, [])
    if not isinstance(vals, list):
        raise ConfigurationError(f"config key {bname}.{key} must be a list")
    return [_as_number(v, f"{bname}.{key}", positive=positive) for v in vals]


def rows(block: dict, bname: str, key: str) -> list[list[float]]:
    """The columns [xs, ys] of block[key], a list of [x, y] number rows."""
    _given(block, bname, key, MISSING)
    table, name = block[key], f"{bname}.{key}"
    if not (isinstance(table, list)
            and all(isinstance(row, list) and len(row) == 2 for row in table)):
        raise ConfigurationError(f"config key {name} must be a list of [x, y] rows")
    return [[_as_number(row[i], name) for row in table] for i in (0, 1)]


def from_block(cls, block: dict, bname: str):
    """cls built from the keys of block that are its fields, the rest left at
    cls's defaults; a bool field takes only true or false."""
    values = {}
    for f in (f for f in fields(cls) if f.name in block):
        flag = isinstance(f.default, bool)
        if flag and not isinstance(block[f.name], bool):
            raise ConfigurationError(
                f"config key {bname}.{f.name} must be true or false")
        values[f.name] = (block[f.name] if flag
                          else number(block, bname, f.name, f.default))
    return cls(**values)


def check_keys(block: dict, bname: str, keys, owner: str) -> None:
    """Reject a key of block that is not in keys, the keys owner takes."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigurationError(
            f"unknown config key {bname}.{unknown[0]}; {owner} takes "
            f"{bname} keys {', '.join(keys)}")


def kind(block: dict, bname: str, table=None, key: str = "kind",
         default=MISSING) -> str:
    """block[key], a kind of table (KIND_KEYS[bname] by default), after
    checking that block holds only keys that kind takes."""
    table = KIND_KEYS[bname] if table is None else table
    choice = block[key] if _given(block, bname, key, default) else default
    if not (isinstance(choice, str) and choice in table):
        raise ConfigurationError(
            f"unknown {bname} {key} {choice!r}; use one of {', '.join(table)}")
    check_keys(block, bname, table[choice], f"{key} {choice!r}")
    return choice
