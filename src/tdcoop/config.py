"""YAML configuration for experiment sweeps.

The file is one mapping; unknown keys are rejected so typos fail loudly.
All keys are optional except ``strategies``.  ``snr_db`` takes either an
explicit list or {start, stop, step} (inclusive stop; point i is
start + i * step, not rounded).  Numbers must be finite, and whole for
integer keys.  Strategy entries are either a name string or a mapping
with ``name`` plus optional ``coop_sets`` ({user: [helpers]}, ucN-*
only) and ``multihop_mode`` (ucN-ddf with N >= 3 only).
"""

from __future__ import annotations

import math

from .harness import ExperimentConfig
from .network import GeometryParams
from .power import PowerConfig
from .strategies import Strategy, parse_strategy

__all__ = ["ConfigError", "load_config", "config_from_dict", "read_yaml"]


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


# Numeric keys of a section -> (dataclass field, int or float).
_TOP_NUMBERS = {
    "placements": ("num_placements", int),
    "seed": ("master_seed", int),
    "target_events": ("target_events", int),
    "trial_ceiling": ("trial_ceiling", int),
    "workers": ("workers", int),
}
_GEOMETRY_NUMBERS = {
    "num_users": ("num_users", int),
    "sector_radius": ("sector_radius", float),
    "exclusion_radius": ("exclusion_radius", float),
    "path_loss_exponent": ("path_loss_exponent", float),
}
_POWER_NUMBERS = {
    "rate": ("rate", float),
    "relay_factor": ("relay_power_factor", float),
    "encode_factor": ("encode_factor", float),
    "decode_factor": ("decode_factor", float),
    "overhead_power": ("overhead_power", float),
}
_TOP_KEYS = set(_TOP_NUMBERS) | {
    "snr_db", "per_user_rows", "bounds_only", "output", "geometry", "power", "bounds", "strategies",
}
_GEOMETRY_KEYS = set(_GEOMETRY_NUMBERS) | {"sector_angle_deg", "relay"}
_BOUNDS_KEYS = {"optimize"}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")


def _number(kind, value, what: str):
    """value as kind (int or float).  A list, mapping, word or YAML
    boolean is a config error, and so are NaN, infinity and a fraction
    where an int is wanted."""
    try:
        if isinstance(value, bool):
            raise TypeError
        finite = math.isfinite(float(value))
        number = kind(value) if finite else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not finite:
        raise ConfigError(f"{what} must be finite, got {value!r}")
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return number


def _numbers(raw: dict, fields: dict, where: str) -> dict:
    """{field: number} for each key of fields that raw sets."""
    return {
        field: _number(kind, raw[key], f"{where}{key}")
        for key, (field, kind) in fields.items()
        if key in raw
    }


def _flag(value, what: str) -> bool:
    """A YAML boolean; anything else (a quoted "false", 0) is a config error."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _snr_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, dict):
        _check_keys(raw, {"start", "stop", "step"}, "snr_db")
        try:
            start, stop, step = (
                _number(float, raw[k], f"snr_db {k}") for k in ("start", "stop", "step")
            )
        except KeyError as exc:
            raise ConfigError(f"snr_db range needs start/stop/step: missing {exc}") from exc
        if step <= 0 or stop < start:
            raise ConfigError("snr_db range needs step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    if isinstance(raw, (list, tuple)):
        return tuple(_number(float, x, "snr_db") for x in raw)
    raise ConfigError("snr_db must be a list or a start/stop/step mapping")


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name, {}) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping")
    return section


def _position(raw: dict, key: str) -> tuple[float, float]:
    pair = raw[key]
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"geometry {key} must be an (x, y) pair")
    x, y = (_number(float, v, f"geometry {key}") for v in pair)
    return x, y


def _geometry(raw: dict) -> GeometryParams:
    _check_keys(raw, _GEOMETRY_KEYS, "geometry")
    kwargs = _numbers(raw, _GEOMETRY_NUMBERS, "geometry ")
    if "sector_angle_deg" in raw:
        angle = _number(float, raw["sector_angle_deg"], "geometry sector_angle_deg")
        kwargs["sector_angle"] = math.radians(angle)
    if "relay" in raw:
        kwargs["relay_position"] = _position(raw, "relay")
    return GeometryParams(**kwargs)


def _power(raw: dict) -> PowerConfig:
    _check_keys(raw, set(_POWER_NUMBERS), "power")
    return PowerConfig(**_numbers(raw, _POWER_NUMBERS, "power "))


def _coop_sets(raw):
    """{user: [whole numbers]}; parse_strategy checks users and helpers."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("coop_sets must map user -> helper list")
    sets = {}
    for k, helpers in raw.items():
        if not isinstance(helpers, (list, tuple)):
            raise ConfigError(f"coop_sets user {k} must map to a helper list, got {helpers!r}")
        sets[k] = [_number(int, j, f"coop_sets user {k} helper") for j in helpers]
    return sets


def _strategy(entry, num_users: int) -> Strategy:
    """One ``strategies`` entry: a name, or a mapping with a ``name``."""
    if isinstance(entry, str):
        return parse_strategy(entry, num_users)
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ConfigError("strategy entries must be a name or a mapping with a 'name' string")
    _check_keys(entry, {"name", "coop_sets", "multihop_mode"}, "strategy")
    strategy = parse_strategy(
        entry["name"],
        num_users,
        coop_sets=_coop_sets(entry.get("coop_sets")),
        multihop_mode=entry.get("multihop_mode", "accumulating"),
    )
    # A setting the strategy does not read is an error, not a silent no-op.
    if "coop_sets" in entry and strategy.mode in ("mac", "rc"):
        raise ConfigError(f"strategy {strategy.name} takes no coop_sets")
    if "multihop_mode" in entry and strategy.kernel != "ucmh-ddf":
        raise ConfigError(f"strategy {strategy.name} takes no multihop_mode (only ucN-ddf, N >= 3)")
    return strategy


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a config file's mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "top-level")
    if "strategies" not in raw:
        raise ConfigError("configuration must list at least one strategy")
    if not isinstance(raw["strategies"], (list, tuple)):
        raise ConfigError("strategies must be a list of names or mappings")
    geometry = _geometry(_section(raw, "geometry"))
    power = _power(_section(raw, "power"))
    bounds = _section(raw, "bounds")
    _check_keys(bounds, _BOUNDS_KEYS, "bounds")
    strategies = tuple(_strategy(e, geometry.num_users) for e in raw["strategies"])
    # Only the keys the file sets; ExperimentConfig has the defaults.
    kwargs = _numbers(raw, _TOP_NUMBERS, "")
    output = raw.get("output")
    if output is not None:
        if not isinstance(output, str):
            raise ConfigError(f"output must be a file path, got {output!r}")
        kwargs["output_path"] = output
    for key in ("per_user_rows", "bounds_only"):
        if key in raw:
            kwargs[key] = _flag(raw[key], key)
    if "optimize" in bounds:
        kwargs["optimize_bounds"] = _flag(bounds["optimize"], "bounds optimize")
    try:
        return ExperimentConfig(
            geometry=geometry,
            power=power,
            strategies=strategies,
            snr_db=_snr_grid(raw.get("snr_db", [0.0])),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_yaml(path: str) -> dict:
    """The raw mapping of a YAML config file (empty file: empty mapping)."""
    import yaml  # only config files need PyYAML; library sweeps and pool workers skip it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML config file into an ExperimentConfig."""
    return config_from_dict(read_yaml(path))
