"""YAML configuration for experiment sweeps.

The file is one mapping; unknown keys are rejected so typos fail loudly.
All keys are optional except ``strategies``.  ``snr_db`` takes either an
explicit list or {start, stop, step} (inclusive stop; point i is
start + i * step, not rounded).  Strategy entries are either a name
string or a mapping with ``name`` plus optional ``coop_sets``
({user: [helpers]}) and ``multihop_mode``.
"""

from __future__ import annotations

import math

import yaml

from .harness import ExperimentConfig
from .network import GeometryParams
from .power import PowerConfig
from .strategies import Strategy, parse_strategy

__all__ = ["ConfigError", "load_config", "config_from_dict", "read_yaml", "strategy_name"]


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


_TOP_KEYS = {
    "seed",
    "workers",
    "placements",
    "snr_db",
    "target_events",
    "trial_ceiling",
    "per_user_rows",
    "bounds_only",
    "output",
    "geometry",
    "power",
    "bounds",
    "strategies",
}
_GEOMETRY_KEYS = {
    "num_users",
    "sector_radius",
    "sector_angle_deg",
    "exclusion_radius",
    "relay",
    "destination",
    "path_loss_exponent",
}
_POWER_KEYS = {
    "rate",
    "relay_factor",
    "encode_factor",
    "decode_factor",
    "overhead_power",
}
_BOUNDS_KEYS = {"theta_star", "optimize"}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")


def _number(kind, value, what: str):
    """value as kind (int or float); a list, mapping or word is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


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


def _section(merged: dict, name: str) -> dict:
    raw = merged.get(name, {}) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    return raw


def _position(raw: dict, key: str) -> tuple[float, float]:
    try:
        x, y = (float(v) for v in raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry {key} must be an (x, y) pair") from exc
    return x, y


def _geometry(raw: dict) -> GeometryParams:
    _check_keys(raw, _GEOMETRY_KEYS, "geometry")
    kwargs = {}

    def number(kind, key):
        return _number(kind, raw[key], f"geometry {key}")

    if "num_users" in raw:
        kwargs["num_users"] = number(int, "num_users")
    if "sector_radius" in raw:
        kwargs["sector_radius"] = number(float, "sector_radius")
    if "sector_angle_deg" in raw:
        kwargs["sector_angle"] = math.radians(number(float, "sector_angle_deg"))
    if "exclusion_radius" in raw:
        kwargs["exclusion_radius"] = number(float, "exclusion_radius")
    if "relay" in raw:
        kwargs["relay_position"] = _position(raw, "relay")
    if "destination" in raw:
        kwargs["destination_position"] = _position(raw, "destination")
    if "path_loss_exponent" in raw:
        kwargs["path_loss_exponent"] = number(float, "path_loss_exponent")
    return GeometryParams(**kwargs)


def _power(raw: dict) -> PowerConfig:
    _check_keys(raw, _POWER_KEYS, "power")

    def number(key, default):
        return _number(float, raw.get(key, default), f"power {key}")

    return PowerConfig(
        user_power=1.0,
        rate=number("rate", 0.25),
        relay_power_factor=number("relay_factor", 0.5),
        encode_factor=number("encode_factor", 0.0),
        decode_factor=number("decode_factor", 0.0),
        overhead_power=number("overhead_power", 0.0),
    )


def _coop_sets(raw, num_users: int):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("coop_sets must map user -> helper list")
    out = []
    for k in range(1, num_users + 1):
        if k not in raw:
            raise ConfigError(f"coop_sets missing user {k}")
        out.append(tuple(int(j) for j in raw[k]))
    return tuple(out)


def strategy_name(entry) -> str:
    """The name of one ``strategies`` entry: the string, or its ``name``."""
    if isinstance(entry, str):
        return entry
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ConfigError("strategy entries must be a name or a mapping with a 'name' string")
    return entry["name"]


def _strategy(entry, num_users: int) -> Strategy:
    name = strategy_name(entry)
    if isinstance(entry, str):
        return parse_strategy(name, num_users)
    _check_keys(entry, {"name", "coop_sets", "multihop_mode"}, "strategy")
    return parse_strategy(
        name,
        num_users,
        coop_sets=_coop_sets(entry.get("coop_sets"), num_users),
        multihop_mode=entry.get("multihop_mode", "accumulating"),
    )


def config_from_dict(raw: dict, **overrides) -> ExperimentConfig:
    """Build a validated ExperimentConfig; overrides replace file values.

    Supported overrides: seed, workers, snr_db, target_events,
    trial_ceiling, output, strategies (list of names), bounds_only,
    per_user_rows.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "top-level")
    merged = dict(raw)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    if "strategies" not in merged:
        raise ConfigError("configuration must list at least one strategy")
    geometry = _geometry(_section(merged, "geometry"))
    power = _power(_section(merged, "power"))
    bounds = _section(merged, "bounds")
    _check_keys(bounds, _BOUNDS_KEYS, "bounds")
    strategies = tuple(
        _strategy(e, geometry.num_users) for e in merged["strategies"]
    )
    if len({s.name for s in strategies}) != len(strategies):
        raise ConfigError("duplicate strategy names")

    def number(key, default):
        return _number(int, merged.get(key, default), key)

    try:
        return ExperimentConfig(
            geometry=geometry,
            power=power,
            strategies=strategies,
            snr_db=_snr_grid(merged.get("snr_db", [0.0])),
            num_placements=number("placements", 100),
            master_seed=number("seed", 0),
            target_events=number("target_events", 100),
            trial_ceiling=number("trial_ceiling", 10_000_000),
            workers=number("workers", 1),
            output_path=merged.get("output"),
            per_user_rows=bool(merged.get("per_user_rows", False)),
            theta_star=_number(float, bounds.get("theta_star", 0.5), "bounds theta_star"),
            optimize_bounds=bool(bounds.get("optimize", False)),
            bounds_only=bool(merged.get("bounds_only", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_yaml(path: str) -> dict:
    """The raw mapping of a YAML config file (empty file: empty mapping)."""
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


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Parse a YAML config file into an ExperimentConfig."""
    return config_from_dict(read_yaml(path), **overrides)
