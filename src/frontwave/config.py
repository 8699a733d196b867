"""Strict JSON configuration parsing.

The file has up to four sections: ``kinetics`` and ``rate`` (required),
``grid`` and ``solver`` (optional).  Unknown sections or fields are rejected
rather than ignored, so typos fail loudly.
"""
from __future__ import annotations

import json
from pathlib import Path

from .coupler import SolverConfig
from .errors import ConfigurationError
from .kinetics import (
    ArrheniusKinetics,
    ConstantKinetics,
    KineticsModel,
    PiecewiseConstantRate,
    SmoothRate,
    TabulatedKinetics,
    truncate_kinetics,
)

__all__ = ["load_config", "config_from_dict", "parse_kinetics", "parse_rate"]


def _check_fields(section: str, mapping: dict, required: tuple, optional: tuple = ()):
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{section} must be an object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(
            f"{section}: unknown field(s) {sorted(unknown)}"
        )
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigurationError(f"{section}: missing field(s) {sorted(missing)}")


def _number(section: str, mapping: dict, key: str):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{section}.{key} must be a number")
    return value


def _integer(section: str, mapping: dict, key: str):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{section}.{key} must be an integer")
    return value


def parse_kinetics(spec: dict, section: str = "kinetics") -> KineticsModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigurationError(f"{section} must be an object with a 'type'")
    kind = spec["type"]
    try:
        if kind == "arrhenius":
            _check_fields(section, spec, ("type", "prefactor", "activation"))
            return ArrheniusKinetics(
                prefactor=_number(section, spec, "prefactor"),
                activation=_number(section, spec, "activation"),
            )
        if kind == "constant":
            _check_fields(section, spec, ("type", "value"))
            return ConstantKinetics(value=_number(section, spec, "value"))
        if kind == "tabulated":
            _check_fields(section, spec, ("type", "points"))
            points = spec["points"]
            if not isinstance(points, list):
                raise ConfigurationError(f"{section}.points must be a list")
            return TabulatedKinetics(points=tuple(tuple(p) for p in points))
        if kind == "truncated":
            _check_fields(section, spec, ("type", "base", "n"))
            base = parse_kinetics(spec["base"], section=f"{section}.base")
            return truncate_kinetics(base, _integer(section, spec, "n"))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{section}: {exc}") from exc
    raise ConfigurationError(f"{section}: unknown type {kind!r}")


def parse_rate(spec: dict, section: str = "rate"):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigurationError(f"{section} must be an object with a 'type'")
    kind = spec["type"]
    try:
        if kind == "constant":
            _check_fields(section, spec, ("type", "value"))
            return SmoothRate(mean=_number(section, spec, "value"))
        if kind == "piecewise":
            _check_fields(section, spec, ("type", "edges", "values"))
            return PiecewiseConstantRate(
                edges=tuple(spec["edges"]), values=tuple(spec["values"])
            )
        if kind == "smooth":
            _check_fields(section, spec, ("type", "mean"), ("cosine", "sine"))
            return SmoothRate(
                mean=_number(section, spec, "mean"),
                cosine=tuple(spec.get("cosine", ())),
                sine=tuple(spec.get("sine", ())),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{section}: {exc}") from exc
    raise ConfigurationError(f"{section}: unknown type {kind!r}")


_GRID_FIELDS = ("ny", "nx", "depth")


def config_from_dict(data: dict) -> SolverConfig:
    """Build a solver configuration from a parsed JSON document."""
    _check_fields("config", data, ("kinetics", "rate"), ("grid", "solver"))
    kwargs = {
        "kinetics": parse_kinetics(data["kinetics"]),
        "rate": parse_rate(data["rate"]),
    }

    grid = data.get("grid", {})
    _check_fields("grid", grid, (), _GRID_FIELDS)
    if "ny" in grid:
        kwargs["ny"] = _integer("grid", grid, "ny")
    if "nx" in grid and grid["nx"] not in (None, "auto"):
        kwargs["nx"] = _integer("grid", grid, "nx")
    if "depth" in grid and grid["depth"] not in (None, "auto"):
        kwargs["depth"] = _number("grid", grid, "depth")

    solver = data.get("solver", {})
    _check_fields("solver", solver, (), ("outer_tol",))
    if "outer_tol" in solver:
        kwargs["outer_tol"] = _number("solver", solver, "outer_tol")

    return SolverConfig(**kwargs)


def load_config(path):
    """Load a configuration file.

    Returns:
        Tuple ``(config, raw)`` of the validated configuration and the parsed
        JSON document (echoed into manifests).
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return config_from_dict(raw), raw
