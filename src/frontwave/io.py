"""Artifact output and re-loading.

A finished run produces a directory with ``front.csv``, ``trace.csv``,
``field.npy``, ``diagnostics.json`` (when checks ran), and ``manifest.json``
tying the pieces together with the configuration echo and the continuation
history.  The field is a float64 ``.npy`` array on the manifest's grid, and
the CSV and JSON floats carry 17 significant digits, so all round-trip exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .coupler import StageRecord, TravelingWave
from .errors import ConfigurationError
from .front import FrontProfile, front_derivatives, front_residual
from .kinetics import truncate_kinetics
from .temperature import StripGrid, TemperatureField

__all__ = [
    "write_solution",
    "write_diagnostics",
    "write_failure_manifest",
    "write_rows_csv",
    "read_field",
    "read_columns",
    "load_wave",
]

MANIFEST_FORMAT = "frontwave-manifest-v3"

FRONT_COLUMNS = ("y", "psi", "psi_y", "forcing", "residual")
TRACE_COLUMNS = ("y", "theta", "reaction")


def write_rows_csv(path, header, rows):
    """Write a small numeric table; non-finite entries become empty cells."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif cell is None or (isinstance(cell, float) and not math.isfinite(cell)):
                cells.append("")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(f"{float(cell):.17g}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _json_safe(value):
    """Copy of ``value`` that JSON can hold: tuples become lists and
    non-finite floats ``null``."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_manifest(outdir: Path, payload: dict):
    payload = {
        "format": MANIFEST_FORMAT,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **payload,
    }
    text = json.dumps(_json_safe(payload), indent=2, allow_nan=False)
    (outdir / "manifest.json").write_text(text + "\n")


def write_solution(outdir, wave: TravelingWave, config_echo: dict):
    """Write the full artifact set for a converged wave."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = wave.grid
    y = grid.y_nodes

    psi = wave.psi.values
    slope, _ = front_derivatives(wave.psi)
    forcing = wave.forcing
    residual = front_residual(wave.psi, wave.speed, forcing)
    rows = zip(y, psi, slope, forcing.values, residual)
    write_rows_csv(outdir / "front.csv", FRONT_COLUMNS, rows)

    reaction = wave.final_kinetics.evaluate(np.maximum(wave.theta, 0.0))
    write_rows_csv(
        outdir / "trace.csv", TRACE_COLUMNS, zip(y, wave.theta, reaction)
    )

    np.save(outdir / "field.npy", wave.field.values)

    artifacts = ["front.csv", "trace.csv", "field.npy"]
    diagnostics_passed = None
    if wave.report is not None:
        write_diagnostics(outdir, wave.report)
        artifacts.append("diagnostics.json")
        diagnostics_passed = wave.report.passed

    _write_manifest(
        outdir,
        {
            "status": "converged",
            "speed": wave.speed,
            "final_truncation": wave.final_truncation,
            "floor_inactive": wave.floor_inactive,
            "stop_reason": wave.stop_reason,
            "grid": asdict(grid),
            "residuals": wave.residuals,
            "stages": [asdict(rec) for rec in wave.history],
            "diagnostics_passed": diagnostics_passed,
            "artifacts": artifacts,
            "config": config_echo,
        },
    )


def write_diagnostics(outdir, report):
    """Write a diagnostics report to ``diagnostics.json`` in ``outdir``."""
    text = json.dumps(report.as_dict(), indent=2)
    (Path(outdir) / "diagnostics.json").write_text(text + "\n")


def write_failure_manifest(outdir, config_echo: dict, error: Exception):
    """Record a failed run for post-mortems: the error's type, message and
    exit code, and the iteration count, last residual and recent history
    when the error carries them."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"status": "failed", "error": type(error).__name__}
    for name in ("exit_code", "iterations", "residual", "history"):
        if getattr(error, name, None) is not None:
            payload[name] = getattr(error, name)
    _write_manifest(
        outdir, {**payload, "reason": str(error), "config": config_echo}
    )


def read_columns(path, expected_header) -> dict:
    """Read one of the CSV artifacts back into named columns; a cell that is
    not a finite number is a ``ConfigurationError``."""
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().strip().split(",")
    if tuple(header) != tuple(expected_header):
        raise ConfigurationError(f"{path}: unexpected columns {header}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if data.shape[1] != len(header):
        raise ConfigurationError(f"{path}: wrong column count")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"{path}: values must be finite")
    return {name: data[:, k] for k, name in enumerate(header)}


def read_field(path) -> np.ndarray:
    """Read ``field.npy`` back; anything but a 2-D finite float64 array (a
    text or pickle file included) is a ``ConfigurationError``."""
    try:
        values = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ConfigurationError(f"{path}: not a .npy array ({exc})") from None
    if not (isinstance(values, np.ndarray) and values.ndim == 2
            and values.dtype == np.float64):
        raise ConfigurationError(f"{path}: not a 2-D float64 array")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{path}: field values must be finite")
    return values


def load_wave(outdir):
    """Reconstruct a wave (without its report) from a run directory's
    profile, trace, field and stage records.

    Returns:
        Tuple ``(wave, config, manifest)``.

    Raises:
        ConfigurationError: naming the file that is not JSON, lacks an entry,
            holds an out-of-range entry or a non-finite value, or does not
            match the manifest.
    """
    outdir = Path(outdir)
    manifest_path = outdir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{manifest_path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"{manifest_path}: top level must be an object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigurationError(
            f"{manifest_path}: unrecognized manifest format {manifest.get('format')!r}"
            f" (this version reads {MANIFEST_FORMAT}); re-run `frontwave solve`"
        )
    if manifest.get("status") != "converged":
        raise ConfigurationError(
            f"{manifest_path}: stored run did not converge; nothing to diagnose"
        )
    try:
        config = config_from_dict(manifest["config"])
        grid = StripGrid(**manifest["grid"])
        speed = float(manifest["speed"])
        if not (math.isfinite(speed) and speed > 0.0):
            raise ValueError("speed must be positive and finite")
        history = tuple(
            StageRecord(**{**entry, "speed_gap": _gap(entry["speed_gap"])})
            for entry in manifest["stages"]
        )
        for record in history:
            truncate_kinetics(config.kinetics, record.truncation)
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"{manifest_path}: missing or malformed entry ({exc})"
        ) from None
    if not history:
        raise ConfigurationError(f"{manifest_path}: no stage is recorded")

    front_cols = read_columns(outdir / "front.csv", FRONT_COLUMNS)
    trace_cols = read_columns(outdir / "trace.csv", TRACE_COLUMNS)
    for name, cols in (("front.csv", front_cols), ("trace.csv", trace_cols)):
        if len(cols["y"]) != grid.ny:
            raise ConfigurationError(
                f"{outdir / name}: {len(cols['y'])} rows, but the manifest grid"
                f" has ny = {grid.ny}"
            )
    values = read_field(outdir / "field.npy")
    if values.shape != (grid.nx + 1, grid.ny):
        raise ConfigurationError(
            f"{outdir / 'field.npy'}: shape {values.shape} does not match the manifest"
            f" grid {(grid.nx + 1, grid.ny)}"
        )

    wave = TravelingWave(
        speed=speed,
        psi=FrontProfile(front_cols["psi"]),
        theta=trace_cols["theta"],
        field=TemperatureField(grid=grid, values=values, speed=speed),
        kinetics=config.kinetics,
        rate=config.rate,
        history=history,
    )
    return wave, config, manifest


def _gap(value):
    """The first stage's speed gap is infinite and stored as ``null``."""
    return np.inf if value is None else value
