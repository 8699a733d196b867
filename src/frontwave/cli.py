"""Command-line interface.

Subcommands: ``solve`` (one run, full artifact set), ``diagnose`` (re-check a
stored run), ``sweep`` (one parameter axis, one run per value), and
``convergence`` (grid-doubling study).  Exit codes: 0 success, 1 bad
configuration or I/O, 2 non-convergence or a numerical failure, 3 a finished
run whose structural checks failed.

Verbosity is controlled by the ``FRONTWAVE_LOG`` environment variable
(``error``, ``info``, or ``debug``).
"""
from __future__ import annotations

import argparse
import copy
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import config_from_dict, load_config
from .coupler import resolve_grid, solve_traveling_wave
from .diagnostics import run_all
from .errors import ConfigurationError, FrontwaveError
from .io import (
    load_wave,
    write_diagnostics,
    write_failure_manifest,
    write_rows_csv,
    write_solution,
)

logger = logging.getLogger("frontwave")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

SWEEP_COLUMNS = (
    "parameter",
    "value",
    "speed",
    "min_theta",
    "iterations",
    "verdict",
)
CONVERGENCE_COLUMNS = (
    "level",
    "nx",
    "ny",
    "hx",
    "hy",
    "speed",
    "error",
    "order",
    "trace_deviation",
)


def _configure_logging():
    name = os.environ.get("FRONTWAVE_LOG", "error").strip().lower()
    if name not in _LOG_LEVELS:
        raise ConfigurationError(
            f"FRONTWAVE_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s"
    )


def _solve(config, echo, outdir):
    """Solve one case; a solver error writes its failure manifest to
    ``outdir`` and propagates."""
    try:
        return solve_traveling_wave(config)
    except FrontwaveError as exc:
        write_failure_manifest(outdir, echo, exc)
        raise


def cmd_solve(args) -> int:
    config, echo = load_config(args.config)
    outdir = Path(args.out)
    start = time.perf_counter()
    wave = _solve(config, echo, outdir)
    elapsed = time.perf_counter() - start
    write_solution(outdir, wave, echo)
    print(
        f"speed {wave.speed:.12g} after {len(wave.history)} stages "
        f"(final truncation n={wave.final_truncation}, {elapsed:.1f} s)"
    )
    print(wave.report.summary())
    return 0 if wave.report.passed else 3


def cmd_diagnose(args) -> int:
    wave, _, _ = load_wave(Path(args.rundir))
    report = run_all(wave)
    write_diagnostics(args.rundir, report)
    print(report.summary())
    return 0 if report.passed else 3


def _parse_axis(axis: str):
    if "=" not in axis:
        raise ConfigurationError("axis must look like name=v1,v2,...")
    name, _, tail = axis.partition("=")
    name = name.strip()
    if not name:
        raise ConfigurationError("axis parameter name is empty")
    values = []
    for token in tail.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            number = float(token)
        except ValueError as exc:
            raise ConfigurationError(f"axis value {token!r} is not a number") from exc
        values.append(int(number) if number.is_integer() else number)
    if not values:
        raise ConfigurationError("axis has no values")
    return name, values


def _apply_override(doc: dict, name: str, value):
    if name == "contrast":
        # Two equal layers at 1 -/+ value around unit mean.
        doc["rate"] = {
            "type": "piecewise",
            "edges": [0.0, 0.5],
            "values": [1.0 - value, 1.0 + value],
        }
        return
    parts = name.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"axis path {name!r} crosses a non-object")
    node[parts[-1]] = value


def _sweep_case(name, value, config, doc, case_dir):
    """Solve one sweep row in its own directory; returns its sweep.csv row."""
    try:
        wave = _solve(config, doc, case_dir)
    except FrontwaveError as exc:
        logger.error("%s=%s failed: %s", name, value, exc)
        return name, value, None, None, None, exc.verdict
    write_solution(case_dir, wave, doc)
    iterations = sum(record.sweeps for record in wave.history)
    return (
        name,
        value,
        wave.speed,
        float(np.min(wave.theta)),
        iterations,
        "pass" if wave.report.passed else "checks-failed",
    )


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError("sweep needs --jobs of at least 1")
    name, values = _parse_axis(args.axis)
    _, base_echo = load_config(args.config)
    outdir = Path(args.out)
    cases = []
    for index, value in enumerate(values):
        doc = copy.deepcopy(base_echo)
        _apply_override(doc, name, value)
        # Validate every override up front so a bad axis is a clean config
        # error before any row starts computing.
        config = config_from_dict(doc)
        cases.append((value, config, doc, outdir / f"case_{index:03d}"))
    # Likewise a case path that cannot be made fails before any row runs.
    for case in cases:
        case[-1].mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(lambda case: _sweep_case(name, *case), cases))

    for row in rows:
        status = "solve failed" if row[2] is None else f"speed {row[2]:.12g}"
        print(f"{row[0]}={row[1]}: {status} [{row[5]}]")
    write_rows_csv(outdir / "sweep.csv", SWEEP_COLUMNS, rows)
    return 0 if all(row[5] == "pass" for row in rows) else 3


def cmd_convergence(args) -> int:
    config, echo = load_config(args.config)
    if args.levels < 2:
        raise ConfigurationError("convergence needs at least two levels")
    outdir = Path(args.out)
    try:
        # Level 0 is sized as ``solve`` would size it, and level k doubles it
        # k times at that depth, so every level runs on an explicit grid.
        base = resolve_grid(config)
    except FrontwaveError as exc:
        write_failure_manifest(outdir, echo, exc)
        raise
    waves = []
    for level in range(args.levels):
        nx, ny = base.nx * 2**level, base.ny * 2**level
        case = replace(config, nx=nx, ny=ny, depth=base.depth, run_diagnostics=False)
        # A failure manifest echoes the grid this level ran on.
        level_echo = {**echo, "grid": {"ny": ny, "nx": nx, "depth": base.depth}}
        start = time.perf_counter()
        wave = _solve(case, level_echo, outdir)
        waves.append(wave)
        logger.info(
            "level %d (%dx%d): speed %.12g in %.1f s",
            level, wave.grid.nx, wave.grid.ny, wave.speed, time.perf_counter() - start,
        )

    speeds = [wave.speed for wave in waves]
    r_lo, r_hi = config.rate.bounds
    if r_lo == r_hi:
        # Uniform medium: the flat-front speed is available in closed form
        # from the rate law at the hot boundary value.
        reference = r_hi * waves[-1].final_kinetics.evaluate(1.0)
        errors = [abs(speed - reference) for speed in speeds]
    else:
        reference = None
        diffs = [abs(speeds[k + 1] - speeds[k]) for k in range(len(speeds) - 1)]
        errors = diffs + [math.nan]

    orders = []
    for k in range(len(errors) - 1):
        lead, trail = errors[k], errors[k + 1]
        if np.isfinite(lead) and np.isfinite(trail) and lead > 0 and trail > 0:
            orders.append(math.log2(lead / trail))
        else:
            orders.append(math.nan)

    rows = []
    for level, wave in enumerate(waves):
        grid = wave.grid
        rows.append(
            (
                level,
                grid.nx,
                grid.ny,
                grid.hx,
                grid.hy,
                wave.speed,
                errors[level],
                orders[level] if level < len(orders) else math.nan,
                wave.residuals["trace_deviation"],
            )
        )
    outdir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(outdir / "convergence.csv", CONVERGENCE_COLUMNS, rows)
    if reference is not None:
        print(f"reference speed {reference:.12g}")
    shown = [f"{value:.3g}" for value in orders if np.isfinite(value)]
    print(f"observed orders: {', '.join(shown) if shown else 'n/a'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontwave",
        description="Traveling-wave solver for free-boundary flame fronts "
        "in striated media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute one traveling wave")
    p_solve.add_argument(
        "--config", required=True, help="path to a JSON configuration file"
    )
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_diag = sub.add_parser("diagnose", help="re-run checks on stored artifacts")
    p_diag.add_argument(
        "--in", dest="rundir", required=True, help="directory written by 'solve'"
    )
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("sweep", help="run a one-parameter family")
    p_sweep.add_argument(
        "--config", required=True, help="path to a JSON configuration file"
    )
    p_sweep.add_argument(
        "--axis",
        required=True,
        help="parameter axis, e.g. kinetics.activation=0.5,1,2,4 "
        "or contrast=0.1,0.3,0.5",
    )
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="rows to run concurrently (at least 1)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("convergence", help="grid-doubling study")
    p_conv.add_argument(
        "--config", required=True, help="path to a JSON configuration file"
    )
    p_conv.add_argument("--levels", type=int, default=3, help="number of grids")
    p_conv.add_argument("--out", required=True, help="output directory")
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (FrontwaveError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return exc.exit_code if isinstance(exc, FrontwaveError) else 1


if __name__ == "__main__":
    sys.exit(main())
