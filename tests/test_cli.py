"""End-to-end command-line behavior: artifacts, exit codes, stdout."""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import frontwave
import frontwave.cli as cli
import frontwave.coupler as coupler
import frontwave.diagnostics as diagnostics
import frontwave.temperature as temperature
from frontwave import (
    ConfigurationError,
    DiagnosticsReport,
    FrontwaveError,
    LinearSolverError,
    NonConvergenceError,
    TemperatureField,
)
from frontwave.cli import main
from frontwave.io import TRACE_COLUMNS, read_columns

FLAT_DOC = {
    "kinetics": {"type": "arrhenius", "prefactor": 1.0, "activation": 1.0},
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 8, "nx": 512, "depth": 40.0},
}


def write_config(directory, doc, name="config.json"):
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_table(path):
    """Parse a CSV artifact into string columns (handles empty cells)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def as_floats(cells):
    return np.array([float(cell) if cell else np.nan for cell in cells])


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    """One completed `solve` invocation shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    outdir = base / "run"
    code = main(["solve", "--config", write_config(base, FLAT_DOC),
                 "--out", str(outdir)])
    return code, outdir


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def fail_first_check(monkeypatch, selects=lambda wave: True):
    """Have the solver's ``run_all`` mark the first check of each wave that
    ``selects`` picks as failed, leaving the wave itself as solved."""
    real = diagnostics.run_all

    def run_all(wave):
        report = real(wave)
        if not selects(wave):
            return report
        first, *rest = report.checks
        return DiagnosticsReport(checks=(replace(first, passed=False), *rest))

    monkeypatch.setattr(diagnostics, "run_all", run_all)


def test_solve_flat_succeeds(solved_run, capsys):
    code, outdir = solved_run
    capsys.readouterr()
    assert code == 0
    manifest = read_manifest(outdir)
    assert manifest["status"] == "converged"
    assert abs(manifest["speed"] - math.exp(-1.0)) <= 5e-4
    assert manifest["diagnostics_passed"] is True
    for name in ("front.csv", "trace.csv", "field.npy", "diagnostics.json"):
        assert (outdir / name).is_file()


def test_solve_prints_speed_and_summary(tmp_path, capsys):
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "speed 0.3678" in out or "speed 0.3679" in out
    assert "all checks passed" in out


def test_diagnose_round_trip(solved_run, capsys):
    _, outdir = solved_run
    code = main(["diagnose", "--in", str(outdir)])
    assert code == 0
    assert "all checks passed" in capsys.readouterr().out
    payload = json.loads((outdir / "diagnostics.json").read_text())
    assert payload["passed"] is True


def test_diagnose_detects_tampered_trace(solved_run, tmp_path, capsys):
    _, outdir = solved_run
    copy = tmp_path / "tampered"
    shutil.copytree(outdir, copy)
    cols = read_columns(copy / "trace.csv", TRACE_COLUMNS)
    lines = ["y,theta,reaction"]
    for y, theta, reaction in zip(cols["y"], cols["theta"] * 1.1,
                                  cols["reaction"]):
        lines.append(f"{y:.17g},{theta:.17g},{reaction:.17g}")
    (copy / "trace.csv").write_text("\n".join(lines) + "\n")

    code = main(["diagnose", "--in", str(copy)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
    payload = json.loads((copy / "diagnostics.json").read_text())
    assert payload["passed"] is False


def test_diagnose_missing_field_file(solved_run, tmp_path):
    _, outdir = solved_run
    copy = tmp_path / "gutted"
    shutil.copytree(outdir, copy)
    (copy / "field.npy").unlink()
    assert main(["diagnose", "--in", str(copy)]) == 1


def test_diagnose_manifest_missing_key_is_config_error(solved_run, tmp_path, caplog):
    _, outdir = solved_run
    copy = tmp_path / "keyless"
    shutil.copytree(outdir, copy)
    manifest = read_manifest(copy)
    del manifest["stages"]
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert "missing or malformed entry ('stages')" in caplog.text


@pytest.mark.parametrize(
    "path, value, message",
    [("grid/nx", 8, "nx must be an integer >= 16"),
     ("speed", -1, "speed must be positive and finite")],
)
def test_diagnose_names_the_manifest_for_an_out_of_range_value(
    solved_run, tmp_path, caplog, path, value, message
):
    _, outdir = solved_run
    copy = tmp_path / "out-of-range"
    shutil.copytree(outdir, copy)
    manifest = read_manifest(copy)
    *parents, key = path.split("/")
    node = manifest
    for part in parents:
        node = node[part]
    node[key] = value
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert f"manifest.json: missing or malformed entry ({message})" in caplog.text


def set_csv_cell(path, row, column, text):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def put_nan_in_field(copy):
    values = np.load(copy / "field.npy")
    values[3, 2] = np.nan
    np.save(copy / "field.npy", values)


def set_negative_activation(copy):
    manifest = read_manifest(copy)
    manifest["config"]["kinetics"]["activation"] = -1.0
    (copy / "manifest.json").write_text(json.dumps(manifest))


def resize_csv(path, rows):
    """Cut a CSV artifact to ``rows`` data rows, or grow it by repeating them."""
    header, *body = path.read_text().splitlines()
    body = (body * (1 + rows // len(body)))[:rows]
    path.write_text("\n".join([header, *body]) + "\n")


def set_last_truncation(value):
    def damage(copy):
        manifest = read_manifest(copy)
        manifest["stages"][-1]["truncation"] = value
        (copy / "manifest.json").write_text(json.dumps(manifest))
    return damage


DAMAGED_FILES = {
    "manifest-not-json": (
        lambda copy: (copy / "manifest.json").write_text("{'speed': 1}"),
        "manifest.json: not JSON (Expecting property name enclosed in double quotes",
    ),
    "field-nan": (put_nan_in_field, "field.npy: field values must be finite"),
    "front-nan": (
        lambda copy: set_csv_cell(copy / "front.csv", 3, 1, "nan"),
        "front.csv: values must be finite",
    ),
    "trace-nan": (
        lambda copy: set_csv_cell(copy / "trace.csv", 3, 1, "nan"),
        "trace.csv: values must be finite",
    ),
    "trace-empty-cell": (
        lambda copy: set_csv_cell(copy / "trace.csv", 3, 1, ""),
        "trace.csv: could not convert string ''",
    ),
    "config-out-of-range": (
        set_negative_activation,
        "manifest.json: missing or malformed entry "
        "(kinetics: activation must be positive and finite)",
    ),
    "trace-cut": (
        lambda copy: resize_csv(copy / "trace.csv", 4),
        "trace.csv: 4 rows, but the manifest grid has ny = 8",
    ),
    "trace-grown": (
        lambda copy: resize_csv(copy / "trace.csv", 16),
        "trace.csv: 16 rows, but the manifest grid has ny = 8",
    ),
    "front-grown-to-power-of-two": (
        lambda copy: resize_csv(copy / "front.csv", 16),
        "front.csv: 16 rows, but the manifest grid has ny = 8",
    ),
    "front-grown-off-power-of-two": (
        lambda copy: resize_csv(copy / "front.csv", 9),
        "front.csv: 9 rows, but the manifest grid has ny = 8",
    ),
    "truncation-float": (
        set_last_truncation(8.0),
        "manifest.json: missing or malformed entry "
        "(truncation index must be an integer)",
    ),
    "truncation-zero": (
        set_last_truncation(0),
        "manifest.json: missing or malformed entry (truncation index must be >= 1)",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_FILES))
def test_diagnose_names_the_damaged_file(solved_run, tmp_path, caplog, case):
    damage, message = DAMAGED_FILES[case]
    _, outdir = solved_run
    copy = tmp_path / "damaged"
    shutil.copytree(outdir, copy)
    damage(copy)
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert f"{copy}{os.sep}{message}" in caplog.text


def test_diagnose_rejects_field_shape_that_differs_from_manifest(
    solved_run, tmp_path, caplog
):
    _, outdir = solved_run
    copy = tmp_path / "deepened"
    shutil.copytree(outdir, copy)
    values = np.load(copy / "field.npy")
    assert values.shape == (513, 8)
    np.save(copy / "field.npy", np.vstack([values, values]))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert (
        f"{copy}{os.sep}field.npy: shape (1026, 8) does not match the manifest grid"
        " (513, 8)" in caplog.text
    )


def test_diagnose_refuses_a_v2_run_directory(solved_run, tmp_path, caplog):
    """Runs written before the field became ``field.npy`` hold ``field.dat``
    and a v2 manifest."""
    _, outdir = solved_run
    copy = tmp_path / "v2"
    shutil.copytree(outdir, copy)
    values = np.load(copy / "field.npy")
    (copy / "field.npy").unlink()
    np.savetxt(copy / "field.dat", values, fmt="%.17g", header="512 8 40", comments="")
    manifest = read_manifest(copy)
    manifest["format"] = "frontwave-manifest-v2"
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert "unrecognized manifest format 'frontwave-manifest-v2'" in caplog.text
    assert "re-run `frontwave solve`" in caplog.text


def test_diagnose_refuses_a_stored_config_with_a_diagnostics_section(
    solved_run, tmp_path, caplog
):
    _, outdir = solved_run
    copy = tmp_path / "unchecked"
    shutil.copytree(outdir, copy)
    manifest = read_manifest(copy)
    manifest["config"]["diagnostics"] = {"enabled": False}
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert "config: unknown field(s) ['diagnostics']" in caplog.text


def test_diagnose_missing_directory(tmp_path):
    assert main(["diagnose", "--in", str(tmp_path / "nowhere")]) == 1


def test_solve_rejects_zero_rate(tmp_path):
    doc = dict(FLAT_DOC, rate={"type": "constant", "value": 0.0})
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert not (tmp_path / "run").exists()


def test_solve_rejects_misaligned_striation(tmp_path):
    doc = dict(
        FLAT_DOC,
        rate={"type": "piecewise", "edges": [0.0, 1.0 / 3.0],
              "values": [0.5, 1.5]},
    )
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    # Raised while sizing the grid inside the solve: it leaves a manifest.
    manifest = read_manifest(tmp_path / "run")
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ConfigurationError"
    assert manifest["exit_code"] == 1


@pytest.mark.parametrize("activation", [705.0, 50.0])
def test_solve_rejects_auto_grid_too_large_to_build(tmp_path, caplog, activation):
    # B=705 makes the auto depth overflow to inf; B=50 gives nx ~ 1.6e24.
    doc = dict(FLAT_DOC, kinetics={"type": "arrhenius", "prefactor": 1.0,
                                   "activation": activation},
               grid={"ny": 8})
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(outdir)])
    assert code == 1
    [record] = caplog.records
    assert "cannot be built; give grid nx and depth" in record.getMessage()
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ConfigurationError"
    assert manifest["exit_code"] == 1


def test_solve_rejects_broken_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 1


def test_solve_rejects_removed_solver_keys(tmp_path, caplog):
    for key in ("damping", "front_tol", "initial_truncation", "max_outer_iter",
                "max_stages"):
        caplog.clear()
        doc = dict(FLAT_DOC, solver={key: 1})
        code = main(["solve", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        [record] = caplog.records
        assert "\n" not in record.getMessage()
        assert f"unknown field(s) ['{key}']" in record.getMessage()
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_diagnostics_section_is_config_error_before_any_solve(
    tmp_path, monkeypatch, caplog, command
):
    solves = []
    monkeypatch.setattr(cli, "solve_traveling_wave", solves.append)
    doc = dict(FLAT_DOC, diagnostics={"enabled": False})
    outdir = tmp_path / "run"
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(outdir)]
    if command == "sweep":
        argv += ["--axis", "kinetics.activation=1,2"]
    assert main(argv) == 1
    assert solves == []
    [record] = caplog.records
    assert record.getMessage() == "config: unknown field(s) ['diagnostics']"
    assert not outdir.exists()


def test_solve_linear_solver_failure_writes_failure_manifest(tmp_path, monkeypatch):
    def failing_solve(config):
        raise LinearSolverError("refinement stalled", residual=1e-9)

    monkeypatch.setattr(cli, "solve_traveling_wave", failing_solve)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert "refinement stalled" in manifest["reason"]
    assert manifest["config"] == FLAT_DOC



def test_singular_front_step_is_nonconvergence_with_manifest(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    # LinAlgError is a ValueError, which would otherwise exit 1 as a config error.
    monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
    doc = dict(FLAT_DOC, rate={"type": "piecewise", "edges": [0.0, 0.5],
                               "values": [0.5, 1.5]})
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["exit_code"] == 2
    assert "front Newton solve" in manifest["reason"]
    assert "stage n=4" in manifest["reason"]
    assert manifest["iterations"] == 0
    assert manifest["history"] == [manifest["residual"]]


def test_exhausted_sweep_budget_is_nonconvergence_with_history(tmp_path, monkeypatch):
    # The first stage solved, n=4, of a striated medium needs more than one
    # sweep; it is not retried.
    monkeypatch.setattr(coupler, "_MAX_SWEEPS", 1)
    doc = dict(FLAT_DOC, rate={"type": "piecewise", "edges": [0.0, 0.5],
                               "values": [0.5, 1.5]})
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["exit_code"] == 2
    assert "stage n=4" in manifest["reason"]
    assert "sweep budget" in manifest["reason"]
    assert manifest["iterations"] == 1
    [(speed, update)] = manifest["history"]
    assert update == manifest["residual"]
    assert math.isfinite(speed) and math.isfinite(update)


def test_negative_trace_is_numerical_failure_with_manifest(tmp_path, monkeypatch):
    real_solve = coupler.solve_temperature

    def cold_solve(psi, c, grid):
        field = real_solve(psi, c, grid)
        return TemperatureField(grid=grid, values=field.values - 1.5, speed=c)

    monkeypatch.setattr(coupler, "solve_temperature", cold_solve)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "FrontwaveError"
    assert manifest["exit_code"] == 2
    # Sweep 1's solve makes the trace negative; sweep 2's forcing rejects it.
    assert manifest["reason"] == (
        "stage n=4, sweep 2: trace temperatures are significantly negative"
    )


SWEEP_ERRORS = {
    "non-convergence": (
        "relax_front",
        NonConvergenceError("front stuck", iterations=5, residual=0.25,
                            history=[1.0, 0.5, 0.25]),
    ),
    "linear-solver": (
        "solve_temperature", LinearSolverError("check missed", residual=3e-9)
    ),
    "numerical": ("solve_temperature", FrontwaveError("field went wrong")),
    "configuration": (
        "solve_temperature", ConfigurationError("cell number too large")
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_ERRORS))
def test_error_inside_a_sweep_keeps_its_type_and_names_stage_once(
    tmp_path, monkeypatch, case
):
    name, error = SWEEP_ERRORS[case]
    real = getattr(coupler, name)
    calls = []

    def fail_on_second_sweep(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return real(*args)

    monkeypatch.setattr(coupler, name, fail_on_second_sweep)
    config, echo = cli.load_config(write_config(tmp_path, FLAT_DOC))
    outdir = tmp_path / "run"
    with pytest.raises(type(error)) as excinfo:
        cli._solve(config, echo, outdir)
    raised = excinfo.value
    assert type(raised) is type(error)
    assert str(raised) == f"stage n=4, sweep 2: {error}"
    for attr in ("exit_code", "verdict", "iterations", "residual", "history"):
        assert getattr(raised, attr) == getattr(error, attr)
    manifest = read_manifest(outdir)
    assert manifest["error"] == type(error).__name__
    assert manifest["exit_code"] == error.exit_code
    assert manifest["reason"] == str(raised)
    assert manifest["reason"].count("stage n=") == 1
    assert manifest.get("iterations") == error.iterations
    assert manifest.get("residual") == error.residual
    assert manifest.get("history") == (
        None if error.history is None else list(error.history)
    )

    calls.clear()
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(tmp_path / "again")])
    assert code == error.exit_code


def refuse_allocation(*args):
    raise MemoryError("cannot allocate the field")


def test_allocation_failure_is_configuration_error_with_manifest(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setattr(coupler, "solve_temperature", refuse_allocation)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 1
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ConfigurationError"
    assert manifest["exit_code"] == 1
    assert manifest["reason"] == (
        "stage n=4, sweep 1: the 513 x 8 field cannot be allocated; "
        "give grid nx and depth"
    )
    assert manifest["reason"] in caplog.text


def test_sweep_row_that_cannot_allocate_is_configuration_error(
    tmp_path, capsys, monkeypatch
):
    real = coupler.solve_temperature

    def refuse_large(psi, c, grid):
        return refuse_allocation() if grid.nx == 512 else real(psi, c, grid)

    monkeypatch.setattr(coupler, "solve_temperature", refuse_large)
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "grid.nx=512,256", "--out", str(outdir)])
    assert code == 3
    assert "grid.nx=512: solve failed [configuration-error]" in (
        capsys.readouterr().out
    )
    table = read_table(outdir / "sweep.csv")
    assert table["verdict"] == ["configuration-error", "pass"]
    failed = read_manifest(outdir / "case_000")
    assert failed["error"] == "ConfigurationError"
    assert "cannot be allocated" in failed["reason"]
    assert read_manifest(outdir / "case_001")["status"] == "converged"


def test_failed_trace_factorization_is_linear_solver_error(tmp_path, monkeypatch):
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(temperature.sparse_linalg, "splu", singular)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["error"] == "LinearSolverError"
    assert manifest["exit_code"] == 2
    assert manifest["reason"] == (
        "stage n=4, sweep 1: sparse factorization failed: "
        "Factor is exactly singular"
    )


def test_singular_cyclic_reduction_block_is_linear_solver_error(tmp_path, monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(temperature.np.linalg, "inv", singular)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["error"] == "LinearSolverError"
    assert manifest["reason"] == (
        "stage n=4, sweep 1: cyclic reduction failed: Singular matrix"
    )


def test_vanishing_kinetics_integral_is_configuration_error(tmp_path):
    # K is zero on all of [0, 1]: no wave exists whatever the grid.
    doc = dict(FLAT_DOC, kinetics={"type": "tabulated",
                                   "points": [[0, 0], [1, 0], [2, 1]]})
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(outdir)])
    assert code == 1
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ConfigurationError"
    assert manifest["exit_code"] == 1
    assert "integral over the unit interval vanishes" in manifest["reason"]


def test_solve_whose_checks_fail_exits_3(tmp_path, capsys, monkeypatch):
    fail_first_check(monkeypatch)
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(outdir)])
    assert code == 3
    assert "CHECKS FAILED" in capsys.readouterr().out
    manifest = read_manifest(outdir)
    assert manifest["status"] == "converged"
    assert manifest["diagnostics_passed"] is False


def test_bad_log_level_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("FRONTWAVE_LOG", "chatty")
    code = main(["solve", "--config", write_config(tmp_path, FLAT_DOC),
                 "--out", str(tmp_path / "run")])
    assert code == 1


def test_info_log_level_accepted(solved_run, monkeypatch):
    _, outdir = solved_run
    monkeypatch.setenv("FRONTWAVE_LOG", "info")
    assert main(["diagnose", "--in", str(outdir)]) == 0


def run_cli_process(args, **env):
    """Run the command line in a fresh interpreter, as the console script does."""
    path = [str(Path(frontwave.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **env)
    return subprocess.run(
        [sys.executable, "-m", "frontwave.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def test_overflowing_forcing_is_nonconvergence_with_manifest(tmp_path):
    # Every forcing value is finite, but the front's mean of them overflows.
    # A fresh interpreter would print numpy's overflow warning to stderr.
    doc = {"kinetics": {"type": "arrhenius", "prefactor": 1e308, "activation": 1.0},
           "rate": {"type": "piecewise", "edges": [0.0, 0.5], "values": [0.5, 1.5]},
           "grid": {"ny": 8}}
    outdir = tmp_path / "run"
    result = run_cli_process(
        ["solve", "--config", write_config(tmp_path, doc), "--out", str(outdir)]
    )
    assert result.returncode == 2, result.stderr
    assert "RuntimeWarning" not in result.stderr
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["reason"] == (
        "stage n=1, sweep 1: front Newton solve did not reach tolerance"
    )
    assert manifest["iterations"] == 0


def test_debug_log_shows_every_sweep_and_temperature_solve(tmp_path):
    doc = dict(FLAT_DOC, grid={"ny": 8, "nx": 256, "depth": 40.0})
    outdir = tmp_path / "run"
    result = run_cli_process(
        ["solve", "--config", write_config(tmp_path, doc), "--out", str(outdir)],
        FRONTWAVE_LOG="debug",
    )
    assert result.returncode == 0, result.stderr
    sweeps = re.findall(r"stage n=(\d+) sweep (\d+): ", result.stderr)
    assert sweeps == [
        (str(stage["truncation"]), str(k))
        for stage in read_manifest(outdir)["stages"]
        for k in range(1, stage["sweeps"] + 1)
    ]
    assert "skipped" not in result.stderr
    errors = re.findall(
        r"temperature solve: \d+ of 257 rows at c=\S+, "
        r"backward error (\S+) \(16 rows\), solvent residual (\S+)\n",
        result.stderr,
    )
    # Every sweep solves once, and nothing else does; no other line carries
    # the marker a plain grep counts.
    assert len(errors) == len(sweeps) == 4
    assert result.stderr.count("temperature solve:") == len(errors)
    assert result.stderr.count("BLAS thread pin: ") == 1
    assert all(float(value) <= 1e-12 for pair in errors for value in pair)


def test_floor_bound_stage_budget_is_nonconvergence_naming_the_floor(
    tmp_path, monkeypatch
):
    # K(1) = e^-50 lies below every floor 1/n with n <= 2^23, so each of the
    # 24 stages is skipped and nothing is solved.
    calls = []
    for name in ("relax_front", "solve_temperature"):
        monkeypatch.setattr(coupler, name, lambda *args, _name=name: calls.append(_name))
    doc = dict(FLAT_DOC, kinetics={"type": "arrhenius", "prefactor": 1.0,
                                   "activation": 50.0},
               grid={"ny": 8, "nx": 256, "depth": 40.0})
    outdir = tmp_path / "run"
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(outdir)])
    assert code == 2
    assert calls == []
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["iterations"] == 24
    assert manifest["reason"] == (
        "continuation exhausted its stage budget before a stage settled with "
        "its floor inactive; last stage tried n=8388608, "
        f"floor 1/n = {2.0 ** -23:.3g}, K(1) = {math.exp(-50.0):.3g}"
    )


def test_wave_settled_at_its_floor_speed_fails_by_name(tmp_path):
    # K(1) = e^-15 lies above the floor 1/n from n = 2^22 on, and the shifted
    # cyclic reduction keeps the flux of so slow a wave, so it is solved.
    def solve(activation):
        doc = dict(FLAT_DOC, kinetics={"type": "arrhenius", "prefactor": 1.0,
                                       "activation": activation},
                   grid={"ny": 8, "nx": 256, "depth": 40.0})
        outdir = tmp_path / f"run-{activation}"
        code = main(["solve", "--config", write_config(tmp_path, doc),
                     "--out", str(outdir)])
        return code, outdir

    code, outdir = solve(15.0)
    assert code == 0
    manifest = read_manifest(outdir)
    assert manifest["status"] == "converged"
    assert abs(manifest["speed"] / math.exp(-15.0) - 1.0) <= 1e-6
    assert json.loads((outdir / "diagnostics.json").read_text())["passed"] is True
    # K(1) = e^-15.5 = 1.86e-7 lies above the floor only at n = 2^23, the last
    # stage, so no two stages can settle and the stage budget runs out.
    code, outdir = solve(15.5)
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert "n=8388608" in manifest["reason"]
    assert not (outdir / "diagnostics.json").exists()


def test_activation_sweep_parallel(tmp_path, capsys):
    doc = {
        "kinetics": FLAT_DOC["kinetics"],
        "rate": FLAT_DOC["rate"],
        "grid": {"ny": 8},
    }
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "kinetics.activation=0.5,1,2,4",
                 "--out", str(outdir), "--jobs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 4

    table = read_table(outdir / "sweep.csv")
    assert list(table) == ["parameter", "value", "speed", "min_theta",
                           "iterations", "verdict"]
    assert table["parameter"] == ["kinetics.activation"] * 4
    values = as_floats(table["value"])
    assert np.array_equal(values, [0.5, 1.0, 2.0, 4.0])
    assert np.max(np.abs(as_floats(table["speed"]) - np.exp(-values))) <= 5e-4
    assert table["verdict"] == ["pass"] * 4
    for k in range(4):
        case = outdir / f"case_{k:03d}"
        manifest = read_manifest(case)
        assert manifest["status"] == "converged"
        assert manifest["config"]["kinetics"]["activation"] == values[k]
        for name in manifest["artifacts"]:
            assert (case / name).is_file()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, caplog, jobs):
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "contrast=0.5", "--out", str(outdir),
                 "--jobs", jobs])
    assert code == 1
    [record] = caplog.records
    assert "--jobs of at least 1" in record.getMessage()
    assert not outdir.exists()


def test_contrast_axis_builds_two_layer_medium(tmp_path):
    doc = {
        "kinetics": FLAT_DOC["kinetics"],
        "rate": FLAT_DOC["rate"],
        "grid": {"ny": 8},
    }
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "contrast=0.5", "--out", str(outdir)])
    assert code == 0
    manifest = read_manifest(outdir / "case_000")
    assert manifest["config"]["rate"] == {
        "type": "piecewise", "edges": [0.0, 0.5], "values": [0.5, 1.5],
    }
    assert 0.0742 - 1e-3 <= manifest["speed"] <= 1.5 + 1e-3


def test_sweep_rejects_bad_axes(tmp_path, caplog):
    config = write_config(tmp_path, FLAT_DOC)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--axis", "contrast=",
                 "--out", out]) == 1
    assert main(["sweep", "--config", config, "--axis",
                 "kinetics.activation=abc", "--out", out]) == 1
    assert main(["sweep", "--config", config, "--axis", "activation",
                 "--out", out]) == 1
    assert main(["sweep", "--config", config, "--axis", "grid.nz=4",
                 "--out", out]) == 1
    for axis, message in [
        ("=1,2", "axis parameter name is empty"),
        ("kinetics.type.x=1", "axis path 'kinetics.type.x' crosses a non-object"),
    ]:
        caplog.clear()
        assert main(["sweep", "--config", config, "--axis", axis,
                     "--out", out]) == 1
        assert [record.getMessage() for record in caplog.records] == [message]
    assert not Path(out).exists()


def test_sweep_blocked_case_path_fails_before_any_row(tmp_path, monkeypatch, caplog):
    solves = []
    monkeypatch.setattr(cli, "solve_traveling_wave", solves.append)
    outdir = tmp_path / "sweep"
    outdir.mkdir()
    (outdir / "case_001").write_text("in the way\n")
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "kinetics.activation=1,2", "--out", str(outdir)])
    assert code == 1
    assert solves == []
    assert "case_001" in caplog.text
    assert not (outdir / "sweep.csv").exists()


def test_sweep_mixed_verdicts_exit_3(tmp_path, capsys, monkeypatch):
    # Three sweeps per stage settle the flat stages at outer_tol=1e-4 but
    # not at 1e-12, which needs four at n=4.
    monkeypatch.setattr(coupler, "_MAX_SWEEPS", 3)
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "solver.outer_tol=1e-12,1e-4", "--out", str(outdir)])
    assert code == 3
    out = capsys.readouterr().out
    assert "solver.outer_tol=1e-12: solve failed [non-convergence]" in out

    table = (outdir / "sweep.csv").read_text().splitlines()
    assert len(table) == 3
    first, second = table[1].split(","), table[2].split(",")
    assert first[-1] == "non-convergence" and first[2] == ""
    assert second[-1] == "pass"
    assert read_manifest(outdir / "case_000")["status"] == "failed"
    assert read_manifest(outdir / "case_001")["status"] == "converged"


def test_sweep_row_whose_checks_fail_reads_checks_failed(tmp_path, capsys, monkeypatch):
    fail_first_check(monkeypatch, lambda wave: wave.kinetics.activation == 2.0)
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "kinetics.activation=1,2", "--out", str(outdir),
                 "--jobs", "2"])
    assert code == 3
    out = capsys.readouterr().out
    assert re.search(r"^kinetics\.activation=2: speed 0\.13\d+ \[checks-failed\]$",
                     out, re.MULTILINE)

    table = read_table(outdir / "sweep.csv")
    assert table["verdict"] == ["pass", "checks-failed"]
    assert abs(float(table["speed"][1]) - math.exp(-2.0)) <= 5e-4
    manifest = read_manifest(outdir / "case_001")
    assert manifest["status"] == "converged"
    assert manifest["diagnostics_passed"] is False
    assert read_manifest(outdir / "case_000")["diagnostics_passed"] is True


def test_sweep_row_with_configuration_error_does_not_abort_sweep(tmp_path, capsys):
    doc = dict(FLAT_DOC, grid={"ny": 8, "nx": 256, "depth": 40.0})
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "grid.nx=16,256", "--out", str(outdir)])
    assert code == 3
    assert "grid.nx=16: solve failed [configuration-error]" in (
        capsys.readouterr().out
    )

    table = read_table(outdir / "sweep.csv")
    assert table["verdict"] == ["configuration-error", "pass"]
    failed = read_manifest(outdir / "case_000")
    assert failed["status"] == "failed"
    assert failed["exit_code"] == 1
    assert "advection cell number" in failed["reason"]
    assert read_manifest(outdir / "case_001")["status"] == "converged"


def test_sweep_marks_linear_solver_failure_row(tmp_path, capsys, monkeypatch):
    real_solve = cli.solve_traveling_wave

    def solve_or_fail(config):
        if config.kinetics.activation == 2.0:
            raise LinearSolverError("refinement stalled", residual=1e-9)
        return real_solve(config)

    monkeypatch.setattr(cli, "solve_traveling_wave", solve_or_fail)
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_config(tmp_path, FLAT_DOC),
                 "--axis", "kinetics.activation=1,2", "--out", str(outdir),
                 "--jobs", "2"])
    assert code == 3
    assert "kinetics.activation=2: solve failed [linear-solver-failure]" in (
        capsys.readouterr().out
    )

    table = read_table(outdir / "sweep.csv")
    assert table["verdict"] == ["pass", "linear-solver-failure"]
    assert table["speed"][1] == ""
    failed = read_manifest(outdir / "case_001")
    assert failed["status"] == "failed"
    assert "refinement stalled" in failed["reason"]
    assert read_manifest(outdir / "case_000")["status"] == "converged"


def test_convergence_study_flat(tmp_path, capsys):
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, FLAT_DOC),
                 "--levels", "3", "--out", str(outdir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reference speed 0.367879441" in out
    assert "observed orders" in out

    table = read_table(outdir / "convergence.csv")
    assert list(table) == ["level", "nx", "ny", "hx", "hy", "speed", "error",
                           "order", "trace_deviation"]
    assert np.array_equal(as_floats(table["nx"]), [512, 1024, 2048])
    assert np.array_equal(as_floats(table["ny"]), [8, 16, 32])
    errors = as_floats(table["error"])
    assert np.all(np.diff(errors) < 0)
    orders = as_floats(table["order"])
    assert np.all((orders[:2] >= 1.7) & (orders[:2] <= 2.3))
    assert np.isnan(orders[2])


def test_convergence_study_striated_order(tmp_path):
    doc = {
        "kinetics": FLAT_DOC["kinetics"],
        "rate": {"type": "piecewise", "edges": [0.0, 0.5],
                 "values": [0.5, 1.5]},
        "grid": {"ny": 8},
    }
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, doc),
                 "--levels", "3", "--out", str(outdir)])
    assert code == 0
    table = read_table(outdir / "convergence.csv")
    # Self-convergence: consecutive-speed differences, one observable order.
    assert np.isnan(as_floats(table["error"])[2])
    assert as_floats(table["order"])[0] >= 1.0


def test_convergence_failure_writes_failure_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(coupler, "_MAX_STAGES", 1)
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, FLAT_DOC),
                 "--levels", "2", "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["exit_code"] == 2
    assert manifest["config"] == FLAT_DOC
    assert not (outdir / "convergence.csv").exists()


def test_convergence_failure_manifest_echoes_the_failed_level_grid(
    tmp_path, monkeypatch
):
    real_solve = cli.solve_traveling_wave

    def fail_on_level_1(config):
        if config.nx == 1024:
            raise NonConvergenceError("level 1 stalled")
        return real_solve(config)

    monkeypatch.setattr(cli, "solve_traveling_wave", fail_on_level_1)
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, FLAT_DOC),
                 "--levels", "2", "--out", str(outdir)])
    assert code == 2
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert "level 1 stalled" in manifest["reason"]
    assert manifest["config"] == {
        **FLAT_DOC, "grid": {"ny": 16, "nx": 1024, "depth": 40.0},
    }


def test_convergence_with_vanishing_kinetics_writes_failure_manifest(tmp_path):
    doc = dict(FLAT_DOC, kinetics={"type": "tabulated",
                                   "points": [[0, 0], [1, 0], [2, 1]]})
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, doc),
                 "--levels", "2", "--out", str(outdir)])
    assert code == 1
    manifest = read_manifest(outdir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "ConfigurationError"
    assert "integral over the unit interval vanishes" in manifest["reason"]
    assert manifest["config"] == doc
    assert not (outdir / "convergence.csv").exists()


def test_convergence_level_0_failure_echoes_the_resolved_auto_grid(
    tmp_path, monkeypatch
):
    doc = {
        "kinetics": FLAT_DOC["kinetics"],
        "rate": {"type": "piecewise", "edges": [0.0, 0.5],
                 "values": [0.5, 1.5]},
        "grid": {"ny": 8},
    }
    grid = frontwave.resolve_grid(frontwave.config_from_dict(doc))
    solved = []

    def fail_on_level_0(config):
        solved.append((config.nx, config.ny, config.depth))
        raise NonConvergenceError("level 0 stalled")

    monkeypatch.setattr(cli, "solve_traveling_wave", fail_on_level_0)
    outdir = tmp_path / "conv"
    code = main(["convergence", "--config", write_config(tmp_path, doc),
                 "--levels", "2", "--out", str(outdir)])
    assert code == 2
    assert solved == [(grid.nx, 8, grid.depth)]
    manifest = read_manifest(outdir)
    assert "level 0 stalled" in manifest["reason"]
    assert manifest["config"] == {
        **doc, "grid": {"ny": 8, "nx": grid.nx, "depth": grid.depth},
    }


def test_convergence_rejects_single_level(tmp_path):
    assert main(["convergence", "--config", write_config(tmp_path, FLAT_DOC),
                 "--levels", "1", "--out", str(tmp_path / "conv")]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
