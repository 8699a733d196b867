"""End-to-end command-line behavior: artifacts, exit codes, stdout."""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import frontwave
import frontwave.cli as cli
import frontwave.coupler as coupler
from frontwave import LinearSolverError, TemperatureField
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


def test_solve_flat_succeeds(solved_run, capsys):
    code, outdir = solved_run
    capsys.readouterr()
    assert code == 0
    manifest = read_manifest(outdir)
    assert manifest["status"] == "converged"
    assert abs(manifest["speed"] - math.exp(-1.0)) <= 5e-4
    assert manifest["diagnostics_passed"] is True
    for name in ("front.csv", "trace.csv", "field.dat", "diagnostics.json"):
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
    (copy / "field.dat").unlink()
    assert main(["diagnose", "--in", str(copy)]) == 1


def test_diagnose_manifest_missing_key_is_config_error(solved_run, tmp_path, caplog):
    _, outdir = solved_run
    copy = tmp_path / "keyless"
    shutil.copytree(outdir, copy)
    manifest = read_manifest(copy)
    del manifest["stop_reason"]
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert "missing or malformed entry ('stop_reason')" in caplog.text


def test_diagnose_rejects_field_depth_that_differs_from_manifest(
    solved_run, tmp_path, caplog
):
    _, outdir = solved_run
    copy = tmp_path / "deepened"
    shutil.copytree(outdir, copy)
    header, body = (copy / "field.dat").read_text().split("\n", 1)
    assert header == "512 8 40"
    (copy / "field.dat").write_text("512 8 400\n" + body)
    assert main(["diagnose", "--in", str(copy)]) == 1
    assert "field.dat does not match the manifest grid" in caplog.text


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
    assert "significantly negative" in manifest["reason"]


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
        "continuation exhausted its stage budget before the speed settled; "
        f"last stage tried n=8388608, floor 1/n = {2.0 ** -23:.3g}, "
        f"K(1) = {math.exp(-50.0):.3g}"
    )


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


def test_sweep_rejects_bad_axes(tmp_path):
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


def test_convergence_rejects_single_level(tmp_path):
    assert main(["convergence", "--config", write_config(tmp_path, FLAT_DOC),
                 "--levels", "1", "--out", str(tmp_path / "conv")]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
