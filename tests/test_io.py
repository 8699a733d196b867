"""Artifact writing and re-loading: round trips, rejection of bad files."""
import json

import numpy as np
import pytest

from frontwave import (
    ConfigurationError,
    LinearSolverError,
    NonConvergenceError,
    front_derivatives,
    load_wave,
    read_columns,
    read_field,
    run_all,
    write_failure_manifest,
    write_rows_csv,
    write_solution,
)
from frontwave.io import FRONT_COLUMNS, MANIFEST_FORMAT, TRACE_COLUMNS

FLAT_ECHO = {
    "kinetics": {"type": "arrhenius", "prefactor": 1.0, "activation": 1.0},
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 64, "nx": 512, "depth": 40.0},
}


@pytest.fixture(scope="module")
def rundir(tmp_path_factory, flat_wave):
    outdir = tmp_path_factory.mktemp("artifacts") / "run"
    write_solution(outdir, flat_wave, FLAT_ECHO)
    return outdir


def test_artifact_set_complete(rundir):
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["format"] == MANIFEST_FORMAT
    assert manifest["status"] == "converged"
    assert manifest["diagnostics_passed"] is True
    assert manifest["config"] == FLAT_ECHO
    assert set(manifest["artifacts"]) == {
        "front.csv", "trace.csv", "field.npy", "diagnostics.json",
    }
    for name in manifest["artifacts"]:
        assert (rundir / name).is_file()


def test_round_trip_is_exact(rundir, flat_wave):
    wave, config, manifest = load_wave(rundir)
    assert wave.speed == flat_wave.speed
    assert np.array_equal(wave.psi.values, flat_wave.psi.values)
    assert np.array_equal(wave.theta, flat_wave.theta)
    assert np.array_equal(wave.forcing.values, flat_wave.forcing.values)
    assert np.array_equal(wave.field.values, flat_wave.field.values)
    assert wave.final_truncation == flat_wave.final_truncation
    assert wave.floor_inactive == flat_wave.floor_inactive
    assert wave.stop_reason == flat_wave.stop_reason
    assert wave.history == flat_wave.history
    assert wave.residuals == flat_wave.residuals
    assert wave.kinetics == flat_wave.kinetics
    assert config.ny == 64 and config.nx == 512


def test_reloaded_wave_passes_all_checks(rundir):
    wave, _, _ = load_wave(rundir)
    assert run_all(wave).passed


def test_front_csv_columns_are_consistent(rundir, flat_wave):
    cols = read_columns(rundir / "front.csv", FRONT_COLUMNS)
    slope, _ = front_derivatives(flat_wave.psi)
    assert np.array_equal(cols["psi_y"], slope)
    assert np.array_equal(cols["y"], flat_wave.grid.y_nodes)
    assert np.max(np.abs(cols["residual"])) < 1e-6

    trace = read_columns(rundir / "trace.csv", TRACE_COLUMNS)
    assert np.all(trace["reaction"] > 0.0)


@pytest.mark.parametrize("name", ["flat_wave", "striated_wave"])
def test_field_file_is_float64_npy_and_reads_back_exactly(name, request, tmp_path):
    """``flat``'s tail is longer than its grid; ``striated``'s ends in zero
    rows.  Either way ``field.npy`` reloads bit for bit."""
    wave = request.getfixturevalue(name)
    values, grid = wave.field.values, wave.grid
    assert np.all(values[0] != 0.0) if name == "flat_wave" else np.all(values[0] == 0.0)
    write_solution(tmp_path / "run", wave, FLAT_ECHO)
    read_values = read_field(tmp_path / "run" / "field.npy")
    assert read_values.dtype == np.float64
    assert read_values.shape == (grid.nx + 1, grid.ny)
    assert read_values.tobytes() == values.tobytes()


def test_read_columns_rejects_wrong_header(rundir):
    with pytest.raises(ConfigurationError):
        read_columns(rundir / "front.csv", TRACE_COLUMNS)


def test_read_field_rejects_malformed_files(tmp_path):
    text = tmp_path / "text.npy"
    np.savetxt(text, np.zeros((3, 4)))
    pickled = tmp_path / "pickled.npy"
    np.save(pickled, np.array([{"field": 1.0}, None], dtype=object))
    flat = tmp_path / "flat.npy"
    np.save(flat, np.zeros(4))
    integers = tmp_path / "integers.npy"
    np.save(integers, np.zeros((3, 4), dtype=np.int64))
    for path in (text, pickled, flat, integers):
        with pytest.raises(ConfigurationError, match=path.name):
            read_field(path)


def test_failure_manifest_blocks_reload(tmp_path):
    outdir = tmp_path / "failed"
    write_failure_manifest(outdir, FLAT_ECHO, ValueError("stalled at stage 3"))
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "stalled" in manifest["reason"]
    with pytest.raises(ConfigurationError):
        load_wave(outdir)


def test_failure_manifest_records_error_fields(tmp_path):
    error = NonConvergenceError(
        "stage budget exhausted",
        iterations=7,
        residual=float("inf"),
        history=[(0.3, 1e-3), (0.31, float("nan"))],
    )
    write_failure_manifest(tmp_path / "stalled", FLAT_ECHO, error)
    manifest = json.loads((tmp_path / "stalled" / "manifest.json").read_text())
    assert manifest["error"] == "NonConvergenceError"
    assert manifest["exit_code"] == 2
    assert manifest["iterations"] == 7
    assert manifest["residual"] is None
    assert manifest["history"] == [[0.3, 1e-3], [0.31, None]]

    error = LinearSolverError("refinement stalled", residual=1e-9)
    write_failure_manifest(tmp_path / "linear", FLAT_ECHO, error)
    manifest = json.loads((tmp_path / "linear" / "manifest.json").read_text())
    assert manifest["error"] == "LinearSolverError"
    assert manifest["exit_code"] == 2
    assert manifest["residual"] == 1e-9
    assert "iterations" not in manifest and "history" not in manifest


@pytest.mark.parametrize(
    "path",
    ["config", "grid", "grid/depth", "speed", "stages", "stages/0/sweeps",
     "stages/0/speed_gap", "stages/0/last_update", "stages/0/floor_inactive"],
)
def test_manifest_missing_key_is_configuration_error(rundir, tmp_path, path):
    manifest = json.loads((rundir / "manifest.json").read_text())
    *parents, key = path.split("/")
    node = manifest
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    del node[key]
    for name in ("front.csv", "trace.csv", "field.npy"):
        (tmp_path / name).write_bytes((rundir / name).read_bytes())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="missing or malformed"):
        load_wave(tmp_path)


def test_stage_facts_are_read_from_the_stages(rundir, tmp_path):
    """The top-level copies of the last stage's facts and the stop reason
    are written for readers of the manifest; loading derives them from
    ``stages`` and the kinetics."""
    manifest = json.loads((rundir / "manifest.json").read_text())
    last = manifest["stages"][-1]
    manifest["final_truncation"] = 3 * last["truncation"]
    manifest["floor_inactive"] = not last["floor_inactive"]
    stop_reason = manifest["stop_reason"]
    manifest["stop_reason"] = "edited by hand"
    for name in ("front.csv", "trace.csv", "field.npy"):
        (tmp_path / name).write_bytes((rundir / name).read_bytes())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    wave, _, _ = load_wave(tmp_path)
    assert wave.final_truncation == last["truncation"]
    assert wave.floor_inactive is last["floor_inactive"]
    assert wave.stop_reason == stop_reason

    manifest["stages"] = []
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="no stage is recorded"):
        load_wave(tmp_path)


def test_unrecognized_manifest_format_rejected(tmp_path):
    outdir = tmp_path / "alien"
    outdir.mkdir()
    old_run = {"format": "frontwave-manifest-v1", "status": "converged"}
    for manifest in ({"format": "other-v9"}, old_run, [], "converged", None):
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        if isinstance(manifest, dict):
            expected = "unrecognized manifest format"
        else:
            expected = "top level must be an object"
        with pytest.raises(ConfigurationError, match=expected):
            load_wave(outdir)


def test_rows_csv_cell_formatting(tmp_path):
    path = tmp_path / "table.csv"
    write_rows_csv(
        path, ("a", "b", "c", "d", "e"),
        [
            (np.pi / 3, float("nan"), None, "note", 7),
            (np.float64(np.pi / 3), np.float64(np.inf), np.float64(-np.inf),
             np.float64(np.nan), np.int64(7)),
        ],
    )
    header, row, numpy_row = path.read_text().splitlines()
    assert header == "a,b,c,d,e"
    cells = row.split(",")
    assert float(cells[0]) == np.pi / 3
    assert cells[1] == "" and cells[2] == ""
    assert cells[3] == "note"
    assert cells[4] == "7"
    # numpy scalars format as the Python numbers they hold.
    assert numpy_row.split(",") == [cells[0], "", "", "", "7"]
