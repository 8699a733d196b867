"""Smoke test of the benchmark harness on tiny grids (a few seconds).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import frontwave  # noqa: E402
import frontwave.cli  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

TINY_SWEEP_DOC = {
    "kinetics": workloads.ARRHENIUS,
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 8, "nx": 256, "depth": 40.0},
}


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_every_metric_printed_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = run_bench(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in declared[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
        if trace:
            # Traced and untraced operations alternate in one run.
            kinds = {op["traced"] for op in record["ops"]}
            assert kinds == {False, True}
            speeds = {tuple(op["speeds"]) for op in record["ops"]}
            assert len(speeds) == 1


def _attributes():
    """Every attribute a tracer could patch, by identity."""
    owners = [
        frontwave.cli, frontwave.coupler, frontwave.temperature,
        frontwave.diagnostics, frontwave.kinetics, scipy.sparse.linalg,
    ]
    owners += [v for v in vars(frontwave.kinetics).values() if isinstance(v, type)]
    return {
        (id(owner), name): value
        for owner in owners
        for name, value in list(vars(owner).items())
    }


def _sweep_speeds(outdir, config):
    code = frontwave.cli.main([
        "sweep", "--config", str(config), "--axis", "contrast=0.1,0.5",
        "--out", str(outdir), "--jobs", "2",
    ])
    assert code == 0
    rows = (outdir / "sweep.csv").read_text().splitlines()[1:]
    return [row.split(",")[2] for row in rows]


def test_tracing_restores_wrappers_and_keeps_speeds(tmp_path):
    config = frontwave.config_from_dict(workloads.SMOKE_DOC)
    sweep_config = tmp_path / "config.json"
    sweep_config.write_text(json.dumps(TINY_SWEEP_DOC))
    plain_speed = frontwave.solve_traveling_wave(config).speed
    plain_rows = _sweep_speeds(tmp_path / "plain", sweep_config)

    before = _attributes()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.begin_op("solve", "coupler.solve")
        traced_speed = frontwave.solve_traveling_wave(config).speed
        tracer.end_op()
        tracer.begin_op("sweep", "cli.main")
        traced_rows = _sweep_speeds(tmp_path / "traced", sweep_config)
        tracer.end_op()
    finally:
        tracer.restore()
    after = _attributes()

    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced_speed == plain_speed
    assert traced_rows == plain_rows

    names = {s.name for s in tracer.spans}
    assert {
        "front.relax", "temperature.solve", "temperature.assemble",
        "temperature.factor", "temperature.triangular_solve", "coupler.stage",
        "diagnostics.run_all", "cli.row", "io.write", "config.parse",
    } <= names
    sweep = [s for s in tracer.spans if s.op == "sweep"]
    metrics = spans.op_metrics(sweep, jobs=2)
    assert metrics["coupler.stages"] >= 2
    assert metrics["front.relax_calls"] == metrics["temperature.factor_calls"]
    assert 0.0 < metrics["cli.parallel_efficiency"] <= 1.0
