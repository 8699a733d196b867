"""One fresh interpreter that sets up a workload and, unless probing, runs it.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
set-up time is measured from ``--t0``, a ``time.perf_counter`` reading the
parent took just before starting this process (the clock is system-wide on
Linux), so it covers interpreter start-up, ``import frontwave``, config
parsing and ``resolve_grid``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

# Counts that must repeat exactly on every operation and every run of a
# workload.  ``lu_nnz`` depends on partial pivoting, so it only has to
# repeat for the same seed (the seed rotates the striation pattern).
COUNT_KEYS = (
    "coupler.stages",
    "coupler.sweeps",
    "coupler.grid_unknowns",
    "front.relax_calls",
    "temperature.factor_calls",
    "temperature.triangular_solves",
    "temperature.lu_nnz",
)
PER_SEED_COUNTS = ("temperature.lu_nnz",)

# Fewest operations in one run: three untraced, or two untraced and two
# traced (they alternate) when tracing.
MIN_OPS = {False: 3, True: 4}
HARD_LIMIT_S = 120.0  # never start an operation expected to end later


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def _fingerprint(root: Path) -> str:
    """Hash of the solver and benchmark sources, to key the count records."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(grids) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not stable
        blas = None
    thread_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in thread_vars},
        "grids": [[g.nx, g.ny, g.depth] for g in grids],
    }


class Run:
    """State of one benchmark run inside the worker."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.root = Path(args.root)
        self.run_dir = self.root / ".perfbench_run"
        self.ops: list[dict] = []
        self.wrong: list[str] = []

    # -- set-up --------------------------------------------------------
    def setup(self):
        tracer = self.tracer
        sys.path.insert(0, str(self.root / "src"))
        start = time.perf_counter()
        import frontwave
        import frontwave.cli

        self.import_s = time.perf_counter() - start
        package = Path(frontwave.__file__).resolve()
        if self.root / "src" not in package.parents:
            raise RuntimeError(f"imported frontwave from {package}, not src/")
        self.fw = frontwave
        parse = frontwave.config_from_dict
        resolve = frontwave.resolve_grid
        if tracer is not None:
            spans.install(tracer)
            parse = tracer.wrap(parse, "config.parse")
            resolve = tracer.wrap(resolve, "coupler.resolve_grid")
        try:
            docs = workloads.config_docs(self.args.workload, self.args.seed)
            self.configs = [parse(doc) for doc in docs]
            self.grids = [resolve(config) for config in self.configs]
        finally:
            if tracer is not None:
                tracer.restore()
        self.setup_s = time.perf_counter() - self.args.t0

    # -- operations ----------------------------------------------------
    def run_op(self, index: int, traced: bool) -> dict:
        # Wrappers are in place only during traced operations, so untraced
        # ones run the unmodified program.
        tracer = self.tracer if traced else None
        if tracer is not None:
            spans.install(tracer)
        try:
            if self.args.workload == "sweep":
                op = self._sweep_op(index, tracer)
            else:
                op = self._solve_op(index, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        op["traced"] = traced
        if traced:
            op_spans = [s for s in tracer.spans if s.op == op["id"]]
            jobs = workloads.SWEEP_JOBS if self.args.workload == "sweep" else 1
            layer = spans.op_metrics(op_spans, jobs)
            layer["io.bytes_written"] = op.pop("bytes_written", 0)
            layer["trace.spans_per_op"] = len(op_spans)
            op["layer"] = layer
            for key in COUNT_KEYS:
                op["counts"][key] = layer[key]
        return op

    def _solve_op(self, index, tracer) -> dict:
        op = {"id": f"op{index}", "attempted": 1, "failed": 0, "speeds": [None]}
        start = time.perf_counter()
        if tracer is not None:
            root = tracer.begin_op(op["id"], "coupler.solve")
        try:
            wave = self.fw.solve_traveling_wave(self.configs[0])
        except Exception as exc:  # any raise is a failed operation
            wave = None
            op["error"] = repr(exc)
        finally:
            if tracer is not None:
                tracer.end_op()
        op["wall"] = time.perf_counter() - start
        if wave is None:
            op["failed"] = 1
            op["counts"] = {}
            return op
        if tracer is not None:
            spans.record_wave(root, wave)
        op["speeds"] = [wave.speed]
        op["counts"] = {
            "coupler.stages": len(wave.history),
            "coupler.sweeps": sum(r.sweeps for r in wave.history),
            "coupler.grid_unknowns": wave.grid.nx * wave.grid.ny,
        }
        passed = wave.report is not None and wave.report.passed
        self._judge(op, passed, wave.speed, workloads.speed_refs(self.args.workload)[0])
        return op

    def _sweep_op(self, index, tracer) -> dict:
        import frontwave.cli as cli

        op = {"id": f"op{index}", "attempted": len(workloads.SWEEP_CONTRASTS)}
        outdir = self.scratch / f"out{index}"
        argv = [
            "sweep",
            "--config", str(self.sweep_config),
            "--axis", workloads.sweep_axis(),
            "--out", str(outdir),
            "--jobs", str(workloads.SWEEP_JOBS),
        ]
        printed = io.StringIO()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op["id"], "cli.main")
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
        except Exception as exc:  # any raise fails every row
            code = None
            op["error"] = repr(exc)
        finally:
            if tracer is not None:
                tracer.end_op()
        op["wall"] = time.perf_counter() - start
        op["bytes_written"] = sum(
            p.stat().st_size for p in outdir.rglob("*") if p.is_file()
        )
        self._check_sweep(op, code, outdir)
        shutil.rmtree(outdir)
        return op

    def _check_sweep(self, op, code, outdir):
        """Read each row's verdict from sweep.csv and check it."""
        import frontwave.cli as cli

        op["failed"] = 0
        op["speeds"] = []
        op["counts"] = {"coupler.stages": 0, "coupler.sweeps": 0,
                        "coupler.grid_unknowns": 0}
        table = outdir / "sweep.csv"
        if not table.is_file():
            op["failed"] = op["attempted"]
            op["error"] = f"no sweep.csv (exit code {code})"
            return
        with table.open() as handle:
            rows = list(csv.reader(handle))
        if tuple(rows[0]) != cli.SWEEP_COLUMNS or len(rows) != op["attempted"] + 1:
            self.wrong.append(f"{op['id']}: malformed sweep.csv")
            op["failed"] = op["attempted"]
            return
        all_pass = True
        for k, (row, contrast, ref) in enumerate(
            zip(rows[1:], workloads.SWEEP_CONTRASTS, workloads.speed_refs("sweep"))
        ):
            verdict = row[5]
            speed = float(row[2]) if row[2] else None
            op["speeds"].append(speed)
            if float(row[1]) != contrast:
                self.wrong.append(f"{op['id']}: row {k} is contrast {row[1]}")
            if speed is None:
                op["failed"] += 1
                all_pass = False
                continue
            manifest = json.loads((outdir / f"case_{k:03d}" / "manifest.json").read_text())
            if manifest["speed"] != speed:
                self.wrong.append(f"{op['id']}: row {k} speed differs from manifest")
            stages = manifest["stages"]
            op["counts"]["coupler.stages"] += len(stages)
            op["counts"]["coupler.sweeps"] += sum(s["sweeps"] for s in stages)
            grid = manifest["grid"]
            op["counts"]["coupler.grid_unknowns"] += grid["nx"] * grid["ny"]
            passed = verdict == "pass"
            all_pass = all_pass and passed
            self._judge(op, passed, speed, ref, row=k)
        if code != (0 if all_pass else 3):
            self.wrong.append(f"{op['id']}: exit code {code} does not match verdicts")

    def _judge(self, op, passed, speed, ref, row=None):
        """Count a failure; flag an answer the program passed but is wrong."""
        misses = abs(speed - ref) > workloads.SPEED_TOL
        if passed and misses:
            where = op["id"] if row is None else f"{op['id']} row {row}"
            self.wrong.append(f"{where}: speed {speed!r} passed its checks "
                              f"but is {abs(speed - ref):.3g} from {ref!r}")
        if not passed or misses:
            op["failed"] += 1

    # -- loop ----------------------------------------------------------
    def loop(self):
        if self.args.workload == "sweep":
            self.scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.run_dir))
            self.sweep_config = self.scratch / "config.json"
            self.sweep_config.write_text(json.dumps(workloads.SWEEP_BASE_DOC))
        kinds = (False, True) if self.tracer is not None else (False,)
        start = time.perf_counter()
        try:
            while True:
                traced = kinds[len(self.ops) % len(kinds)]
                self.ops.append(self.run_op(len(self.ops), traced))
                elapsed = time.perf_counter() - start
                typical = statistics.median(op["wall"] for op in self.ops)
                ahead = elapsed + typical
                if ahead > HARD_LIMIT_S:
                    break
                enough = len(self.ops) >= MIN_OPS[self.tracer is not None]
                if enough and ahead > self.args.seconds:
                    break
        finally:
            if self.args.workload == "sweep":
                shutil.rmtree(self.scratch)

    # -- determinism ---------------------------------------------------
    def check_counts(self):
        """Counts and speeds must repeat on every operation and every run."""
        first = self.ops[0]
        for op in self.ops[1:]:
            if op["speeds"] != first["speeds"]:
                self.wrong.append(f"{op['id']}: speeds {op['speeds']} drift from "
                                  f"{first['speeds']}")
        merged: dict = {}
        for op in self.ops:
            for key, value in op["counts"].items():
                if merged.setdefault(key, value) != value:
                    self.wrong.append(f"{op['id']}: {key} = {value} drifts from "
                                      f"{merged[key]}")
        path = self.run_dir / f"counts-{_fingerprint(self.root)}.json"
        record = json.loads(path.read_text()) if path.is_file() else {}
        wl, seed = self.args.workload, self.args.seed
        for key, value in merged.items():
            slot = f"{wl}:seed{seed}:{key}" if key in PER_SEED_COUNTS else f"{wl}:{key}"
            if record.setdefault(slot, value) != value:
                self.wrong.append(f"{key} = {value} drifts from {record[slot]} "
                                  "in an earlier run of this code")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, path)
        self.counts = merged

    # -- metrics -------------------------------------------------------
    def end_to_end(self) -> dict:
        refs = workloads.speed_refs(self.args.workload)
        errors = []
        for op in self.ops:
            gaps = [abs(s - r) for s, r in zip(op["speeds"], refs) if s is not None]
            if gaps:
                errors.append(max(gaps))
        attempted = sum(op["attempted"] for op in self.ops)
        failed = sum(op["failed"] for op in self.ops)
        return {
            "solve_s": statistics.median(op["wall"] for op in self.ops),
            "speed_err": statistics.median(errors) if errors else None,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        traced = [op for op in self.ops if op["traced"]]
        plain = [op for op in self.ops if not op["traced"]]
        metrics = {}
        for key in traced[0]["layer"]:
            values = [op["layer"][key] for op in traced]
            # Counts repeat exactly (check_counts); keep them whole numbers.
            same = all(v == values[0] for v in values)
            metrics[key] = values[0] if same else statistics.median(values)
        setup = [s for s in self.tracer.spans if s.op == "setup"]
        unit = [s for s in setup if s.name == "kinetics.unit_integral"]
        metrics.update({
            "package.import_s": self.import_s,
            "config.parse_s": sum(s.duration for s in setup if s.name == "config.parse"),
            "kinetics.unit_integral_calls": len(unit),
            "kinetics.unit_integral_s": sum(s.duration for s in unit),
            "trace.overhead_s": statistics.median(op["wall"] for op in traced)
            - statistics.median(op["wall"] for op in plain),
        })
        return metrics

    def write_spans(self) -> Path:
        path = self.run_dir / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.tracer.spans]))
        return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    tracer = spans.Tracer() if args.trace and not args.probe else None
    run = Run(args, tracer)
    run.run_dir.mkdir(exist_ok=True)
    run.setup()
    if args.probe:
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    run.loop()
    run.check_counts()
    result = {
        "setup_s": run.setup_s,
        "attempted": sum(op["attempted"] for op in run.ops),
        "failed": sum(op["failed"] for op in run.ops),
        "wrong": run.wrong,
        "ops": [
            {k: op.get(k) for k in ("id", "traced", "wall", "failed", "speeds", "error")}
            for op in run.ops
        ],
        "counts": run.counts,
        "env": _environment(run.grids),
    }
    if tracer is None:
        result["metrics"] = run.end_to_end()
    else:
        result["metrics"] = run.per_layer()
        result["spans_file"] = str(run.write_spans().relative_to(run.root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
