"""frontwave benchmark: one command for every workload and metric.

Usage (from the repository root):

    python3 perfbench/run.py --workload {flat,striated,sweep,smoke} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: it times set-up in several
fresh interpreters, then runs the workload closed-loop (one client, the next
operation starts when the last one ends) for about ``S`` seconds in one
more.  ``--trace 1`` alternates untraced and traced operations and reports
the per-layer metrics.  Every answer is checked.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.

The solver is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed in this many probe interpreters plus the worker itself.
SETUP_PROBES = 4
# Every child is killed (and waited for) once the run has lasted this long.
RUN_LIMIT_S = 170


def _declared(trace: int) -> dict:
    """Name and unit of every metric this mode reports, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace else "end_to_end"]
    }


def _child(args, probe: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - t0, 1.0),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frontwave" / "__init__.py").is_file():
        print(f"error: no solver sources at {ROOT / 'src' / 'frontwave'}",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    units = _declared(args.trace)

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            setups = [
                _child(args, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)
            ]
        result = _child(args, False, deadline)
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
    missing = [name for name in units if values.get(name) is None]
    for message in result["wrong"]:
        print(f"wrong: {message}", file=sys.stderr)
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "env": result["env"],
        "ops": result["ops"],
        "counts": result["counts"],
        "setup_samples": setups,
        "spans_file": result.get("spans_file"),
    }))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
