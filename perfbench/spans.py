"""Span recorder that times calls into frontwave from outside the package.

Nothing under ``src/`` is edited: the tracer replaces the module and class
attributes that callers look up at call time with timing wrappers, records
one span per call, and puts every original attribute back when it exits.

A span is ``(name, start, end, parent, op)``.  ``parent`` is the span open on
the same thread when the call began, or the operation's root span for calls
made on pool threads; ``op`` identifies the benchmark operation (or
``"setup"``) the call belongs to.
"""
from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``install`` patches, ``restore`` unpatches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                op=self.op,
                parent=None if parent is None else parent.id,
                start=time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def begin_op(self, op: str, name: str) -> Span:
        """Open the root span of one benchmark operation."""
        self.op = op
        self.root = None
        self.root = self.open(name)
        return self.root

    def end_op(self):
        self.close(self.root)
        self.root = None
        self.op = "idle"

    def wrap(self, fn, name: str, after=None):
        """Timing wrapper; ``after(span, result)`` may inspect or replace
        the result before it is returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            return result if after is None else after(span, result)

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class TracedLU:
    """Stands in for a ``SuperLU`` object and times its triangular solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "temperature.triangular_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def record_wave(span: Span, wave):
    """Keep a solved wave's stage count, sweep count and grid on its span."""
    span.attrs.update(
        stages=len(wave.history),
        sweeps=sum(record.sweeps for record in wave.history),
        nx=wave.grid.nx,
        ny=wave.grid.ny,
        depth=wave.grid.depth,
    )
    return wave


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross.

    ``coupler`` and ``cli`` import their callees by name, so the wrappers go
    on those modules' attributes; ``temperature`` reaches ``splu`` through
    its ``sparse_linalg`` module, and ``coupler`` reaches diagnostics through
    the ``frontwave.diagnostics`` module.
    """
    import frontwave.cli as cli
    import frontwave.coupler as coupler
    import frontwave.diagnostics as diagnostics
    import frontwave.kinetics as kinetics
    import frontwave.temperature as temperature

    def traced_lu(span, lu):
        span.attrs["nnz"] = int(lu.nnz)
        return TracedLU(lu, tracer)

    tracer.patch(coupler, "solve_at_truncation", "coupler.stage")
    tracer.patch(coupler, "build_forcing", "coupler.build_forcing")
    tracer.patch(coupler, "relax_front", "front.relax")
    tracer.patch(coupler, "solve_temperature", "temperature.solve")
    tracer.patch(temperature, "assemble_system", "temperature.assemble")
    tracer.patch(temperature.sparse_linalg, "splu", "temperature.factor", traced_lu)
    tracer.patch(diagnostics, "run_all", "diagnostics.run_all")
    for cls in vars(kinetics).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, kinetics.KineticsModel)
            and "unit_integral" in cls.__dict__
        ):
            tracer.patch(cls, "unit_integral", "kinetics.unit_integral")
    tracer.patch(cli, "_sweep_case", "cli.row")
    tracer.patch(cli, "solve_traveling_wave", "coupler.solve", record_wave)
    tracer.patch(cli, "config_from_dict", "config.parse")
    tracer.patch(cli, "load_config", "config.load")
    tracer.patch(cli, "write_solution", "io.write")
    tracer.patch(cli, "write_rows_csv", "io.write_table")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    intervals = sorted((c.start, c.end) for c in children)
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def op_metrics(spans: list[Span], jobs: int) -> dict:
    """Per-layer metrics of one operation from its spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.duration for s in named(name)), 0.0)

    def layer_self(layer):
        return sum(
            (self_time(s, children.get(s.id, [])) for s in spans if s.layer == layer),
            0.0,
        )

    # Solves that raised carry no wave, so no stage or grid record.
    solved = [s for s in named("coupler.solve") if "stages" in s.attrs]
    stages = sum(s.attrs["stages"] for s in solved)
    root = next(s for s in spans if s.parent is None)
    rows = total("cli.row")
    return {
        "front.relax_calls": len(named("front.relax")),
        "front.relax_s": total("front.relax"),
        "temperature.solve_calls": len(named("temperature.solve")),
        "temperature.solve_s": total("temperature.solve"),
        "temperature.assemble_s": total("temperature.assemble"),
        "temperature.factor_calls": len(named("temperature.factor")),
        "temperature.factor_s": total("temperature.factor"),
        "temperature.lu_nnz": max(
            (s.attrs["nnz"] for s in named("temperature.factor")), default=0
        ),
        "temperature.triangular_solves": len(named("temperature.triangular_solve")),
        "temperature.solve_self_s": sum(
            (self_time(s, children.get(s.id, [])) for s in named("temperature.solve")),
            0.0,
        ),
        "coupler.stages": stages,
        "coupler.sweeps": sum(s.attrs["sweeps"] for s in solved),
        "coupler.stage_retries": len(named("coupler.stage")) - stages,
        "coupler.grid_nx": max((s.attrs["nx"] for s in solved), default=0),
        "coupler.grid_depth": max((s.attrs["depth"] for s in solved), default=0.0),
        "coupler.grid_unknowns": sum(s.attrs["nx"] * s.attrs["ny"] for s in solved),
        "coupler.self_s": layer_self("coupler"),
        "diagnostics.run_all_s": total("diagnostics.run_all"),
        "io.write_s": total("io.write") + total("io.write_table"),
        "cli.row_s": rows,
        "cli.parallel_efficiency": rows / (jobs * root.duration),
        "cli.self_s": layer_self("cli"),
    }
