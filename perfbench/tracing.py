"""In-memory span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry points from the outside: the
functions :mod:`repro.flow` calls, ``build_simulation``/``Simulation.run``,
the executor phases, ``MemoryController.arbitrate``, the traffic hook and
the codegen cache's ``compile_program``.  Nothing inside the program is
edited; :meth:`Tracer.install` swaps module and class attributes for timed
wrappers and :meth:`Tracer.uninstall` puts the originals back, so an
untraced job runs with no wrapper at all.

Two kinds of span are kept in memory:

* a *record* — one call of a coarse entry point (a compile stage, a build,
  a run): ``(name, start_ns, end_ns, parent, job)``;
* an *aggregate* — every call of one per-cycle entry point (executor
  phases, arbitration, traffic injection) under one parent span, folded
  into a single row with the call count, first start and last end.  A
  per-cycle record would cost more memory than the simulation itself.

Self time is a span's duration minus the time its direct children cover.
Spans nest strictly (one thread, no overlap between siblings), so the
child coverage is the sum of the children's durations, collected as each
child closes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

_now = time.perf_counter_ns


@dataclass
class Span:
    """One recorded call of a coarse entry point."""

    name: str
    start: int
    end: int
    parent: Optional[int]
    job: str
    self_ns: int


@dataclass
class Aggregate:
    """Every call of one per-cycle entry point under one parent span."""

    name: str
    parent: Optional[int]
    job: str
    calls: int = 0
    first_start: int = 0
    last_end: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class _Frame:
    index: Optional[int]  # record index (None for an aggregated call)
    name: str
    start: int
    child_ns: int = 0


@dataclass
class Tracer:
    """Span store plus the wrapper installer."""

    spans: list[Span] = field(default_factory=list)
    aggregates: dict[tuple, Aggregate] = field(default_factory=dict)
    job: str = "setup"
    _stack: list[_Frame] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    # -- span bookkeeping ------------------------------------------------------------

    def _parent(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame.index is not None:
                return frame.index
        return None

    def begin(self, name: str) -> _Frame:
        frame = _Frame(len(self.spans), name, _now())
        self.spans.append(Span(name, frame.start, 0, self._parent(), self.job, 0))
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = _now()
        self._stack.pop()
        duration = end - frame.start
        span = self.spans[frame.index]
        span.end = end
        span.self_ns = duration - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += duration

    def begin_hot(self, name: str) -> _Frame:
        frame = _Frame(None, name, _now())
        self._stack.append(frame)
        return frame

    def end_hot(self, frame: _Frame) -> None:
        end = _now()
        self._stack.pop()
        duration = end - frame.start
        parent = self._parent()
        key = (parent, frame.name)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = Aggregate(
                frame.name, parent, self.job, first_start=frame.start
            )
        agg.calls += 1
        agg.last_end = end
        agg.total_ns += duration
        agg.self_ns += duration - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += duration

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield frame
        finally:
            self.end(frame)

    # -- wrappers --------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hot: bool = False) -> Callable:
        begin, end = (
            (self.begin_hot, self.end_hot) if hot else (self.begin, self.end)
        )

        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Swap every ``(owner, attribute, span name, hot)`` target for a
        timed wrapper; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for owner, attribute, name, hot in targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, hot))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------------

    def totals(self, jobs: Optional[set] = None) -> dict[str, list]:
        """``name -> [calls, self_ns]`` over every span and aggregate,
        restricted to the spans of ``jobs`` if given."""
        totals: dict[str, list] = {}
        rows = [(span.name, span.job, 1, span.self_ns) for span in self.spans]
        rows += [
            (agg.name, agg.job, agg.calls, agg.self_ns)
            for agg in self.aggregates.values()
        ]
        for name, job, calls, self_ns in rows:
            if jobs is None or job in jobs:
                entry = totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += self_ns
        return totals

    def write(self, path: Path) -> None:
        """Write every span and aggregate as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, "kind": "span", **vars(span)}))
                out.write("\n")
            for agg in self.aggregates.values():
                out.write(json.dumps({"kind": "aggregate", **vars(agg)}))
                out.write("\n")


def layer_targets() -> list[tuple]:
    """The entry points the traced run wraps: ``(owner, attribute, span
    name, hot)``.  Module attributes of :mod:`repro.flow` are the names
    ``compile_design`` and the report methods look up at call time."""
    from repro import flow
    from repro.core.controller import MemoryController
    from repro.net.traffic import _AttachedHook
    from repro.sim.compiled import kernel as compiled_kernel
    from repro.sim.executor import ThreadExecutor

    stages = {
        "hic.analyze": ["analyze"],
        "analysis.deadlock": ["assert_deadlock_free"],
        "analysis.channels": ["classify_channels", "fifo_lowered_variables"],
        "analysis.memgraph": ["build_memory_graphs"],
        "memory.allocate": ["allocate", "dependencies_per_bram"],
        "synth.fsm": ["synthesize_program"],
        "synth.bind": ["bind_program"],
        "rtl.generate": [
            "generate_arbitrated_wrapper",
            "generate_event_driven_wrapper",
            "generate_lock_baseline",
            "generate_fifo_channel",
            "generate_crossbar",
            "generate_thread_module",
            "generate_design",
        ],
        "rtl.verilog": ["emit_verilog"],
        "fpga.estimate": [
            "estimate_area",
            "estimate_timing",
            "estimate_design",
            "estimate_fabric_area",
            "estimate_fabric_timing",
        ],
        "flow.compile": ["compile_design"],
        "flow.build_sim": ["build_simulation"],
    }
    targets = [
        (flow, attribute, name, False)
        for name, attributes in stages.items()
        for attribute in attributes
    ]
    targets += [
        (flow.Simulation, "run", "sim.run", False),
        (compiled_kernel, "compile_program", "sim.codegen", False),
        (ThreadExecutor, "phase1", "sim.executor", True),
        (ThreadExecutor, "phase2", "sim.executor", True),
        (ThreadExecutor, "parked_phase1", "sim.executor", True),
        (MemoryController, "arbitrate", "core.arbitrate", True),
        (_AttachedHook, "__call__", "net.inject", True),
        (_AttachedHook, "prepare_span", "net.inject", True),
        (_AttachedHook, "next_wake", "net.inject", True),
    ]
    return targets
