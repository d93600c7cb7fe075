"""Workload definitions and the job a closed-loop client sends.

A *job* is one user request through the public API: build the simulation
(``repro.flow.build_simulation`` with the kernel left at its default),
attach seeded Bernoulli traffic, run a fixed number of cycles, then read
the egress, the per-thread rounds and the controllers' latency samples.
On ``dse_sweep`` a job also compiles its design point and reads the
area, timing and Verilog reports first.

Every name below is looked up through the :mod:`repro.flow` module at call
time, so the traced run's wrappers (see :mod:`tracing`) see every call.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import flow
from repro.core import Organization
from repro.net import BernoulliTraffic, forwarding_functions, forwarding_source
from repro.obs.profiler import breakdown_dict
from repro.scenarios.catalog import (
    fanin_source,
    fanout_source,
    pipeline_source,
    scenario_functions,
)

ORGANIZATIONS = (
    Organization.ARBITRATED,
    Organization.EVENT_DRIVEN,
    Organization.LOCK_BASELINE,
)


@dataclass(frozen=True)
class DesignPoint:
    """One compile configuration: a hic program plus flow options."""

    family: str  # "forwarding", "pipeline", "fanout" or "fanin"
    size: int  # forwarding consumers N; 0 for the scenario shapes
    organization: Organization
    banks: int = 0
    channels: str = "guarded"

    @property
    def key(self) -> str:
        size = f"{self.size}" if self.size else ""
        return (
            f"{self.family}{size}-{self.organization.value}"
            f"-b{self.banks}-{self.channels}"
        )

    def source(self) -> str:
        if self.family == "forwarding":
            return forwarding_source(self.size)
        return {
            "pipeline": lambda: pipeline_source(4),
            "fanout": lambda: fanout_source(3),
            "fanin": lambda: fanin_source(3),
        }[self.family]()

    def functions(self) -> dict:
        if self.family == "forwarding":
            return forwarding_functions()
        return scenario_functions()

    def compile(self):
        return flow.compile_design(
            self.source(),
            name=self.key.replace("-", "_"),
            organization=self.organization,
            num_banks=self.banks,
            channel_synthesis=self.channels,
        )


@dataclass(frozen=True)
class JobSpec:
    """Everything one job needs; equal specs give equal outputs."""

    point: DesignPoint
    cycles: int
    rate: float  # Bernoulli arrival rate; unused on interface-less designs
    traffic_seed: int
    profiled: bool = False

    @property
    def key(self) -> str:
        flag = "-profiled" if self.profiled else ""
        return (
            f"{self.point.key}-r{self.rate}-s{self.traffic_seed}"
            f"-c{self.cycles}{flag}"
        )


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``README.md``."""

    #: whether a job compiles its own design (else set-up compiles them)
    compile_in_job: bool
    #: ``(seed, scale) -> the distinct job specs of one pass``
    specs_for: Callable[[int, float], list]


# -- the four workloads ----------------------------------------------------------------

FORWARDING_SIZES = (2, 4, 8)


def _forwarding_points() -> list[DesignPoint]:
    """The §4 designs, compiled with FIFO channel synthesis on: the
    classifier proves the broadcast decision word must stay guarded, so
    the design (and its Verilog) is the paper's, and the channel analysis
    runs as part of compiling it."""
    return [
        DesignPoint("forwarding", size, organization, channels="fifo")
        for size in FORWARDING_SIZES
        for organization in ORGANIZATIONS
    ]


def _forwarding_specs(
    seed: int, scale: float, *, rate: float, cycles: int, per_design: int,
    profiled: bool = False,
) -> list[JobSpec]:
    rng = random.Random(seed)
    per_design = max(1, round(per_design * scale))
    return [
        JobSpec(point, cycles, rate, rng.randrange(1 << 30), profiled)
        for point in _forwarding_points()
        for __ in range(per_design)
    ]


def fwd_dense_specs(seed: int, scale: float = 1.0) -> list[JobSpec]:
    return _forwarding_specs(
        seed, scale, rate=0.9, cycles=1000, per_design=4
    )


def fwd_sparse_specs(seed: int, scale: float = 1.0) -> list[JobSpec]:
    return _forwarding_specs(
        seed, scale, rate=0.004, cycles=2000, per_design=12
    )


def fwd_profiled_specs(seed: int, scale: float = 1.0) -> list[JobSpec]:
    return _forwarding_specs(
        seed, scale, rate=0.06, cycles=1000, per_design=4, profiled=True
    )


#: The event-driven organization deadlocks the guarded fan-out scenario
#: at run time: the splitter's write of the broadcast ``mode`` word and
#: the three workers' reads of it all stay blocked from cycle 5 on, on
#: every kernel, although the static deadlock analysis passes the design.
#: No thread ever completes a round, so the point is left out of the sweep.
DSE_EXCLUDED = frozenset({"fanout-event_driven-b0-guarded"})

DSE_RATES = (0.3, 0.6, 0.9)
DSE_CYCLES = 300


def dse_points() -> list[DesignPoint]:
    points = [
        DesignPoint("forwarding", size, organization, banks)
        for size in range(2, 9)
        for organization in ORGANIZATIONS
        for banks in (0, 2, 4)
    ]
    points += [
        DesignPoint(family, 0, organization, 0, channels)
        for family in ("pipeline", "fanout", "fanin")
        for channels in ("guarded", "fifo")
        for organization in ORGANIZATIONS
    ]
    return [point for point in points if point.key not in DSE_EXCLUDED]


def dse_sweep_specs(seed: int, scale: float = 1.0) -> list[JobSpec]:
    """Every design point once, with a seeded traffic rate and seed; the
    paper's 1/2, 1/4 and 1/8 forwarding designs are always kept, because
    the output check compares their area rows with Tables 1 and 2."""
    rng = random.Random(seed)
    points = dse_points()
    if scale < 1.0:
        keep = max(1, round(len(points) * scale))
        paper = [p for p in points if _paper_row_key(p) is not None]
        others = [p for p in points if _paper_row_key(p) is None]
        points = paper + rng.sample(others, max(0, keep - len(paper)))
    return [
        JobSpec(point, DSE_CYCLES, rng.choice(DSE_RATES), rng.randrange(1 << 30))
        for point in points
    ]


WORKLOADS = {
    "fwd_dense": Workload(False, fwd_dense_specs),
    "fwd_sparse": Workload(False, fwd_sparse_specs),
    "fwd_profiled": Workload(False, fwd_profiled_specs),
    "dse_sweep": Workload(True, dse_sweep_specs),
}


# -- Tables 1 and 2 (EXPERIMENTS.md E1/E2): (LUT, FF, slices) per P/C row -------------

PAPER_AREA_ROWS = {
    ("arbitrated", 2): (130, 66, 77),
    ("arbitrated", 4): (143, 66, 85),
    ("arbitrated", 8): (169, 66, 100),
    ("event_driven", 2): (48, 10, 29),
    ("event_driven", 4): (69, 14, 41),
    ("event_driven", 8): (106, 20, 63),
}


def _paper_row_key(point: DesignPoint) -> Optional[tuple]:
    if point.family != "forwarding" or point.banks:
        return None
    key = (point.organization.value, point.size)
    return key if key in PAPER_AREA_ROWS else None


# -- design reports --------------------------------------------------------------------


@dataclass(frozen=True)
class DesignReport:
    """What a user reads off a compiled design."""

    sync_slices: int
    fmax_mhz: float
    #: two compiles of one point must emit the same Verilog
    verilog_sha: str
    area_error: Optional[str]
    #: guarded dependencies: dep_id -> consumer threads
    consumers: dict


def read_reports(point: DesignPoint, design) -> DesignReport:
    wrappers = sorted(design.wrapper_modules)
    areas = [design.area_report(name) for name in wrappers]
    timings = [design.timing_report(name) for name in wrappers]
    verilog = design.verilog()
    area_error = None
    expected_key = _paper_row_key(point)
    if expected_key is not None:
        measured = areas[0].table_row()
        expected = PAPER_AREA_ROWS[expected_key]
        if len(areas) != 1 or measured != expected:
            area_error = (
                f"{point.key}: area {measured} differs from the recorded "
                f"Table row {expected}"
            )
    return DesignReport(
        sync_slices=sum(area.slices for area in areas),
        fmax_mhz=min(timing.fmax_mhz for timing in timings),
        verilog_sha=hashlib.sha256(verilog.encode()).hexdigest(),
        area_error=area_error,
        consumers={
            dep.dep_id: frozenset(dep.consumer_threads())
            for dep in design.checked.dependencies
        },
    )


# -- one job ---------------------------------------------------------------------------


@dataclass
class Readback:
    """What a job reads off a finished simulation (inside the timed region)."""

    spec: JobSpec
    run_s: float  # host seconds inside ``Simulation.run``
    egress: dict  # interface -> [(cycle, message), ...]
    rounds: dict  # thread -> rounds completed
    samples: dict  # controller -> [LatencySample, ...]
    kernel: object
    injected: int
    breakdown: Optional[dict]
    conservation_ok: bool
    obs_events: int
    obs_spans: int


@dataclass
class JobResult:
    """A readback reduced to what the checks and metrics use."""

    cycles: int
    egress: int
    rounds: int
    injected: int
    grants: int
    blocked_cycles: int
    read_waits: list
    digest: str
    kernel: str
    cycles_skipped: int
    cycles_compiled: int
    obs_events: int
    obs_spans: int
    error: Optional[str]


def run_job(
    spec: JobSpec,
    design,
    kernel: Optional[str] = None,
    profiled: Optional[bool] = None,
) -> Readback:
    """Build, attach traffic, run and read back one job.

    ``kernel=None`` leaves the kernel at ``flow.DEFAULT_KERNEL``;
    ``profiled`` overrides the spec's profiler flag (the traced run's
    profiler-overhead pairs use it)."""
    if profiled is None:
        profiled = spec.profiled
    kwargs = {} if kernel is None else {"kernel": kernel}
    sim = flow.build_simulation(design, spec.point.functions(), **kwargs)
    hook = None
    if "eth_in" in sim.rx:
        hook = BernoulliTraffic(rate=spec.rate, seed=spec.traffic_seed).attach(
            sim.rx["eth_in"]
        )
        sim.kernel.add_pre_cycle_hook(hook)
    profiler = sim.attach_profiler() if profiled else None
    started = time.perf_counter()
    sim.run(spec.cycles)
    run_s = time.perf_counter() - started
    breakdown = None
    conservation_ok = True
    obs_events = obs_spans = 0
    if profiler is not None:
        breakdown = breakdown_dict(profiler)
        conservation_ok = profiler.conservation_report()["ok"]
        obs_events = len(sim.telemetry.events)
        obs_spans = len(sim.telemetry.spans.complete_spans())
    return Readback(
        spec=spec,
        run_s=run_s,
        egress={name: list(tx.messages) for name, tx in sim.tx.items()},
        rounds={
            name: executor.stats.rounds_completed
            for name, executor in sim.executors.items()
        },
        samples={
            name: list(controller.latency_samples)
            for name, controller in sim.controllers.items()
        },
        kernel=sim.kernel,
        injected=hook.injected if hook is not None else 0,
        breakdown=breakdown,
        conservation_ok=conservation_ok,
        obs_events=obs_events,
        obs_spans=obs_spans,
    )


def summarize(readback: Readback, report: DesignReport) -> JobResult:
    """Digest and count a readback (outside the timed region).  The digest
    covers the egress messages, per-thread rounds, every latency sample
    and, for a profiled job, the profiler's breakdown."""
    spec = readback.spec
    digest = hashlib.sha256()
    egress = 0
    for name in sorted(readback.egress):
        messages = readback.egress[name]
        egress += len(messages)
        for cycle, message in messages:
            digest.update(f"{name} {cycle} {sorted(message.items())}\n".encode())
    rounds = sorted(readback.rounds.items())
    digest.update(f"rounds {rounds}\n".encode())
    grants = blocked = 0
    read_waits = []
    consumers = report.consumers
    for name in sorted(readback.samples):
        for sample in readback.samples[name]:
            wait = sample.grant_cycle - sample.issue_cycle
            digest.update(
                f"{name} {sample.client} {sample.port} {sample.dep_id} "
                f"{sample.issue_cycle} {sample.grant_cycle}\n".encode()
            )
            grants += 1
            blocked += wait
            if sample.client in consumers.get(sample.dep_id, ()):
                read_waits.append(wait)
    if readback.breakdown is not None:
        digest.update(repr(sorted(readback.breakdown.items())).encode())
    total_rounds = sum(count for __, count in rounds)
    error = None
    if not readback.conservation_ok:
        error = f"{spec.key}: profiler conservation failed"
    elif total_rounds == 0 and not readback.egress:
        # a free-running design (no interfaces) that completes no round
        # is stuck; a traffic-driven one may just have had no arrivals
        error = f"{spec.key}: no thread completed a round"
    kernel = readback.kernel
    return JobResult(
        cycles=kernel.cycle,
        egress=egress,
        rounds=total_rounds,
        injected=readback.injected,
        grants=grants,
        blocked_cycles=blocked,
        read_waits=read_waits,
        digest=digest.hexdigest(),
        kernel=type(kernel).__name__,
        cycles_skipped=getattr(kernel, "cycles_skipped", 0),
        cycles_compiled=getattr(kernel, "cycles_compiled", 0),
        obs_events=readback.obs_events,
        obs_spans=readback.obs_spans,
        error=error,
    )
