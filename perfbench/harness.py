"""Set-up, the closed-loop timed passes, the output oracle and the metrics.

Load is one closed-loop client in one process: the next job starts only
after the previous one has been read back.  A *pass* runs every distinct
job spec of the workload once, in a seeded order; passes repeat until
``seconds`` have gone by and at least ``min_jobs`` jobs have run.  Only
whole passes run, so every run has the same mix of specs.

Simulated metrics come from the first result of each distinct spec, so
they depend on the seed alone, never on how many passes fitted into the
time.  Host metrics come from the job timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# Modules a job would otherwise import lazily (kernels, observers):
# importing them here puts their cost in the measured import time.
import repro.obs.tracer  # noqa: F401
import repro.sim.wheel  # noqa: F401
from repro import flow
from repro.sim.compiled import cache as codegen_cache
from repro.sim.compiled import kernel as compiled_kernel

from tracing import Tracer, layer_targets
from workloads import (
    WORKLOADS,
    JobSpec,
    read_reports,
    run_job,
    summarize,
)

END_TO_END = {
    "sim_cycles_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "packets_per_kcycle": "1/kcycle",
    "rounds_per_kcycle": "1/kcycle",
    "read_wait_p50_cycles": "cycles",
    "read_wait_p99_cycles": "cycles",
    "sync_slices": "slices",
    "fmax_mhz_min": "MHz",
}

#: compile-stage span names; each metric is the stage's self time per
#: compiled design
STAGES = (
    "hic.analyze",
    "analysis.deadlock",
    "analysis.channels",
    "analysis.memgraph",
    "memory.allocate",
    "synth.fsm",
    "synth.bind",
    "rtl.generate",
    "rtl.verilog",
    "fpga.estimate",
    "flow.compile",
)

#: per-cycle span names -> metric (self time per 1000 simulated cycles)
PER_CYCLE = {
    "sim.executor": "sim.executor_us_per_kcycle",
    "core.arbitrate": "core.arbitrate_us_per_kcycle",
    "net.inject": "net.inject_us_per_kcycle",
}

PER_LAYER = {
    **{f"{stage}_ms": "ms" for stage in STAGES},
    "flow.build_sim_ms": "ms",
    "sim.codegen_ms": "ms",
    "sim.codegen_hit_ratio": "ratio",
    **{metric: "us/kcycle" for metric in PER_CYCLE.values()},
    "sim.skip_ratio": "ratio",
    "sim.fast_path_ratio": "ratio",
    "obs.profiler_overhead_ratio": "ratio",
    "obs.events": "count",
    "obs.spans": "count",
    "core.grants": "count",
    "core.blocked_cycles": "count",
    "net.packets_injected": "count",
    "trace.overhead_ratio": "ratio",
}

#: metrics of the modelled hardware: deterministic for a seed, and equal
#: on every kernel
SIMULATED = (
    "packets_per_kcycle",
    "rounds_per_kcycle",
    "read_wait_p50_cycles",
    "read_wait_p99_cycles",
    "sync_slices",
    "fmax_mhz_min",
    "obs.events",
    "obs.spans",
    "core.grants",
    "core.blocked_cycles",
    "net.packets_injected",
)

MIN_JOBS = 100
SETUP_REPEATS = 5
WARMUP_CYCLES = 100
#: design points whose first spec the traced run repeats with the
#: profiler flipped, for the profiler's overhead on the same jobs
PROFILE_PAIRS = 9


@dataclass
class Options:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: shrinks the spec pool (the benchmark's own tests use small pools)
    scale: float = 1.0
    min_jobs: int = MIN_JOBS
    setup_repeats: int = SETUP_REPEATS
    #: None runs ``flow.DEFAULT_KERNEL``, as a user gets it
    kernel: Optional[str] = None
    import_s: float = 0.0
    out_dir: Optional[Path] = None


@dataclass
class Prepared:
    specs: list
    compile_in_job: bool
    designs: dict = field(default_factory=dict)  # point key -> CompiledDesign
    reports: dict = field(default_factory=dict)  # point key -> DesignReport


@dataclass
class Ledger:
    """Per-run bookkeeping: the first result of every distinct spec, the
    timings, and every failed job."""

    first: dict = field(default_factory=dict)  # spec key -> (spec, JobResult)
    times: list = field(default_factory=list)
    #: host seconds inside ``Simulation.run`` and the cycles it simulated
    run_s: float = 0.0
    cycles: int = 0
    attempted: int = 0
    failed_jobs: dict = field(default_factory=dict)  # spec key -> count
    errors: list = field(default_factory=list)
    kernels: set = field(default_factory=set)
    cycles_skipped: int = 0
    cycles_compiled: int = 0

    def fail(self, key: str, message: str, jobs: int = 1) -> None:
        self.failed_jobs[key] = self.failed_jobs.get(key, 0) + jobs
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    errors: list
    provenance: dict


# -- set-up and one job ----------------------------------------------------------------


def set_up(opts: Options) -> Prepared:
    """Input generation, compiling the workload's designs, and warm-up."""
    workload = WORKLOADS[opts.workload]
    codegen_cache.clear_cache()
    prepared = Prepared(
        specs=workload.specs_for(opts.seed, opts.scale),
        compile_in_job=workload.compile_in_job,
    )
    first_spec = {}
    for spec in prepared.specs:
        first_spec.setdefault(spec.point.key, spec)
    if workload.compile_in_job:
        warm = list(first_spec.values())[:3]
    else:
        for key, spec in first_spec.items():
            design = spec.point.compile()
            prepared.designs[key] = design
            prepared.reports[key] = read_reports(spec.point, design)
        warm = [
            dataclasses.replace(spec, cycles=WARMUP_CYCLES)
            for spec in first_spec.values()
        ]
    for spec in warm:
        execute(spec, prepared, opts.kernel)
    return prepared


def execute(
    spec: JobSpec,
    prepared: Prepared,
    kernel: Optional[str],
    profiled: Optional[bool] = None,
):
    """One job, timed from its first call to its readback: returns
    ``(seconds, readback, report)``."""
    key = spec.point.key
    start = time.perf_counter()
    if prepared.compile_in_job:
        design = spec.point.compile()
        report = read_reports(spec.point, design)
    else:
        design = prepared.designs[key]
        report = prepared.reports[key]
    readback = run_job(spec, design, kernel=kernel, profiled=profiled)
    elapsed = time.perf_counter() - start
    if prepared.compile_in_job:
        prepared.designs.setdefault(key, design)
        prepared.reports.setdefault(key, report)
    return elapsed, readback, report


def record(ledger: Ledger, prepared: Prepared, spec: JobSpec, outcome) -> None:
    """Check one job's outputs and book it."""
    ledger.attempted += 1
    if isinstance(outcome, BaseException):
        ledger.fail(spec.key, f"{spec.key}: {outcome!r}")
        return
    elapsed, readback, report = outcome
    result = summarize(readback, report)
    ledger.kernels.add(result.kernel)
    ledger.cycles_skipped += result.cycles_skipped
    ledger.cycles_compiled += result.cycles_compiled
    problem = result.error or report.area_error
    if report != prepared.reports[spec.point.key]:
        problem = f"{spec.key}: reports differ between two compiles"
    earlier = ledger.first.get(spec.key)
    if earlier is None:
        ledger.first[spec.key] = (spec, result)
    elif earlier[1].digest != result.digest:
        problem = f"{spec.key}: output differs from the spec's first run"
    if result.cycles != spec.cycles:
        problem = f"{spec.key}: ran {result.cycles} of {spec.cycles} cycles"
    if problem:
        ledger.fail(spec.key, problem)
    ledger.times.append(elapsed)
    ledger.run_s += readback.run_s
    ledger.cycles += result.cycles


def attempt(spec, prepared, kernel, profiled=None):
    """Run one job; an exception is returned, not raised, so one failed
    job is counted and the client goes on."""
    try:
        return execute(spec, prepared, kernel, profiled)
    except Exception as exc:  # noqa: BLE001 - the client's boundary
        traceback.print_exc()
        return exc


# -- the oracle ------------------------------------------------------------------------


def check_against_reference(ledger: Ledger, prepared: Prepared, job_counts: dict) -> None:
    """Run each distinct spec once on the ``reference`` kernel and compare
    digests; a mismatch fails every job of that spec."""
    for key, (spec, result) in ledger.first.items():
        design = prepared.designs[spec.point.key]
        readback = run_job(spec, design, kernel="reference")
        expected = summarize(readback, prepared.reports[spec.point.key])
        if expected.digest != result.digest:
            already = ledger.failed_jobs.get(key, 0)
            ledger.fail(
                key,
                f"{key}: output differs from the reference kernel",
                jobs=job_counts.get(key, 1) - already,
            )


# -- metrics ---------------------------------------------------------------------------


def _nearest_rank(sorted_values: list, fraction: float) -> float:
    """The nearest-rank percentile of an ascending list."""
    index = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[max(0, index)]


def simulated_metrics(ledger: Ledger, prepared: Prepared) -> dict:
    """Metrics of the modelled hardware, from one result per distinct spec."""
    if not ledger.times:
        raise RuntimeError("no job completed; nothing was measured")
    results = [result for __, result in ledger.first.values()]
    cycles = sum(result.cycles for result in results)
    waits = sorted(w for result in results for w in result.read_waits)
    reports = list(prepared.reports.values())
    return {
        "packets_per_kcycle": 1000 * sum(r.egress for r in results) / cycles,
        "rounds_per_kcycle": 1000 * sum(r.rounds for r in results) / cycles,
        "read_wait_p50_cycles": _nearest_rank(waits, 0.50) if waits else 0,
        "read_wait_p99_cycles": _nearest_rank(waits, 0.99) if waits else 0,
        "read_wait_samples": len(waits),
        "sync_slices": sum(report.sync_slices for report in reports),
        "fmax_mhz_min": min(report.fmax_mhz for report in reports),
        "core.grants": sum(r.grants for r in results),
        "core.blocked_cycles": sum(r.blocked_cycles for r in results),
        "net.packets_injected": sum(r.injected for r in results),
    }


def host_metrics(ledger: Ledger) -> dict:
    times = sorted(ledger.times)
    busy = sum(times)
    return {
        "sim_cycles_per_s": ledger.cycles / ledger.run_s,
        "jobs_per_s": len(times) / busy,
        "job_p50_ms": 1e3 * statistics.median(times),
        "job_p90_ms": 1e3 * _nearest_rank(times, 0.90),
    }


# -- the run ---------------------------------------------------------------------------


def passes(prepared: Prepared, opts: Options, run_pass) -> int:
    """Run whole passes in seeded orders until time and job count are
    met; returns the number of passes."""
    order_rng = random.Random(opts.seed * 7919 + 1)
    started = time.perf_counter()
    count = jobs = 0
    while True:
        order = list(prepared.specs)
        order_rng.shuffle(order)
        jobs += run_pass(order)
        count += 1
        if (
            time.perf_counter() - started >= opts.seconds
            and jobs >= opts.min_jobs
        ):
            return count


def run(opts: Options) -> Outcome:
    if opts.trace:
        return _run_traced(opts)
    setups = []
    prepared = None
    for __ in range(max(1, opts.setup_repeats)):
        started = time.perf_counter()
        prepared = set_up(opts)
        setups.append(time.perf_counter() - started)

    ledger = Ledger()
    job_counts: dict = {}

    def run_pass(order) -> int:
        for spec in order:
            record(ledger, prepared, spec, attempt(spec, prepared, opts.kernel))
            job_counts[spec.key] = job_counts.get(spec.key, 0) + 1
        return len(order)

    pass_count = passes(prepared, opts, run_pass)
    check_against_reference(ledger, prepared, job_counts)
    simulated = simulated_metrics(ledger, prepared)
    metrics = {
        **host_metrics(ledger),
        "setup_s": opts.import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{name: simulated[name] for name in END_TO_END if name in simulated},
    }
    extra = {
        "passes": pass_count,
        "jobs": len(ledger.times),
        "distinct_specs": len(ledger.first),
        "read_wait_samples": simulated["read_wait_samples"],
        "setup_repeats_s": setups,
        "import_s": opts.import_s,
    }
    return _outcome(opts, ledger, metrics, END_TO_END, extra)


def _run_traced(opts: Options) -> Outcome:
    """Per-layer run: every spec runs untraced and traced back to back
    (alternating which goes first), so the tracing overhead is measured on
    the same jobs; untraced jobs carry no wrappers."""
    tracer = Tracer()
    targets = layer_targets()
    tracer.install(targets)
    try:
        prepared = set_up(opts)
    finally:
        tracer.uninstall()

    ledger = Ledger()
    traced_ledger = Ledger()
    job_counts: dict = {}
    traced_jobs: set = set()
    codegen_misses = 0

    def traced_job(spec):
        nonlocal codegen_misses
        tracer.job = f"job{len(traced_jobs)}"
        traced_jobs.add(tracer.job)
        generated = codegen_cache.generation_count()
        tracer.install(targets)
        try:
            with tracer.span("job"):
                return attempt(spec, prepared, opts.kernel)
        finally:
            tracer.uninstall()
            codegen_misses += codegen_cache.generation_count() - generated

    def run_pass(order) -> int:
        for index, spec in enumerate(order):
            if index % 2:
                traced = traced_job(spec)
                plain = attempt(spec, prepared, opts.kernel)
            else:
                plain = attempt(spec, prepared, opts.kernel)
                traced = traced_job(spec)
            job_counts[spec.key] = job_counts.get(spec.key, 0) + 2
            record(ledger, prepared, spec, plain)
            record(traced_ledger, prepared, spec, traced)
        return len(order)

    passes(prepared, dataclasses.replace(opts, min_jobs=0), run_pass)
    ledger.attempted += traced_ledger.attempted
    for key, count in traced_ledger.failed_jobs.items():
        ledger.fail(key, "traced job failed", jobs=count)
    ledger.errors += traced_ledger.errors
    for key, (__, result) in traced_ledger.first.items():
        plain = ledger.first.get(key)
        if plain is not None and plain[1].digest != result.digest:
            ledger.fail(key, f"{key}: tracing changed the job's output")

    # Profiler overhead on the same jobs: each pair runs one spec with and
    # without the profiler, untraced.
    pair_specs = {}
    for spec, __ in ledger.first.values():
        pair_specs.setdefault(spec.point.key, spec)
    profiled_time = unprofiled_time = 0.0
    obs_events = obs_spans = 0
    for spec in list(pair_specs.values())[:PROFILE_PAIRS]:
        with_profiler = attempt(spec, prepared, opts.kernel, profiled=True)
        without = attempt(spec, prepared, opts.kernel, profiled=False)
        pair_ok = True
        for outcome in (with_profiler, without):
            ledger.attempted += 1
            if isinstance(outcome, BaseException):
                problem = f"{spec.key}: {outcome!r}"
            else:
                problem = summarize(outcome[1], outcome[2]).error
            if problem:
                ledger.fail(spec.key, problem)
                pair_ok = False
        if pair_ok:
            profiled_time += with_profiler[0]
            unprofiled_time += without[0]
            obs_events += with_profiler[1].obs_events
            obs_spans += with_profiler[1].obs_spans

    # Codegen cost per design: the default kernel may never generate code,
    # so time the codegen entry point cold on every design of the run.
    tracer.job = "codegen-probe"
    tracer.install(targets)
    try:
        codegen_cache.clear_cache()
        for design in prepared.designs.values():
            compiled_kernel.compile_program(design)
    finally:
        tracer.uninstall()

    check_against_reference(ledger, prepared, job_counts)
    simulated = simulated_metrics(ledger, prepared)

    everything = tracer.totals()
    in_jobs = tracer.totals(traced_jobs)
    probe = tracer.totals({"codegen-probe"})

    def per_call(totals, name, calls=None):
        """Self ms per call of ``name`` (or per ``calls`` if given)."""
        count, self_ns = totals.get(name, (0, 0))
        return self_ns / 1e6 / max(1, count if calls is None else calls)

    compiles = everything.get("flow.compile", (0, 0))[0]
    metrics = {
        f"{stage}_ms": per_call(everything, stage, compiles) for stage in STAGES
    }
    metrics["flow.build_sim_ms"] = per_call(everything, "flow.build_sim")
    metrics["sim.codegen_ms"] = per_call(probe, "sim.codegen")
    builds = in_jobs.get("flow.build_sim", (0, 0))[0]
    hits = in_jobs.get("sim.codegen", (0, 0))[0] - codegen_misses
    metrics["sim.codegen_hit_ratio"] = hits / builds if builds else 0.0
    for name, metric in PER_CYCLE.items():
        self_ns = in_jobs.get(name, (0, 0))[1]
        metrics[metric] = self_ns / 1e3 / (traced_ledger.cycles / 1e3)
    metrics["sim.skip_ratio"] = ledger.cycles_skipped / ledger.cycles
    metrics["sim.fast_path_ratio"] = ledger.cycles_compiled / ledger.cycles
    metrics["obs.profiler_overhead_ratio"] = (
        profiled_time / unprofiled_time if unprofiled_time else 0.0
    )
    metrics["obs.events"] = obs_events
    metrics["obs.spans"] = obs_spans
    for name in ("core.grants", "core.blocked_cycles", "net.packets_injected"):
        metrics[name] = simulated[name]
    # traced / untraced simulated cycles per host second, same jobs
    metrics["trace.overhead_ratio"] = (
        host_metrics(traced_ledger)["sim_cycles_per_s"]
        / host_metrics(ledger)["sim_cycles_per_s"]
    )

    extra = {
        "jobs": len(ledger.times),
        "traced_jobs": len(traced_jobs),
        "distinct_specs": len(ledger.first),
        "profile_pairs": min(PROFILE_PAIRS, len(pair_specs)),
        "spans": len(tracer.spans),
        "aggregates": len(tracer.aggregates),
    }
    if opts.out_dir is not None:
        tracer.write(opts.out_dir / f"{opts.workload}-seed{opts.seed}-spans.jsonl")
    return _outcome(opts, ledger, metrics, PER_LAYER, extra)


def _outcome(opts, ledger, metrics, units, extra) -> Outcome:
    failed = sum(ledger.failed_jobs.values())
    ordered = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
    }
    provenance = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "default_kernel": flow.DEFAULT_KERNEL,
        "kernel_requested": opts.kernel or flow.DEFAULT_KERNEL,
        "kernels_ran": sorted(ledger.kernels),
        "error_rate": failed / ledger.attempted if ledger.attempted else 1.0,
        **extra,
    }
    return Outcome(
        correct=failed == 0 and ledger.attempted > 0,
        attempted=ledger.attempted,
        failed=failed,
        metrics=ordered,
        errors=ledger.errors,
        provenance=provenance,
    )


# -- provenance ------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and content), so a
    result names the code it measured even outside git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
