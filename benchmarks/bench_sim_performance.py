"""Harness benchmark: simulation and compilation throughput.

Not a paper experiment — this group tracks the reproduction's own
performance so regressions in the simulator kernel or the flow driver are
visible: cycles simulated per second for the 4-consumer forwarding design
on both kernel backends, the event-wheel kernel's speedup on the
Figure-1 dependency pattern, full-flow compilation latency, and the
telemetry layer's overhead (the observability budget: < 10% on the fully
traced path, a no-op when disabled).  The cycle-attribution profiler has
the same budget on top of the traced path (its ``profiler`` section is
what bumped the artifact schema to ``repro.bench.sim/3``).  The compiled
per-design backend gets the mirror-image workload: the same Figure-1
pattern under *dense* traffic (rate 0.9), where nothing is skippable
and raw per-cycle cost dominates — with codegen/compile time logged
separately from cached steady-state throughput, since the first build
pays for source generation and ``exec`` while every later build of the
same design is a cache hit.  The overhead and speedup tests emit
``BENCH_sim.json`` at the repo root — the machine-readable artifact CI
uploads; with ``BENCH_ENFORCE_BASELINE=1`` the speedup tests also fail
on a >20% throughput regression (wheel or compiled) against the
committed baseline.
"""

import os
import time

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.obs.exporters import summary_dict

from _bench_json import read_bench_json, record

CYCLES = 1000

#: Acceptance budget: traced simulation may cost at most this factor of
#: the untraced one.
OVERHEAD_BUDGET = 1.10

#: The Figure-1 dependency pattern under system traffic: one producer
#: feeding two consumers through a guarded word (dn=2), driven by sparse
#: packet arrivals.  Long idle stretches between packets are what the
#: event-wheel kernel exists to skip.
FAST_CYCLES = 20_000
FAST_RATE = 0.004

#: The compiled backend's showcase is the opposite regime: the same
#: Figure-1 pattern saturated (rate 0.9), where the wheel finds nothing
#: to skip and per-cycle interpretation cost is everything.
DENSE_RATE = 0.9

#: Acceptance floor for the event-wheel kernel on the sparse workload
#: and for the compiled kernel over the wheel on the dense one
#: (telemetry disabled), and the allowed regression against the
#: committed baseline when ``BENCH_ENFORCE_BASELINE=1``.
SPEEDUP_TARGET = 5.0
BASELINE_TOLERANCE = 0.80

#: The committed baseline, captured at import time — the tests below
#: rewrite ``BENCH_sim.json``, so read it before any of them run.
_COMMITTED_BASELINE = read_bench_json()


@pytest.fixture(scope="module")
def forwarding_design():
    return compile_design(
        forwarding_source(4), organization=Organization.ARBITRATED
    )


@pytest.mark.benchmark(group="harness")
@pytest.mark.parametrize("kernel", ["reference", "wheel"])
def test_simulation_throughput(benchmark, forwarding_design, kernel):
    functions = forwarding_functions(demo_table())

    def run():
        sim = build_simulation(
            forwarding_design, functions=functions, kernel=kernel
        )
        generator = BernoulliTraffic(rate=0.06, seed=1)
        sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
        sim.run(CYCLES)
        return sim

    sim = benchmark(run)
    assert sim.kernel.cycle == CYCLES
    assert sim.tx["eth_out"].count > 0
    mean_s = benchmark.stats.stats.mean
    benchmark.extra_info["cycles_per_second"] = round(CYCLES / mean_s)
    if kernel == "wheel":
        benchmark.extra_info["cycles_skipped"] = sim.kernel.cycles_skipped


@pytest.mark.benchmark(group="harness")
def test_simulation_throughput_with_telemetry(benchmark, forwarding_design):
    functions = forwarding_functions(demo_table())

    def run():
        sim = build_simulation(forwarding_design, functions=functions)
        sim.attach_telemetry()
        generator = BernoulliTraffic(rate=0.06, seed=1)
        sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
        sim.run(CYCLES)
        return sim

    sim = benchmark(run)
    telemetry = sim.telemetry
    assert telemetry.cycles_observed == CYCLES
    assert telemetry.spans.complete_spans()
    mean_s = benchmark.stats.stats.mean
    benchmark.extra_info["cycles_per_second"] = round(CYCLES / mean_s)
    benchmark.extra_info["events_recorded"] = len(telemetry.events)


def _timed_run(design, functions, with_telemetry, with_profiler=False):
    """One simulation run; returns (seconds spent inside run(), sim)."""
    sim = build_simulation(design, functions=functions)
    if with_profiler:
        sim.attach_profiler()
    elif with_telemetry:
        sim.attach_telemetry()
    generator = BernoulliTraffic(rate=0.06, seed=1)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    start = time.perf_counter()
    sim.run(CYCLES)
    return time.perf_counter() - start, sim


@pytest.mark.benchmark(group="harness")
def test_telemetry_overhead_budget(benchmark, forwarding_design):
    """Tracing + metrics must cost < 10% of the untraced cycles/sec.

    Min-of-N timing on both sides to suppress scheduler noise; the
    benchmark fixture times the traced path, so its numbers land in the
    benchmark report too.  Also writes ``BENCH_sim.json``.
    """
    functions = forwarding_functions(demo_table())
    reps = 7

    def traced():
        return _timed_run(forwarding_design, functions, True)

    # One warmed-up traced round through the benchmark fixture so the
    # traced path shows up in the benchmark report.
    elapsed, sim = benchmark.pedantic(traced, rounds=1, warmup_rounds=1)

    # Interleave the two sides so CPU-frequency drift during the
    # measurement hits both alike; min-of-N suppresses scheduler noise.
    disabled_times = []
    enabled_times = [elapsed]
    for __ in range(reps):
        disabled_times.append(
            _timed_run(forwarding_design, functions, False)[0]
        )
        enabled_times.append(traced()[0])
    disabled = min(disabled_times)
    enabled = min(enabled_times)

    ratio = enabled / disabled
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.extra_info["cycles_per_second_disabled"] = round(
        CYCLES / disabled
    )
    benchmark.extra_info["cycles_per_second_enabled"] = round(CYCLES / enabled)
    assert ratio < OVERHEAD_BUDGET, (
        f"telemetry overhead {ratio:.3f}x exceeds {OVERHEAD_BUDGET}x budget"
    )

    record(
        None,
        {
            "cycles": CYCLES,
            "cycles_per_second_disabled": round(CYCLES / disabled),
            "cycles_per_second_enabled": round(CYCLES / enabled),
            "telemetry_overhead_ratio": round(ratio, 4),
            "overhead_budget": OVERHEAD_BUDGET,
            "telemetry_summary": summary_dict(sim.telemetry),
        },
    )


@pytest.mark.benchmark(group="harness")
def test_profiler_overhead_budget(benchmark, forwarding_design):
    """Cycle attribution must cost < 10% on top of the traced path.

    Same interleaved min-of-N protocol as the telemetry budget, but the
    baseline here is telemetry *enabled* — the profiler rides the
    telemetry observer, so its marginal cost is what the budget bounds.
    Shared machines drift several percent between reps, so the budget
    is asserted on the best of up to three measurement attempts: noise
    can push one attempt's minima apart, but a real regression holds
    across all three.  Records the ``profiler`` section of
    ``BENCH_sim.json`` (the schema-/3 addition).
    """
    functions = forwarding_functions(demo_table())
    reps = 10
    attempts = 3

    def profiled():
        return _timed_run(forwarding_design, functions, True, True)

    elapsed, sim = benchmark.pedantic(profiled, rounds=1, warmup_rounds=1)

    # Warm the traced path too before timing — the interleaved min-of-N
    # below assumes both sides run hot.
    for __ in range(2):
        _timed_run(forwarding_design, functions, True)

    ratio = traced = profiled_s = None
    for __ in range(attempts):
        traced_times = []
        profiled_times = []
        for ___ in range(reps):
            traced_times.append(
                _timed_run(forwarding_design, functions, True)[0]
            )
            profiled_times.append(profiled()[0])
        traced = min(traced_times)
        profiled_s = min(profiled_times)
        ratio = profiled_s / traced
        if ratio < OVERHEAD_BUDGET:
            break

    profiler = sim.telemetry.profiler
    conservation = profiler.conservation_report()
    assert conservation["ok"], "profiler attribution must conserve cycles"
    assert profiler.cycles_observed == CYCLES
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.extra_info["cycles_per_second_profiled"] = round(
        CYCLES / profiled_s
    )
    assert ratio < OVERHEAD_BUDGET, (
        f"profiler overhead {ratio:.3f}x exceeds {OVERHEAD_BUDGET}x budget"
    )

    state_totals = profiler.ledger.state_totals()
    record(
        "profiler",
        {
            "cycles": CYCLES,
            "cycles_per_second_traced": round(CYCLES / traced),
            "cycles_per_second_profiled": round(CYCLES / profiled_s),
            "profiler_overhead_ratio": round(ratio, 4),
            "overhead_budget": OVERHEAD_BUDGET,
            "state_cycles": {
                state: count for state, count in sorted(state_totals.items())
            },
            "conservation_ok": conservation["ok"],
        },
    )


def _kernel_timed_run(design, functions, kernel, rate=FAST_RATE):
    """One telemetry-disabled run of the Figure-1-pattern workload."""
    sim = build_simulation(design, functions=functions, kernel=kernel)
    generator = BernoulliTraffic(rate=rate, seed=1)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    start = time.perf_counter()
    sim.run(FAST_CYCLES)
    return time.perf_counter() - start, sim


@pytest.mark.benchmark(group="harness")
def test_wheel_kernel_speedup(benchmark):
    """The event-wheel kernel must be >= 5x the reference kernel on the
    Figure-1 dependency pattern (1 producer, 2 consumers, dn=2) under
    sparse packet traffic with telemetry disabled — the workload whose
    idle stretches motivated the fast backend.  Updates the ``kernels``
    section of ``BENCH_sim.json`` and, when ``BENCH_ENFORCE_BASELINE=1``,
    fails if wheel throughput regressed >20% against the committed
    baseline.
    """
    design = compile_design(
        forwarding_source(2), organization=Organization.ARBITRATED
    )
    functions = forwarding_functions(demo_table())
    reps = 3

    def wheel():
        return _kernel_timed_run(design, functions, "wheel")

    elapsed, wheel_sim = benchmark.pedantic(wheel, rounds=1, warmup_rounds=1)
    wheel_times = [elapsed]
    reference_times = []
    for __ in range(reps):
        reference_times.append(
            _kernel_timed_run(design, functions, "reference")[0]
        )
        wheel_times.append(wheel()[0])
    reference_s = min(reference_times)
    wheel_s = min(wheel_times)
    speedup = reference_s / wheel_s

    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cycles_skipped"] = wheel_sim.kernel.cycles_skipped
    assert wheel_sim.kernel.cycles_skipped > FAST_CYCLES // 2
    assert speedup >= SPEEDUP_TARGET, (
        f"wheel kernel speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET}x target"
    )

    wheel_cps = round(FAST_CYCLES / wheel_s)
    record(
        "kernels",
        {
            "workload": (
                "figure-1 dependency pattern: forwarding_source(2), "
                f"rate {FAST_RATE}, {FAST_CYCLES} cycles, telemetry off"
            ),
            "reference_cycles_per_second": round(FAST_CYCLES / reference_s),
            "wheel_cycles_per_second": wheel_cps,
            "wheel_speedup": round(speedup, 2),
            "wheel_cycles_skipped": wheel_sim.kernel.cycles_skipped,
            "speedup_target": SPEEDUP_TARGET,
        },
    )

    if os.environ.get("BENCH_ENFORCE_BASELINE") == "1":
        baseline = _COMMITTED_BASELINE.get("kernels", {}).get(
            "wheel_cycles_per_second"
        )
        assert baseline, "no committed wheel baseline in BENCH_sim.json"
        assert wheel_cps >= BASELINE_TOLERANCE * baseline, (
            f"wheel kernel throughput {wheel_cps} cyc/s regressed more "
            f"than {1 - BASELINE_TOLERANCE:.0%} below the committed "
            f"baseline {baseline} cyc/s"
        )


@pytest.mark.benchmark(group="harness")
def test_compiled_kernel_speedup(benchmark):
    """The compiled backend must be >= 5x the event-wheel kernel on the
    *dense* Figure-1 workload (rate 0.9, telemetry disabled) — the
    regime where the wheel finds nothing to skip and the generated
    straight-line tick function earns its keep.  Codegen honesty: the
    first ``build_simulation`` pays source generation + ``exec``
    compilation + binding, every later build of the same design is an
    in-process cache hit, and both times are logged separately from the
    steady-state cycles/sec so the artifact never launders compile time
    into throughput.  Interleaved min-of-N with up to three attempts
    (the ``test_profiler_overhead_budget`` protocol): shared-machine
    drift can push one attempt's minima apart, a real regression holds
    across all three.  Writes the ``kernels.compiled_*`` keys (the
    schema-/5 addition) and, when ``BENCH_ENFORCE_BASELINE=1``, fails
    on a >20% compiled-throughput regression against the committed
    baseline.
    """
    from repro.sim.compiled import clear_cache, generation_count

    design = compile_design(
        forwarding_source(2), organization=Organization.ARBITRATED
    )
    functions = forwarding_functions(demo_table())
    reps = 3
    attempts = 3

    # Build-time split: first build pays codegen + exec + bind ...
    clear_cache()
    generations = generation_count()
    start = time.perf_counter()
    first_sim = build_simulation(design, functions=functions, kernel="compiled")
    codegen_s = time.perf_counter() - start
    assert generation_count() == generations + 1
    assert first_sim.kernel.bind_error is None
    # ... every subsequent build of the identical design is a cache hit.
    start = time.perf_counter()
    build_simulation(design, functions=functions, kernel="compiled")
    cached_build_s = time.perf_counter() - start
    assert generation_count() == generations + 1

    def compiled():
        return _kernel_timed_run(design, functions, "compiled", DENSE_RATE)

    elapsed, compiled_sim = benchmark.pedantic(
        compiled, rounds=1, warmup_rounds=1
    )
    # Warm the wheel side too — the interleaved min-of-N assumes both
    # sides run hot.
    _kernel_timed_run(design, functions, "wheel", DENSE_RATE)

    speedup = wheel_s = compiled_s = None
    for attempt in range(attempts):
        wheel_times = []
        compiled_times = [elapsed] if attempt == 0 else []
        for ___ in range(reps):
            wheel_times.append(
                _kernel_timed_run(design, functions, "wheel", DENSE_RATE)[0]
            )
            compiled_times.append(compiled()[0])
        wheel_s = min(wheel_times)
        compiled_s = min(compiled_times)
        speedup = wheel_s / compiled_s
        if speedup >= SPEEDUP_TARGET:
            break

    # Every benchmarked cycle must have come out of the generated tick
    # function — a silent interpreter fallback would benchmark nothing.
    assert compiled_sim.kernel.cycles_compiled == FAST_CYCLES
    assert compiled_sim.kernel.cycles_interpreted == 0

    benchmark.extra_info["speedup_vs_wheel"] = round(speedup, 2)
    benchmark.extra_info["codegen_seconds"] = round(codegen_s, 4)
    assert speedup >= SPEEDUP_TARGET, (
        f"compiled kernel speedup {speedup:.2f}x over the wheel is below "
        f"the {SPEEDUP_TARGET}x target"
    )

    compiled_cps = round(FAST_CYCLES / compiled_s)
    record(
        "kernels",
        {
            "dense_workload": (
                "figure-1 dependency pattern: forwarding_source(2), "
                f"rate {DENSE_RATE}, {FAST_CYCLES} cycles, telemetry off"
            ),
            "wheel_dense_cycles_per_second": round(FAST_CYCLES / wheel_s),
            "compiled_cycles_per_second": compiled_cps,
            "compiled_speedup_vs_wheel": round(speedup, 2),
            "compiled_codegen_seconds": round(codegen_s, 4),
            "compiled_cached_build_seconds": round(cached_build_s, 4),
            "compiled_speedup_target": SPEEDUP_TARGET,
        },
        merge=True,
    )

    if os.environ.get("BENCH_ENFORCE_BASELINE") == "1":
        baseline = _COMMITTED_BASELINE.get("kernels", {}).get(
            "compiled_cycles_per_second"
        )
        assert baseline, "no committed compiled baseline in BENCH_sim.json"
        assert compiled_cps >= BASELINE_TOLERANCE * baseline, (
            f"compiled kernel throughput {compiled_cps} cyc/s regressed "
            f"more than {1 - BASELINE_TOLERANCE:.0%} below the committed "
            f"baseline {baseline} cyc/s"
        )


@pytest.mark.benchmark(group="harness")
def test_compile_flow_latency(benchmark):
    source = forwarding_source(8)

    def run():
        return compile_design(source, organization=Organization.ARBITRATED)

    design = benchmark(run)
    assert design.area_report("bram0").ffs == 66
