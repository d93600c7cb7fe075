"""Harness benchmark: per-scenario throughput under both synthesis modes.

Not a paper experiment — this group tracks the scenario catalogue's
end-to-end throughput so regressions in the channel-classification pass
or the FIFO controller are visible.  Every catalogued scenario
(``repro.scenarios``) is run for a fixed cycle budget under both
``channel_synthesis`` modes on the event-wheel kernel, recording

- sink-thread rounds completed (deterministic — the progress metric the
  scenario report uses), and
- wall-clock simulated cycles per second (machine-dependent, logged for
  trend lines only),

into the ``scenarios`` section of ``BENCH_sim.json`` — the schema-/6
addition to the machine-readable artifact CI uploads from the
``scenario-smoke`` job.  The determinism claim is load-bearing: the
rounds numbers double as a coarse cross-machine regression oracle, so
the test asserts the one catalogued relationship that motivated the
lowering — FIFO synthesis must not reduce pipeline progress.
"""

import time

import pytest

from repro.scenarios import (
    CHANNEL_SYNTHESIS_MODES,
    SCENARIO_NAMES,
    build_scenario_simulation,
    get_scenario,
)

from _bench_json import record

CYCLES = 500


def _scenario_cell(scenario, mode):
    """One timed run; returns (seconds, design, sim)."""
    design, sim = build_scenario_simulation(
        scenario, channel_synthesis=mode, kernel="wheel"
    )
    start = time.perf_counter()
    sim.run(CYCLES)
    return time.perf_counter() - start, design, sim


@pytest.mark.benchmark(group="harness")
def test_scenario_throughput_matrix():
    """Record rounds-per-budget and cycles/sec for every scenario x mode.

    Rounds completed are byte-deterministic per (scenario, mode) cell;
    wall-clock throughput is informational.  Writes the ``scenarios``
    section of ``BENCH_sim.json``.
    """
    section = {
        "cycles": CYCLES,
        "kernel": "wheel",
        "workload": (
            "scenario catalogue: "
            f"{', '.join(SCENARIO_NAMES)}; {CYCLES} cycles each, "
            "both channel-synthesis modes, telemetry off"
        ),
    }
    for name in SCENARIO_NAMES:
        scenario = get_scenario(name)
        cell = {}
        for mode in CHANNEL_SYNTHESIS_MODES:
            elapsed, design, sim = _scenario_cell(scenario, mode)
            sink_rounds = {
                sink: sim.executors[sink].stats.rounds_completed
                for sink in scenario.sink_threads
            }
            cell[mode] = {
                "cycles_per_second": round(CYCLES / elapsed),
                "fifo_channels": len(design.memory_map.fifo_names),
                "sink_rounds": sink_rounds,
                "sink_rounds_min": min(sink_rounds.values()),
            }
        cell["delta_rounds"] = (
            cell["fifo"]["sink_rounds_min"]
            - cell["guarded"]["sink_rounds_min"]
        )
        section[name] = cell

    # The catalogued relationship the lowering exists for: on the pure
    # pipeline, decoupling the stages must never cost progress.
    assert section["pipeline"]["delta_rounds"] >= 0, (
        "FIFO synthesis reduced pipeline progress: "
        f"{section['pipeline']}"
    )
    # And the classifier must actually have lowered something there.
    assert section["pipeline"]["fifo"]["fifo_channels"] > 0

    record("scenarios", section)
