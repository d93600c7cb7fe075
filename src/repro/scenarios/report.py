"""Per-scenario channel-synthesis report.

For each scenario, compile the design twice — all-guarded (the paper's
§3.1/§3.2 machinery on every dependency) and channel-aware (FIFO
lowering where the classifier proves it safe) — and report, per channel,
its class and deciding rule, plus the synchronization area and
end-to-end progress delta between the two synthesis modes.

Methodology (docs/scenarios.md): the *synchronization area* of a design
is the summed area of its wrapper/channel modules only — thread FSMs and
datapaths are identical across modes, so the delta isolates exactly what
channel lowering saves.  The *progress* figure is sink-thread rounds
completed in a fixed cycle budget on the same kernel.
"""

from __future__ import annotations

from typing import Optional

from ..core.advisor import Organization
from ..fpga.area import estimate_area
from ..fpga.timing import estimate_timing
from .catalog import build_scenario_simulation, get_scenario

#: Versioned schema tag of the JSON report document.
REPORT_SCHEMA = "repro.scenarios.report/1"


def sync_area(design) -> dict[str, int]:
    """Summed area of a design's synchronization modules (guarded
    wrappers + FIFO channels), the mode-sensitive part of the design."""
    totals = {"luts": 0, "ffs": 0, "slices": 0, "brams": 0}
    for module in design.wrapper_modules.values():
        report = estimate_area(module)
        totals["luts"] += report.luts
        totals["ffs"] += report.ffs
        totals["slices"] += report.slices
        totals["brams"] += report.brams
    return totals


def _min_fmax(design) -> Optional[float]:
    """Slowest synchronization module's fmax (None with no modules)."""
    fmax = None
    for name in design.wrapper_modules:
        report = estimate_timing(design.wrapper_modules[name])
        if fmax is None or report.fmax_mhz < fmax:
            fmax = report.fmax_mhz
    return fmax


def _sink_rounds(scenario, sim) -> int:
    return min(
        sim.executors[name].stats.rounds_completed
        for name in scenario.sink_threads
    )


def scenario_report(
    name: str,
    *,
    organization: Organization = Organization.ARBITRATED,
    cycles: int = 500,
    kernel: Optional[str] = None,
) -> dict:
    """Build the per-channel report document for one scenario."""
    scenario = get_scenario(name)

    guarded_design, guarded_sim = build_scenario_simulation(
        scenario,
        channel_synthesis="guarded",
        kernel=kernel,
        organization=organization,
    )
    fifo_design, fifo_sim = build_scenario_simulation(
        scenario,
        channel_synthesis="fifo",
        kernel=kernel,
        organization=organization,
    )
    guarded_sim.run(cycles)
    fifo_sim.run(cycles)

    channels = [
        {
            "dep_id": decision.dep_id,
            "class": decision.channel_class.value,
            "reason": decision.reason,
            "producer": decision.producer_thread,
            "variable": decision.producer_var,
            "consumers": list(decision.consumer_threads),
        }
        for decision in fifo_design.channel_decisions.values()
    ]
    guarded_area = sync_area(guarded_design)
    fifo_area = sync_area(fifo_design)
    guarded_rounds = _sink_rounds(scenario, guarded_sim)
    fifo_rounds = _sink_rounds(scenario, fifo_sim)

    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "title": scenario.title,
        "organization": organization.value,
        "channels": channels,
        "fifo_channels": sorted(fifo_design.fifo_deps),
        "area": {
            "guarded": guarded_area,
            "fifo": fifo_area,
            "delta_slices": guarded_area["slices"] - fifo_area["slices"],
        },
        "timing": {
            "guarded_min_fmax_mhz": _min_fmax(guarded_design),
            "fifo_min_fmax_mhz": _min_fmax(fifo_design),
        },
        "progress": {
            "cycles": cycles,
            "sink_threads": list(scenario.sink_threads),
            "guarded_rounds": guarded_rounds,
            "fifo_rounds": fifo_rounds,
            "delta_rounds": fifo_rounds - guarded_rounds,
        },
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of one report document."""
    lines = [
        f"scenario {report['scenario']!r} ({report['title']}), "
        f"organization {report['organization']}"
    ]
    for channel in report["channels"]:
        consumers = ",".join(channel["consumers"])
        lines.append(
            f"  channel {channel['dep_id']}: {channel['class'].upper():7s} "
            f"{channel['producer']}.{channel['variable']} -> {consumers}"
            f"  ({channel['reason']})"
        )
    area = report["area"]
    lines.append(
        f"  sync area: guarded {area['guarded']['slices']} slices -> "
        f"fifo {area['fifo']['slices']} slices "
        f"(saved {area['delta_slices']})"
    )
    progress = report["progress"]
    lines.append(
        f"  progress in {progress['cycles']} cycles: "
        f"guarded {progress['guarded_rounds']} rounds -> "
        f"fifo {progress['fifo_rounds']} rounds "
        f"({progress['delta_rounds']:+d})"
    )
    return "\n".join(lines)
