"""Streaming process-network scenarios (see docs/scenarios.md).

Programmatically built multi-stage streaming pipelines in hic — the
workloads the channel classifier (:mod:`repro.analysis.channels`) was
built for.  Each scenario is a named, deterministic, free-running
process network with a known expected classification, runnable on every
simulation kernel via ``python -m repro run --scenario <name>``.
"""

from ..config import CHANNEL_SYNTHESIS_MODES
from .catalog import (
    SCENARIO_NAMES,
    Scenario,
    build_scenario_simulation,
    collect_round_snapshots,
    fanin_source,
    fanout_source,
    get_scenario,
    pipeline_source,
    scenario_functions,
)
from .report import scenario_report, sync_area

__all__ = [
    "CHANNEL_SYNTHESIS_MODES",
    "SCENARIO_NAMES",
    "Scenario",
    "build_scenario_simulation",
    "collect_round_snapshots",
    "fanin_source",
    "fanout_source",
    "get_scenario",
    "pipeline_source",
    "scenario_functions",
    "scenario_report",
    "sync_area",
]
