"""The benchmark's own tests: tiny runs of every workload.

Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS, dse_points  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


def tiny(workload, trace=False, seed=3, kernel=None):
    return harness.run(
        harness.Options(
            workload=workload,
            seed=seed,
            seconds=0.01,
            trace=trace,
            scale=0.1,
            min_jobs=1,
            setup_repeats=1,
            kernel=kernel,
        )
    )


@pytest.fixture(scope="module")
def untraced():
    return {name: tiny(name) for name in WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(untraced, workload):
    outcome = untraced[workload]
    assert outcome.correct, outcome.errors
    assert outcome.failed == 0
    assert outcome.provenance["error_rate"] == 0
    assert list(outcome.metrics) == list(harness.END_TO_END)
    for name, metric in outcome.metrics.items():
        assert metric["unit"] == harness.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    outcome = tiny(workload, trace=True)
    assert outcome.correct, outcome.errors
    assert list(outcome.metrics) == list(harness.PER_LAYER)
    values = {name: metric["value"] for name, metric in outcome.metrics.items()}
    for name in (*(f"{stage}_ms" for stage in harness.STAGES), "sim.codegen_ms"):
        if name == "analysis.channels_ms" and workload == "dse_sweep":
            continue  # only FIFO-mode points run it; a tiny sweep may have none
        assert values[name] > 0, name
    assert values["sim.executor_us_per_kcycle"] > 0
    assert values["core.arbitrate_us_per_kcycle"] > 0
    assert 0 < values["trace.overhead_ratio"] < 1.5
    assert values["obs.events"] > 0
    assert values["core.grants"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_simulated_metrics_repeat_and_match_the_reference_kernel(untraced, workload):
    def simulated(outcome):
        return {
            name: metric["value"]
            for name, metric in outcome.metrics.items()
            if name in harness.SIMULATED
        }

    first = simulated(untraced[workload])
    assert first
    assert simulated(tiny(workload)) == first
    reference = tiny(workload, kernel="reference")
    assert reference.provenance["kernels_ran"] == ["SimulationKernel"]
    assert simulated(reference) == first


def test_simulated_metrics_depend_on_the_seed():
    a = tiny("fwd_sparse", seed=3).metrics["packets_per_kcycle"]["value"]
    b = tiny("fwd_sparse", seed=4).metrics["packets_per_kcycle"]["value"]
    assert a != b


def test_sweep_keeps_the_paper_rows():
    keys = {spec.point.key for spec in WORKLOADS["dse_sweep"].specs_for(5, 0.1)}
    for organization in ("arbitrated", "event_driven"):
        for size in (2, 4, 8):
            assert f"forwarding{size}-{organization}-b0-guarded" in keys
    assert len(dse_points()) == 80


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_command_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fwd_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
