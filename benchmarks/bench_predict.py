#!/usr/bin/env python3
"""Harness benchmark: analytical-model throughput and predict-prune DSE.

Not a paper experiment — this group tracks the performance-model
subsystem (:mod:`repro.model`, docs/performance_model.md) itself:

* **model evaluation rate**: :func:`repro.model.predict` must sustain
  at least 10^5 configuration evaluations per second — the property
  that makes whole-grid analytical sweeps effectively free;
* **predict-prune quality**: on the committed sweep grid (3
  organizations x banks {1,2,4} x link {1,2,3} x sparse/dense traffic,
  54 points) the prune set at the default margin must contain at most
  25% of the grid while recovering 100% of the *true* simulated Pareto
  frontier, and the pruned campaign's wall time (analytical scoring +
  kept simulations) is compared against simulating everything.

Results land in the ``predict`` section of ``BENCH_sim.json`` — the
schema-/4 addition to the machine-readable artifact CI uploads.  The
frontier-recall leg simulates with demo horizons (shorter than the
validation grid's, which must converge error bounds rather than rank
points); both legs use the same horizons, so the recorded speedup is
apples-to-apples.
"""

import time

import pytest

from repro.core import Organization
from repro.model import (
    DEFAULT_MARGIN,
    ModelParameters,
    evaluate_grid,
    frontier_objectives,
    predict,
    prune,
    sweep_grid,
)
from repro.model.validate import simulate_config
from repro.net import forwarding_source

from _bench_json import record

#: Acceptance floor: analytical evaluations per second.
EVALS_PER_SECOND_TARGET = 100_000

#: Acceptance ceiling: fraction of the grid the prune set may keep.
PRUNE_BUDGET = 0.25

#: Simulation horizons for the frontier-recall leg (demo-sized: they
#: rank points; the validation grid's longer sparse horizon exists to
#: converge *error bounds*, not ranks).
RECALL_CYCLES = {0.02: 6_000, 0.9: 2_000}

#: The Figure-1 model parameters the committed sweep is built from.
FIGURE1 = ModelParameters(
    organization=Organization.ARBITRATED,
    consumers=2,
    producer_loop=15,
    consumer_loop=5,
    producer_accesses=7,
)


def _committed_grid():
    """The committed 54-point sweep grid (sorted, deterministic)."""
    return sweep_grid(FIGURE1)


@pytest.mark.benchmark(group="predict")
def test_model_evaluation_rate(benchmark):
    """``predict()`` must evaluate >= 10^5 configurations per second.

    Times full predictions (period, throughput, wait, fractions) over
    the committed grid's parameter family, cycling configurations so
    nothing is memoized away.  Updates the ``evals_per_second`` half of
    the ``predict`` section in ``BENCH_sim.json``.
    """
    configs = _committed_grid()
    batch = 2_000

    def run():
        for i in range(batch):
            predict(configs[i % len(configs)])
        return batch

    benchmark.pedantic(run, rounds=3, warmup_rounds=1)

    # Min-of-N wall timing for the recorded rate (the benchmark fixture
    # already reports its own statistics).
    times = []
    for __ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    evals_per_second = round(batch / min(times))
    benchmark.extra_info["evals_per_second"] = evals_per_second
    assert evals_per_second >= EVALS_PER_SECOND_TARGET, (
        f"model evaluates {evals_per_second} configs/s, below the "
        f"{EVALS_PER_SECOND_TARGET} floor"
    )

    _update_bench_json(
        evals_per_second=evals_per_second,
        evals_target=EVALS_PER_SECOND_TARGET,
    )


def _simulate_point(params) -> dict:
    """Ground-truth metrics for one grid point (demo horizons)."""
    __, observed = simulate_config(
        forwarding_source(2),
        params.organization,
        params.banks,
        params.traffic_rate,
        RECALL_CYCLES[params.traffic_rate],
        link_latency=params.link_latency,
    )
    return observed


@pytest.mark.benchmark(group="predict")
def test_predict_prune_recall_and_speedup(benchmark):
    """On the committed sweep the prune set must keep <= 25% of the grid
    and contain 100% of the true simulated Pareto frontier.

    Simulates the whole grid once (the expensive baseline the model
    exists to avoid), derives the true frontier from simulated
    throughput/wait plus exact area, and checks every true-frontier
    point survived pruning.  Records the pruned-campaign speedup in the
    ``predict`` section of ``BENCH_sim.json``.
    """
    points = evaluate_grid(_committed_grid())
    kept = prune(points, margin=DEFAULT_MARGIN)

    start = time.perf_counter()
    scored = evaluate_grid(_committed_grid())
    prune(scored, margin=DEFAULT_MARGIN)
    scoring_s = time.perf_counter() - start

    def simulate_kept():
        return {
            index: _simulate_point(points[index].params) for index in kept
        }

    kept_observed = benchmark.pedantic(
        simulate_kept, rounds=1, warmup_rounds=0
    )
    kept_s = scoring_s
    start = time.perf_counter()
    simulate_kept()
    kept_s += time.perf_counter() - start

    start = time.perf_counter()
    observed = {
        point.index: (
            kept_observed[point.index]
            if point.index in kept_observed
            else _simulate_point(point.params)
        )
        for point in points
    }
    # The baseline simulates *every* point; reuse of the kept results
    # above only skews the comparison against the pruned path, so time
    # the skipped majority and scale by the full grid.
    skipped_s = time.perf_counter() - start
    full_s = skipped_s * len(points) / max(1, len(points) - len(kept))

    true_frontier = frontier_objectives(
        [
            (
                -observed[point.index]["throughput"],
                observed[point.index]["consumer_wait"],
                float(point.area),
            )
            for point in points
        ]
    )
    missed = [index for index in true_frontier if index not in kept]
    fraction = len(kept) / len(points)
    recall = 1.0 - len(missed) / max(1, len(true_frontier))
    speedup = full_s / kept_s

    benchmark.extra_info["simulated_fraction"] = round(fraction, 4)
    benchmark.extra_info["frontier_recall"] = recall
    benchmark.extra_info["pruned_speedup"] = round(speedup, 2)
    assert fraction <= PRUNE_BUDGET, (
        f"prune kept {fraction:.0%} of the grid, over the "
        f"{PRUNE_BUDGET:.0%} budget"
    )
    assert not missed, (
        f"true-frontier points {missed} were pruned away "
        f"(margin {DEFAULT_MARGIN})"
    )

    _update_bench_json(
        grid_size=len(points),
        kept=len(kept),
        simulated_fraction=round(fraction, 4),
        prune_budget=PRUNE_BUDGET,
        frontier_recall=recall,
        true_frontier=sorted(true_frontier),
        margin=DEFAULT_MARGIN,
        full_grid_seconds=round(full_s, 4),
        pruned_seconds=round(kept_s, 4),
        pruned_speedup=round(speedup, 2),
    )


def _update_bench_json(**fields) -> None:
    workload = (
        "committed sweep: figure-1 family, 3 organizations x banks "
        "{1,2,4} x link {1,2,3} x rates {0.02,0.9} (54 points)"
    )
    record("predict", {"workload": workload, **fields}, merge=True)


def main() -> None:
    configs = _committed_grid()
    start = time.perf_counter()
    for params in configs * 40:
        predict(params)
    elapsed = time.perf_counter() - start
    print(f"model: {round(40 * len(configs) / elapsed)} evals/s")
    points = evaluate_grid(configs)
    kept = prune(points, margin=DEFAULT_MARGIN)
    print(
        f"prune: kept {len(kept)}/{len(points)} "
        f"({len(kept) / len(points):.0%}) at margin {DEFAULT_MARGIN}"
    )


if __name__ == "__main__":
    main()
