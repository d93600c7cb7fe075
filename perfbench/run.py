"""The repository benchmark: hic-to-result throughput, one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload fwd_dense --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with its
provenance, is also written under ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return parser, args


def main(argv=None) -> int:
    parser, args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import harness  # the repro imports happen here, inside the timed set-up

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    if args.workload not in harness.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(expected one of {', '.join(harness.WORKLOADS)})"
        )

    out_dir = ROOT / ".perfbench_out"
    opts = harness.Options(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        out_dir=out_dir,
    )
    outcome = harness.run(opts)

    for name, metric in outcome.metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in outcome.provenance.items():
        print(f"# {key}: {value}")
    for error in outcome.errors:
        print(f"! {error}")
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
                "provenance": outcome.provenance,
                "errors": outcome.errors,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
