"""Options and plumbing shared by the ``python -m repro`` command lines.

Every option that several tools share with one meaning is declared here
once, as an argparse parent parser, with its default read from
:class:`~repro.config.FlowConfig` or the flow's kernel registry:

* :func:`design_options` — ``--organization`` and ``--kernel`` (the main CLI,
  ``profile``, ``run``, ``scenarios`` and ``predict``);
* :func:`source_options` — the hic source, the fabric shape, the
  simulated ingress traffic and the wall-clock valve (the main CLI
  and ``profile``);
* :func:`telemetry_options` — the telemetry level and exporters (the
  main CLI and ``run``).

Options that mean something different keep their own declarations: the
faults campaign's ``--organization both`` and its run-time-resolved
``--kernel``, and ``predict --banks`` (default 1).

:func:`run_cli` is the one exit-code contract: 0 on success, 1 when the
design fails to compile or the run fails, 2 for a bad parameter (a
structured :class:`~repro.core.errors.ParameterError` naming the field).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from .config import DEP_HOME_POLICIES, FlowConfig, check_probability
from .core.advisor import Organization
from .core.errors import ControllerError, ParameterError
from .flow import (
    DEFAULT_KERNEL,
    SIMULATION_KERNELS,
    CompiledDesign,
    compile_design,
)
from .hic.errors import HicError
from .obs.tracer import TRACE_LEVELS

#: The flow-option defaults every CLI shows and uses.
DEFAULTS = FlowConfig()


def design_options() -> argparse.ArgumentParser:
    """``--organization`` and ``--kernel``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--organization",
        choices=[org.value for org in Organization],
        default=DEFAULTS.organization.value,
        help=f"memory organization (default: {DEFAULTS.organization.value})",
    )
    parser.add_argument(
        "--kernel",
        # Derived from the flow's registry so argparse fails fast with
        # the real list if a backend is ever added or renamed.
        choices=list(SIMULATION_KERNELS),
        default=DEFAULT_KERNEL,
        help=(
            f"simulation backend (default: {DEFAULT_KERNEL}): 'wheel' "
            "skips provably idle cycles, 'compiled' runs a generated "
            "per-design tick function; both are cycle-equivalent to "
            "'reference', which ticks every component every cycle "
            "(see docs/simulation_kernels.md)"
        ),
    )
    return parser


def source_options() -> argparse.ArgumentParser:
    """The hic source, fabric shape, ingress traffic and wall-clock valve."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("source", help="hic source file")
    parser.add_argument(
        "--banks",
        type=int,
        default=DEFAULTS.num_banks,
        metavar="N",
        help=(
            "compile for a sharded N-bank memory fabric (0 = the paper's "
            "single-address-space flow)"
        ),
    )
    parser.add_argument(
        "--dep-home",
        choices=list(DEP_HOME_POLICIES),
        default=DEFAULTS.dep_home,
        help=(
            "fabric dependency-entry homing: 'address' co-locates guards "
            "with their data; 'spread' distributes them across banks "
            "(exercising the cross-bank router)"
        ),
    )
    parser.add_argument(
        "--link-latency",
        type=int,
        default=DEFAULTS.link_latency,
        metavar="CYCLES",
        help=(
            "crossbar link latency between ingress and a bank "
            f"(default: {DEFAULTS.link_latency})"
        ),
    )
    parser.add_argument(
        "--traffic-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "drive each ingress interface with seeded Bernoulli traffic "
            "(probability P of a new message per cycle)"
        ),
    )
    parser.add_argument(
        "--traffic-seed",
        type=int,
        default=1,
        help="seed for --traffic-rate generators (default: 1)",
    )
    parser.add_argument(
        "--max-wall-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the simulation: a livelocked run "
            "raises a structured simulation-timeout error instead of "
            "hanging"
        ),
    )
    return parser


def telemetry_options() -> argparse.ArgumentParser:
    """The telemetry level and the exporters :func:`write_telemetry` runs."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--trace-level",
        # The tracer's TRACE_LEVELS is the single source of truth: an
        # unknown level dies in argparse with the valid choices listed,
        # not deep in run setup.
        choices=list(TRACE_LEVELS),
        default="deps",
        help=(
            "event granularity: 'deps' records dependency-lifecycle events "
            "only; 'full' also records every submit/grant (default: deps)"
        ),
    )
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help=(
            "write a Chrome trace-event JSON (Perfetto-loadable) of the "
            "simulation to FILE"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write Prometheus text-format metrics of the simulation to FILE",
    )
    parser.add_argument(
        "--summary-json",
        metavar="FILE",
        help="write a JSON telemetry summary of the simulation to FILE",
    )
    return parser


def _check_run_options(args: argparse.Namespace) -> None:
    """Reject out-of-range run options before any work starts."""
    checks = (
        ("cycles", lambda cycles: cycles > 0,
         "cycle budget must be positive"),
        ("simulate", lambda cycles: cycles >= 0,
         "cycle budget cannot be negative"),
        ("max_wall_seconds", lambda budget: budget is None or budget >= 0,
         "wall-clock budget cannot be negative"),
    )
    for name, ok, why in checks:
        if name in args and not ok(getattr(args, name)):
            raise ParameterError(why, parameter=name, value=getattr(args, name))
    if "traffic_rate" in args:
        check_probability("traffic_rate", args.traffic_rate)


def design_name(path: str) -> str:
    """The design name a CLI gives a source file: its bare stem."""
    return path.rsplit("/", 1)[-1].split(".")[0]


def read_source(path: str) -> str:
    """The text of a hic source file; an unreadable file is a
    ``source`` parameter error."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise ParameterError(
            f"cannot read source file: {error.strerror}",
            parameter="source",
            value=path,
        ) from None


def compile_source(args: argparse.Namespace, **options) -> CompiledDesign:
    """Compile ``args.source`` with the :func:`source_options` and
    :func:`design_options` flow options; ``options`` adds the other
    :class:`~repro.config.FlowConfig` fields a tool sets."""
    return compile_design(
        read_source(args.source),
        name=design_name(args.source),
        organization=Organization(args.organization),
        num_banks=args.banks,
        link_latency=args.link_latency,
        dep_home=args.dep_home,
        **options,
    )


def run_cli(
    parser: argparse.ArgumentParser,
    argv: Optional[list],
    body: Callable[[argparse.Namespace], int],
) -> int:
    """Parse ``argv``, check the run options, and return ``body(args)``
    under the exit-code contract (see the module docstring)."""
    args = parser.parse_args(argv)
    try:
        _check_run_options(args)
        return body(args)
    except ParameterError as error:
        print(f"error: {error.describe()}", file=sys.stderr)
        return 2
    except ControllerError as error:
        print(f"error: {error.describe()}", file=sys.stderr)
        return 1
    except (HicError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def write_telemetry(telemetry, args: argparse.Namespace) -> None:
    """Write every telemetry export the options ask for."""
    from .obs.exporters import (
        write_chrome_trace,
        write_prometheus,
        write_summary_csv,
        write_summary_json,
    )

    exports = (
        (args.trace_json, write_chrome_trace, "Chrome trace"),
        (args.metrics, write_prometheus, "Prometheus metrics"),
        (args.summary_json, write_summary_json, "telemetry summary"),
        (getattr(args, "summary_csv", None), write_summary_csv, "metrics CSV"),
    )
    for path, write, label in exports:
        if path:
            write(telemetry, path)
            print(f"wrote {label} to {path}")
