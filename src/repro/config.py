"""The one validated set of design-flow options.

:class:`FlowConfig` holds the design choices the paper's tool flow (§3)
takes next to a hic program: the memory organization, the dependency-list
size, the fabric shape and so on.  :func:`repro.flow.compile_design`
builds one from its keywords, and every CLI reads its defaults from
``FlowConfig()``.  Construction checks every field and every fabric
conflict up front, so an impossible option dies with a structured
:class:`~repro.core.errors.ParameterError` naming the field before any
synthesis runs.

This module imports nothing heavier than :mod:`repro.core`, so the CLIs
and :mod:`repro.fabric` can share it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.advisor import Organization
from .core.errors import ParameterError

#: Fabric address sharding policies (see :mod:`repro.fabric.sharding`).
SHARD_POLICIES = ("interleaved", "range")

#: Dependency home-bank policies (where a fabric guard entry lives).
DEP_HOME_POLICIES = ("address", "spread")

#: Channel synthesis modes (see :mod:`repro.analysis.channels`).
CHANNEL_SYNTHESIS_MODES = ("guarded", "fifo")


def check_probability(parameter: str, value: float) -> None:
    """Reject a traffic rate outside [0, 1] (NaN included)."""
    if not 0.0 <= value <= 1.0:
        raise ParameterError(
            "traffic rate must be a probability in [0, 1]",
            parameter=parameter,
            value=value,
        )


@dataclass(frozen=True)
class FlowConfig:
    """Design options of one :func:`~repro.flow.compile_design` run."""

    #: memory organization generated for every guarded BRAM: §3.1
    #: arbitrated, §3.2 event-driven, or the lock baseline
    organization: Organization = Organization.ARBITRATED
    #: pack all shared data into one BRAM instead of affinity packing
    force_single_bram: bool = False
    #: dependency-list capacity of each wrapper (raised to the number of
    #: dependencies the BRAM actually holds)
    deplist_entries: int = 4
    #: run the static deadlock check and reject deadlocking programs
    check_deadlock: bool = True
    #: derive producer/consumer dependencies from use-def analysis instead
    #: of requiring explicit pragmas (paper §2)
    infer_pragmas: bool = False
    #: let private data too large for one BRAM spill to external SRAM
    allow_offchip: bool = False
    #: run the FSM optimization passes (dead-state elimination,
    #: pass-through collapsing, compute-state packing) before binding
    optimize: bool = False
    #: ``> 0`` compiles for a sharded fabric of that many banks behind one
    #: logical address space, joined by a crossbar; 0 is the paper's
    #: single-address-space flow
    num_banks: int = 0
    #: how the fabric slices the address space over its banks
    shard_policy: str = "interleaved"
    #: crossbar link latency in cycles between ingress and a bank
    link_latency: int = 1
    #: requests a bank accepts from the crossbar per cycle
    batch_size: int = 1
    #: "address" homes each guard entry with its guarded data; "spread"
    #: distributes entries across banks, exercising the cross-bank router
    dep_home: str = "address"
    #: "guarded" keeps every dependency on the §3.1/§3.2 machinery; "fifo"
    #: lowers every dependency proven a single-writer in-order stream to
    #: a plain FIFO channel (see docs/scenarios.md)
    channel_synthesis: str = "guarded"

    def __post_init__(self) -> None:
        fabric = self.num_banks > 0
        checks = (
            ("organization", isinstance(self.organization, Organization),
             "unknown memory organization"),
            ("deplist_entries", self.deplist_entries >= 1,
             "a dependency list needs at least one entry"),
            ("num_banks", self.num_banks >= 0,
             "bank count cannot be negative (0 = no fabric)"),
            ("shard_policy", self.shard_policy in SHARD_POLICIES,
             f"unknown shard_policy (expected one of {SHARD_POLICIES})"),
            ("link_latency", self.link_latency >= 0,
             "link latency cannot be negative"),
            ("batch_size", self.batch_size >= 1,
             "batch size must be positive"),
            ("dep_home", self.dep_home in DEP_HOME_POLICIES,
             f"unknown dep_home policy (expected one of {DEP_HOME_POLICIES})"),
            ("channel_synthesis",
             self.channel_synthesis in CHANNEL_SYNTHESIS_MODES,
             "unknown channel_synthesis "
             f"(expected one of {CHANNEL_SYNTHESIS_MODES})"),
            ("force_single_bram", not (fabric and self.force_single_bram),
             "force_single_bram is incompatible with a fabric"),
            ("channel_synthesis",
             not (fabric and self.channel_synthesis == "fifo"),
             "channel_synthesis='fifo' is incompatible with a sharded "
             "fabric (FIFO channels bypass the crossbar)"),
            ("allow_offchip", not (fabric and self.allow_offchip),
             "allow_offchip is incompatible with a fabric (spilled data "
             "would bypass the crossbar)"),
        )
        for name, ok, why in checks:
            if not ok:
                raise ParameterError(
                    why, parameter=name, value=getattr(self, name)
                )
