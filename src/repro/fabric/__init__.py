"""Sharded multi-bank memory fabric (crossbar + cross-bank dependency routing).

The paper's wrappers each manage one dual-ported BRAM.  This package scales
that design out: N bank controllers — any mix of the §3.1 arbitrated, §3.2
event-driven, and lock-baseline organizations — compose behind one logical
address space, connected by a cycle-accurate crossbar, with dependency
guards that still honour the §3.1 protocol even when a guard entry and its
guarded data land on different banks.
"""

from ..config import DEP_HOME_POLICIES
from .crossbar import Crossbar, CrossbarStats
from .fabric import (
    FabricMemoryView,
    FabricPlan,
    MemoryFabric,
    build_fabric,
    plan_fabric,
)
from .router import DependencyRouter, RoutedDependency, RouterStats
from .sharding import (
    POLICIES,
    InterleavedSharding,
    RangeSharding,
    ShardingPolicy,
    make_policy,
)

__all__ = [
    "Crossbar",
    "CrossbarStats",
    "DEP_HOME_POLICIES",
    "DependencyRouter",
    "FabricMemoryView",
    "FabricPlan",
    "InterleavedSharding",
    "MemoryFabric",
    "POLICIES",
    "RangeSharding",
    "RoutedDependency",
    "RouterStats",
    "ShardingPolicy",
    "build_fabric",
    "make_policy",
    "plan_fabric",
]
