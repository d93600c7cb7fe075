"""Property test: every flow configuration is rejected up front or works.

A drawn :class:`~repro.config.FlowConfig` mixes legal and illegal values
in every field.  It must either raise
:class:`~repro.core.errors.ParameterError` at construction, or compile
the forwarding design and run it under Bernoulli traffic without error —
no option combination may pass validation and then fail deep inside
allocation, fabric planning or simulation.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import (
    CHANNEL_SYNTHESIS_MODES,
    DEP_HOME_POLICIES,
    SHARD_POLICIES,
    FlowConfig,
)
from repro.core import Organization
from repro.core.errors import ParameterError
from repro.flow import build_simulation, compile_design
from repro.net import forwarding_functions, forwarding_source

SOURCE = forwarding_source(2)


def flow_options(legal_only: bool):
    """Every field drawn from its legal values, plus (unless
    ``legal_only``) ints down to -3 and one bogus string."""

    def ints(low):
        return st.integers(min_value=low if legal_only else -3, max_value=8)

    def choices(legal):
        return st.sampled_from([*legal] + ([] if legal_only else ["bogus"]))

    return st.fixed_dictionaries(
        {
            "organization": choices(Organization),
            "force_single_bram": st.booleans(),
            "deplist_entries": ints(1),
            "check_deadlock": st.booleans(),
            "infer_pragmas": st.booleans(),
            "allow_offchip": st.booleans(),
            "optimize": st.booleans(),
            "num_banks": ints(0),
            "shard_policy": choices(SHARD_POLICIES),
            "link_latency": ints(0),
            "batch_size": ints(1),
            "dep_home": choices(DEP_HOME_POLICIES),
            "channel_synthesis": choices(CHANNEL_SYNTHESIS_MODES),
        }
    )


# Half the draws keep every field in range, so combinations of legal
# values (and the fabric conflicts between them) are well covered.
configs = flow_options(legal_only=True) | flow_options(legal_only=False)


@settings(max_examples=300, deadline=None)
@given(configs)
def test_config_is_rejected_or_compiles_and_runs(options):
    try:
        config = FlowConfig(**options)
    except ParameterError as error:
        assert error.parameter in options
        return
    design = compile_design(SOURCE, **dataclasses.asdict(config))
    sim = build_simulation(design, forwarding_functions(), kernel="reference")
    sim.attach_traffic(0.3, 1)
    result = sim.run(200)
    assert sim.kernel.cycle == 200
    assert result is not None
