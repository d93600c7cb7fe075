"""The validated flow configuration and the one traffic-setup path.

:class:`~repro.config.FlowConfig` is the single declaration of the 13
design options ``compile_design`` takes; every out-of-range value and
every fabric conflict dies at construction with a structured
:class:`~repro.core.errors.ParameterError` naming the field, before any
analysis runs.
"""

import dataclasses
import inspect

import pytest

import repro.fabric
from repro.config import SHARD_POLICIES, FlowConfig
from repro.core import Organization
from repro.core.errors import ParameterError
from repro.fabric import POLICIES
from repro.flow import build_simulation, compile_design
from repro.net import BernoulliTraffic, forwarding_source
from tests.conftest import FIGURE1_SOURCE


class TestApiRejection:
    @pytest.mark.parametrize(
        "options, parameter",
        [
            ({"num_banks": -1}, "num_banks"),
            ({"deplist_entries": -3}, "deplist_entries"),
            ({"shard_policy": "bogus"}, "shard_policy"),
            ({"num_banks": 2, "link_latency": -4}, "link_latency"),
            ({"num_banks": 2, "batch_size": 0}, "batch_size"),
            ({"num_banks": 2, "allow_offchip": True}, "allow_offchip"),
            ({"num_banks": 2, "force_single_bram": True}, "force_single_bram"),
            (
                {"num_banks": 2, "channel_synthesis": "fifo"},
                "channel_synthesis",
            ),
            ({"dep_home": "everywhere"}, "dep_home"),
            ({"organization": "arbitrated"}, "organization"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_compile_rejects_bad_option(self, options, parameter):
        with pytest.raises(ParameterError) as excinfo:
            compile_design(FIGURE1_SOURCE, **options)
        assert excinfo.value.parameter == parameter
        assert f"parameter={parameter}" in excinfo.value.describe()

    def test_rejected_before_analysis(self):
        # A bad option wins over a broken program: nothing is parsed.
        with pytest.raises(ParameterError):
            compile_design("thread t () { int x; x = ; }", num_banks=-1)

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError):
            compile_design(FIGURE1_SOURCE, banks=2)


class TestFlowConfig:
    def test_fields_are_the_compile_options(self):
        names = [field.name for field in dataclasses.fields(FlowConfig)]
        assert names == [
            "organization",
            "force_single_bram",
            "deplist_entries",
            "check_deadlock",
            "infer_pragmas",
            "allow_offchip",
            "optimize",
            "num_banks",
            "shard_policy",
            "link_latency",
            "batch_size",
            "dep_home",
            "channel_synthesis",
        ]

    def test_defaults(self):
        config = FlowConfig()
        assert config.organization is Organization.ARBITRATED
        assert config.deplist_entries == 4
        assert config.check_deadlock is True
        assert config.num_banks == 0
        assert (config.link_latency, config.batch_size) == (1, 1)
        assert config.channel_synthesis == "guarded"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FlowConfig().num_banks = 2

    def test_compile_design_takes_only_source_name_and_options(self):
        parameters = inspect.signature(compile_design).parameters
        assert list(parameters) == ["source", "name", "options"]

    def test_shard_policies_match_the_registry(self):
        assert SHARD_POLICIES == tuple(POLICIES)

    def test_fabric_plan_carries_the_flow_config(self):
        design = compile_design(
            FIGURE1_SOURCE, num_banks=2, link_latency=3, batch_size=2
        )
        config = design.fabric.config
        assert isinstance(config, FlowConfig)
        assert (config.num_banks, config.link_latency) == (2, 3)
        sim = build_simulation(design)
        assert sim.controllers["fabric"].config is config

    def test_fabric_config_is_gone(self):
        assert not hasattr(repro.fabric, "FabricConfig")


class TestAttachTraffic:
    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rejects_rate_even_without_ingress(self, rate):
        sim = build_simulation(compile_design(FIGURE1_SOURCE))
        assert not sim.rx
        with pytest.raises(ParameterError) as excinfo:
            sim.attach_traffic(rate, 1)
        assert excinfo.value.parameter == "traffic_rate"

    def test_one_hook_per_ingress_even_at_rate_zero(self):
        sim = build_simulation(compile_design(forwarding_source(2)))
        before = len(sim.kernel._pre_hooks)
        sim.attach_traffic(0.0, 1)
        assert len(sim.kernel._pre_hooks) == before + len(sim.rx)

    def test_streams_match_per_interface_seeds(self):
        def egress(attach):
            sim = build_simulation(
                compile_design(forwarding_source(2)), kernel="reference"
            )
            attach(sim)
            sim.run(300)
            return {name: tx.messages for name, tx in sim.tx.items()}

        def by_hand(sim):
            for index, rx in enumerate(sim.rx.values()):
                generator = BernoulliTraffic(rate=0.3, seed=5 + index)
                sim.kernel.add_pre_cycle_hook(generator.attach(rx))

        expected = egress(by_hand)
        assert any(expected.values())
        assert egress(lambda sim: sim.attach_traffic(0.3, 5)) == expected
