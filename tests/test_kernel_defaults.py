"""Regression net for the default simulation kernel.

Before ``DEFAULT_KERNEL`` existed the default lived as a loose
``"wheel"`` string in five places (the flow API and four CLI parsers),
and they had already drifted once.  These tests pin every surface to
the single shared constant, and pin the registry so a renamed or
dropped backend fails here rather than deep inside a campaign.
"""

import argparse
import importlib
import inspect

import pytest

from repro.flow import DEFAULT_KERNEL, SIMULATION_KERNELS, build_simulation


class TestSharedConstant:
    def test_default_kernel_is_wheel(self):
        assert DEFAULT_KERNEL == "wheel"

    def test_default_kernel_is_registered(self):
        assert DEFAULT_KERNEL in SIMULATION_KERNELS

    def test_registry_lists_all_backends(self):
        assert SIMULATION_KERNELS == ("reference", "wheel", "compiled")


class TestApiDefaults:
    def test_build_simulation_defaults_to_shared_constant(self):
        signature = inspect.signature(build_simulation)
        assert signature.parameters["kernel"].default is DEFAULT_KERNEL

    def test_validate_resolves_none_to_shared_constant(self):
        # model.validate cannot import the flow at module scope (the
        # flow imports it back), so its ``kernel=None`` sentinel must
        # resolve to DEFAULT_KERNEL at call time.
        from repro.model.validate import simulate_config, validate

        for fn in (simulate_config, validate):
            assert inspect.signature(fn).parameters["kernel"].default is None


class TestCliDefaults:
    def _default_of(self, parser):
        for action in parser._actions:
            if "--kernel" in action.option_strings:
                return action
        raise AssertionError("parser has no --kernel option")

    def test_run_cli(self):
        from repro.__main__ import _parser

        action = self._default_of(_parser())
        assert action.default is DEFAULT_KERNEL
        assert tuple(action.choices) == SIMULATION_KERNELS

    def test_profile_cli(self):
        from repro.obs.profile_cli import _profile_parser

        action = self._default_of(_profile_parser())
        assert action.default is DEFAULT_KERNEL
        assert tuple(action.choices) == SIMULATION_KERNELS

    def test_predict_cli(self):
        from repro.model.cli import _predict_parser

        action = self._default_of(_predict_parser())
        assert action.default is DEFAULT_KERNEL
        assert tuple(action.choices) == SIMULATION_KERNELS

    def test_faults_cli(self):
        from repro.faults.campaign import _faults_parser

        action = self._default_of(_faults_parser())
        # None = "resolve to the flow default at run time" (the campaign
        # deliberately keeps the kernel out of its fingerprinted config)
        assert action.default is None
        assert tuple(action.choices) == SIMULATION_KERNELS


class TestDefaultKernelBehaviour:
    def test_default_build_uses_wheel_kernel(self):
        from repro.net import forwarding_source
        from repro.flow import compile_design
        from repro.sim.wheel import FastKernel

        sim = build_simulation(compile_design(forwarding_source(2)))
        assert isinstance(sim.kernel, FastKernel)


ORGS = ("arbitrated", "event_driven", "lock_baseline")
KERNELS = ("reference", "wheel", "compiled")

#: Every option of the six parsers: option strings -> (default, choices).
#: Moving declarations into shared option groups must neither add nor
#: drop an option, nor change its default or choice list.
CLI_SURFACE = {
    "main": {
        "source": (None, None),
        "--organization": ("arbitrated", ORGS),
        "--deplist-entries": (4, None),
        "--simulate": (0, None),
        "--verilog": (None, None),
        "--thread-verilog": (None, None),
        "--vcd": (None, None),
        "--trace-json": (None, None),
        "--metrics": (None, None),
        "--summary-json": (None, None),
        "--summary-csv": (None, None),
        "--kernel": ("wheel", KERNELS),
        "--trace-level": ("deps", ("deps", "full")),
        "--traffic-rate": (0.0, None),
        "--traffic-seed": (1, None),
        "--banks": (0, None),
        "--shard-policy": ("interleaved", ("interleaved", "range")),
        "--link-latency": (1, None),
        "--batch-size": (1, None),
        "--dep-home": ("address", ("address", "spread")),
        "--max-wall-seconds": (None, None),
        "--no-deadlock-check": (False, None),
        "--infer-pragmas": (False, None),
        "--allow-offchip": (False, None),
        "--optimize": (False, None),
    },
    "profile": {
        "source": (None, None),
        "--organization": ("arbitrated", ORGS),
        "--cycles": (300, None),
        "--kernel": ("wheel", KERNELS),
        "--banks": (0, None),
        "--dep-home": ("address", ("address", "spread")),
        "--link-latency": (1, None),
        "--traffic-rate": (0.0, None),
        "--traffic-seed": (1, None),
        "--top": (5, None),
        "--critical-path": (False, None),
        "--flame": (None, None),
        "--chrome-trace": (None, None),
        "--breakdown-json": (None, None),
        "--breakdown-csv": (None, None),
        "--max-wall-seconds": (None, None),
    },
    "run": {
        "--scenario": (None, ("forwarding", "pipeline", "fanout", "fanin")),
        "--channel-synthesis": ("fifo", ("guarded", "fifo")),
        "--organization": ("arbitrated", ORGS),
        "--kernel": ("wheel", KERNELS),
        "--cycles": (500, None),
        "--trace-level": ("deps", ("deps", "full")),
        "--summary-json": (None, None),
        "--trace-json": (None, None),
        "--metrics": (None, None),
    },
    "scenarios": {
        "--scenario": (None, ("forwarding", "pipeline", "fanout", "fanin")),
        "--organization": ("arbitrated", ORGS),
        "--kernel": ("wheel", KERNELS),
        "--cycles": (500, None),
        "--json": (None, None),
    },
    "predict": {
        "source": (None, None),
        "--organization": ("arbitrated", ORGS),
        "--banks": (1, None),
        "--link-latency": (1, None),
        "--batch-size": (1, None),
        "--offchip-latency": (0, None),
        "--rate": (1.0, None),
        "--deplist-entries": (4, None),
        "--summary-json": (None, None),
        "--sweep": (False, None),
        "--sweep-banks": ([1, 2, 4], None),
        "--sweep-links": ([1, 2, 3], None),
        "--sweep-rates": ([0.02, 0.9], None),
        "--margin": (0.15, None),
        "--validate": (False, None),
        "--bound": (0.15, None),
        "--kernel": ("wheel", KERNELS),
    },
    "faults": {
        "--seed": (7, None),
        "--runs": (8, None),
        "--cycles": (400, None),
        "--organization": ("both", ("arbitrated", "event_driven", "both")),
        "--policy": (
            "break-dependency",
            ("abort", "warn-continue", "break-dependency"),
        ),
        "--kinds": (
            "seu,producer-stall,request-drop,request-duplicate,"
            "deplist-corruption",
            None,
        ),
        "--read-timeout": (40, None),
        "--auto-timeout": (False, None),
        "--deadlock-window": (80, None),
        "--source": (None, None),
        "--kernel": (None, KERNELS),
        "--report": (None, None),
        "--profile": (False, None),
        "--summary-json": (None, None),
        "--workers": (1, None),
        "--run-timeout": (None, None),
        "--retries": (2, None),
        "--journal": (None, None),
        "--resume": (None, None),
        "--stop-after": (None, None),
        "--chaos-crash": (None, None),
        "--engine-metrics": (None, None),
    },
}

PARSERS = {
    "main": ("repro.__main__", "_parser"),
    "profile": ("repro.obs.profile_cli", "_profile_parser"),
    "run": ("repro.scenarios.cli", "_run_parser"),
    "scenarios": ("repro.scenarios.cli", "_scenarios_parser"),
    "predict": ("repro.model.cli", "_predict_parser"),
    "faults": ("repro.faults.campaign", "_faults_parser"),
}


class TestCliSurface:
    @pytest.mark.parametrize("tool", sorted(PARSERS))
    def test_options_defaults_and_choices_are_pinned(self, tool):
        module, factory = PARSERS[tool]
        parser = getattr(importlib.import_module(module), factory)()
        surface = {
            " ".join(action.option_strings) or action.dest: (
                action.default,
                None if action.choices is None else tuple(action.choices),
            )
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert surface == CLI_SURFACE[tool]
