"""RuntimeConfig — the single owner of every runtime-construction knob."""

import argparse
import dataclasses
import json
import re

import pytest

from repro.core import RuntimeConfig, RoundRobinPolicy
from repro.core.config import REFUSALS, page_size_for
from repro.core.policies import ExplorationLevel
from repro.gpu.specs import MIB, TEST_GPU_1GB, V100_16GB
from repro.sim import FaultPlan
from repro.workloads import make_workload


class TestConstruction:
    def test_defaults_are_the_paper_configuration(self):
        config = RuntimeConfig()
        assert config.mode == "grout"
        assert config.policy == "vector-step"
        assert config.n_workers == 2
        assert config.gpus_per_worker == 2
        assert config.fair_share_window == 32

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RuntimeConfig(mode="vulkan")
        with pytest.raises(ValueError):
            RuntimeConfig(n_workers=0)
        with pytest.raises(ValueError):
            RuntimeConfig(fair_share_window=1)
        with pytest.raises(ValueError):
            RuntimeConfig(shards=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().n_workers = 4


FLAKE = FaultPlan.parse("flake@0.0*1")

#: (knobs, the table's message): one case per grcuda and combination row
#: of the table, plus every combination that used to build a runtime and
#: then ignore a knob.
REFUSED = {
    "grcuda-faults": ({"mode": "grcuda", "faults": FLAKE},
                      "faults requires mode='grout'"),
    "grcuda-replace-crashed": ({"mode": "grcuda", "replace_crashed": True},
                               "replace_crashed requires mode='grout'"),
    "grcuda-chunk-bytes": ({"mode": "grcuda", "chunk_bytes": MIB},
                           "chunk_bytes requires mode='grout'"),
    "grcuda-collectives": ({"mode": "grcuda", "collectives": True},
                           "collectives requires mode='grout'"),
    "grcuda-plan-cache": ({"mode": "grcuda", "plan_cache": True},
                          "plan_cache requires mode='grout'"),
    "grcuda-shards": ({"mode": "grcuda", "shards": 2},
                      "shards requires mode='grout'"),
    "grcuda-shard-window": ({"mode": "grcuda", "shard_window": 0.5},
                            "shard_window requires mode='grout'"),
    "grcuda-fair-share-window": ({"mode": "grcuda", "fair_share_window": 8},
                                 "fair_share_window requires mode='grout'"),
    "shard-window-without-shards": ({"shard_window": 0.5},
                                    "shard_window requires shards"),
    "zero-shard-window": ({"shard_window": 0.0},
                          "shard_window must be > 0"),
    "zero-shard-window-with-shards": ({"shards": 2, "shard_window": 0.0},
                                      "shard_window must be > 0"),
    "replace-crashed-without-faults": ({"replace_crashed": True},
                                       "replace_crashed requires faults"),
    "shards-faults": ({"shards": 2, "faults": FLAKE},
                      "shards excludes faults"),
    "shards-collectives": ({"shards": 2, "collectives": True},
                           "shards excludes collectives"),
    "shards-plan-cache": ({"shards": 2, "plan_cache": True},
                          "shards excludes plan_cache"),
    "plan-cache-chunk-bytes": ({"plan_cache": True, "chunk_bytes": MIB},
                               "plan_cache excludes chunk_bytes"),
    "plan-cache-collectives": ({"plan_cache": True, "collectives": True},
                               "plan_cache excludes collectives"),
}


class TestRefusalTable:
    @pytest.mark.parametrize("knobs,message", REFUSED.values(),
                             ids=REFUSED.keys())
    def test_refused_when_built(self, knobs, message):
        """Each refused combination raises at construction, through
        every constructor, with the table's message."""
        assert any(text.startswith(message) for _, text in REFUSALS)
        with pytest.raises(ValueError, match=re.escape(message)):
            RuntimeConfig(**knobs)
        with pytest.raises(ValueError, match=re.escape(message)):
            RuntimeConfig().merge(knobs)
        with pytest.raises(ValueError, match=re.escape(message)):
            RuntimeConfig.from_dict(knobs)
        with pytest.raises(ValueError, match=re.escape(message)):
            RuntimeConfig.from_args(argparse.Namespace(**knobs))

    def test_deleted_knobs_are_gone(self):
        for name in ("prune_every", "shard_max_outstanding"):
            assert name not in RuntimeConfig.field_names()
            with pytest.raises(TypeError):
                RuntimeConfig(**{name: 8})


class TestMerge:
    def test_merge_overlays_fields(self):
        base = RuntimeConfig(seed=7)
        merged = base.merge(mode="grcuda", n_workers=1)
        assert merged.mode == "grcuda"
        assert merged.n_workers == 1
        assert merged.seed == 7            # untouched fields survive
        assert base.mode == "grout"        # original unchanged

    def test_merge_accepts_mapping_and_rejects_unknown_keys(self):
        assert RuntimeConfig().merge({"n_workers": 4}).n_workers == 4
        with pytest.raises(ValueError, match="unknown runtime config"):
            RuntimeConfig().merge({"warp_speed": 9})


class TestFromArgs:
    def _namespace(self, **kwargs):
        return argparse.Namespace(**kwargs)

    def test_reads_fields_by_name_with_workers_alias(self):
        args = self._namespace(mode="grout", workers=4,
                               policy="round-robin", seed=3,
                               unrelated="ignored")
        config = RuntimeConfig.from_args(args)
        assert config.n_workers == 4
        assert config.policy == "round-robin"
        assert config.seed == 3

    def test_overrides_win_over_namespace(self):
        args = self._namespace(workers=4)
        assert RuntimeConfig.from_args(args, n_workers=8).n_workers == 8

    def test_add_cli_args_round_trips(self):
        parser = argparse.ArgumentParser()
        RuntimeConfig.add_cli_args(parser, default_policy="round-robin")
        args = parser.parse_args(["--workers", "3",
                                  "--chunk-bytes", "65536",
                                  "--fair-share-window", "8"])
        config = RuntimeConfig.from_args(args)
        assert config.n_workers == 3
        assert config.policy == "round-robin"
        assert config.chunk_bytes == 65536
        assert config.fair_share_window == 8


    def test_plan_cache_round_trips(self):
        parser = argparse.ArgumentParser()
        RuntimeConfig.add_cli_args(parser, default_policy="round-robin")
        assert RuntimeConfig.from_args(
            parser.parse_args([])).plan_cache is False   # default off
        config = RuntimeConfig.from_args(
            parser.parse_args(["--plan-cache"]))
        assert config.plan_cache is True
        clone = RuntimeConfig.from_dict(config.as_dict())
        assert clone == config and clone.plan_cache
        assert RuntimeConfig().merge({"plan_cache": True}).plan_cache
        assert "plan_cache" in RuntimeConfig().as_dict()


class TestSerialisation:
    def test_as_dict_is_json_ready(self):
        config = RuntimeConfig(policy=RoundRobinPolicy(),
                               level=ExplorationLevel.HIGH,
                               faults="crash:worker0@1.5")
        payload = json.loads(json.dumps(config.as_dict()))
        assert payload["policy"] == "round-robin"
        assert payload["level"] == "high"
        assert payload["faults"] == "crash:worker0@1.5"

    def test_from_dict_round_trip_and_unknown_keys(self):
        config = RuntimeConfig(n_workers=4, seed=5)
        clone = RuntimeConfig.from_dict(config.as_dict())
        assert clone == config
        with pytest.raises(ValueError, match="unknown runtime config"):
            RuntimeConfig.from_dict({"n_wrokers": 4})


class TestResolution:
    def test_fault_plan_parses_strings(self):
        plan = RuntimeConfig(faults="crash:worker0@1.5").fault_plan()
        assert isinstance(plan, FaultPlan)
        assert RuntimeConfig().fault_plan() is None

    def test_build_policy_vector_step_needs_workload(self):
        config = RuntimeConfig()
        with pytest.raises(ValueError, match="vector-step"):
            config.build_policy()
        wl = make_workload("mv", 8 * MIB)
        assert config.build_policy(wl).name == "vector-step"

    def test_build_policy_registry_names(self):
        policy = RuntimeConfig(policy="round-robin").build_policy()
        assert policy.name == "round-robin"

    def test_page_size_for_is_power_of_two(self):
        for footprint in (MIB, 64 * MIB, 1 << 34, 1 << 38):
            size = page_size_for(footprint)
            assert size & (size - 1) == 0


class TestBuildRuntime:
    def test_grout_runtime_honours_knobs(self):
        config = RuntimeConfig(policy="round-robin", n_workers=3,
                               fair_share_window=8)
        rt = config.build_runtime(footprint_bytes=64 * MIB)
        try:
            assert len(rt.cluster.workers) == 3
            assert rt.policy.name == "round-robin"
            assert rt.controller.fair_share_gate.window == 8
        finally:
            rt.shutdown()

    def test_grcuda_runtime_and_guards(self):
        rt = RuntimeConfig(mode="grcuda").build_runtime(
            footprint_bytes=64 * MIB)
        try:
            assert type(rt).__name__ == "GrCudaRuntime"
            assert [g.spec.name for g in rt.node.gpus] \
                == [V100_16GB.name] * 2
            assert rt.scheduler.max_streams_per_gpu == 4
        finally:
            rt.shutdown()
        # The node knobs reach the single-node runtime too.
        rt = RuntimeConfig(mode="grcuda", gpu_spec="TEST_GPU_1GB",
                           gpus_per_worker=1,
                           max_streams_per_gpu=1).build_runtime()
        try:
            assert [g.spec for g in rt.node.gpus] == [TEST_GPU_1GB]
            assert rt.scheduler.max_streams_per_gpu == 1
        finally:
            rt.shutdown()
        with pytest.raises(ValueError, match="grout"):
            RuntimeConfig(mode="grcuda",
                          faults="crash:worker0@1.0").build_runtime()
        with pytest.raises(ValueError, match="grout"):
            RuntimeConfig(mode="grcuda",
                          chunk_bytes=MIB).build_runtime()
        with pytest.raises(ValueError, match="grout"):
            RuntimeConfig(mode="grcuda", shards=2).build_runtime()

    def test_plan_cache_knob_builds_the_cache(self):
        rt = RuntimeConfig(policy="round-robin",
                           plan_cache=True).build_runtime()
        try:
            assert rt.controller.plan_cache is not None
        finally:
            rt.shutdown()
        off = RuntimeConfig(policy="round-robin").build_runtime()
        try:
            assert off.controller.plan_cache is None
        finally:
            off.shutdown()
        with pytest.raises(ValueError, match="grout"):
            RuntimeConfig(mode="grcuda", plan_cache=True).build_runtime()

    def test_fault_plan_is_armed_on_build(self):
        config = RuntimeConfig(policy="round-robin",
                               faults="crash:worker0@1.5")
        rt = config.build_runtime(footprint_bytes=64 * MIB)
        quiet = config.merge(faults=None).build_runtime(
            footprint_bytes=64 * MIB)
        try:
            # The armed plan parks injector work in the engine queue;
            # without faults the fresh runtime's queue is empty.
            assert rt.engine.peek() != float("inf")
            assert quiet.engine.peek() == float("inf")
        finally:
            rt.shutdown()
            quiet.shutdown()
