"""Unit tests of the figure harness drivers."""

import pytest

from repro.bench import (
    PAPER_SIZES_GB,
    RUN_CAP_SECONDS,
    page_size_for,
    run_grout,
    run_single_node,
    slowdown_series,
    step_ratios,
)
from repro.bench.harness import ExperimentResult
from repro.core.config import RuntimeConfig
from repro.core.policies import ExplorationLevel
from repro.gpu.specs import GIB, MIB
from repro.sim import FaultPlan


class TestPageSizing:
    def test_power_of_two(self):
        for gb in (1, 4, 33, 96, 160):
            p = page_size_for(gb * GIB)
            assert p & (p - 1) == 0

    def test_clamped(self):
        assert page_size_for(1) == 256 * 1024
        assert page_size_for(10_000 * GIB) == 32 * MIB

    def test_scales_with_footprint(self):
        assert page_size_for(160 * GIB) > page_size_for(8 * GIB)


class TestDrivers:
    def test_single_node_runs_and_verifies(self):
        r = run_single_node("mv", 2 * GIB, check=True, n_chunks=4)
        assert r.mode == "grcuda" and r.n_workers == 1
        assert r.completed and r.verified
        assert r.oversubscription == pytest.approx(2 / 32)
        assert r.footprint_gb == pytest.approx(2.0)

    def test_grout_runs_and_verifies(self):
        r = run_grout("mv", 2 * GIB, check=True, n_chunks=4)
        assert r.mode == "grout" and r.n_workers == 2
        assert r.policy == "vector-step"
        assert r.completed and r.verified

    def test_policy_by_name(self):
        r = run_grout("mv", 2 * GIB, policy="round-robin", check=False,
                      n_chunks=4)
        assert r.policy == "round-robin"

    def test_cap_reported(self):
        r = run_single_node("mv", 64 * GIB, cap=1e-6, check=False)
        assert not r.completed
        assert r.elapsed_seconds == pytest.approx(1e-6)

    def test_paper_constants(self):
        assert PAPER_SIZES_GB == (4, 8, 16, 32, 64, 96, 128, 160)
        assert RUN_CAP_SECONDS == pytest.approx(9000.0)


class TestShorthandNextToConfig:
    """A shorthand knob set away from its default next to ``config=``
    would be ignored, so the drivers refuse it before running."""

    COMMON = [("page_size", MIB), ("seed", 3), ("uvm_backend", "gpuvm")]

    @pytest.mark.parametrize("knob,value", COMMON + [
        ("n_workers", 4), ("policy", "round-robin"),
        ("level", ExplorationLevel.HIGH),
        ("faults", FaultPlan.parse("flake@1.0")),
        ("request_replacement", True), ("chunk_bytes", MIB),
        ("collectives", True)], ids=lambda v: str(v))
    def test_run_grout_refuses(self, knob, value):
        with pytest.raises(ValueError, match=f"run_grout: {knob}="):
            run_grout("mv", 2 * GIB, config=RuntimeConfig(),
                      **{knob: value})

    @pytest.mark.parametrize("knob,value", COMMON, ids=lambda v: str(v))
    def test_run_single_node_refuses(self, knob, value):
        with pytest.raises(ValueError, match=f"run_single_node: {knob}="):
            run_single_node("mv", 2 * GIB, config=RuntimeConfig(),
                            **{knob: value})

    def test_defaults_next_to_a_config_run_the_config(self):
        r = run_grout("mv", 2 * GIB, n_workers=2, policy="vector-step",
                      config=RuntimeConfig(n_workers=3,
                                           policy="round-robin"),
                      check=False, n_chunks=4)
        assert (r.n_workers, r.policy) == (3, "round-robin")


class TestSeriesMath:
    def _results(self, times):
        return [ExperimentResult(
            workload="x", mode="grcuda", footprint_bytes=GIB,
            n_workers=1, policy="p", elapsed_seconds=t, completed=True,
            verified=True, oversubscription=1.0) for t in times]

    def test_slowdowns_relative_to_first(self):
        assert slowdown_series(self._results([2.0, 4.0, 20.0])) == \
            [1.0, 2.0, 10.0]

    def test_steps_between_consecutive(self):
        assert step_ratios(self._results([1.0, 2.0, 8.0])) == [2.0, 4.0]

    def test_empty_series(self):
        assert slowdown_series([]) == []
        assert step_ratios([]) == []

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            slowdown_series(self._results([0.0, 1.0]))


class TestRepeats:
    def test_mean_over_seeds(self):
        single = run_single_node("mle", 2 * GIB, check=False, seed=0)
        averaged = run_single_node("mle", 2 * GIB, check=False, seed=0,
                                   repeats=3)
        assert averaged.workload == single.workload
        assert averaged.completed
        # the mean is a real aggregate, same order of magnitude
        assert 0.3 * single.elapsed_seconds < averaged.elapsed_seconds \
            < 3.0 * single.elapsed_seconds

    def test_grout_repeats_verified(self):
        r = run_grout("mv", 2 * GIB, repeats=2, check=True, n_chunks=4)
        assert r.verified and r.completed

    def test_repeats_clamped_to_one(self):
        r = run_single_node("mv", 2 * GIB, check=False, repeats=0)
        assert r.elapsed_seconds > 0
