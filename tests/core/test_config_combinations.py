"""Pairwise combinations of every RuntimeConfig knob.

The config's refusal table (``repro.core.config.REFUSALS``) is the one
place that decides which knob combinations run.  This file checks both
halves of that contract over a deterministic greedy pairwise cover of
two or three values per field:

* every combination the table accepts builds its runtime and runs a
  small cost-only program to completion: every CE done, every host read
  returns what was written, the freed arrays gone from the directory,
  and ``shutdown()`` draining the engine with no managed bytes left;
* every pair of values that no accepted combination holds is refused at
  construction with one of the table's messages.

A must-accept list holds the configs the benchmark, CI and the harness
build, so the table cannot over-refuse.
"""

import itertools
import types

import numpy as np
import pytest

from repro.core import RuntimeConfig
from repro.core.config import REFUSALS
from repro.gpu import ArrayAccess, Direction, KernelSpec
from repro.gpu.specs import MIB
from repro.sim import FaultPlan

#: Two or three values per field; the first values together are the
#: accepted base every row starts from.  The program below is not a
#: suite workload (suite kernels carry host callables, which shard mode
#: refuses at submit), so the policies are online ones: ``vector-step``
#: needs a workload's tuned vector.
DOMAINS = {
    "mode": ("grout", "grcuda"),
    "policy": ("round-robin", "min-transfer-time", "least-loaded"),
    "level": ("medium", "high"),
    "chunk_bytes": (None, MIB),
    "collectives": (False, True),
    "fair_share_window": (32, 2),
    "plan_cache": (False, True),
    "shards": (None, 1, 2),
    "shard_window": (None, 0.5),
    "n_workers": (2, 3),
    "gpus_per_worker": (2, 1),
    "gpu_spec": (None, "TEST_GPU_1GB"),
    "page_size": (None, MIB),
    "uvm_backend": (None, "gpuvm"),
    "seed": (0, 7),
    "faults": (None, FaultPlan.parse("flake@0.0*1")),
    "replace_crashed": (False, True),
}
NAMES = tuple(DOMAINS)


def _knobs(row: dict) -> dict:
    """A row of value indices as config keyword arguments."""
    return {name: DOMAINS[name][index] for name, index in row.items()}


def _accepted(row: dict) -> bool:
    try:
        RuntimeConfig(**_knobs(row))
    except ValueError:
        return False
    return True


def _pairs(row: dict) -> set:
    return {((a, row[a]), (b, row[b]))
            for a, b in itertools.combinations(NAMES, 2)}


def pairwise_cover() -> tuple[list[dict], list[dict]]:
    """(accepted rows, refused rows), deterministic.

    Each round takes the smallest uncovered pair and fixes it on the
    base row.  If the table refuses that row, one other field may
    change to make it accepted (a knob that requires another, like
    ``replace_crashed`` and ``faults``); if none does, the pair is
    refused and its row recorded as such.  Otherwise every free field
    in turn takes the value that covers the most uncovered pairs while
    the row stays accepted.
    """
    base = dict.fromkeys(NAMES, 0)
    uncovered = {((a, i), (b, j))
                 for a, b in itertools.combinations(NAMES, 2)
                 for i in range(len(DOMAINS[a]))
                 for j in range(len(DOMAINS[b]))}
    accepted, refused = [], []
    while uncovered:
        (a, i), (b, j) = min(uncovered)
        row = dict(base, **{a: i, b: j})
        free = [name for name in NAMES if name not in (a, b)]
        if not _accepted(row):
            repairs = (dict(row, **{name: value}) for name in free
                       for value in range(1, len(DOMAINS[name])))
            repaired = next((r for r in repairs if _accepted(r)), None)
            if repaired is None:
                refused.append(row)
                uncovered.discard(((a, i), (b, j)))
                continue
            row = repaired
        for name in free:
            best, gain = row[name], len(_pairs(row) & uncovered)
            for value in range(len(DOMAINS[name])):
                candidate = dict(row, **{name: value})
                won = len(_pairs(candidate) & uncovered)
                if won > gain and _accepted(candidate):
                    best, gain = value, won
            row[name] = best
        accepted.append(row)
        uncovered -= _pairs(row)
    return accepted, refused


ACCEPTED, REFUSED = pairwise_cover()


def _fan_kernel():
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.IN),
                ArrayAccess(args[1], Direction.OUT)]
    return KernelSpec("fan", flops_per_byte=2.0, access_fn=access_fn)


def _chain_kernel():
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.INOUT)]
    return KernelSpec("chain", flops_per_byte=1.0, access_fn=access_fn)


def _submit(target, tag: str, fan: int = 4):
    """Host writes, a fan of readers of one shared input and a RAW
    chain, all cost-only; returns (CEs, [(array, written values)])."""
    shared = target.device_array(8, np.float32, virtual_nbytes=16 * MIB,
                                 name=f"{tag}.shared")
    outs = [target.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                                name=f"{tag}.out{i}") for i in range(fan)]
    chain = target.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                                name=f"{tag}.chain")
    written, ces = [], []
    for k, array in enumerate([shared, *outs, chain]):
        values = np.full(8, k + 1.0, dtype=np.float32)
        ces.append(target.host_write(
            array, lambda a=array, v=values: np.copyto(a.data, v)))
        written.append((array, values))
    ces += [target.launch(_fan_kernel(), 8, 128, (shared, out))
            for out in outs]
    ces += [target.launch(_chain_kernel(), 8, 128, (chain,))
            for _ in range(3)]
    return ces, written


def _read_back(target, written) -> None:
    for array, values in written:
        np.testing.assert_array_equal(target.host_read(array), values)


def run_and_check(config: RuntimeConfig) -> None:
    """Run the program and check the invariants.

    On GrOUT it runs three times under one plan key: once alone, then
    twice concurrently, so the plan cache replays and the fair-share
    gate interleaves two sessions.
    """
    rt = config.build_runtime()
    grcuda = config.mode == "grcuda"
    try:
        for wave in [["g"]] if grcuda else [["s0"], ["s1", "s2"]]:
            submitted = []
            for tag in wave:
                target = rt if grcuda else rt.session(tag, plan_key="combo")
                submitted.append((target, *_submit(target, tag)))
            for target, ces, written in submitted:
                _read_back(target, written)
                assert target.sync(timeout=60.0)
                assert all(ce.done.processed for ce in ces)
                for array, _ in written:
                    target.free(array)
                if not grcuda:
                    target.close()
        if not grcuda:
            assert len(rt.controller.directory) == 0
    finally:
        rt.shutdown()
    assert rt.engine.peek() == float("inf")
    nodes = [rt.node] if grcuda else rt.cluster.workers
    assert [node.uvm.managed_bytes for node in nodes] == [0] * len(nodes)


def _table_messages(knobs: dict) -> set[str]:
    view = types.SimpleNamespace(**knobs)
    return {message.format(view) for _, message in REFUSALS}


class TestPairwiseCover:
    def test_domains_cover_every_field(self):
        assert NAMES == RuntimeConfig.field_names()

    def test_every_value_runs_somewhere(self):
        for name, values in DOMAINS.items():
            ran = {row[name] for row in ACCEPTED}
            assert ran == set(range(len(values))), name

    @pytest.mark.parametrize("row", ACCEPTED,
                             ids=[f"a{i:02d}" for i in range(len(ACCEPTED))])
    def test_accepted_combination_runs(self, row):
        run_and_check(RuntimeConfig(**_knobs(row)))

    @pytest.mark.parametrize("row", REFUSED,
                             ids=[f"r{i:02d}" for i in range(len(REFUSED))])
    def test_refused_combination_fails_at_construction(self, row):
        knobs = _knobs(row)
        with pytest.raises(ValueError) as refused:
            RuntimeConfig(**knobs)
        assert str(refused.value) in _table_messages(knobs)


#: Every config the benchmark, CI and the evaluation harness build.
MUST_ACCEPT = {
    # benchmarks/perf scale shapes (deep-faults arms its plan directly).
    "scale-iterative": dict(policy="round-robin", n_workers=3,
                            gpu_spec="TEST_GPU_1GB"),
    "scale-wide": dict(policy="min-transfer-time", n_workers=8,
                       gpu_spec="TEST_GPU_1GB"),
    "scale-deep-faults": dict(policy="round-robin", n_workers=3,
                              gpu_spec="TEST_GPU_1GB"),
    # Fig. 7: both modes with the offline roofline policy.
    "fig7-grcuda": dict(mode="grcuda", policy="vector-step"),
    "fig7-grout": dict(mode="grout", policy="vector-step"),
    # grout serve under the perf benchmark's serve-mix workload.
    "serve": dict(policy="round-robin", plan_cache=True),
    # CI's sharded scale gate.
    "ci-shards": dict(policy="round-robin", shards=2, shard_window=0.5),
}


class TestMustAccept:
    @pytest.mark.parametrize("knobs", MUST_ACCEPT.values(),
                             ids=MUST_ACCEPT.keys())
    def test_builds(self, knobs):
        config = RuntimeConfig(**knobs)
        if config.policy != "vector-step":
            run_and_check(config)

    def test_sweep_grcuda_cell(self):
        """``sweep`` merges each GrCUDA cell from the comparison's
        shared GrOUT config, worker count and policy included."""
        base = RuntimeConfig(policy="round-robin", n_workers=4)
        run_and_check(base.merge(mode="grcuda"))

    def test_cli_defaults(self):
        from repro.cli import build_parser
        parser = build_parser()
        for argv in (["run", "mv"], ["run", "mv", "--mode", "grout"],
                     ["serve"]):
            RuntimeConfig.from_args(parser.parse_args(argv))
