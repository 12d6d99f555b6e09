"""Byte-identical schedule regression for the staged pipeline refactor.

``tests/data/golden_schedule.json`` was captured from the pre-pipeline
monolithic ``Controller.schedule`` (PR 3 build).  The staged pipeline must
reproduce every recorded span — lane, category, name, start and end — the
final simulated clock and the engine's delivery count *exactly*, for every
scenario: the refactor is a
restructuring, not a behaviour change, and the default single-session path
carries the same guarantee PR 3 made for its knobs.

Regenerating the fixture (only after an *intentional* schedule change)::

    PYTHONPATH=src python tests/core/pipeline/test_schedule_regression.py
"""

import json
import pathlib

import numpy as np

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, MinTransferSizePolicy, RoundRobinPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.sim import FaultPlan

GOLDEN = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule.json"
GOLDEN_SHARDS2 = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule_shards2.json"


def _kernel(name, directions):
    """A kernel whose parameter directions are fixed per position."""
    def access_fn(args):
        return [ArrayAccess(a, d) for a, d in zip(args, directions)
                if hasattr(a, "buffer_id")]
    return KernelSpec(name, flops_per_byte=2.0, access_fn=access_fn)


def drive(rt: GroutRuntime) -> None:
    """A deterministic program exercising every scheduling phase.

    Host writes (controller CEs), a shared read-only input consumed by a
    fan of kernels (broadcast-shaped replication), a RAW/WAW chain on one
    buffer (coherence invalidations + P2P), a user-directed prefetch and
    closing host reads — all with explicit labels so the recorded spans
    never depend on global CE-id numbering.
    """
    shared = rt.device_array(8, np.float32, virtual_nbytes=48 * MIB,
                             name="g.shared")
    accum = rt.device_array(8, np.float32, virtual_nbytes=32 * MIB,
                            name="g.accum")
    outs = [rt.device_array(8, np.float32, virtual_nbytes=16 * MIB,
                            name=f"g.out{i}") for i in range(3)]
    rt.host_write(shared, lambda: shared.data.fill(1.0),
                  label="g.init_shared")
    rt.host_write(accum, lambda: accum.data.fill(0.0),
                  label="g.init_accum")

    fan = _kernel("fan", (Direction.IN, Direction.OUT))
    for i, out in enumerate(outs):
        rt.launch(fan, 8, 128, (shared, out), label=f"g.fan{i}")

    chain = _kernel("chain", (Direction.INOUT, Direction.IN))
    for i, out in enumerate(outs):
        rt.launch(chain, 8, 128, (accum, out), label=f"g.chain{i}")

    rt.prefetch(shared, worker="worker1", label="g.prefetch")
    tail = _kernel("tail", (Direction.IN, Direction.INOUT))
    rt.launch(tail, 8, 128, (shared, accum), label="g.tail")

    rt.host_read(accum, label="g.read_accum")
    rt.host_read(outs[0], label="g.read_out0")
    rt.sync()


def run_scenario(policy_factory, faults=None, **runtime_kwargs):
    """Run :func:`drive` and return its serialized event schedule.

    ``faults`` is a ``--faults`` spec armed before the first CE.  Besides
    the spans and the end time the schedule records ``events``, the
    engine's delivery count, so a change that keeps every span but adds
    or drops a hop still shows.
    """
    cluster = paper_cluster(3, gpu_spec=TEST_GPU_1GB)
    rt = GroutRuntime(cluster, policy=policy_factory(), **runtime_kwargs)
    try:
        if faults is not None:
            rt.install_faults(FaultPlan.parse(faults))
        drive(rt)
        spans = [[s.lane, s.category, s.name, s.start, s.end]
                 for s in rt.tracer.spans]
        return {"spans": spans, "elapsed": rt.engine.now,
                "events": rt.engine.events_processed}
    finally:
        rt.shutdown()


#: Flakes, a degraded link and a crash of a source node mid-run: moves
#: retry, re-source around the dead worker, and moves into it die.
FAULTS = ("flake@0.028280*2,degrade:worker1-worker2@0.056560x0.5,"
          "crash:worker0@0.113119")
#: Three flakes in a row exhaust one transfer's attempts; the move is
#: rescued from another source.
RESCUE = "flake@0.282798*3"
#: Three flakes on the worker1->worker2 edge exhaust one chunk of
#: ``g.shared``'s relay leg to worker2: the leg is re-sourced once,
#: around worker1.
LEG_RESCUE = "flake:worker1-worker2@0.1*3"

SCENARIOS = {
    "round-robin": lambda: run_scenario(RoundRobinPolicy),
    "min-transfer-size": lambda: run_scenario(MinTransferSizePolicy),
    "round-robin+collectives": lambda: run_scenario(
        RoundRobinPolicy, collectives=True, chunk_bytes=8 * MIB),
    "round-robin+faults": lambda: run_scenario(
        RoundRobinPolicy, faults=FAULTS),
    "round-robin+collectives+faults": lambda: run_scenario(
        RoundRobinPolicy, faults=FAULTS, collectives=True,
        chunk_bytes=8 * MIB),
    "round-robin+rescue": lambda: run_scenario(
        RoundRobinPolicy, faults=RESCUE),
    "round-robin+collectives+rescue": lambda: run_scenario(
        RoundRobinPolicy, faults=RESCUE, collectives=True,
        chunk_bytes=8 * MIB),
    "round-robin+collectives+leg-rescue": lambda: run_scenario(
        RoundRobinPolicy, faults=LEG_RESCUE, collectives=True,
        chunk_bytes=8 * MIB),
}


#: Sharded-mode scenarios pin their *own* golden: the conservative
#: exchange quantises cross-process starts to window barriers, so the
#: trace legitimately differs from the in-process schedule — but it must
#: stay deterministic, run to run and commit to commit.  (Collectives
#: are guarded off in shard mode, hence the smaller scenario set.)
SHARDED_SCENARIOS = {
    "round-robin+shards2": lambda: run_scenario(
        RoundRobinPolicy, shards=2),
    "min-transfer-size+shards2": lambda: run_scenario(
        MinTransferSizePolicy, shards=2),
}


def capture() -> dict:
    return {name: build() for name, build in SCENARIOS.items()}


def capture_sharded() -> dict:
    return {name: build() for name, build in SHARDED_SCENARIOS.items()}


def _assert_matches(golden: dict, current: dict) -> None:
    assert set(current) == set(golden)
    for name in golden:
        got, want = current[name], golden[name]
        assert got["elapsed"] == want["elapsed"], (
            f"{name}: simulated end time drifted "
            f"({got['elapsed']} != {want['elapsed']})")
        assert got["events"] == want["events"], (
            f"{name}: engine deliveries changed "
            f"({got['events']} != {want['events']})")
        assert len(got["spans"]) == len(want["spans"]), (
            f"{name}: span count changed "
            f"({len(got['spans'])} != {len(want['spans'])})")
        for i, (g, w) in enumerate(zip(got["spans"], want["spans"])):
            assert g == w, f"{name}: span {i} drifted: {g} != {w}"


def test_schedule_is_byte_identical_to_golden():
    _assert_matches(json.loads(GOLDEN.read_text()), capture())


def test_sharded_schedule_matches_pinned_golden():
    _assert_matches(json.loads(GOLDEN_SHARDS2.read_text()),
                    capture_sharded())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"golden schedule written to {GOLDEN}")
    GOLDEN_SHARDS2.write_text(json.dumps(capture_sharded(), indent=1)
                              + "\n")
    print(f"sharded golden schedule written to {GOLDEN_SHARDS2}")
