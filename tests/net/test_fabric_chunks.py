"""Unit tests of the fabric's chunk pipelining (``chunk_bytes`` and
relay ``chunk`` transfers)."""

import pytest

from repro.net import Fabric, uniform_topology
from repro.net.fabric import RetryPolicy, TransferError
from repro.sim import Engine, Tracer

GB = 10**9


@pytest.fixture
def setup():
    engine = Engine()
    topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
    tracer = Tracer()
    return engine, Fabric(engine, topo, tracer=tracer), tracer


class TestChunkSizes:
    def test_exact_split(self, setup):
        _, fabric, _ = setup
        assert fabric.chunk_sizes(8, 4) == [4, 4]

    def test_remainder_tail(self, setup):
        _, fabric, _ = setup
        assert fabric.chunk_sizes(10, 4) == [4, 4, 2]

    def test_payload_below_chunk_is_one_granule(self, setup):
        _, fabric, _ = setup
        assert fabric.chunk_sizes(3, 4) == [3]

    def test_no_chunking_is_one_granule(self, setup):
        _, fabric, _ = setup
        assert fabric.chunk_sizes(10) == [10]

    def test_zero_bytes_is_empty(self, setup):
        _, fabric, _ = setup
        assert fabric.chunk_sizes(0, 4) == []

    def test_fabric_default_used(self):
        engine = Engine()
        fabric = Fabric(engine, uniform_topology(["a", "b"], 1e9),
                        chunk_bytes=4)
        assert fabric.chunk_sizes(10) == [4, 4, 2]

    def test_invalid_chunk_bytes_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            Fabric(engine, uniform_topology(["a", "b"], 1e9),
                   chunk_bytes=0)


class TestChunkedTransfers:
    def test_same_wall_time_on_one_link(self, setup):
        # Chunks of one flow on one link serialise back to the exact
        # monolithic wire time (no fragmentation overhead is modeled).
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", GB, chunk_bytes=GB // 4)
        engine.run()
        assert engine.now == pytest.approx(1.0)
        assert done.value == pytest.approx(1.0)

    def test_chunk_and_transfer_counters(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", GB, chunk_bytes=GB // 4)
        engine.run()
        assert fabric.chunk_count == 4
        assert fabric.transfer_count == 1     # one *logical* transfer
        assert fabric.bytes_moved == GB

    def test_chunk_spans_carry_index(self, setup):
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", 100, label="x", chunk_bytes=40)
        engine.run()
        spans = tracer.by_category("chunk")
        assert [s.meta["chunk"] for s in spans] == [0, 1, 2]
        assert [s.meta["nbytes"] for s in spans] == [40, 40, 20]
        assert not tracer.by_category("transfer")

    def test_default_off_emits_no_chunk_spans(self, setup):
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", 100)
        engine.run()
        assert not tracer.by_category("chunk")
        assert fabric.chunk_count == 0

    def test_flaked_chunk_resends_only_itself(self):
        # A mid-wire flake costs half of *one chunk* plus its re-send —
        # not a whole-payload re-send.
        def run(chunk_bytes):
            engine = Engine()
            fabric = Fabric(engine,
                            uniform_topology(["a", "b"], 1e9, latency=0.0),
                            retry=RetryPolicy(backoff_base=0.05))
            fabric.inject_flake(src="a", dst="b")
            fabric.transfer("a", "b", GB, chunk_bytes=chunk_bytes)
            engine.run()
            return engine.now, fabric

        whole_time, whole = run(None)
        chunk_time, chunked = run(GB // 4)
        # whole: 0.5 flaked half + 0.05 backoff + 1.0 re-send = 1.55
        assert whole_time == pytest.approx(1.55)
        # chunked: 0.125 flaked half-chunk + 0.05 + 0.25 re-send + 3*0.25
        assert chunk_time == pytest.approx(1.175)
        assert chunk_time < whole_time
        assert chunked.chunk_retry_count == 1
        assert chunked.retry_count == 1
        assert whole.chunk_retry_count == 0

    def test_watchdog_bounds_per_chunk_stall(self):
        # A per-attempt timeout shorter than the whole payload but longer
        # than one chunk kills the monolithic transfer yet passes the
        # chunked one — the watchdog now bounds *chunk* stalls.
        def run(chunk_bytes):
            engine = Engine()
            fabric = Fabric(engine,
                            uniform_topology(["a", "b"], 1e9, latency=0.0),
                            retry=RetryPolicy(max_attempts=2,
                                              attempt_timeout=0.4))
            done = fabric.transfer("a", "b", GB, chunk_bytes=chunk_bytes)
            try:
                engine.run()
            except TransferError:
                pass        # an unwaited-on failed transfer re-raises
            return done, fabric

        whole, whole_fabric = run(None)
        assert not whole.ok
        assert isinstance(whole.value, TransferError)
        assert whole_fabric.timeout_count >= 1
        chunked, chunked_fabric = run(GB // 4)
        assert chunked.ok
        assert chunked_fabric.timeout_count == 0

    def test_nic_slots_released_after_chunk_failure(self, setup):
        engine, fabric, _ = setup
        fabric = Fabric(engine, fabric.topology,
                        retry=RetryPolicy(max_attempts=1))
        fabric.inject_flake(src="a", dst="b")
        failed = fabric.transfer("a", "b", GB, chunk_bytes=GB // 4)
        with pytest.raises(TransferError):
            engine.run()
        assert not failed.ok
        for res in list(fabric._egress.values()) \
                + list(fabric._ingress.values()):
            assert res.count == 0 and res.queue_length == 0
        # The link is immediately reusable at full speed.
        before = engine.now
        fabric.transfer("a", "b", GB)
        engine.run()
        assert engine.now - before == pytest.approx(1.0)

    def test_chunks_interleave_between_flows(self, setup):
        # Two chunked flows out of the same egress NIC re-arbitrate per
        # chunk: both finish together instead of strictly one-then-other.
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", GB, label="f1", chunk_bytes=GB // 4)
        fabric.transfer("a", "c", GB, label="f2", chunk_bytes=GB // 4)
        engine.run()
        assert engine.now == pytest.approx(2.0)
        by_flow = {}
        for span in tracer.by_category("chunk"):
            by_flow.setdefault(span.name.split("#")[0], []).append(span)
        ends = {flow: max(s.end for s in spans)
                for flow, spans in by_flow.items()}
        # Strict serialisation would finish f1 at 1.0; interleaving makes
        # both flows' last chunks land in the final arbitration rounds.
        assert min(ends.values()) > 1.0

    def test_relay_chunk_zero_or_loopback(self, setup):
        # Nothing crosses the wire: the event is born processed, so a
        # process yielding it continues without a delivery.
        engine, fabric, _ = setup
        loop = fabric.transfer("a", "a", GB, "x", chunk=0)
        empty = fabric.transfer("a", "b", 0, "x", chunk=0)
        assert loop.processed and empty.processed
        engine.run()
        assert loop.value == 0.0 and empty.value == 0.0
        assert engine.now == 0.0 and engine.events_processed == 0

    def test_relay_chunk_counts_no_transfer(self, setup):
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", GB // 4, "x", chunk=2)
        engine.run()
        assert fabric.chunk_count == 1 and fabric.transfer_count == 0
        (span,) = tracer.by_category("chunk")
        assert span.name == "x#c2" and span.meta["chunk"] == 2
