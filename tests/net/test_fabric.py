"""Unit tests of the contended transfer fabric."""

import pytest

from repro.net import Fabric, NicSpec, Topology, uniform_topology
from repro.net.fabric import RetryPolicy, TransferError
from repro.sim import Engine, Tracer


@pytest.fixture
def setup():
    engine = Engine()
    topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
    tracer = Tracer()
    return engine, Fabric(engine, topo, tracer=tracer), tracer


class TestTransfers:
    def test_wire_time_matches_topology(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", 500_000_000)
        engine.run()
        assert done.value == pytest.approx(0.5)
        assert engine.now == pytest.approx(0.5)

    def test_zero_bytes_instant(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", 0)
        engine.run()
        assert done.value == 0.0 and engine.now == 0.0

    def test_same_node_instant(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "a", 10**9)
        engine.run()
        assert done.value == 0.0

    def test_negative_bytes_rejected(self, setup):
        _, fabric, _ = setup
        with pytest.raises(ValueError):
            fabric.transfer("a", "b", -1)

    def test_stats_accumulate(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 100)
        fabric.transfer("b", "c", 200)
        engine.run()
        assert fabric.bytes_moved == 300
        assert fabric.transfer_count == 2

    def test_spans_carry_nbytes(self, setup):
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", 123, label="payload")
        engine.run()
        span = tracer.by_category("transfer")[0]
        assert span.meta["nbytes"] == 123
        assert span.lane == "net:a->b"


class TestContention:
    def test_same_ingress_serialises(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("c", "b", 10**9)
        engine.run()
        assert engine.now == pytest.approx(2.0)

    def test_same_egress_serialises(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("a", "c", 10**9)
        engine.run()
        assert engine.now == pytest.approx(2.0)

    def test_disjoint_pairs_parallel(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("c", "a", 10**9)   # different tx and rx ends
        engine.run()
        assert engine.now == pytest.approx(1.0)

    def test_multi_flow_nic_feeds_two_destinations(self):
        """The paper controller NIC: 2 flows at full pair rate."""
        engine = Engine()
        topo = Topology()
        topo.add_node("hub", NicSpec(2e9, latency=0.0, max_flows=2))
        topo.add_node("w0", NicSpec(1e9, latency=0.0))
        topo.add_node("w1", NicSpec(1e9, latency=0.0))
        fabric = Fabric(engine, topo)
        fabric.transfer("hub", "w0", 10**9)
        fabric.transfer("hub", "w1", 10**9)
        engine.run()
        assert engine.now == pytest.approx(1.0)

    def test_no_head_of_line_blocking(self):
        """Two queued flows to a busy destination must not starve a flow
        to an idle destination (regression for the egress/ingress order)."""
        engine = Engine()
        topo = Topology()
        topo.add_node("hub", NicSpec(2e9, latency=0.0, max_flows=2))
        topo.add_node("w0", NicSpec(1e9, latency=0.0))
        topo.add_node("w1", NicSpec(1e9, latency=0.0))
        fabric = Fabric(engine, topo)
        fabric.transfer("hub", "w0", 10**9)
        fabric.transfer("hub", "w0", 10**9)    # queues on w0 ingress
        done = fabric.transfer("hub", "w1", 10**9)
        engine.run(until=done)
        assert engine.now == pytest.approx(1.0)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.attempt_timeout is None

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)


class TestFaults:
    def test_flake_retries_and_completes(self, setup):
        """Flaked attempt burns half the wire, backs off, then succeeds:
        0.5 (half wire) + 0.05 (backoff) + 1.0 (clean wire) = 1.55 s."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        done = fabric.transfer("a", "b", 10**9)
        engine.run()
        assert done.value == pytest.approx(1.0)   # wire time, not queueing
        assert engine.now == pytest.approx(1.55)
        assert fabric.retry_count == 1
        assert fabric.transfer_count == 1
        assert fabric.bytes_moved == 10**9
        assert fabric.failure_count == 0

    def test_flake_armed_after_start_retries(self, setup):
        """A flake armed while a transfer already waits on its NIC
        grants hits it like one armed before: same 1.55 s retry."""
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", 10**9)
        engine.step()                 # the transfer holds b's ingress
        fabric.inject_flake(src="a", dst="b")
        engine.run()
        assert done.value == pytest.approx(1.0)
        assert engine.now == pytest.approx(1.55)
        assert fabric.retry_count == 1
        assert fabric.transfer_count == 1

    def test_retry_span_recorded(self, setup):
        engine, fabric, tracer = setup
        fabric.inject_flake()
        fabric.transfer("a", "b", 10**9, label="payload")
        engine.run()
        (span,) = tracer.by_category("retry")
        assert span.name == "payload#retry1"
        assert span.meta["attempt"] == 1
        assert span.meta["backoff"] == pytest.approx(0.05)

    def test_exhausted_retries_raise(self, setup):
        """Three flakes beat max_attempts=3; the failed transfer event,
        waited on by nobody, aborts the engine run with TransferError."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b", count=3)
        fabric.transfer("a", "b", 10**9)
        with pytest.raises(TransferError):
            engine.run()
        assert fabric.failure_count == 1
        assert fabric.retry_count == 2
        assert fabric.transfer_count == 0

    def test_flake_wildcard_matches_any_edge(self, setup):
        engine, fabric, _ = setup
        fabric.inject_flake()                    # no src/dst filter
        fabric.transfer("b", "c", 10**9)
        engine.run()
        assert fabric.retry_count == 1

    def test_flake_filter_skips_other_edges(self, setup):
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        fabric.transfer("b", "c", 10**9)         # does not match
        engine.run()
        assert fabric.retry_count == 0
        assert engine.now == pytest.approx(1.0)

    def test_flake_count_validated(self, setup):
        _, fabric, _ = setup
        with pytest.raises(ValueError):
            fabric.inject_flake(count=0)

    def test_flake_releases_nic_slots(self, setup):
        """Regression: a flaked attempt must release both NIC ends so a
        queued transfer starts immediately — and so the retry itself can
        re-acquire them."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        fabric.transfer("a", "b", 10**9)         # flake at 0.5, done 1.55
        done = fabric.transfer("c", "b", 10**9)  # queued on b's ingress
        engine.run(until=done)
        # The queued flow starts when the flake dies at 0.5 — not at
        # 1.55 when the retry finishes (which would mean a leaked slot).
        assert engine.now == pytest.approx(1.5)

    def test_watchdog_times_out_stalled_attempt(self):
        """A transfer stuck behind a hogged ingress is killed by the
        per-attempt watchdog, retries, and eventually goes through."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=1.2,
                                          backoff_base=0.05))
        fabric.transfer("a", "b", 10**9)          # holds b's ingress 1.0 s
        done = fabric.transfer("c", "b", 10**9)   # queued: times out at 1.2
        engine.run(until=done)
        assert fabric.timeout_count >= 1
        assert fabric.retry_count >= 1
        assert fabric.transfer_count == 2

    def test_watchdog_fires_while_queued(self):
        """An attempt still queued for a NIC grant when its watchdog
        fires leaves the queue and retries; three such timeouts exhaust
        the transfer."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=0.5,
                                          backoff_base=0.05))
        busy = fabric._ingress["b"].request()     # b's only ingress slot
        fabric.transfer("c", "b", 10**9)
        with pytest.raises(TransferError):
            engine.run()
        # 0.5 queued + 0.05 backoff + 0.5 + 0.1 backoff + 0.5.
        assert engine.now == pytest.approx(1.65)
        assert (fabric.timeout_count, fabric.retry_count,
                fabric.failure_count) == (3, 2, 1)
        assert fabric._ingress["b"].queue_length == 0
        fabric._ingress["b"].release(busy)
        assert fabric._ingress["b"].count == 0

    def test_completed_transfer_cancels_watchdog(self):
        """Regression: a finished attempt must cancel its watchdog Timeout.
        A stale watchdog used to sit in the queue until its horizon, so a
        drain-mode ``run()`` ended at the timeout instead of the transfer."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=30.0))
        done = fabric.transfer("a", "b", 10**9)   # 1.0 s wire
        engine.run()                              # drain the whole queue
        assert done.value == pytest.approx(1.0)
        assert engine.now == pytest.approx(1.0)   # not 30.0
        assert fabric.timeout_count == 0

    def test_failed_attempt_cancels_watchdog(self, setup):
        """The flake/retry path must cancel the per-attempt watchdog too:
        after the retried transfer completes, drain ends at its end-time."""
        engine, fabric, _ = setup
        fabric.retry = RetryPolicy(attempt_timeout=30.0, backoff_base=0.05)
        fabric.inject_flake(src="a", dst="b")
        done = fabric.transfer("a", "b", 10**9)
        engine.run()
        assert done.value == pytest.approx(1.0)
        # 0.5 flaked half-wire + 0.05 backoff + 1.0 clean wire.
        assert engine.now == pytest.approx(1.55)
        assert fabric.retry_count == 1

    def test_watchdog_disabled_by_default(self, setup):
        """Long transfers are fine with the default policy (no timeout)."""
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 5 * 10**9)      # 5 s wire
        engine.run()
        assert fabric.timeout_count == 0
        assert fabric.transfer_count == 1

    def test_cancelled_transfer_releases_slots(self, setup):
        """Regression for the NIC-slot leak: cancelling a transfer
        mid-wire must free both ends for the next flow."""
        engine, fabric, _ = setup
        victim = fabric.transfer("a", "b", 10**9)
        follower = fabric.transfer("c", "b", 10**9)   # queued on b ingress

        engine.schedule_call(0.25, victim.cancel, "test cancel")
        engine.run(until=follower)
        # Victim dies at 0.25; follower then runs 0.25..1.25.  A leaked
        # ingress slot would block the follower forever.
        assert engine.now == pytest.approx(1.25)
        assert fabric.transfer_count == 1
