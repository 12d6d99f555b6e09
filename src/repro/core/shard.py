"""Sharded simulation — conservative-window parallel DES across processes.

Single-process simulation hits a wall at million-CE scale: every worker
kernel is an event on *one* Python event loop, so wall-clock cost is the
sum of every node's event count and the live object graph of the whole
run sits in one heap.  Shard mode splits the cluster along its natural
seam — the worker nodes — into N OS processes ("shards"), each running
its own :class:`~repro.sim.Engine` plus the real
:class:`~repro.core.intranode.IntraNodeScheduler` replicas of its nodes,
while the controller process keeps everything Algorithm 1 owns: the
Global DAG, the directory, the policies, the fabric and every host-side
CE.

The synchronisation protocol is classic conservative parallel DES with
the controller→worker dispatch as the lookahead edge:

* Simulated time advances in **windows** ``(H_{k-1}, H_k]`` over a
  shared barrier grid (default width :data:`DEFAULT_WINDOW`).
* Each round, the **shards run first**: they receive the ops the
  controller released at the previous barrier, execute their engines up
  to ``H_k``, and report every completion at its *exact* simulated time.
* The **controller runs second**, one window behind perfect knowledge:
  reported completions are re-injected as events at their exact times,
  so WAR/RAW waits, directory producers and host reads all resolve on
  the true timeline.
* A CE whose controller-side waits (ancestor completions, replication
  transfers, link latency, fair-share throttles) resolve at time
  ``t ≤ H_k`` is **released at the barrier**: it ships to its shard in
  the next round and may not start before ``H_k``.  That quantisation
  is the conservative lookahead — a shard never needs to roll back,
  because everything that can reach it in window ``k+1`` is known by
  the end of window ``k``.

Cross-shard dependencies therefore cost at most one window of simulated
latency; same-node chains are exact (the shard's own intra-node
scheduler orders them through its Local DAG and stream FIFOs, just as
in-process).  Simulated makespans are a *quantised upper bound* of the
default mode's — shard mode trades exact timing for parallel wall-clock
and bounded memory, and is therefore **off by default**: with
``shards=None`` none of this module is imported and the event schedule
stays byte-identical to the golden trace.

Memory is bounded by **backpressure**: the coordinator caps the number
of in-flight (shipped-or-waiting) CEs; an eager submission loop past the
cap pumps exchange rounds until the backlog drains, which also lets the
controller's periodic DAG/directory prunes actually fire instead of
being starved by a build phase that never runs the engine.

Unsupported in shard mode (guarded with explicit errors): fault
injection / worker crash recovery, autoscaling, collectives, kernels
with host ``executor``/``flops_fn`` callables (they cannot cross the
process boundary), and ``advise``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import traceback
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim import Event, SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement
    from repro.core.controller import Controller

__all__ = ["ShardCoordinator", "ShardWorkerProxy", "DEFAULT_WINDOW",
           "DEFAULT_MAX_OUTSTANDING"]

#: Barrier-grid width in simulated seconds.  Wide enough that a typical
#: kernel epoch fits in a couple of windows, small enough that the
#: quantisation error stays far below the makespans the benchmarks
#: report.
DEFAULT_WINDOW = 1e-3

#: Backpressure cap on in-flight CEs (shipped to a shard or waiting on
#: controller-side events).  Past it, submission pumps exchange rounds —
#: this is what bounds the controller's live DAG, pending lists and CE
#: graph at million-CE scale.
DEFAULT_MAX_OUTSTANDING = 4096


# -- wire encoding --------------------------------------------------------------
#
# Only plain tuples of ints/floats/strings cross the Pipe: CEs are
# flattened to descriptors, arrays to (id, shape, dtype, bytes, name)
# specs shipped once per shard, kernel callables are banned (guarded).

def _encode_arg(arg):
    from repro.core.arrays import ManagedArray
    if isinstance(arg, ManagedArray):
        return ("a", arg.buffer_id)
    if arg is None or isinstance(arg, (bool, int, float, str)):
        return ("v", arg)
    raise SimError(
        f"shard mode cannot ship kernel argument {arg!r} "
        f"({type(arg).__name__}) across the process boundary; pass "
        "managed arrays and plain scalars only")


def _encode_ce(ce: "ComputationalElement"):
    kernel = None
    if ce.kernel is not None:
        kernel = (ce.kernel.name, ce.kernel.flops_per_byte)
    config = None
    if ce.config is not None:
        config = (ce.config.grid, ce.config.block)
    accesses = tuple(
        (a.buffer.buffer_id, a.direction.name, a.pattern.value,
         a.fraction, a.passes)
        for a in ce.accesses)
    return (ce.ce_id, ce.kind.value, ce.label, kernel, config,
            tuple(_encode_arg(a) for a in ce.args), accesses,
            ce.session, ce.session_seq)


def _array_spec(array: "ManagedArray"):
    return (array.buffer_id, array.shape, array.dtype.str,
            array.nbytes, array.name)


def _decode_ce(enc, arrays: dict):
    from repro.gpu.kernel import (AccessPattern, ArrayAccess, Direction,
                                  KernelSpec, LaunchConfig)
    from repro.core.ce import CeKind, ComputationalElement
    (ce_id, kind, label, kernel, config, args, accesses,
     session, session_seq) = enc
    return ComputationalElement(
        kind=CeKind(kind),
        accesses=tuple(
            ArrayAccess(arrays[bid], Direction[direction],
                        AccessPattern(pattern), fraction, passes)
            for bid, direction, pattern, fraction, passes in accesses),
        kernel=KernelSpec(kernel[0], flops_per_byte=kernel[1])
        if kernel is not None else None,
        config=LaunchConfig(tuple(config[0]), tuple(config[1]))
        if config is not None else None,
        args=tuple(arrays[v] if tag == "a" else v for tag, v in args),
        label=label,
        ce_id=ce_id,
        session=session,
        session_seq=session_seq,
    )


def _make_replica(spec) -> "ManagedArray":
    """Rebuild a managed array shard-side, pinning the controller's
    buffer id so Local-DAG/UVM keys agree with the shipped accesses."""
    from repro.core.arrays import ManagedArray
    buffer_id, shape, dtype, nbytes, name = spec
    array = ManagedArray.__new__(ManagedArray)
    array.data = np.zeros(shape, dtype=np.dtype(dtype))
    array._virtual_nbytes = int(nbytes)
    array.buffer_id = buffer_id
    array.name = name
    return array


# -- the shard process -----------------------------------------------------------

def _shard_main(conn, workers, uvm_params, prefetch, eviction_order,
                max_streams_per_gpu, uvm_backend=None):
    """One shard: a private engine driving real intra-node schedulers.

    ``workers`` is ``[(name, NodeSpec, seed), ...]`` — the replicas are
    built exactly as :class:`~repro.cluster.cluster.Cluster` would have
    built the in-process nodes (same specs, same per-node seeds), so a
    shard prices kernels identically to the single-process build.
    """
    import gc

    from repro.sim import Engine
    from repro.cluster.node import Node
    from repro.core.intranode import IntraNodeScheduler

    # This process exists only to run the shard; its hot-path objects
    # (events, stream ops, replicas) are refcount-managed and the
    # backpressured exchange bounds the live set, so the default gen0
    # threshold (700 allocations) just rescans a stable graph over and
    # over.  Relaxing it is worth ~10% wall-clock at million-CE scale
    # with no measured RSS change.
    gc.set_threshold(1_000_000, 100, 100)

    engine = Engine()
    schedulers = {}
    for name, spec, seed in workers:
        node = Node(engine, name, spec, tracer=None, uvm_params=uvm_params,
                    prefetch=prefetch, eviction_order=eviction_order,
                    seed=seed, uvm_backend=uvm_backend)
        schedulers[name] = IntraNodeScheduler(
            node, max_streams_per_gpu=max_streams_per_gpu,
            metrics=None, profiler=None)

    arrays: dict[int, object] = {}
    completions: list[tuple[int, float]] = []

    def note_done(ce_id):
        def hook(_event, _ce_id=ce_id):
            completions.append((_ce_id, engine.now))
        return hook

    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "stop":
                break
            if tag == "tick":
                # Payload-free round: just advance the window.  The
                # compact message keeps idle/drain rounds (the common
                # case late in a run) off the full pickling path.
                _tag, start, horizon = msg
                new_arrays: tuple = ()
                coherence: tuple = ()
                ops: tuple = ()
            else:
                _tag, start, horizon, new_arrays, coherence, ops = msg
            for spec in new_arrays:
                arrays[spec[0]] = _make_replica(spec)
            # Replay schedule-time UVM bookkeeping in controller issue
            # order; ops re-register their own arrays at execution time
            # (exactly like the in-process scheduler), so an "inv" that
            # races a queued kernel cannot strip its registrations.
            for kind, node_name, payload in coherence:
                scheduler = schedulers[node_name]
                if kind == "reg":
                    uvm = scheduler.node.uvm
                    for buffer_id in payload:
                        replica = arrays.get(buffer_id)
                        if replica is not None:
                            uvm.register(replica)
                else:
                    replica = arrays.get(payload)
                    if replica is not None:
                        scheduler.drop_replica(replica)
            if ops:
                # Barrier gate: released ops may not start before the
                # window opens, even when this shard's clock lags behind
                # (a drained queue leaves it at the last event).
                gate = engine.timeout(max(0.0, start - engine.now),
                                      name=f"barrier@{start:g}")
                for node_name, enc in ops:
                    ce = _decode_ce(enc, arrays)
                    done = schedulers[node_name].submit(ce, (gate,))
                    done.callbacks.append(note_done(ce.ce_id))
            engine.run(until=horizon)
            conn.send(("ok", completions, engine.events_processed,
                       engine.peek()))
            completions = []
    except Exception:  # pragma: no cover - surfaced controller-side
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


# -- controller side -------------------------------------------------------------

class ShardWorkerProxy:
    """Stands in for one worker's :class:`IntraNodeScheduler` in
    ``controller.workers`` when the node actually lives in a shard."""

    __slots__ = ("coordinator", "name")

    def __init__(self, coordinator: "ShardCoordinator", name: str):
        self.coordinator = coordinator
        self.name = name

    def submit(self, ce: "ComputationalElement",
               waits: Sequence[Event] = (), *,
               fresh_stream: bool = False) -> Event:
        """Forward one CE to the coordinator for cross-process dispatch."""
        if fresh_stream:
            raise SimError("crash re-execution is not supported in shard "
                           "mode (fault injection is guarded off)")
        return self.coordinator.submit(self.name, ce, waits)

    def drop_replica(self, array: "ManagedArray") -> None:
        """Queue a replica invalidation for delivery at the next barrier."""
        self.coordinator.queue_invalidate(self.name, array)

    def writeback_seconds(self, array: "ManagedArray") -> float:
        """Price the pre-ship dirty-page flush (always ``0.0`` here)."""
        # The P2P mover asks the source node to flush dirty pages before
        # shipping.  A shard replica's page state lives across the
        # process boundary; shard mode prices the flush at zero — one of
        # the documented timing approximations of the sharded protocol.
        return 0.0

    def __repr__(self) -> str:
        return f"<ShardWorkerProxy {self.name!r}>"


class _Shard:
    """Controller-side handle of one shard process."""

    __slots__ = ("shard_id", "workers", "conn", "process", "outbox",
                 "coherence", "new_arrays", "shipped", "peek",
                 "events_processed")

    def __init__(self, shard_id: int, workers: list):
        self.shard_id = shard_id
        self.workers = workers           # [(name, spec, seed), ...]
        self.conn = None
        self.process = None
        self.outbox: list = []           # [(node_name, encoded_ce)]
        #: Ordered registration/invalidation stream:
        #: ("reg", node, buffer_ids) | ("inv", node, buffer_id).  Issue
        #: order matters — the single-process build applies both eagerly
        #: at schedule time, and UVM footprints only stay bounded when
        #: the shard replays them in the same sequence.
        self.coherence: list = []
        self.new_arrays: list = []       # array specs, first ship only
        self.shipped: set[int] = set()   # buffer ids known to the shard
        self.peek = float("inf")
        self.events_processed = 0


class ShardCoordinator:
    """Drives N shard processes through conservative exchange windows."""

    def __init__(self, controller: "Controller", shards: int, *,
                 window: float = DEFAULT_WINDOW):
        # ``shards`` and ``window`` come from a validated RuntimeConfig;
        # only the split depends on the cluster.
        cluster = controller.cluster
        if shards > len(cluster.workers):
            raise ValueError(
                f"cannot split {len(cluster.workers)} worker(s) into "
                f"{shards} shards")
        self.controller = controller
        self.engine = controller.engine
        self.window = float(window)
        self.max_outstanding = DEFAULT_MAX_OUTSTANDING
        self.rounds = 0
        self._horizon = self.engine.now
        #: (start, horizon) of the round the shards are computing right
        #: now — its replies are received at the start of the *next*
        #: round (pipelined exchange), or by :meth:`_settle`.
        self._inflight: tuple[float, float] | None = None
        self._pumping = False
        self._started = False
        #: ce_id -> (done event, node name) of every in-flight CE.
        self._live: dict[int, tuple[Event, str]] = {}
        self._shard_of: dict[str, _Shard] = {}
        # Round-robin partition so round-robin placement spreads load
        # evenly across shard processes.
        seed = cluster._seed
        self._shards = [
            _Shard(s, [(node.name, node.spec, seed + 1 + i)
                       for i, node in enumerate(cluster.workers)
                       if i % shards == s])
            for s in range(shards)
        ]
        for shard in self._shards:
            for name, _spec, _seed in shard.workers:
                self._shard_of[name] = shard
        metrics = controller.metrics
        self._m_rounds = metrics.family("grout_shard_rounds_total").labels()
        self._m_horizon = metrics.family(
            "grout_shard_horizon_seconds").labels()
        self._m_outstanding = metrics.family(
            "grout_shard_outstanding").labels()
        self._m_shipped = {
            shard.shard_id: metrics.family(
                "grout_shard_ops_shipped_total").labels(
                    shard=str(shard.shard_id))
            for shard in self._shards}
        self._m_completions = {
            shard.shard_id: metrics.family(
                "grout_shard_completions_total").labels(
                    shard=str(shard.shard_id))
            for shard in self._shards}
        self._m_invalidates = metrics.family(
            "grout_shard_invalidates_total").labels()

    # -- structure ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shard processes."""
        return len(self._shards)

    @property
    def outstanding(self) -> int:
        """CEs submitted to shard workers and not yet completed."""
        return len(self._live)

    def proxies(self) -> dict[str, ShardWorkerProxy]:
        """One :class:`ShardWorkerProxy` per worker node, by name."""
        return {name: ShardWorkerProxy(self, name)
                for name in self._shard_of}

    # -- submission (via the proxies) --------------------------------------------

    def submit(self, node_name: str, ce: "ComputationalElement",
               waits: Sequence[Event]) -> Event:
        """Register one CE for its shard; returns the controller-side
        completion event (succeeded at the exact reported time)."""
        kernel = ce.kernel
        if kernel is not None and (kernel.executor is not None
                                   or kernel.flops_fn is not None):
            raise SimError(
                f"kernel {kernel.name!r} carries host callables "
                "(executor/flops_fn); shard mode runs workers in "
                "separate processes and cannot ship them")
        done = self.engine.event(name=f"shard:{ce.display_name}:done")
        self._live[ce.ce_id] = (done, node_name)
        # Mirror the single-process build's *schedule-time* UVM
        # registration: specs ship on first touch and a "reg" command
        # joins the coherence stream now, in issue order — interleaved
        # correctly with the invalidations the movement stage emits for
        # later CEs (shipping registrations only when the op's waits
        # resolve would replay them after those invalidations and leak
        # stale footprints shard-side).
        shard = self._shard_of[node_name]
        reg = []
        for array in ce.arrays:
            bid = array.buffer_id
            if bid not in shard.shipped:
                shard.shipped.add(bid)
                shard.new_arrays.append(_array_spec(array))
            reg.append(bid)
        if reg:
            shard.coherence.append(("reg", node_name, tuple(reg)))
        pending = [w for w in waits if not w.processed]
        if not pending:
            self._ship(node_name, ce)
        else:
            gate = self.engine.all_of(pending)
            gate.callbacks.append(
                lambda _ev, n=node_name, c=ce: self._ship(n, c))
        return done

    def _ship(self, node_name: str, ce: "ComputationalElement") -> None:
        shard = self._shard_of[node_name]
        shard.outbox.append((node_name, _encode_ce(ce)))
        self._m_shipped[shard.shard_id].inc()

    def queue_invalidate(self, node_name: str,
                         array: "ManagedArray") -> None:
        """Forward a coherence invalidation to the owning shard (applied
        at the next window barrier, in issue order relative to the
        schedule-time registrations)."""
        shard = self._shard_of[node_name]
        if array.buffer_id in shard.shipped:
            shard.coherence.append(("inv", node_name, array.buffer_id))
            self._m_invalidates.inc()

    # -- the exchange rounds -----------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        ctx = mp.get_context("fork")
        ctrl = self.controller
        for shard in self._shards:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_main,
                args=(child, shard.workers, ctrl.cluster._uvm_params,
                      ctrl.cluster._prefetch, ctrl.cluster._eviction_order,
                      ctrl._max_streams_per_gpu,
                      # Backends cross the fork by *name* — the wire
                      # protocol and process args stay plain data.
                      ctrl.cluster._uvm_backend),
                daemon=True,
                name=f"grout-shard-{shard.shard_id}")
            proc.start()
            child.close()
            shard.conn, shard.process = parent, proc
        self._started = True

    def _next_horizon(self) -> float:
        now, window = self._horizon, self.window
        base = now + window
        if any(s.outbox or s.coherence for s in self._shards):
            return base
        # Nothing ships this round: fast-forward over the idle gap to
        # the window containing the next event on either side.
        peeks = [s.peek for s in self._shards]
        peeks.append(self.engine.peek())
        nearest = min(peeks)
        if nearest == float("inf") or nearest <= base:
            return base
        return now + window * math.ceil((nearest - now) / window)

    def _settle(self) -> bool:
        """Receive the in-flight round, if any; returns whether anything
        progressed (engine events fired or completions arrived).

        Runs the controller engine up to the in-flight round's *start*
        barrier first — every event there predates the shards' window —
        then delivers the reported completions at their exact simulated
        times (all inside the window, i.e. still in the engine's
        future).  The window's own engine events fire at the next
        settle, once the following barrier is known to be safe.
        """
        if self._inflight is None:
            return False
        start, _horizon = self._inflight
        self._inflight = None
        engine = self.engine
        before = engine.events_processed
        if engine.now < start:
            engine.run(until=start)
        progressed = engine.events_processed > before
        for shard in self._shards:
            reply = shard.conn.recv()
            if reply[0] == "err":  # pragma: no cover - shard crashed
                raise SimError(
                    f"shard {shard.shard_id} died:\n{reply[1]}")
            _tag, completions, events_processed, peek = reply
            shard.peek = peek
            shard.events_processed = events_processed
            if completions:
                progressed = True
                self._m_completions[shard.shard_id].inc(len(completions))
            # One delivery timeout per distinct report time instead of
            # one per CE: wide windows complete many CEs at the same
            # simulated instant, and their done events still fire in
            # report order (succeed() enqueues them in callback order).
            by_time: dict[float, list[Event]] = {}
            for ce_id, at in completions:
                done, _node = self._live.pop(ce_id)
                by_time.setdefault(at, []).append(done)
            for at, dones in by_time.items():
                delay = max(0.0, at - engine.now)
                engine.timeout(delay, name="shard:deliver").callbacks \
                    .append(lambda _ev, ds=dones:
                            [d.succeed(None) for d in ds])
        self._m_outstanding.set(len(self._live))
        return progressed

    def _advance_round(self, cap: float | None = None) -> bool:
        """One pipelined exchange window; returns whether anything
        progressed.

        Receives the previous round first (:meth:`_settle`), then
        immediately dispatches the next window — so the shard processes
        compute window *k+1* while the controller fires window *k*'s
        engine events and builds more work between pump calls.
        """
        self._ensure_started()
        settled = self._settle()
        engine = self.engine
        # run_until's pure-engine path can push the clock past the
        # barrier grid; restart the grid from wherever the clock is.
        start = max(self._horizon, engine.now)
        self._horizon = start
        horizon = self._next_horizon()
        if cap is not None:
            if cap <= start:
                return settled
            horizon = min(horizon, cap)
        self.rounds += 1
        self._m_rounds.inc()
        sent = False
        for shard in self._shards:
            if shard.outbox or shard.coherence or shard.new_arrays:
                shard.conn.send(("round", start, horizon,
                                 shard.new_arrays, shard.coherence,
                                 shard.outbox))
                sent = True
                shard.outbox, shard.coherence, shard.new_arrays = \
                    [], [], []
            else:
                shard.conn.send(("tick", start, horizon))
        self._inflight = (start, horizon)
        self._horizon = horizon
        self._m_horizon.set(horizon)
        self._m_outstanding.set(len(self._live))
        return settled or sent

    def _pump(self, stop) -> None:
        """Run exchange rounds until ``stop()`` says done, guarding
        against protocol deadlocks (no progress on either side)."""
        if self._pumping:
            raise SimError("shard coordinator re-entered while pumping")
        self._pumping = True
        stalled = 0
        try:
            while not stop():
                if self._advance_round():
                    stalled = 0
                    continue
                stalled += 1
                if stalled >= 3 and self._live:
                    waiting = sorted(self._live)[:5]
                    raise SimError(
                        f"shard exchange stalled with "
                        f"{len(self._live)} CE(s) in flight "
                        f"(e.g. ce_ids {waiting}); a controller-side "
                        "wait never resolved")
                if stalled >= 3:
                    return
        finally:
            self._pumping = False

    # -- draining (what the runtime's sync/host_read route through) --------------

    def maybe_pump(self) -> None:
        """Backpressure: pump rounds once too many CEs are in flight."""
        if self._pumping or len(self._live) < self.max_outstanding:
            return
        target = self.max_outstanding // 2
        self._pump(lambda: len(self._live) <= target)

    def run_until(self, event: Event) -> None:
        """Advance windows (and the controller engine) until ``event``
        has been processed."""
        while not event.processed:
            if self._live or any(s.outbox or s.coherence
                                 for s in self._shards):
                self._pump(lambda: event.processed)
            else:
                # Purely controller-side from here on: drain the
                # in-flight round, then let the engine run free.
                self._settle()
                if event.processed:
                    return
                self.engine.run(until=event)

    def run_for(self, horizon: float) -> None:
        """Advance windows until simulated time reaches ``horizon``."""
        self._pump(lambda: self.engine.now >= horizon
                   or (not self._live
                       and not any(s.outbox or s.coherence
                                   for s in self._shards)))
        self._settle()
        if self.engine.now < horizon:
            self.engine.run(until=horizon)
            self._horizon = max(self._horizon, self.engine.now)

    # -- teardown ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the shard processes (idempotent)."""
        if not self._started:
            return
        try:
            self._settle()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
        for shard in self._shards:
            try:
                if shard.conn is not None:
                    shard.conn.send(("stop",))
                    shard.conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            if shard.process is not None:
                shard.process.join(timeout=5)
                if shard.process.is_alive():  # pragma: no cover
                    shard.process.terminate()
            shard.conn = shard.process = None
        self._started = False

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"<ShardCoordinator shards={self.n_shards} "
                f"rounds={self.rounds} live={len(self._live)}>")
