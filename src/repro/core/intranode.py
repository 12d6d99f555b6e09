"""Intra-node scheduling — Algorithm 2, GrCUDA's runtime scheduler [27].

Each worker keeps a **Local DAG** (partial view of the workload), assigns
every incoming CE to a CUDA stream on one of its GPUs, and guards
correctness with async wait-events on ancestor computations.  Stream
assignment follows GrCUDA's heuristic: a CE with a single local parent
inherits the parent's stream (FIFO order already serialises them); anything
else lands on an idle — or failing that, fresh — stream of the least-loaded
GPU, maximising transfer/compute and compute/compute overlap.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.node import Node
from repro.gpu.device import Gpu
from repro.gpu.kernel import KernelLaunch
from repro.gpu.stream import Stream, StreamOp
from repro.obs import CeProfiler, MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Event
from repro.core.ce import CeKind, ComputationalElement
from repro.core.dag import DependencyDag
from repro.uvm.perfmodel import KernelCost

#: Streams a GPU's pool grows to before submits share the shortest
#: queue (crash recovery may open more: :meth:`_fresh_stream`).
MAX_STREAMS_PER_GPU = 4
#: Completions between two sweeps of the local DAG's finished nodes.
PRUNE_EVERY = 64


def _ce_completed(ce: ComputationalElement) -> bool:
    """Prune predicate: the CE's completion event was delivered."""
    done = ce.done
    return done is not None and done.processed


class _CeOp(StreamOp):
    """A CE's stream op, which is also its per-launch record: the
    scheduler, the CE and the GPU.  ``begin`` and ``fin`` are the body's
    steps and ``on_done`` is the completion hook, all methods of this one
    object."""

    __slots__ = ("sched", "ce", "gpu")

    def __init__(self, sched: "IntraNodeScheduler", stream: Stream,
                 ce: ComputationalElement, gpu: Gpu, category: str):
        super().__init__(stream, ce.display_name, category)
        self.sched = sched
        self.ce = ce
        self.gpu = gpu

    def span_args(self) -> dict:
        ce = self.ce
        args: dict = {"ce": ce.ce_id}
        if ce.session is not None:
            args["session"] = ce.session
        return args

    def _record_stall(self) -> None:
        profiler = self.sched.profiler
        if profiler is not None:
            # Time between submission and stream start is stall: FIFO
            # queueing plus ancestor/data waits.
            profiler.record_stall(self.ce, self.started_at - self.enqueued_at,
                                  node=self.sched.node.name)

    def _record_compute(self) -> None:
        profiler = self.sched.profiler
        if profiler is not None:
            profiler.record_compute(self.ce, self.engine.now - self.started_at,
                                    node=self.sched.node.name,
                                    lane=self.stream.lane)


class _KernelOp(_CeOp):
    """A kernel launch: priced at stream start, then the host-link hold
    and the compute sleep."""

    __slots__ = ("load", "cost")

    def __init__(self, sched: "IntraNodeScheduler", stream: Stream,
                 ce: ComputationalElement, gpu: Gpu, load: float):
        super().__init__(sched, stream, ce, gpu, "kernel")
        self.load = load
        self.cost: KernelCost | None = None

    def begin(self) -> None:
        self._record_stall()
        sched = self.sched
        ce = self.ce
        gpu = self.gpu
        uvm = sched.node.uvm
        assert uvm is not None and ce.kernel is not None
        # Parameters register at execution time: a coherence invalidation
        # issued for a *later* CE (program order) must not strip a queued
        # kernel of its own registrations.
        for array in ce.arrays:
            uvm.register(array)
        sched._note_oversubscription()
        cost = self.cost = uvm.price_kernel(gpu, KernelLaunch(
            ce.kernel, ce.config, tuple(ce.args), tuple(ce.accesses)))
        sched._note_uvm_cost(cost)
        totals = sched.kernel_totals.get(ce.kernel.name)
        if totals is None:
            sched.kernel_totals[ce.kernel.name] = [1, cost.duration]
        else:
            totals[0] += 1
            totals[1] += cost.duration
        # The fault/migration phase holds the GPU's host link so that
        # concurrent streams do not each enjoy full PCIe bandwidth.
        link_seconds = cost.migration_seconds + cost.thrash_seconds
        remainder = max(0.0, cost.duration - link_seconds)
        if link_seconds > 0:
            self.hold_then_sleep(gpu.host_link, link_seconds, remainder,
                                 _KernelOp.fin)
        else:
            self.sleep(remainder, _KernelOp.fin)

    def fin(self) -> None:
        ce = self.ce
        assert ce.kernel is not None
        if ce.kernel.executor is not None:
            ce.kernel.executor(*ce.args)
        self.sched._note_launch(self.gpu.gpu_id,
                                self.engine.now - self.started_at)
        self._record_compute()
        self.finish(self.cost)

    def on_done(self, _ev: Event) -> None:
        self.sched._complete(self.gpu.gpu_id, self.load, self.ce)


class _PrefetchOp(_CeOp):
    """``cudaMemPrefetchAsync``: the bulk migration holds the host link."""

    __slots__ = ("seconds",)

    def __init__(self, sched: "IntraNodeScheduler", stream: Stream,
                 ce: ComputationalElement, gpu: Gpu):
        super().__init__(sched, stream, ce, gpu, "prefetch")
        self.seconds = 0.0

    def begin(self) -> None:
        self._record_stall()
        sched = self.sched
        uvm = sched.node.uvm
        assert uvm is not None
        # Re-register as a kernel does: a later CE that writes the array
        # on another node unregistered this replica at schedule time.
        for array in self.ce.arrays:
            uvm.register(array)
        sched._note_oversubscription()
        seconds = self.seconds = sum(uvm.prefetch(self.gpu, array)
                                     for array in self.ce.arrays)
        if seconds > 0:
            self.hold_then_sleep(self.gpu.host_link, seconds, 0.0,
                                 _PrefetchOp.fin)
        else:
            self.fin()

    def fin(self) -> None:
        self.sched._note_prefetch(self.gpu.gpu_id)
        self._record_compute()
        self.finish(self.seconds)

    def on_done(self, _ev: Event) -> None:
        self.sched.local_dag.mark_done(self.ce)


class IntraNodeScheduler:
    """One worker's GPU-stream scheduler (the second hierarchy layer)."""

    def __init__(self, node: Node, *,
                 metrics: MetricsRegistry | None = None,
                 profiler: CeProfiler | None = None):
        if not node.has_gpus:
            raise ValueError(f"{node!r} has no GPUs to schedule on")
        self.node = node
        self.local_dag = DependencyDag()
        self.profiler = profiler
        self.metrics = install_metrics(metrics) if metrics is not None \
            else None
        if self.metrics is not None:
            self._m_launches = self.metrics.family(
                "grout_kernel_launches_total")
            self._m_prefetches = self.metrics.family(
                "grout_prefetches_total")
            self._m_kernel_seconds = self.metrics.family(
                "grout_kernel_seconds")
            self._m_pending = self.metrics.family(
                "grout_gpu_pending_bytes")
            self._m_streams = self.metrics.family("grout_streams_open")
            self._m_osf = self.metrics.family(
                "grout_node_oversubscription")
            self._m_uvm_cold = self.metrics.family(
                "grout_uvm_cold_bytes_total")
            self._m_uvm_refault = self.metrics.family(
                "grout_uvm_refault_bytes_total")
            self._m_uvm_writeback = self.metrics.family(
                "grout_uvm_writeback_bytes_total")
            self._m_uvm_thrash = self.metrics.family(
                "grout_uvm_thrashing_launches_total")
            self._m_uvm_memo = self.metrics.family(
                "grout_uvm_memo_hits_total")
        else:
            self._m_launches = self._m_prefetches = None
            self._m_kernel_seconds = self._m_pending = None
            self._m_streams = self._m_osf = None
            self._m_uvm_cold = self._m_uvm_refault = None
            self._m_uvm_writeback = self._m_uvm_thrash = None
            self._m_uvm_memo = None
        # Bound label handles, cached on first use: ``family.labels()``
        # validates names and takes the registry lock on every call — too
        # much for per-event paths.  Lazy (not eager) so children only
        # exist once an event actually touched them.
        self._h_pending: dict[int, object] = {}
        self._h_streams: dict[int, object] = {}
        self._h_launches: dict[int, object] = {}
        self._h_prefetches: dict[int, object] = {}
        self._h_kernel_seconds = None
        self._h_osf = None
        # (cold, refault, writeback, thrash, memo hits) handles — one
        # tuple per node: the (node, backend) labels never vary within a
        # scheduler.
        self._h_uvm = None
        self._memo_hits_seen = 0
        self._completions = 0
        self._pending_load: dict[int, float] = {g.gpu_id: 0.0
                                                for g in node.gpus}
        #: lane -> stream, for finding a parent's stream from its
        #: ``assigned_lane``: one entry per stream this scheduler used.
        self._streams: dict[str, Stream] = {}
        #: buffer_id -> planned gpu_id; a freed buffer's entry goes with
        #: it (:meth:`forget_buffer`).
        self._planned_gpu: dict[int, int] = {}
        #: kernel name -> [launch count, total priced seconds]; exact over
        #: the node's lifetime (what the run report aggregates).
        self.kernel_totals: dict[str, list] = {}

    # -- observability hooks ---------------------------------------------------

    def _note_pending(self, gpu_id: int) -> None:
        """Mirror one GPU's queued byte load into its gauge."""
        if self._m_pending is not None:
            handle = self._h_pending.get(gpu_id)
            if handle is None:
                handle = self._h_pending[gpu_id] = self._m_pending.labels(
                    node=self.node.name, gpu=str(gpu_id))
            handle.set(self._pending_load[gpu_id])

    def _note_streams(self, gpu: Gpu) -> None:
        """Mirror one GPU's open-stream count into its gauge."""
        if self._m_streams is not None:
            handle = self._h_streams.get(gpu.gpu_id)
            if handle is None:
                handle = self._h_streams[gpu.gpu_id] = self._m_streams.labels(
                    node=self.node.name, gpu=str(gpu.gpu_id))
            handle.set(len(gpu.streams))

    def _note_oversubscription(self) -> None:
        """Publish the node's current OSF (the paper's operating point)."""
        if self._m_osf is not None and self.node.uvm is not None:
            if self._h_osf is None:
                self._h_osf = self._m_osf.labels(node=self.node.name)
            self._h_osf.set(self.node.uvm.oversubscription)

    def _note_uvm_cost(self, cost: KernelCost) -> None:
        """Publish one priced launch's fault traffic and the node's
        pricing-memo hits, keyed by backend."""
        if self._m_uvm_cold is None or self.node.uvm is None:
            return
        handles = self._h_uvm
        if handles is None:
            labels = {"node": self.node.name,
                      "backend": self.node.uvm.backend.name}
            handles = self._h_uvm = (
                self._m_uvm_cold.labels(**labels),
                self._m_uvm_refault.labels(**labels),
                self._m_uvm_writeback.labels(**labels),
                self._m_uvm_thrash.labels(**labels),
                self._m_uvm_memo.labels(**labels),
            )
        if cost.cold_bytes:
            handles[0].inc(cost.cold_bytes)
        if cost.refault_bytes:
            handles[1].inc(cost.refault_bytes)
        if cost.writeback_bytes:
            handles[2].inc(cost.writeback_bytes)
        if cost.thrashing:
            handles[3].inc()
        hits = self.node.uvm.memo_hits
        if hits != self._memo_hits_seen:
            handles[4].inc(hits - self._memo_hits_seen)
            self._memo_hits_seen = hits

    def _note_launch(self, gpu_id: int, seconds: float) -> None:
        """Count one finished kernel and observe its duration."""
        if self._m_launches is not None:
            handle = self._h_launches.get(gpu_id)
            if handle is None:
                handle = self._h_launches[gpu_id] = self._m_launches.labels(
                    node=self.node.name, gpu=str(gpu_id))
            handle.inc()
            if self._h_kernel_seconds is None:
                self._h_kernel_seconds = self._m_kernel_seconds.labels(
                    node=self.node.name)
            self._h_kernel_seconds.observe(seconds)

    def _note_prefetch(self, gpu_id: int) -> None:
        """Count one finished prefetch."""
        if self._m_prefetches is not None:
            handle = self._h_prefetches.get(gpu_id)
            if handle is None:
                handle = self._h_prefetches[gpu_id] = \
                    self._m_prefetches.labels(node=self.node.name,
                                              gpu=str(gpu_id))
            handle.inc()

    # -- Algorithm 2 -----------------------------------------------------------

    def submit(self, ce: ComputationalElement,
               waits: Sequence[Event] = (), *,
               fresh_stream: bool = False) -> Event:
        """Place a kernel or prefetch CE on a stream; returns its
        completion event.

        ``fresh_stream`` bypasses the FIFO-reuse heuristics (crash
        re-execution): a recovered CE enqueued behind a pre-crash op
        that transitively *depends on it* would deadlock the stream, so
        it must land on an idle — or entirely new — stream, with
        correctness carried by ``waits`` alone.
        """
        if ce.kind is CeKind.PREFETCH:
            return self._submit_prefetch(ce, waits,
                                         fresh_stream=fresh_stream)
        if ce.kind is not CeKind.KERNEL:
            raise ValueError(f"intra-node scheduler only takes kernels, "
                             f"got {ce.kind}")
        assert ce.kernel is not None and ce.config is not None

        # Add CE to the Local DAG's frontier (partial view of the workload).
        local_parents = self.local_dag.add(ce)

        # Apply the intra-node scheduling policy.
        gpu = self._select_gpu(ce, local_parents)
        if fresh_stream:
            stream = self._fresh_stream(gpu)
        else:
            stream = self._select_stream(gpu, ce, local_parents)
        ce.assigned_lane = stream.lane
        self._streams[stream.lane] = stream

        uvm = self.node.uvm
        assert uvm is not None
        # Node-level footprint bookkeeping happens at submit time: the CE's
        # parameters now belong to this node's UVM space (its OSF rises),
        # even though page migration is priced at execution time.
        for array in ce.arrays:
            uvm.register(array)

        # Exec CE & add sync events on ancestors.  Only program-order
        # predecessors count: a crash re-execution inserts an *earlier*
        # CE after later ones, and a WAR edge pointing backward in
        # program order would deadlock against the global-DAG waits.
        waits = list(waits)
        waits.extend(p.done for p in local_parents
                     if p.done is not None and not p.done.processed
                     and p.ce_id < ce.ce_id)
        load = float(sum(a.touched_bytes for a in ce.accesses))
        self._pending_load[gpu.gpu_id] += load
        self._note_pending(gpu.gpu_id)
        self._note_streams(gpu)
        # The op runs as a callback chain: begin() at stream start, then
        # hold-the-link / sleep hops, then fin().
        op = _KernelOp(self, stream, ce, gpu, load)
        done = stream.push(op, waits)
        done.callbacks.append(op.on_done)
        return done

    def _submit_prefetch(self, ce: ComputationalElement,
                         waits: Sequence[Event], *,
                         fresh_stream: bool = False) -> Event:
        """``cudaMemPrefetchAsync``: stream-ordered bulk migration."""
        self.local_dag.add(ce)
        uvm = self.node.uvm
        assert uvm is not None
        gpu_index = int(ce.args[0]) if ce.args else 0
        gpu = self.node.gpus[gpu_index % len(self.node.gpus)]
        stream = (self._fresh_stream(gpu) if fresh_stream
                  else gpu.default_stream())
        ce.assigned_lane = stream.lane
        self._streams[stream.lane] = stream
        for array in ce.arrays:
            uvm.register(array)
            # Locality bookkeeping follows the prefetch by design.
            self._planned_gpu[array.buffer_id] = gpu.gpu_id
        op = _PrefetchOp(self, stream, ce, gpu)
        done = stream.push(op, waits)
        done.callbacks.append(op.on_done)
        return done

    def _complete(self, gpu_id: int, load: float,
                  ce: ComputationalElement) -> None:
        self._pending_load[gpu_id] -= load
        self._note_pending(gpu_id)
        # The completion hook *is* the doneness signal — record it so the
        # local DAG's prune never has to rescan retired-but-running CEs
        # (the scan that made wide fan-outs quadratic).
        self.local_dag.mark_done(ce)
        # Pruning on *every* completion makes completion O(DAG size);
        # throttle it like the controller's periodic prune.  Dependency
        # structure is unaffected: completed non-frontier CEs are inert.
        self._completions += 1
        if self._completions % PRUNE_EVERY == 0:
            self.local_dag.prune_completed()

    def abort_inflight(self, cause: object = None) -> int:
        """Kill every op still queued or running on this node's streams.

        Crash recovery: the node is gone, so its pending kernels and
        prefetches must never fire their completion events — the
        controller re-executes them elsewhere and forwards the results.
        Returns the number of ops aborted.
        """
        aborted = 0
        for gpu in self.node.gpus:
            for stream in gpu.streams:
                aborted += stream.abort_pending(cause)
        return aborted

    # -- placement heuristics -----------------------------------------------------

    def _select_gpu(self, ce: ComputationalElement,
                    parents: list[ComputationalElement]) -> Gpu:
        # Data locality first (GrCUDA's device-selection heuristic): the
        # GPU *planned* to hold the most parameter bytes wins — scheduling
        # is eager, so physical residency lags; the plan is what keeps a
        # chunk pinned to one device across CG iterations instead of
        # ping-ponging its gigabytes between the two.
        votes: dict[int, int] = {}
        for access in ce.accesses:
            gpu_id = self._planned_gpu.get(access.buffer.buffer_id)
            if gpu_id is not None:
                votes[gpu_id] = votes.get(gpu_id, 0) \
                    + access.buffer.nbytes
        gpu = None
        if votes:
            winner, weight = max(votes.items(), key=lambda kv: kv[1])
            # Locality only decides when it covers a meaningful share of
            # the CE's bytes — a shared broadcast vector must not drag
            # every chunk onto one device.
            if weight >= 0.5 * max(1, ce.param_bytes):
                gpu = next((g for g in self.node.gpus
                            if g.gpu_id == winner), None)
        if gpu is None and len(parents) == 1:
            # No data anywhere yet: inherit a lone parent's GPU.
            parent_stream = self._stream_of(parents[0])
            if parent_stream is not None:
                gpu = parent_stream.gpu
        if gpu is None:
            gpu = min(self.node.gpus,
                      key=lambda g: (self._pending_load[g.gpu_id], g.index))
        for access in ce.accesses:
            self._planned_gpu[access.buffer.buffer_id] = gpu.gpu_id
        return gpu

    def _select_stream(self, gpu: Gpu, ce: ComputationalElement,
                       parents: list[ComputationalElement]) -> Stream:
        # Single parent on this GPU whose op is still the stream tail:
        # FIFO order subsumes the dependency, reuse the stream.
        if len(parents) == 1:
            parent_stream = self._stream_of(parents[0])
            if (parent_stream is not None and parent_stream.gpu is gpu
                    and parent_stream.last_completion is
                    parents[0].done):
                return parent_stream
        # An idle stream, if any.
        for stream in gpu.streams:
            tail = stream.last_completion
            if tail is None or tail.processed:
                return stream
        # Grow the pool, then fall back to the shortest queue.
        if len(gpu.streams) < MAX_STREAMS_PER_GPU:
            return gpu.new_stream()
        return min(gpu.streams, key=lambda s: s.ops_enqueued)

    def _stream_of(self, parent) -> Stream | None:
        """The stream a local parent was placed on; ``None`` for a
        cohort join, which has no lane."""
        return self._streams.get(getattr(parent, "assigned_lane", None))

    def _fresh_stream(self, gpu: Gpu) -> Stream:
        """A stream with no pending tail — new if necessary, even past
        :data:`MAX_STREAMS_PER_GPU` (recovery correctness beats the pool
        cap)."""
        for stream in gpu.streams:
            tail = stream.last_completion
            if tail is None or tail.processed:
                return stream
        return gpu.new_stream()

    # -- replica management (used by the GrOUT coherence layer) --------------------

    def forget_buffer(self, buffer_id: int) -> None:
        """Drop a freed buffer from the local DAG, the GPU plan and the
        node's pricers."""
        self.local_dag.forget_buffer(buffer_id)
        self._planned_gpu.pop(buffer_id, None)
        self.node.uvm.forget_buffer(buffer_id)

    def drop_replica(self, array) -> None:
        """Invalidate a local copy after a remote node took ownership."""
        uvm = self.node.uvm
        assert uvm is not None
        if uvm.is_registered(array.buffer_id):
            uvm.invalidate(array.buffer_id)
            uvm.unregister(array.buffer_id)

    def writeback_seconds(self, array) -> float:
        """Flush local dirty pages before shipping the array elsewhere."""
        uvm = self.node.uvm
        assert uvm is not None
        if not uvm.is_registered(array.buffer_id):
            return 0.0
        return uvm.writeback(array.buffer_id).seconds
