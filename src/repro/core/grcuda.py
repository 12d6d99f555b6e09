"""GrCUDA — the single-node baseline runtime ([27], §V-C).

The same host API as :class:`~repro.core.runtime.GroutRuntime` (that is
the point of Listing 2: switching a workload between the two is a
one-token change), but everything executes on one multi-GPU node through
the intra-node scheduler alone.  Host accesses go through the node's UVM
space directly — including the dirty-page write-backs and the
oversubscription cliffs Fig. 6a documents.
"""

from __future__ import annotations

from repro.cluster.cluster import paper_worker_spec
from repro.cluster.node import Node
from repro.gpu.specs import GpuSpec
from repro.obs import CeProfiler, MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Engine, Event, Tracer
from repro.uvm.calibration import PAPER_CALIBRATION, UvmModelParams
from repro.uvm.prefetch import PrefetchConfig
from repro.core.arrays import ManagedArray
from repro.core.ce import CeKind, ComputationalElement
from repro.core.controller import PRUNE_EVERY
from repro.core.pipeline.dispatch import HostCe
from repro.core.dag import DependencyDag
from repro.core.intranode import IntraNodeScheduler, _ce_completed
from repro.core.runtime import HostRuntime


class GrCudaRuntime(HostRuntime):
    """Single-node, multi-GPU polyglot runtime (the paper's baseline)."""

    def __init__(self, *, gpus_per_worker: int = 2,
                 gpu_spec: GpuSpec | None = None,
                 page_size: int | None = None,
                 uvm_params: UvmModelParams = PAPER_CALIBRATION,
                 prefetch: PrefetchConfig | None = None,
                 eviction_order: str = "lru",
                 seed: int = 0,
                 uvm_backend: str | None = None):
        """One node named ``local``, built from the keywords
        :func:`~repro.cluster.paper_cluster` builds each worker from."""
        super().__init__()
        engine = self.engine = Engine()
        self.tracer = Tracer()
        self.node = Node(engine, "local",
                         paper_worker_spec(gpus_per_worker, gpu_spec,
                                           page_size),
                         tracer=self.tracer, uvm_params=uvm_params,
                         prefetch=prefetch, eviction_order=eviction_order,
                         seed=seed, uvm_backend=uvm_backend)
        self.nodes = [self.node]
        # Single-node observability surface, same shape as a cluster's.
        self.metrics = install_metrics(
            MetricsRegistry(clock=lambda: engine.now))
        self.profiler = CeProfiler(self.metrics)
        self.scheduler = IntraNodeScheduler(
            self.node, metrics=self.metrics, profiler=self.profiler)
        self.workers = {self.node.name: self.scheduler}
        self.dag = DependencyDag()
        self._pending: list[Event] = []

    def oversubscription(self) -> float:
        """The node's current OSF (allocated / GPU memory)."""
        return self.node.oversubscription()

    # -- the host API's hooks ----------------------------------------------------

    def adopt(self, array: ManagedArray) -> ManagedArray:
        """Register an array with the node's UVM space, raising its
        oversubscription factor at once (``cudaMallocManaged``)."""
        self.node.uvm.register(array)
        return array

    def _forget(self, array: ManagedArray) -> None:
        uvm = self.node.uvm
        if uvm.is_registered(array.buffer_id):
            uvm.unregister(array.buffer_id)
        self.dag.forget_buffer(array.buffer_id)
        self.scheduler.forget_buffer(array.buffer_id)

    def _submit(self, ce: ComputationalElement) -> Event:
        """The Global DAG's waits, then the node's streams (kernels and
        prefetches) or a host CE against the node's UVM space."""
        waits = [a.done for a in self.dag.add(ce)
                 if a.done is not None and not a.done.processed]
        ce.assigned_node = self.node.name
        if ce.kind is CeKind.KERNEL or ce.kind is CeKind.PREFETCH:
            ce.done = self.scheduler.submit(ce, waits)
        else:
            ce.done = HostCe(self.engine, ce, waits, self.node.uvm,
                             ce.kind is CeKind.HOST_WRITE).done
        self._pending.append(ce.done)
        if self.ces_submitted % PRUNE_EVERY == 0:
            self.dag.prune_completed(_ce_completed)
            self._pending = [e for e in self._pending if not e.processed]
        return ce.done

    def _run_until(self, event: Event) -> None:
        self.engine.run(until=event)

    def _run_for(self, horizon: float) -> None:
        self.engine.run(until=horizon)

    def pending_events(self) -> list[Event]:
        """Completion events of CEs still in flight."""
        self._pending = [e for e in self._pending if not e.processed]
        return list(self._pending)

    def _teardown(self) -> None:
        self._pending.clear()
        self.dag = DependencyDag()
