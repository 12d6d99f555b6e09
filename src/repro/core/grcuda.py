"""GrCUDA — the single-node baseline runtime ([27], §V-C).

Same public surface as :class:`~repro.core.runtime.GroutRuntime` (that is
the point of Listing 2: switching a workload between the two is a one-token
change), but everything executes on one multi-GPU node through the
intra-node scheduler alone.  Host accesses go through the node's UVM space
directly — including the dirty-page write-backs and the oversubscription
cliffs Fig. 6a documents.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import PAPER_WORKER, Node, NodeSpec
from repro.gpu.kernel import ArrayAccess, Direction, KernelSpec
from repro.gpu.specs import GpuSpec
from repro.obs import CeProfiler, MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Engine, Event, Tracer
from repro.uvm.calibration import PAPER_CALIBRATION, UvmModelParams
from repro.uvm.prefetch import PrefetchConfig
from repro.core.arrays import ManagedArray
from repro.core.ce import CeKind, ComputationalElement
from repro.core.pipeline.dispatch import HostCe
from repro.core.dag import DependencyDag
from repro.core.intranode import IntraNodeScheduler
from repro.core.runtime import _launch_config


class GrCudaRuntime:
    """Single-node, multi-GPU polyglot runtime (the paper's baseline)."""

    def __init__(self, node: Node | None = None, *,
                 engine: Engine | None = None,
                 spec: NodeSpec = PAPER_WORKER,
                 gpu_spec: GpuSpec | None = None,
                 page_size: int | None = None,
                 uvm_params: UvmModelParams = PAPER_CALIBRATION,
                 prefetch: PrefetchConfig | None = None,
                 eviction_order: str = "lru",
                 seed: int = 0,
                 uvm_backend: str | None = None):
        if node is None:
            engine = engine if engine is not None else Engine()
            node_spec = spec
            if gpu_spec is not None or page_size is not None:
                base = gpu_spec if gpu_spec is not None else spec.gpu_spec
                assert base is not None
                if page_size is not None:
                    base = base.with_page_size(page_size)
                node_spec = NodeSpec(gpu_spec=base, n_gpus=spec.n_gpus,
                                     ram_bytes=spec.ram_bytes, nic=spec.nic)
            tracer = Tracer()
            node = Node(engine, "local", node_spec, tracer=tracer,
                        uvm_params=uvm_params, prefetch=prefetch,
                        eviction_order=eviction_order, seed=seed,
                        uvm_backend=uvm_backend)
        self.node = node
        # Single-node observability surface, same shape as a cluster's.
        self.metrics = install_metrics(
            MetricsRegistry(clock=lambda: node.engine.now))
        self.profiler = CeProfiler(self.metrics)
        self.scheduler = IntraNodeScheduler(
            node, metrics=self.metrics, profiler=self.profiler)
        self.dag = DependencyDag()
        self._pending: list[Event] = []
        self._scheduled = 0

    # -- environment -------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The simulation engine under this runtime."""
        return self.node.engine

    @property
    def tracer(self) -> Tracer | None:
        """The node's span tracer."""
        return self.node.tracer

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the engine started."""
        return self.engine.now

    def oversubscription(self) -> float:
        """The node's current OSF (allocated / GPU memory)."""
        return self.node.oversubscription()

    # -- allocation ---------------------------------------------------------------

    def device_array(self, shape: int | tuple[int, ...],
                     dtype: object = np.float32, *,
                     virtual_nbytes: int | None = None,
                     name: str | None = None) -> ManagedArray:
        """Allocate a UVM-managed array on the node."""
        array = ManagedArray(shape, dtype, virtual_nbytes=virtual_nbytes,
                             name=name)
        # cudaMallocManaged semantics: the allocation joins the node's UVM
        # space immediately, raising its oversubscription factor.
        uvm = self.node.uvm
        assert uvm is not None
        uvm.register(array)
        return array

    def adopt(self, array: ManagedArray) -> ManagedArray:
        """Accept an externally created array (no-op here)."""
        return array

    def free(self, array: ManagedArray) -> None:
        """Release an array from the UVM space and both DAGs, once its
        pending accessors completed (``cudaFree`` synchronises)."""
        self.host_barrier(array)
        uvm = self.node.uvm
        assert uvm is not None
        if uvm.is_registered(array.buffer_id):
            uvm.unregister(array.buffer_id)
        self.dag.forget_buffer(array.buffer_id)
        self.scheduler.forget_buffer(array.buffer_id)

    # -- computation --------------------------------------------------------------

    def _global_waits(self, ce: ComputationalElement) -> list[Event]:
        ancestors = self.dag.add(ce)
        return [a.done for a in ancestors
                if a.done is not None and not a.done.processed]

    def launch(self, kernel: KernelSpec,
               grid: int | tuple[int, ...],
               block: int | tuple[int, ...],
               args: tuple[object, ...],
               accesses: list[ArrayAccess] | None = None,
               label: str | None = None) -> ComputationalElement:
        """Asynchronously launch a kernel; returns its CE."""
        if accesses is None:
            accesses = kernel.accesses(args)
        ce = ComputationalElement(
            kind=CeKind.KERNEL,
            accesses=tuple(accesses),
            kernel=kernel,
            config=_launch_config(grid, block),
            args=tuple(args),
            label=label,
        )
        waits = self._global_waits(ce)
        ce.assigned_node = self.node.name
        ce.done = self.scheduler.submit(ce, waits)
        self._track(ce.done)
        return ce

    def prefetch(self, array: ManagedArray, gpu_index: int = 0,
                 label: str | None = None) -> ComputationalElement:
        """``cudaMemPrefetchAsync``: migrate an array to a GPU ahead of
        use, stream-ordered against conflicting CEs (the §I hand-tuning
        primitive)."""
        ce = ComputationalElement(
            kind=CeKind.PREFETCH,
            accesses=(ArrayAccess(array, Direction.IN),),
            args=(gpu_index,),
            label=label or f"prefetch:{array.name}",
        )
        waits = self._global_waits(ce)
        ce.assigned_node = self.node.name
        ce.done = self.scheduler.submit(ce, waits)
        self._track(ce.done)
        return ce

    def advise(self, array: ManagedArray, advise, device: int | None = None
               ) -> None:
        """``cudaMemAdvise`` passthrough to the node's UVM space."""
        uvm = self.node.uvm
        assert uvm is not None
        uvm.advise(array.buffer_id, advise, device)

    def host_write(self, array: "ManagedArray | list[ManagedArray]",
                   body=None,
                   label: str | None = None) -> ComputationalElement:
        """Asynchronous host-side write/initialisation CE."""
        arrays = array if isinstance(array, list) else [array]
        ce = ComputationalElement(
            kind=CeKind.HOST_WRITE,
            accesses=tuple(ArrayAccess(a, Direction.OUT) for a in arrays),
            host_body=body,
            label=label or f"write:{arrays[0].name}",
        )
        ce.done = self._run_host_ce(ce, write=True)
        self._track(ce.done)
        return ce

    def host_barrier(self, array: ManagedArray) -> None:
        """Block until every scheduled CE touching the array completed —
        readers included (WAR safety for in-place host mutations)."""
        for ce in self.dag.pending_accessors(array.buffer_id):
            if ce.done is not None and not ce.done.processed:
                self.engine.run(until=ce.done)

    def host_read(self, array: ManagedArray,
                  label: str | None = None) -> np.ndarray:
        """Synchronous host read (runs the engine as needed)."""
        ce = ComputationalElement(
            kind=CeKind.HOST_READ,
            accesses=(ArrayAccess(array, Direction.IN),),
            label=label or f"read:{array.name}",
        )
        ce.done = self._run_host_ce(ce, write=False)
        self._track(ce.done)
        self.engine.run(until=ce.done)
        return array.data

    def _run_host_ce(self, ce: ComputationalElement, *, write: bool) -> Event:
        waits = self._global_waits(ce)
        ce.assigned_node = self.node.name
        assert self.node.uvm is not None
        return HostCe(self.engine, ce, waits, self.node.uvm, write).done

    # -- synchronisation ------------------------------------------------------------

    def _track(self, event: Event) -> None:
        self._pending.append(event)
        self._scheduled += 1
        if self._scheduled % 256 == 0:
            self.dag.prune_completed(
                lambda c: c.done is not None and c.done.processed)
            self._pending = [e for e in self._pending if not e.processed]

    def sync(self, timeout: float | None = None) -> bool:
        """Drain all scheduled work; False if a timeout cut it short."""
        if timeout is not None:
            self.engine.run(until=self.engine.now + timeout)
            self._pending = [e for e in self._pending if not e.processed]
            return not self._pending
        for event in self._pending:
            if not event.processed:
                self.engine.run(until=event)
        self._pending.clear()
        return True

    # -- teardown -----------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear the runtime down (idempotent, safe from ``__del__``).

        Same contract as :meth:`GroutRuntime.shutdown`: queued engine
        deliveries are discarded, the metrics registry is sealed,
        accumulated traces/metrics stay readable, and dropping the last
        reference frees the runtime by reference counting.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        node = getattr(self, "node", None)
        if node is not None:
            node.engine.drain()
        metrics = getattr(self, "metrics", None)
        if metrics is not None:
            metrics.finalize()
        self._pending.clear()
        self.dag = DependencyDag()

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` already ran."""
        return getattr(self, "_closed", False)

    def __enter__(self) -> "GrCudaRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.shutdown()
        except Exception:
            pass
