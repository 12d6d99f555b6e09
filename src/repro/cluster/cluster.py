"""Cluster composition: controller + workers + interconnect, one engine."""

from __future__ import annotations

from repro.cluster.node import (
    PAPER_CONTROLLER,
    PAPER_WORKER,
    Node,
    NodeSpec,
)
from repro.gpu.specs import GpuSpec
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.obs import CeProfiler, MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Engine, Tracer
from repro.uvm.calibration import PAPER_CALIBRATION, UvmModelParams
from repro.uvm.prefetch import PrefetchConfig


class Cluster:
    """One controller plus N GPU workers sharing an engine and a fabric."""

    def __init__(self, engine: Engine, *,
                 controller_spec: NodeSpec = PAPER_CONTROLLER,
                 worker_specs: list[NodeSpec],
                 tracer: Tracer | None = None,
                 uvm_params: UvmModelParams = PAPER_CALIBRATION,
                 prefetch: PrefetchConfig | None = None,
                 eviction_order: str = "lru",
                 seed: int = 0,
                 uvm_backend: str | None = None):
        if not worker_specs:
            raise ValueError("a cluster needs at least one worker")
        self.engine = engine
        self.tracer = tracer if tracer is not None else Tracer()
        # One observability surface per cluster: every layer publishes
        # into the same registry, the profiler threads ce_ids across them.
        self.metrics = install_metrics(
            MetricsRegistry(clock=lambda: engine.now))
        self.profiler = CeProfiler(self.metrics)
        # Retained so autoscaling can stamp out identical workers later.
        self._uvm_params = uvm_params
        self._prefetch = prefetch
        self._eviction_order = eviction_order
        self._seed = seed
        self._uvm_backend = uvm_backend
        self._default_worker_spec = worker_specs[0]
        self.controller = Node(
            engine, "controller", controller_spec, tracer=self.tracer,
            uvm_params=uvm_params, prefetch=prefetch,
            eviction_order=eviction_order, seed=seed,
            uvm_backend=uvm_backend)
        self.workers: list[Node] = [
            Node(engine, f"worker{i}", spec, tracer=self.tracer,
                 uvm_params=uvm_params, prefetch=prefetch,
                 eviction_order=eviction_order, seed=seed + 1 + i,
                 uvm_backend=uvm_backend)
            for i, spec in enumerate(worker_specs)
        ]
        # Monotonic so names stay unique even after a crashed worker is
        # removed and a replacement provisioned.
        self._next_worker = len(worker_specs)
        topology = Topology()
        for node in self.nodes:
            topology.add_node(node.name, node.spec.nic)
        self.topology = topology
        self.fabric = Fabric(engine, topology, tracer=self.tracer,
                             metrics=self.metrics)

    # -- structure -------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """Controller plus workers, in naming order."""
        return [self.controller, *self.workers]

    @property
    def n_workers(self) -> int:
        """Number of GPU worker nodes."""
        return len(self.workers)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    def add_worker(self, spec: NodeSpec | None = None) -> Node:
        """Provision one more worker at runtime (autoscaling, §V-F).

        The node joins the topology and the fabric immediately; the
        scheduler layer must be told separately (see
        :meth:`repro.core.Controller.add_worker`).
        """
        spec = spec if spec is not None else self._default_worker_spec
        name = f"worker{self._next_worker}"
        node = Node(self.engine, name, spec, tracer=self.tracer,
                    uvm_params=self._uvm_params, prefetch=self._prefetch,
                    eviction_order=self._eviction_order,
                    seed=self._seed + 1 + self._next_worker,
                    uvm_backend=self._uvm_backend)
        self._next_worker += 1
        self.workers.append(node)
        self.topology.add_node(name, spec.nic)
        self.fabric.add_node(name)
        return node

    def remove_worker(self, name: str) -> Node:
        """Retire a worker (crash recovery); returns the removed node.

        The node leaves capacity accounting immediately.  Its topology
        and fabric entries are retained — nothing routes to a dead node,
        and keeping them means in-flight teardown never dereferences a
        missing NIC.
        """
        for i, node in enumerate(self.workers):
            if node.name == name:
                return self.workers.pop(i)
        raise KeyError(f"no worker named {name!r}")

    @property
    def total_gpu_memory_bytes(self) -> int:
        """GPU memory across every worker."""
        return sum(w.gpu_memory_bytes for w in self.workers)

    def oversubscription(self, footprint_bytes: int) -> float:
        """Cluster-wide OSF of a workload footprint (the paper's x-axis)."""
        return footprint_bytes / self.total_gpu_memory_bytes

    def __repr__(self) -> str:
        return f"<Cluster workers={self.n_workers}>"


def paper_worker_spec(gpus_per_worker: int = 2,
                      gpu_spec: GpuSpec | None = None,
                      page_size: int | None = None) -> NodeSpec:
    """One GPU node of §V-A: ``gpus_per_worker`` GPUs of ``gpu_spec``
    (the paper's V100s by default), the paper worker's RAM and NIC."""
    spec = gpu_spec if gpu_spec is not None else PAPER_WORKER.gpu_spec
    assert spec is not None
    if page_size is not None:
        spec = spec.with_page_size(page_size)
    return NodeSpec(gpu_spec=spec, n_gpus=gpus_per_worker,
                    ram_bytes=PAPER_WORKER.ram_bytes, nic=PAPER_WORKER.nic)


def paper_cluster(n_workers: int, *,
                  engine: Engine | None = None,
                  gpus_per_worker: int = 2,
                  gpu_spec: GpuSpec | None = None,
                  page_size: int | None = None,
                  uvm_params: UvmModelParams = PAPER_CALIBRATION,
                  prefetch: PrefetchConfig | None = None,
                  eviction_order: str = "lru",
                  seed: int = 0,
                  uvm_backend: str | None = None) -> Cluster:
    """The OCI setup of §V-A with ``n_workers`` GPU nodes.

    ``page_size`` overrides the UVM granule — coarse pages (e.g. 16 MiB)
    keep the big 160 GB sweeps cheap to simulate without changing any
    byte-level cost.
    """
    engine = engine if engine is not None else Engine()
    worker = paper_worker_spec(gpus_per_worker, gpu_spec, page_size)
    return Cluster(engine, worker_specs=[worker] * n_workers,
                   uvm_params=uvm_params, prefetch=prefetch,
                   eviction_order=eviction_order, seed=seed,
                   uvm_backend=uvm_backend)
