"""The GrOUT runtime facade — what user programs (and the polyglot layer)
talk to.

The execution model mirrors GrCUDA's async scheduler: ``launch`` and
``host_write`` return immediately after Algorithm 1 runs (the work is wired
into the simulation), while ``host_read`` and ``sync`` advance simulated
time until the needed results exist.  Transfer/compute and
compute/compute overlap therefore falls out of the event wiring, with no
user involvement — the paper's headline usability claim.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.cluster.cluster import Cluster, paper_cluster
from repro.gpu.kernel import ArrayAccess, Direction, KernelSpec, LaunchConfig
from repro.sim import Engine, FaultInjector, FaultPlan, SimError, Tracer
from repro.sim.faults import LINK_DEGRADE, TRANSFER_FLAKE, WORKER_CRASH
from repro.core.arrays import ManagedArray
from repro.core.ce import CeKind, ComputationalElement
from repro.core.config import RUNTIME_KNOBS, RuntimeConfig
from repro.core.controller import Controller
from repro.core.intranode import IntraNodeScheduler
from repro.core.policies import Policy, RoundRobinPolicy
from repro.core.session import Session


def _as_dims(dims: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(dims, int):
        return (dims,)
    return tuple(dims)


@functools.lru_cache(maxsize=256)
def _shared_config(grid: tuple[int, ...],
                   block: tuple[int, ...]) -> LaunchConfig:
    return LaunchConfig(grid, block)


def _launch_config(grid: int | tuple[int, ...],
                   block: int | tuple[int, ...]) -> LaunchConfig:
    """The launch configuration for ``(grid, block)``: one frozen
    :class:`LaunchConfig` shared by every launch with those dims."""
    return _shared_config(_as_dims(grid), _as_dims(block))


class GroutRuntime:
    """Transparent scale-out runtime over a simulated GPU cluster."""

    def __init__(self, cluster: Cluster | None = None, *,
                 policy: Policy | None = None,
                 n_workers: int = 2,
                 **kwargs: object):
        """``kwargs`` named in :data:`~repro.core.config.RUNTIME_KNOBS`
        form the controller's :class:`~repro.core.config.RuntimeConfig`
        (so the config's refusal table checks them); the rest build the
        cluster through :func:`~repro.cluster.paper_cluster`."""
        # Set first so __del__ stays safe even if construction fails
        # before the controller exists.
        self._closed = False
        config = RuntimeConfig(**{name: kwargs.pop(name)
                                  for name in RUNTIME_KNOBS
                                  if name in kwargs})
        if cluster is None:
            cluster = paper_cluster(n_workers, **kwargs)  # type: ignore[arg-type]
        elif kwargs:
            raise ValueError(
                "pass either a prebuilt cluster or cluster kwargs, not both")
        self.cluster = cluster
        if config.chunk_bytes is not None:
            cluster.fabric.chunk_bytes = config.chunk_bytes
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.controller = Controller(cluster, self.policy, config)
        #: Session whose submissions are being tagged right now (set by
        #: ``Session._activate``); None on the single-program path.
        self._active_session: Session | None = None
        self._session_names = itertools.count()
        self._sessions: dict[str, Session] = {}

    # -- environment ------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The simulation engine under this runtime."""
        return self.cluster.engine

    @property
    def tracer(self) -> Tracer:
        """The cluster-wide span tracer."""
        return self.cluster.tracer

    @property
    def metrics(self):
        """The cluster-wide :class:`~repro.obs.MetricsRegistry`."""
        return self.cluster.metrics

    @property
    def profiler(self):
        """The cluster-wide per-CE :class:`~repro.obs.CeProfiler`."""
        return self.cluster.profiler

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the runtime's engine started."""
        return self.engine.now

    # -- multi-program sessions ---------------------------------------------------

    def session(self, name: str | None = None, *,
                plan_key: str | None = None) -> Session:
        """Open a multi-program :class:`~repro.core.session.Session`.

        The session duck-types this runtime's submission surface, so a
        program (or a :class:`~repro.polyglot.api.Polyglot` bound to it)
        runs unchanged while its CEs are namespaced, session-labelled in
        metrics and trace spans, and interleaved fairly with the other
        sessions sharing the cluster.  Names default to ``s0``, ``s1``,
        ... and must be unique per runtime.

        ``plan_key`` names the session's *program* for the controller's
        plan cache (requires the ``plan_cache`` knob): sessions sharing
        a key replay each other's recorded scheduling decisions, with
        per-CE validation and full-pipeline fallback on any mismatch.
        """
        if self._closed:
            raise SimError("runtime is shut down; no new sessions")
        if name is None:
            name = f"s{next(self._session_names)}"
            while name in self._sessions:
                name = f"s{next(self._session_names)}"
        if name in self._sessions:
            raise ValueError(f"session {name!r} already exists")
        session = Session(self, name, plan_key=plan_key)
        self._sessions[name] = session
        cache = self.controller.plan_cache
        if cache is not None and plan_key is not None:
            cache.attach(session)
        return session

    def sessions(self) -> list[Session]:
        """Every *live* (not yet closed) session, creation order."""
        return list(self._sessions.values())

    def _forget_session(self, session: Session) -> None:
        """Release a closed session's name (``Session._finalize`` hook)."""
        live = self._sessions.get(session.name)
        if live is session:
            del self._sessions[session.name]

    # -- fault injection ---------------------------------------------------------

    def install_faults(self, plan: FaultPlan, *,
                       request_replacement: bool = False) -> FaultInjector:
        """Arm a fault plan against this runtime's cluster.

        Wires the standard handlers: ``worker-crash`` triggers the
        controller's recovery (:meth:`Controller.handle_worker_crash`,
        optionally provisioning a replacement node), ``link-degrade``
        multiplies a topology edge's bandwidth, and ``transfer-flake``
        makes the next matching fabric transfer(s) fail mid-wire (the
        fabric's retry policy then kicks in).  Returns the armed
        injector so callers can inspect :attr:`FaultInjector.stats`.
        """
        if self.controller.coordinator is not None:
            raise SimError("fault injection is not supported in shard "
                           "mode (crash recovery needs in-process "
                           "worker state)")
        cluster = self.cluster
        controller = self.controller
        if controller.plan_cache is not None:
            controller.plan_cache.disarm("faults")

        def crash(fault):
            controller.handle_worker_crash(
                fault.node, request_replacement=request_replacement)

        def degrade(fault):
            a, b = fault.link
            cluster.topology.degrade_link(a, b, fault.factor)

        def flake(fault):
            src, dst = fault.link if fault.link else (None, None)
            cluster.fabric.inject_flake(src=src, dst=dst,
                                        count=fault.count)

        injector = FaultInjector(self.engine, plan, tracer=self.tracer,
                                 metrics=self.metrics)
        injector.on(WORKER_CRASH, crash)
        injector.on(LINK_DEGRADE, degrade)
        injector.on(TRANSFER_FLAKE, flake)
        return injector.arm()

    # -- allocation ----------------------------------------------------------------

    def device_array(self, shape: int | tuple[int, ...],
                     dtype: object = np.float32, *,
                     virtual_nbytes: int | None = None,
                     name: str | None = None) -> ManagedArray:
        """Allocate a UVM-managed array, born up-to-date on the controller."""
        array = ManagedArray(shape, dtype, virtual_nbytes=virtual_nbytes,
                             name=name)
        self.controller.directory.register(array)
        return array

    def adopt(self, array: ManagedArray) -> ManagedArray:
        """Register an externally created array (e.g. a partition chunk)."""
        self.controller.directory.register(array)
        return array

    def free(self, array: ManagedArray) -> None:
        """Drop an array from the coherence directory, the DAGs and every
        worker."""
        for worker in self.controller.workers.values():
            worker.drop_replica(array)
            if isinstance(worker, IntraNodeScheduler):
                # A shard worker's local DAG lives in its own process.
                worker.forget_buffer(array.buffer_id)
        self.controller.dag.forget_buffer(array.buffer_id)
        self.controller.directory.forget(array)

    # -- computation -----------------------------------------------------------------

    def launch(self, kernel: KernelSpec,
               grid: int | tuple[int, ...],
               block: int | tuple[int, ...],
               args: tuple[object, ...],
               accesses: list[ArrayAccess] | None = None,
               label: str | None = None) -> ComputationalElement:
        """Asynchronously launch a kernel; returns its CE immediately."""
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
        self.controller.schedule(ce, session=self._active_session)
        return ce

    def prefetch(self, array: ManagedArray, worker: str | None = None,
                 gpu_index: int = 0,
                 label: str | None = None) -> ComputationalElement:
        """Migrate an array to a worker's GPU ahead of use.

        Names a worker explicitly (user-directed placement) or lets the
        active policy pick one; also triggers the network replication that
        makes the data available on that node.
        """
        ce = ComputationalElement(
            kind=CeKind.PREFETCH,
            accesses=(ArrayAccess(array, Direction.IN),),
            args=(gpu_index,),
            label=label or f"prefetch:{array.name}",
        )
        if worker is not None:
            if worker not in self.controller.workers:
                raise KeyError(f"unknown worker {worker!r}")
            ce.assigned_node = worker
        self.controller.schedule(ce, session=self._active_session)
        return ce

    def advise(self, array: ManagedArray, advise,
               device: int | None = None) -> None:
        """Apply a memory advise on every worker's UVM space."""
        if self.controller.coordinator is not None:
            raise SimError("advise is not supported in shard mode (UVM "
                           "spaces live in the shard processes)")
        for scheduler in self.controller.workers.values():
            uvm = scheduler.node.uvm
            assert uvm is not None
            uvm.advise(array.buffer_id, advise, device)

    def host_write(self, array: "ManagedArray | list[ManagedArray]",
                   body=None,
                   label: str | None = None) -> ComputationalElement:
        """Asynchronous host-side write/initialisation of array(s).

        ``body`` runs at simulated execution time and should fill the
        backing(s); ordering against kernels is handled by the DAG.  A list
        initialises several arrays as one CE (one host sweep).
        """
        arrays = array if isinstance(array, list) else [array]
        ce = ComputationalElement(
            kind=CeKind.HOST_WRITE,
            accesses=tuple(ArrayAccess(a, Direction.OUT) for a in arrays),
            host_body=body,
            label=label or f"write:{arrays[0].name}",
        )
        self.controller.schedule(ce, session=self._active_session)
        return ce

    def host_barrier(self, array: ManagedArray) -> None:
        """Block (in simulated time) until every scheduled CE touching
        the array — readers included — has completed.

        Required before the host mutates the backing *in place* (the
        polyglot view's ``x[i] = v`` fast path): a pending reader kernel
        must not observe the new value (WAR at the data level).
        """
        for ce in self.controller.dag.pending_accessors(array.buffer_id):
            if ce.done is not None and not ce.done.processed:
                self.controller.run_until(ce.done)

    def host_read(self, array: ManagedArray,
                  label: str | None = None) -> np.ndarray:
        """Synchronous host read: advances simulation until the data is
        valid on the controller, then returns the NumPy backing."""
        ce = ComputationalElement(
            kind=CeKind.HOST_READ,
            accesses=(ArrayAccess(array, Direction.IN),),
            label=label or f"read:{array.name}",
        )
        done = self.controller.schedule(ce,
                                         session=self._active_session)
        self.controller.run_until(done)
        return array.data

    # -- synchronisation ---------------------------------------------------------------

    def sync(self, timeout: float | None = None) -> bool:
        """Run the simulation until every scheduled CE completed.

        With ``timeout`` (simulated seconds, absolute horizon from *now*),
        returns False if work remains — how the harness models the paper's
        2.5 h per-run cap.
        """
        if timeout is not None:
            self.controller.run_for(self.engine.now + timeout)
            return not self.controller.pending_events()
        for event in self.controller.pending_events():
            if not event.processed:
                self.controller.run_until(event)
        return True

    # -- teardown ----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` already ran."""
        return self._closed

    def shutdown(self) -> None:
        """Tear the runtime down (idempotent, safe from ``__del__``).

        Finalizes every still-open session (without draining — the
        simulation is over), shuts the controller down (shard worker
        processes included) and cuts its parts' back-references to it,
        discards the engine's queued deliveries (their callback chains
        reach the whole cluster graph), and seals the metrics
        registry so late scrapes see a frozen timestamp.  Afterwards the
        runtime holds no reference cycle: dropping its last reference
        frees it by reference counting, so nothing of it is left for a
        full collection inside the next run.  Traces, metrics values
        and ``engine.now`` stay readable, and metrics keep accepting
        writes; new sessions and new submissions raise.
        """
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions.values()):
            session._finalize()
        controller = getattr(self, "controller", None)
        if controller is not None:
            controller.shutdown()
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.engine.drain()
            cluster.metrics.finalize()

    def __enter__(self) -> "GroutRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.shutdown()
        except Exception:
            pass
