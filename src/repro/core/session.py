"""Multi-program sessions — N programs sharing one GrOUT cluster.

A :class:`Session` is one program's namespaced view of a shared
:class:`~repro.core.runtime.GroutRuntime`: it duck-types the runtime's
submission surface (``device_array`` / ``launch`` / ``host_write`` /
``host_read`` / ``sync`` / ...) so existing program code — including the
polyglot layer's :class:`~repro.polyglot.api.Polyglot` — runs against a
session unchanged, while every CE it submits is

* tagged with the session name and a per-session sequence number (the
  namespaced CE id that shows up in ``display_name`` and trace spans),
* tracked in the session's own Global-DAG view (:meth:`ces`,
  :meth:`pending_events`, :meth:`dag_view`),
* counted under session-labelled metrics
  (``grout_session_ces_scheduled_total`` and friends), and
* interleaved fairly with the other sessions' CEs by the controller's
  :class:`~repro.core.pipeline.admission.FairShareGate`.

``sync`` waits only for the session's *own* outstanding CEs and accrues
the session's ``grout_session_sync_seconds_total``; :attr:`elapsed`
measures simulated time since the session opened.  Programs that never
open a session keep the legacy single-program path, byte-identical to
the pre-session build.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Event
    from repro.core.ce import ComputationalElement
    from repro.core.runtime import GroutRuntime

__all__ = ["Session", "SessionClosedError"]

_VALID = set("abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")

#: The session lifecycle: ``open`` (accepting submissions) →
#: ``draining`` (close() is syncing the tail) → ``closed`` (finalized;
#: submissions raise, metrics frozen, name released).
OPEN, DRAINING, CLOSED = "open", "draining", "closed"


class SessionClosedError(RuntimeError):
    """A submission arrived on a session past its lifecycle."""


class Session:
    """One program's handle onto a shared runtime.

    Sessions carry an explicit ``open → draining → closed`` lifecycle so
    programs can arrive at and depart from a *persistent* runtime:
    :meth:`close` drains the session's own outstanding work, records the
    per-session finalization metrics (``grout_sessions_closed_total``,
    ``grout_session_lifetime_seconds``) and releases the name for the
    runtime's live-session listing.  A closed session rejects further
    submissions with :class:`SessionClosedError`; its accumulated
    session-labelled metrics stay readable in the shared registry.
    Sessions are context managers — ``with rt.session("p") as s: ...``
    closes on exit.
    """

    def __init__(self, runtime: "GroutRuntime", name: str,
                 plan_key: str | None = None):
        if not name or set(name) - _VALID:
            raise ValueError(
                f"session name {name!r} must be non-empty and use only "
                "letters, digits, '_', '-' or '.'")
        self._runtime = runtime
        self.name = name
        #: Program identity for the controller's plan cache (``None``:
        #: uncached).  Sessions sharing a key are expected to submit
        #: the same CE stream; the cache verifies per CE and falls back
        #: to the full pipeline on any mismatch.
        self.plan_key = plan_key
        #: Plan-cache attachments (set by ``PlanCache.attach``; read by
        #: the controller and the data-movement stage).
        self._plan_recorder = None
        self._plan_replayer = None
        self.created_at: float = runtime.engine.now
        self.closed_at: float | None = None
        self._state = OPEN
        self._seq = itertools.count(1)
        self._ces: list["ComputationalElement"] = []
        self._outstanding: list["Event"] = []
        #: Arrays allocated (or adopted) through this session, for
        #: :meth:`reclaim` — a persistent runtime must be able to return
        #: a departed program's managed memory to the UVM spaces.
        self._allocated: list[object] = []
        self._sync_seconds = runtime.metrics.family(
            "grout_session_sync_seconds_total").labels(session=name)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def state(self) -> str:
        """``"open"``, ``"draining"`` or ``"closed"``."""
        return self._state

    @property
    def closed(self) -> bool:
        """Whether the session finished its lifecycle."""
        return self._state == CLOSED

    def close(self, timeout: float | None = None) -> bool:
        """Drain this session's outstanding work, then finalize it.

        Advances simulated time until the session's own CEs completed
        (bounded by ``timeout`` simulated seconds, like :meth:`sync`),
        records the finalization metrics and releases the session from
        the runtime's live listing.  Idempotent; returns ``False`` when
        the drain timed out (the session still closes — remaining CEs
        keep running on the shared cluster, they are just no longer
        attributed to a live session object).
        """
        if self._state == CLOSED:
            return True
        self._state = DRAINING
        drained = True
        if not self._runtime.closed and self.pending_events():
            drained = self.sync(timeout=timeout)
        self._finalize()
        return drained

    def _finalize(self) -> None:
        """Record the close-time metrics and seal the session (no drain)."""
        if self._state == CLOSED:
            return
        recorder, self._plan_recorder = self._plan_recorder, None
        if recorder is not None:
            recorder.commit()
        replayer, self._plan_replayer = self._plan_replayer, None
        if replayer is not None:
            replayer.finish()
        engine = self._runtime.engine
        self.closed_at = engine.now
        metrics = self._runtime.metrics
        metrics.family("grout_sessions_closed_total").labels().inc()
        metrics.family("grout_session_lifetime_seconds").labels().observe(
            self.closed_at - self.created_at)
        self._state = CLOSED
        self._runtime._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- controller-facing hooks -------------------------------------------------

    def tag(self, ce: "ComputationalElement") -> None:
        """Namespace one CE under this session (admission stage hook)."""
        ce.tag(self.name, next(self._seq))
        self._ces.append(ce)

    def note_scheduled(self, done: "Event") -> None:
        """Track one dispatched CE's completion (dispatch stage hook)."""
        self._outstanding.append(done)

    # -- the session's Global-DAG view --------------------------------------------

    def ces(self) -> list["ComputationalElement"]:
        """Every CE admitted under this session, program order."""
        return list(self._ces)

    def pending_events(self) -> list["Event"]:
        """Completion events of this session's still-running CEs."""
        self._outstanding = [e for e in self._outstanding
                             if not e.processed]
        return list(self._outstanding)

    def dag_view(self) -> dict["ComputationalElement",
                               list["ComputationalElement"]]:
        """This session's slice of the Global DAG.

        Maps each still-tracked session CE to its direct ancestors that
        also belong to the session (cross-session data sharing is
        unusual but legal; foreign ancestors are simply not listed).
        """
        dag = self._runtime.controller.dag
        live = {id(ce) for ce in dag.nodes()}
        view: dict["ComputationalElement",
                   list["ComputationalElement"]] = {}
        for ce in self._ces:
            if id(ce) not in live:
                continue
            view[ce] = [p for p in dag.parents(ce)
                        if p.session == self.name]
        return view

    # -- duck-typed runtime surface ------------------------------------------------

    @contextmanager
    def _activate(self):
        if self._state != OPEN:
            raise SessionClosedError(
                f"session {self.name!r} is {self._state}; no further "
                "submissions are accepted")
        runtime = self._runtime
        previous = runtime._active_session
        runtime._active_session = self
        try:
            yield runtime
        finally:
            runtime._active_session = previous

    @property
    def runtime(self) -> "GroutRuntime":
        """The shared runtime under this session."""
        return self._runtime

    @property
    def engine(self):
        """The shared simulation engine."""
        return self._runtime.engine

    @property
    def cluster(self):
        """The shared cluster."""
        return self._runtime.cluster

    @property
    def controller(self):
        """The shared controller."""
        return self._runtime.controller

    @property
    def tracer(self):
        """The cluster-wide span tracer."""
        return self._runtime.tracer

    @property
    def metrics(self):
        """The cluster-wide metrics registry."""
        return self._runtime.metrics

    @property
    def profiler(self):
        """The cluster-wide per-CE profiler."""
        return self._runtime.profiler

    @property
    def elapsed(self) -> float:
        """Simulated seconds since this session opened."""
        return self._runtime.engine.now - self.created_at

    def device_array(self, *args, **kwargs):
        """Allocate a managed array under this session."""
        with self._activate() as rt:
            array = rt.device_array(*args, **kwargs)
        self._allocated.append(array)
        return array

    def adopt(self, array):
        """Register an externally created array under this session."""
        with self._activate() as rt:
            array = rt.adopt(array)
        self._allocated.append(array)
        return array

    def free(self, array) -> None:
        """Drop an array from the directory and every worker."""
        with self._activate() as rt:
            rt.free(array)

    def reclaim(self) -> int:
        """Free every array allocated through this session and drop its
        CEs' profiles; returns the array count.

        The serve layer calls this after a finished submission's report
        is sealed: a persistent runtime otherwise accumulates every
        departed program's managed bytes, climbing the node OSF — and
        with it every later launch's modeled degradation — without
        bound.  The profiler's phase totals stay exact.  Callable on a
        closed session (freeing is runtime bookkeeping, not a
        submission).  Arrays shared with other sessions must not be
        reclaimed; sessions only track their own allocations, so
        self-contained programs (every registry workload) are safe by
        construction.
        """
        arrays, self._allocated = self._allocated, []
        rt = self._runtime
        for array in arrays:
            rt.free(array)
        forget = rt.profiler.forget
        for ce in self._ces:
            forget(ce.ce_id)
        return len(arrays)

    def launch(self, *args, **kwargs):
        """Launch a kernel; the CE is tagged with this session."""
        with self._activate() as rt:
            return rt.launch(*args, **kwargs)

    def prefetch(self, *args, **kwargs):
        """Prefetch an array; the CE is tagged with this session."""
        with self._activate() as rt:
            return rt.prefetch(*args, **kwargs)

    def advise(self, *args, **kwargs) -> None:
        """Apply a memory advise on every worker's UVM space."""
        with self._activate() as rt:
            rt.advise(*args, **kwargs)

    def host_write(self, *args, **kwargs):
        """Host-side write; the CE is tagged with this session."""
        with self._activate() as rt:
            return rt.host_write(*args, **kwargs)

    def host_barrier(self, array) -> None:
        """Wait for every scheduled CE touching the array."""
        with self._activate() as rt:
            rt.host_barrier(array)

    def host_read(self, *args, **kwargs):
        """Synchronous host read; the CE is tagged with this session."""
        with self._activate() as rt:
            return rt.host_read(*args, **kwargs)

    # -- synchronisation -----------------------------------------------------------

    def sync(self, timeout: float | None = None) -> bool:
        """Advance simulated time until this session's CEs completed.

        Waits only for the session's own outstanding work (another
        program's long tail does not block this one) and accrues the
        session-labelled ``grout_session_sync_seconds_total`` counter.
        ``timeout`` bounds the wait in simulated seconds, as on
        :meth:`GroutRuntime.sync`.
        """
        engine = self._runtime.engine
        start = engine.now
        try:
            return self._runtime._drain(self.pending_events, timeout)
        finally:
            self._sync_seconds.inc(engine.now - start)

    def __repr__(self) -> str:
        return (f"<Session {self.name!r} {self._state} "
                f"ces={len(self._ces)} "
                f"outstanding={len(self.pending_events())}>")
