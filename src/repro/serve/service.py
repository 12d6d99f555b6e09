"""GroutService — the transport-independent serving core.

One persistent :class:`~repro.core.runtime.GroutRuntime` hosts every
submission: each accepted workload spec opens a
:class:`~repro.core.session.Session`, its CEs are enqueued eagerly
(submission never blocks on other tenants' work) and interleaved with
every other live session by the controller's FairShareGate.  Simulated
time advances either cooperatively (:meth:`GroutService.pump`, the
daemon's scheduling quantum) or to one submission's completion
(:meth:`GroutService.settle`).

Admission control is per tenant: at most ``tenant_quota`` sessions in
flight per tenant (and ``max_sessions`` overall); refusals and
acceptances are counted under the ``grout_serve_*`` metrics so the
Prometheus endpoint tells the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.serve.protocol import SCHEMA, SpecError, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RuntimeConfig
    from repro.core.session import Session

__all__ = ["GroutService", "QuotaError", "ServiceClosed", "Ticket"]


class ServiceClosed(RuntimeError):
    """Submission after the service started shutting down (HTTP 503)."""


class QuotaError(RuntimeError):
    """Submission over the tenant's (or the service's) budget (HTTP 429)."""


@dataclass(slots=True)
class Ticket:
    """One accepted submission's lifecycle handle."""

    ticket_id: int
    spec: WorkloadSpec
    session: "Session"
    submitted_at: float                   # simulated seconds
    workload: object | None = None        # registry Workload instance
    ce_count: int = 0
    pending: int = 0                      # CE done-events still to fire
    completed_at: float | None = None     # stamped by the last CE's event
    report: dict | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether every CE of this submission has completed."""
        return self.pending == 0

    @property
    def finalized(self) -> bool:
        """Whether the run-report has been produced."""
        return self.report is not None


class GroutService:
    """Hundreds of concurrent sessions on one shared simulated cluster."""

    def __init__(self, config: "RuntimeConfig | None" = None, *,
                 tenant_quota: int = 64, max_sessions: int = 1024):
        from repro.core.config import RuntimeConfig
        if config is None:
            config = RuntimeConfig(policy="round-robin")
        if config.policy == "vector-step":
            raise ValueError(
                "serve needs an online policy (the runtime outlives any "
                "single workload, so there is no tuned vector); pick "
                "e.g. policy='round-robin' or 'least-loaded'")
        if config.mode != "grout":
            raise ValueError("serve hosts every submission as a session "
                             "of one GrOUT runtime; mode='grcuda' has "
                             "no sessions")
        if config.shards is not None:
            raise ValueError("serve runs the engine cooperatively and "
                             "does not support shard mode")
        if tenant_quota < 1 or max_sessions < 1:
            raise ValueError("quotas must be >= 1")
        self.config = config
        self.tenant_quota = tenant_quota
        self.max_sessions = max_sessions
        self.runtime = config.build_runtime()
        # Nothing in the service reads a span, and a persistent runtime
        # would keep every request's spans forever.
        self.runtime.tracer.enabled = False
        self._tickets: dict[int, Ticket] = {}   # in flight, by id
        #: Drain-capped tickets whose CEs still run, by id: each
        #: session reclaims once its countdown reaches zero.
        self._capped: dict[int, Ticket] = {}
        #: Ticket ids whose last CE completed, awaiting finalization —
        #: pushed by the per-ticket countdown callback, drained by
        #: :meth:`_collect`, so collection never scans every ticket.
        self._finished: list[int] = []
        self._next_id = 0
        self._closed = False
        #: High-water mark of concurrently open sessions (the load
        #: story's headline number).
        self.peak_inflight = 0
        registry = self.runtime.metrics
        self._accepted = registry.family(
            "grout_serve_sessions_accepted_total")
        self._rejected = registry.family(
            "grout_serve_sessions_rejected_total")
        self._inflight = registry.family(
            "grout_serve_sessions_inflight").labels()
        self._latency = registry.family(
            "grout_serve_request_latency_seconds").labels()

    # -- admission -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (or is running)."""
        return self._closed

    def inflight(self, tenant: str | None = None) -> int:
        """Open submissions, overall or for one tenant."""
        if tenant is None:
            return len(self._tickets)
        return sum(1 for t in self._tickets.values()
                   if t.spec.tenant == tenant)

    def _reject(self, tenant: str, reason: str) -> None:
        self._rejected.labels(tenant=tenant, reason=reason).inc()

    def submit(self, payload: "Mapping[str, object] | WorkloadSpec"
               ) -> Ticket:
        """Admit one workload spec and enqueue its CEs.

        Raises :class:`SpecError` (bad spec), :class:`QuotaError` (over
        budget) or :class:`ServiceClosed` (shutting down); every refusal
        is also counted under ``grout_serve_sessions_rejected_total``.
        The returned ticket's work runs whenever simulated time next
        advances (:meth:`pump`/:meth:`settle`).
        """
        tenant = payload.tenant if isinstance(payload, WorkloadSpec) \
            else str(payload.get("tenant", "default") or "default") \
            if isinstance(payload, Mapping) else "default"
        if self._closed:
            self._reject(tenant, "shutting-down")
            raise ServiceClosed("service is shutting down")
        try:
            spec = payload if isinstance(payload, WorkloadSpec) \
                else WorkloadSpec.from_dict(payload)
        except SpecError:
            self._reject(tenant, "bad-spec")
            raise
        if len(self._tickets) >= self.max_sessions:
            self._reject(spec.tenant, "quota")
            raise QuotaError(
                f"service is at its session cap ({self.max_sessions})")
        if self.inflight(spec.tenant) >= self.tenant_quota:
            self._reject(spec.tenant, "quota")
            raise QuotaError(
                f"tenant {spec.tenant!r} is at its quota "
                f"({self.tenant_quota} sessions in flight)")
        # Registry workloads are generated deterministically from their
        # spec knobs, so the spec IS the program identity — hot tenants
        # resubmitting the same spec replay memoized scheduling
        # decisions (seed is deliberately excluded: it varies data, not
        # structure, for every registry workload; a seed-dependent
        # structure would be caught per CE and fall back).
        plan_key = None
        if self.config.plan_cache and spec.workload is not None:
            plan_key = (f"{spec.workload}:{spec.footprint_bytes}"
                        f":{spec.n_chunks}")
        try:
            session = self.runtime.session(spec.session,
                                           plan_key=plan_key)
        except ValueError as exc:      # name collision / bad name
            self._reject(spec.tenant, "bad-spec")
            raise SpecError(str(exc)) from None

        ticket = Ticket(ticket_id=self._next_id, spec=spec,
                        session=session,
                        submitted_at=self.runtime.engine.now)
        self._next_id += 1
        try:
            if spec.workload is not None:
                from repro.workloads import make_workload
                kwargs: dict[str, object] = {"seed": spec.seed}
                if spec.n_chunks is not None:
                    kwargs["n_chunks"] = spec.n_chunks
                workload = make_workload(spec.workload,
                                         spec.footprint_bytes, **kwargs)
                workload.build(session)
                workload.run(session)
                ticket.workload = workload
                ticket.ce_count = workload.ce_count
                # Stamp the true completion instant: every CE's done
                # event exists already (the fair-share gate defers
                # execution, never event creation), so the last one to
                # fire leaves the session's finish time on the ticket —
                # latency stays exact no matter how rarely the owner
                # collects (the daemon only collects once per quantum).
                # The same callback counts the ticket's outstanding CEs
                # down and queues it for finalization at zero.
                engine = self.runtime.engine
                events = session.pending_events()
                ticket.pending = len(events)
                finished = self._finished

                def _note(_event, t=ticket, e=engine, f=finished):
                    t.pending -= 1
                    if not t.pending:
                        t.completed_at = e.now
                        f.append(t.ticket_id)

                for event in events:
                    event.callbacks.append(_note)
                if not events:
                    ticket.completed_at = engine.now
            else:
                # Manifests read results back inline, so they complete
                # (and advance simulated time) during submission.
                from repro.polyglot.manifest import run_manifest
                result = run_manifest(session, spec.manifest,
                                      seed=spec.seed)
                ticket.ce_count = result.ce_count
                ticket.completed_at = self.runtime.engine.now
        except Exception:
            session.close()
            self._reject(spec.tenant, "bad-spec")
            raise
        self._tickets[ticket.ticket_id] = ticket
        if ticket.pending == 0 and ticket.completed_at is not None:
            # Completed during submission (manifests run inline; a
            # workload may admit nothing) — queue for finalization.
            self._finished.append(ticket.ticket_id)
        self._accepted.labels(tenant=spec.tenant).inc()
        self._inflight.set(len(self._tickets))
        self.peak_inflight = max(self.peak_inflight, len(self._tickets))
        return ticket

    # -- progress --------------------------------------------------------------

    def pump(self, max_events: int = 1024) -> list[Ticket]:
        """Advance the shared simulation by up to ``max_events`` deliveries.

        The daemon's scheduling quantum: bounded, so the asyncio loop
        can interleave new submissions with simulation progress.
        Returns the tickets that completed (finalized, reports ready).
        """
        self.runtime.engine.run_steps(max_events)
        return self._collect()

    def settle(self, ticket: Ticket) -> dict:
        """Run one submission to completion; returns its run-report."""
        if not ticket.finalized:
            ticket.session.sync(timeout=ticket.spec.timeout)
            self._collect()
            if not ticket.finalized:   # drain cap hit: report as-is
                self._finalize(ticket, completed=False)
        assert ticket.report is not None
        return ticket.report

    def settle_all(self) -> list[dict]:
        """Run every open submission to completion, submission order."""
        return [self.settle(t) for t in list(self._tickets.values())]

    def _collect(self) -> list[Ticket]:
        if not self._finished:
            return []
        finished = []
        for ticket_id in self._finished:
            ticket = self._tickets.get(ticket_id)
            if ticket is not None:
                finished.append(ticket)
            else:
                # A drain-capped ticket's tail drained: no CE touches
                # its arrays any more, so its memory goes back.
                self._capped.pop(ticket_id).session.reclaim()
        self._finished.clear()
        for ticket in finished:
            self._finalize(ticket, completed=True)
        return finished

    def _finalize(self, ticket: Ticket, *, completed: bool) -> None:
        if ticket.finalized:
            return
        now = self.runtime.engine.now
        if completed and ticket.completed_at is not None:
            now = ticket.completed_at
        latency = now - ticket.submitted_at
        self._latency.observe(latency)
        verified: bool | None = None
        if completed and ticket.workload is not None and ticket.spec.check:
            verified = bool(ticket.workload.verify())
        session_name = ticket.session.name
        ticket.session.close(timeout=0 if not completed else None)
        if completed:
            # Return the program's managed memory to the UVM spaces: a
            # persistent service otherwise accumulates every finished
            # session's bytes, driving the node OSF — and every later
            # tenant's modeled slowdown — monotonically upward.
            ticket.session.reclaim()
        else:
            # A drain-capped ticket still has CEs running against its
            # arrays: it reclaims once they finish (:meth:`_collect`).
            self._capped[ticket.ticket_id] = ticket
        del self._tickets[ticket.ticket_id]
        self._inflight.set(len(self._tickets))
        ticket.report = {
            "schema": SCHEMA,
            "ticket": ticket.ticket_id,
            "tenant": ticket.spec.tenant,
            "session": session_name,
            "workload": ticket.spec.kind,
            "footprint_bytes": ticket.spec.footprint_bytes,
            "ce_count": ticket.ce_count,
            "submitted_at": ticket.submitted_at,
            "finished_at": now,
            "latency_seconds": latency,
            "completed": completed,
            "verified": verified,
        }

    # -- introspection ----------------------------------------------------------

    def status(self) -> dict:
        """JSON-ready service snapshot (the daemon's ``/v1/status``)."""
        tenants: dict[str, int] = {}
        for ticket in self._tickets.values():
            tenants[ticket.spec.tenant] = \
                tenants.get(ticket.spec.tenant, 0) + 1
        return {
            "schema": SCHEMA,
            "closed": self._closed,
            "sim_now": self.runtime.engine.now,
            "inflight": len(self._tickets),
            "peak_inflight": self.peak_inflight,
            "tenants": tenants,
            "tenant_quota": self.tenant_quota,
            "max_sessions": self.max_sessions,
            "accepted_total": int(self._accepted.value_sum()),
            "rejected_total": int(self._rejected.value_sum()),
        }

    # -- teardown ----------------------------------------------------------------

    def close(self, *, settle: bool = True) -> None:
        """Stop admitting, optionally settle the tail, shut the runtime down."""
        if self._closed:
            return
        self._closed = True
        if settle:
            self.settle_all()
        self.runtime.shutdown()

    def __enter__(self) -> "GroutService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
