"""Deterministic fault injection for simulated runs.

A :class:`FaultPlan` is a seedable, reproducible schedule of failures to
throw at a running engine — a worker dying mid-kernel, a link losing
bandwidth, a fabric transfer flaking mid-wire.  The :class:`FaultInjector`
arms the plan on an engine and dispatches each fault, at its exact
simulated time, to a handler registered by the layer that knows how to
hurt itself (the runtime wires the standard handlers; see
:meth:`repro.core.GroutRuntime.install_faults`).

Keeping the injector generic — it knows *when*, handlers know *how* —
lets the sim layer stay free of upward dependencies while the same plan
format drives the fabric, the topology and the controller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.trace import Tracer

#: The fault kinds the standard handlers understand.
WORKER_CRASH = "worker-crash"
LINK_DEGRADE = "link-degrade"
TRANSFER_FLAKE = "transfer-flake"

KNOWN_KINDS = (WORKER_CRASH, LINK_DEGRADE, TRANSFER_FLAKE)


@dataclass(frozen=True, slots=True)
class Fault:
    """One scheduled failure.

    Parameters
    ----------
    kind:
        One of :data:`KNOWN_KINDS` (custom kinds are allowed as long as a
        handler is registered for them).
    at:
        Simulated time (seconds) the fault strikes.
    node:
        Target node (``worker-crash``).
    link:
        Target edge as ``(a, b)`` (``link-degrade``, and an optional
        filter for ``transfer-flake``).
    factor:
        Bandwidth multiplier for ``link-degrade`` (0.25 = quarter speed).
    count:
        How many subsequent matching transfers fail (``transfer-flake``).
    """

    kind: str
    at: float
    node: str | None = None
    link: tuple[str, str] | None = None
    factor: float = 1.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.kind == WORKER_CRASH and not self.node:
            raise ValueError("worker-crash needs a node")
        if self.kind == LINK_DEGRADE:
            if self.link is None:
                raise ValueError("link-degrade needs a link")
            if not 0 < self.factor <= 1:
                raise ValueError("degrade factor must be in (0, 1]")
        if self.kind == TRANSFER_FLAKE and self.count < 1:
            raise ValueError("transfer-flake count must be >= 1")

    def describe(self) -> str:
        """Human-readable one-liner for traces and logs."""
        if self.kind == WORKER_CRASH:
            return f"{self.kind}:{self.node}"
        if self.kind == LINK_DEGRADE:
            assert self.link is not None
            return (f"{self.kind}:{self.link[0]}-{self.link[1]}"
                    f"x{self.factor:g}")
        if self.kind == TRANSFER_FLAKE and self.link is not None:
            return f"{self.kind}:{self.link[0]}-{self.link[1]}"
        return self.kind


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable, time-ordered schedule of faults."""

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=lambda f: (f.at, f.kind)))
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # -- constructors --------------------------------------------------------

    @classmethod
    def single_crash(cls, node: str, at: float) -> "FaultPlan":
        """The canonical experiment: one worker dies at ``at``."""
        return cls((Fault(WORKER_CRASH, at, node=node),))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI's compact spec string.

        Comma-separated entries, each ``kind:target@time``:

        * ``crash:worker0@1.5`` — worker0 dies at t=1.5 s
        * ``degrade:controller-worker1@0.5x0.25`` — edge cut to 25 %
          bandwidth at t=0.5 s
        * ``flake:worker0-worker1@2.0`` — the next transfer on that edge
          fails mid-wire (append ``*N`` for N consecutive failures)
        * ``flake@2.0`` — the next transfer on *any* edge fails
        """
        faults: list[Fault] = []
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            head, _, when = entry.partition("@")
            if not when:
                raise ValueError(f"fault entry {entry!r} is missing '@time'")
            kind, _, target = head.partition(":")
            if kind == "crash":
                faults.append(Fault(WORKER_CRASH, float(when), node=target))
            elif kind == "degrade":
                time_part, _, factor = when.partition("x")
                a, _, b = target.partition("-")
                if not b:
                    raise ValueError(
                        f"degrade target {target!r} must be 'a-b'")
                faults.append(Fault(
                    LINK_DEGRADE, float(time_part), link=(a, b),
                    factor=float(factor) if factor else 0.5))
            elif kind == "flake":
                time_part, _, count = when.partition("*")
                link = None
                if target:
                    a, _, b = target.partition("-")
                    if not b:
                        raise ValueError(
                            f"flake target {target!r} must be 'a-b'")
                    link = (a, b)
                faults.append(Fault(
                    TRANSFER_FLAKE, float(time_part), link=link,
                    count=int(count) if count else 1))
            else:
                raise ValueError(
                    f"unknown fault kind {kind!r} in {entry!r}; expected "
                    "crash/degrade/flake")
        return cls(tuple(faults))

    @classmethod
    def random(cls, seed: int, *, horizon: float,
               workers: Sequence[str],
               n_faults: int = 3,
               kinds: Sequence[str] = KNOWN_KINDS,
               controller: str = "controller") -> "FaultPlan":
        """A reproducible random plan: same seed, same faults, always.

        Times are drawn uniformly over ``(0, horizon)``; crash targets
        and degraded/flaky edges are drawn from ``workers`` (edges pair a
        worker with the controller or another worker).
        """
        if not workers:
            raise ValueError("need at least one worker to fault")
        rng = random.Random(seed)
        faults: list[Fault] = []
        for _ in range(n_faults):
            kind = rng.choice(list(kinds))
            at = rng.uniform(0.0, horizon)
            if kind == WORKER_CRASH:
                faults.append(Fault(kind, at, node=rng.choice(list(workers))))
            else:
                a = rng.choice(list(workers))
                b = rng.choice([controller]
                               + [w for w in workers if w != a])
                if kind == LINK_DEGRADE:
                    faults.append(Fault(kind, at, link=(a, b),
                                        factor=rng.uniform(0.1, 0.9)))
                else:
                    faults.append(Fault(kind, at, link=(a, b),
                                        count=rng.randint(1, 3)))
        return cls(tuple(faults))


@dataclass(slots=True)
class InjectorStats:
    """What the injector actually did."""

    injected: int = 0
    unhandled: int = 0
    by_kind: dict = field(default_factory=dict)


class FaultInjector:
    """Arms a :class:`FaultPlan` against a running engine.

    The injector owns the *when*; layer-specific handlers registered via
    :meth:`on` own the *how*.  Every injected fault is recorded as a
    ``fault`` span on the tracer so recoveries are visible in timeline
    and Chrome-trace exports.
    """

    def __init__(self, engine: "Engine", plan: FaultPlan, *,
                 tracer: "Tracer | None" = None,
                 metrics: object | None = None):
        self.engine = engine
        self.plan = plan
        self.tracer = tracer
        self.stats = InjectorStats()
        self._fault_counter = None
        if metrics is not None:
            # Imported lazily: the sim layer has no hard dependency on
            # the observability package unless a registry is handed in.
            from repro.obs.catalog import FAULT_METRICS
            metrics.register_many(FAULT_METRICS)
            self._fault_counter = metrics.family(
                "grout_faults_injected_total")
        self._handlers: dict[str, Callable[[Fault], None]] = {}
        self._armed = False

    def on(self, kind: str,
           handler: Callable[[Fault], None]) -> "FaultInjector":
        """Register the handler for one fault kind (chainable)."""
        self._handlers[kind] = handler
        return self

    def arm(self) -> "FaultInjector":
        """Schedule every planned fault on the engine (idempotent)."""
        if self._armed:
            return self
        self._armed = True
        for fault in self.plan:
            self.engine.schedule_call(0.0, self._sleep, fault)
        return self

    def _sleep(self, fault: Fault) -> None:
        """A fault's start hop: sleep until ``fault.at``, then strike."""
        delay = fault.at - self.engine.now
        if delay > 0:
            self.engine.schedule_call(delay, self._strike, fault)
        else:
            self._strike(fault)

    def _strike(self, fault: Fault) -> None:
        """Run the fault's handler, record its span, then one terminal
        zero-delay delivery.  It fails, undefused, with anything the
        handler raised, so ``engine.run()`` raises that one hop later."""
        done = self.engine.event(name=f"fault:{fault.describe()}")
        handler = self._handlers.get(fault.kind)
        start = self.engine.now
        if handler is None:
            self.stats.unhandled += 1
        else:
            try:
                handler(fault)
            except Exception as exc:
                # Trim this frame: it holds ``done``, which holds ``exc``.
                done.fail(exc.with_traceback(exc.__traceback__.tb_next))
                return
            self.stats.injected += 1
            self.stats.by_kind[fault.kind] = \
                self.stats.by_kind.get(fault.kind, 0) + 1
            if self._fault_counter is not None:
                self._fault_counter.labels(kind=fault.kind).inc()
        if self.tracer is not None:
            lane = fault.node or (f"net:{fault.link[0]}->{fault.link[1]}"
                                  if fault.link else "faults")
            self.tracer.record(lane, "fault", fault.describe(),
                               start, self.engine.now,
                               handled=handler is not None)
        done.succeed(fault)


def plan_from(faults: Iterable[Fault]) -> FaultPlan:
    """Convenience wrapper building a plan from any fault iterable."""
    return FaultPlan(tuple(faults))
