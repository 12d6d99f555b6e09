"""The simulated interconnect: contended transfers between nodes.

Each node has one full-duplex NIC modelled as an *egress* and an *ingress*
resource; a transfer holds both ends for its wire time, so concurrent flows
into the same node serialise exactly like they would on a real NIC.  The
fabric is what GrOUT's data-movement step (Algorithm 1, third phase) and
P2P worker transfers ride on.

Transfers are failure-aware: a :class:`RetryPolicy` adds per-attempt
timeouts and retry-with-exponential-backoff, and the fault-injection layer
(:mod:`repro.sim.faults`) can make an attempt flake mid-wire.  Every
transfer, faulted or not, is one :class:`Transfer` callback chain; with
the default policy and no injected faults it takes exactly one delivery
per NIC grant plus one at its wire end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Engine, Event, Resource, SimError, Tracer
from repro.sim.events import EventState
from repro.net.topology import Topology

_PROCESSED = EventState.PROCESSED


class TransferError(SimError):
    """A fabric transfer failed mid-wire (flake, timeout, or dead peer)."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Retry/backoff/timeout knobs of the fabric.

    Parameters
    ----------
    max_attempts:
        Total tries per transfer (1 = fail fast, no retry).
    backoff_base:
        Sleep before the first retry, simulated seconds.
    backoff_factor:
        Multiplier applied to the backoff per subsequent retry
        (exponential backoff).
    attempt_timeout:
        Per-attempt cap (queueing + wire), simulated seconds; ``None``
        disables the watchdog entirely (the default — zero overhead).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(slots=True)
class _Flake:
    """One armed mid-wire failure (fault-injection bookkeeping)."""

    src: str | None
    dst: str | None
    remaining: int

    def matches(self, src: str, dst: str) -> bool:
        """Whether this flake applies to a transfer on ``src -> dst``."""
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


class Transfer(Event):
    """One fabric transfer as a callback chain; fires at its last wire end.

    Each attempt takes an ingress grant, then an egress grant (so queuing
    on a busy destination never pins a source egress slot), then crosses
    the wire.  Chunks land through ``schedule_call`` and queue again; the
    last wire end is the event's own delivery.  A flake frees both ends
    half way through the wire, then the attempt backs off (``retry``
    span) and queues again — or, on the last attempt, the event fails
    right there.  The watchdog is a cancellable timer while an attempt
    queues; on the wire it fires only if it would beat the wire end.

    ``first`` numbers the first chunk (``None``: unchunked); ``whole``
    counts one logical transfer at the end.  With nothing to move the
    event is born processed.
    """

    __slots__ = ("fabric", "src", "dst", "label", "sizes", "first",
                 "whole", "attempt", "_k", "_wire", "_total", "_start",
                 "_rx", "_tx", "_deadline", "_watchdog", "_dead")

    def __init__(self, fabric: "Fabric", src: str, dst: str,
                 sizes: list[int], label: str, first: int | None = None,
                 whole: bool = True):
        super().__init__(fabric.engine, name=f"net:{src}->{dst}:{label}")
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.label = label
        self.sizes = sizes
        self.first = first
        self.whole = whole
        self.attempt = 1
        self._k = 0
        self._wire = self._total = self._start = 0.0
        self._rx = self._tx = self._deadline = self._watchdog = None
        self._dead = False
        if not sizes:
            self._value = 0.0
            self._state = _PROCESSED
            return
        self.callbacks.append(self._finish)
        self._request()

    def _granule(self) -> str:
        if self.first is None:
            return self.label
        return f"{self.label}#c{self.first + self._k}"

    def _request(self) -> None:
        fabric = self.fabric
        rx = self._rx = fabric._ingress[self.dst].request()
        rx.callbacks.append(self._on_rx)
        timeout = fabric.retry.attempt_timeout
        if timeout is not None:
            self._deadline = fabric.engine.now + timeout
            watchdog = self._watchdog = fabric.engine.timeout(timeout)
            watchdog.callbacks.append(self._lost)

    def _on_rx(self, ev: Event) -> None:
        if ev is self._rx:  # else freed by a watchdog or cancel
            tx = self._tx = self.fabric._egress[self.src].request()
            tx.callbacks.append(self._on_tx)

    def _on_tx(self, ev: Event) -> None:
        if ev is not self._tx:
            return
        fabric = self.fabric
        engine = fabric.engine
        if self._watchdog is not None:
            self._watchdog.cancel()
        src, dst = self.src, self.dst
        self._start = now = engine.now
        wire = self._wire = fabric.topology.transfer_seconds(
            src, dst, self.sizes[self._k])
        flaked = fabric._flakes and fabric._consume_flake(src, dst)
        end = wire / 2 if flaked else wire
        if self._deadline is not None and now + end >= self._deadline:
            engine.schedule_call(self._deadline - now, self._lost)
        elif flaked:
            exc = TransferError(f"transfer {src}->{dst} "
                                f"({self._granule()}) flaked mid-wire")
            if self.attempt >= fabric.retry.max_attempts:
                self.fail_at(end, exc)
            else:
                engine.schedule_call(end, self._lost, exc)
        elif self._k == len(self.sizes) - 1:
            self.succeed_at(wire, value=self._total + wire)
        else:
            engine.schedule_call(wire, self._landed)

    def _lost(self, exc: object = None) -> None:
        """The attempt failed: flaked (``exc`` is the error) or timed out
        (anything else).  Free both ends, then back off or fail."""
        if self._dead:
            return
        self._release()
        fabric = self.fabric
        policy = fabric.retry
        if not isinstance(exc, TransferError):
            fabric._m_timeouts.inc()
            exc = TransferError(
                f"transfer {self.src}->{self.dst} ({self._granule()}) "
                f"timed out after {policy.attempt_timeout:g}s")
        if self.attempt >= policy.max_attempts:
            self.fail(exc)
            return
        fabric._m_retries.inc()
        if self.first is not None:
            fabric._m_chunk_retries.inc()
        delay = policy.backoff(self.attempt)
        if delay > 0:
            fabric.engine.schedule_call(delay, self._retry,
                                        fabric.engine.now)
        else:
            self._retry(fabric.engine.now)

    def _retry(self, start: float) -> None:
        if self._dead:
            return
        fabric = self.fabric
        if fabric.tracer is not None:
            fabric.tracer.record(
                f"net:{self.src}->{self.dst}", "retry",
                f"{self._granule()}#retry{self.attempt}", start,
                fabric.engine.now, attempt=self.attempt,
                backoff=fabric.retry.backoff(self.attempt))
        self.attempt += 1
        self._request()

    def _landed(self, _arg: object) -> None:
        if not self._dead:
            self._account()
            self._k += 1
            self.attempt = 1
            self._request()

    def _finish(self, _ev: Event) -> None:
        if self._dead:
            return
        if self._ok:
            self._account()
        else:
            self.fabric._m_failures.inc()
            self._release()

    def _account(self) -> None:
        """Tally and trace the granule that just landed, free its ends."""
        fabric = self.fabric
        src, dst = self.src, self.dst
        nbytes = self.sizes[self._k]
        chunk = None if self.first is None else self.first + self._k
        self._total += self._wire
        link = fabric._link_handle
        link(fabric._h_bytes, fabric._m_bytes, src, dst).inc(nbytes)
        link(fabric._h_wire, fabric._m_wire, src, dst).inc(self._wire)
        if chunk is not None:
            link(fabric._h_chunks, fabric._m_chunks, src, dst).inc()
        if chunk is None or self.whole and self._k == len(self.sizes) - 1:
            link(fabric._h_transfers, fabric._m_transfers, src, dst).inc()
        tracer = fabric.tracer
        if tracer is not None and chunk is None:
            tracer.record(f"net:{src}->{dst}", "transfer", self.label,
                          self._start, fabric.engine.now, nbytes=nbytes)
        elif tracer is not None:
            tracer.record(f"net:{src}->{dst}", "chunk", self._granule(),
                          self._start, fabric.engine.now, nbytes=nbytes,
                          chunk=chunk)
        self._release()

    def _release(self) -> None:
        tx, self._tx = self._tx, None
        if tx is not None:
            self.fabric._egress[self.src].release(tx)
        rx, self._rx = self._rx, None
        if rx is not None:
            self.fabric._ingress[self.dst].release(rx)

    def cancel(self, cause: object = None) -> bool:
        """Stop now and free both NIC ends; the event never fires (a
        queued delivery lands as a no-op).  Returns whether it ran."""
        self._defused = True
        if self._dead or self._state is _PROCESSED:
            return False
        self._dead = True
        self.callbacks = []
        self._release()
        if self._watchdog is not None:
            self._watchdog.cancel()
        return True


class Fabric:
    """Executes transfers on an :class:`Engine` according to a topology."""

    def __init__(self, engine: Engine, topology: Topology,
                 tracer: Tracer | None = None,
                 retry: RetryPolicy | None = None,
                 metrics: MetricsRegistry | None = None,
                 chunk_bytes: int | None = None):
        if chunk_bytes is not None and chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1 (or None)")
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy()
        #: Default pipelining granule; ``None`` keeps the classic
        #: monolithic transfers (byte-identical schedules).
        self.chunk_bytes = chunk_bytes
        self._egress = {name: Resource(engine, topology.nic(name).max_flows,
                                       name=f"{name}/tx")
                        for name in topology.nodes}
        self._ingress = {name: Resource(engine, topology.nic(name).max_flows,
                                        name=f"{name}/rx")
                         for name in topology.nodes}
        # Registry-backed tallies (standalone fabrics get a private
        # registry so the stats surface works without a cluster).
        self.metrics = install_metrics(
            metrics if metrics is not None else MetricsRegistry())
        self._m_bytes = self.metrics.family("grout_fabric_bytes_total")
        self._m_transfers = self.metrics.family(
            "grout_fabric_transfers_total")
        self._m_wire = self.metrics.family(
            "grout_fabric_wire_seconds_total")
        self._m_retries = self.metrics.family(
            "grout_fabric_retries_total").labels()
        self._m_timeouts = self.metrics.family(
            "grout_fabric_timeouts_total").labels()
        self._m_failures = self.metrics.family(
            "grout_fabric_failures_total").labels()
        self._m_chunks = self.metrics.family("grout_chunks_total")
        self._m_chunk_retries = self.metrics.family(
            "grout_chunks_retried_total").labels()
        # Per-link bound handles, cached on first use: ``labels()`` is a
        # validate-and-lock round trip, far too heavy per chunk at
        # million-transfer scale.
        self._h_bytes: dict[tuple[str, str], object] = {}
        self._h_wire: dict[tuple[str, str], object] = {}
        self._h_transfers: dict[tuple[str, str], object] = {}
        self._h_chunks: dict[tuple[str, str], object] = {}
        self._flakes: list[_Flake] = []

    def _link_handle(self, cache: dict, family, src: str, dst: str):
        key = (src, dst)
        handle = cache.get(key)
        if handle is None:
            handle = cache[key] = family.labels(src=src, dst=dst)
        return handle

    def add_node(self, name: str) -> None:
        """Wire a node added to the topology after construction
        (autoscaling)."""
        if name in self._egress:
            return
        nic = self.topology.nic(name)
        self._egress[name] = Resource(self.engine, nic.max_flows,
                                      name=f"{name}/tx")
        self._ingress[name] = Resource(self.engine, nic.max_flows,
                                       name=f"{name}/rx")

    # -- stats ---------------------------------------------------------------

    @property
    def bytes_moved(self) -> int:
        """Total bytes successfully transferred (all links)."""
        return int(self._m_bytes.value_sum())

    @property
    def transfer_count(self) -> int:
        """Number of completed transfers (all links)."""
        return int(self._m_transfers.value_sum())

    @property
    def retry_count(self) -> int:
        """Attempts that failed and were retried."""
        return int(self._m_retries.value)

    @property
    def timeout_count(self) -> int:
        """Attempts killed by the per-attempt watchdog."""
        return int(self._m_timeouts.value)

    @property
    def failure_count(self) -> int:
        """Transfers that exhausted every attempt and gave up."""
        return int(self._m_failures.value)

    @property
    def chunk_count(self) -> int:
        """Pipelined chunks successfully moved (all links)."""
        return int(self._m_chunks.value_sum())

    @property
    def chunk_retry_count(self) -> int:
        """Chunk attempts that failed and were re-sent individually."""
        return int(self._m_chunk_retries.value)

    # -- fault injection ------------------------------------------------------

    def inject_flake(self, src: str | None = None, dst: str | None = None,
                     count: int = 1) -> None:
        """Arm ``count`` mid-wire failures on matching future transfers.

        ``None`` endpoints are wildcards; each matching attempt consumes
        one failure, spends half its wire time, then raises
        :class:`TransferError` — exercising the retry path and the
        NIC-slot release guarantees.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self._flakes.append(_Flake(src, dst, count))

    def _consume_flake(self, src: str, dst: str) -> bool:
        for flake in self._flakes:
            if flake.remaining > 0 and flake.matches(src, dst):
                flake.remaining -= 1
                if flake.remaining == 0:
                    self._flakes.remove(flake)
                return True
        return False

    # -- chunking ------------------------------------------------------------

    def chunk_sizes(self, nbytes: int,
                    chunk_bytes: int | None = None) -> list[int]:
        """Split ``nbytes`` into pipeline granules.

        Uses the fabric default when ``chunk_bytes`` is ``None``; with
        chunking disabled the whole payload is one granule (so relay
        chains degrade to store-and-forward instead of breaking).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        chunk = chunk_bytes if chunk_bytes is not None else self.chunk_bytes
        if nbytes == 0:
            return []
        if chunk is None or nbytes <= chunk:
            return [nbytes]
        full, rest = divmod(nbytes, chunk)
        return [chunk] * full + ([rest] if rest else [])

    def transfer(self, src: str, dst: str, nbytes: int,
                 label: str = "transfer", chunk_bytes: int | None = None,
                 *, chunk: int | None = None) -> Transfer:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns the :class:`Transfer`, which fires with the wire seconds
        spent (queueing excluded), or fails with :class:`TransferError`
        once ``retry.max_attempts`` flaked or timed-out attempts are
        spent.  ``chunk_bytes`` (per call, else the fabric default)
        pipelines the payload: a failed chunk re-sends only itself, the
        watchdog bounds each chunk, and flows re-arbitrate the NIC ends
        between chunks.  ``chunk`` instead sends chunk number ``chunk``
        of a relay pipeline: chunk spans and tallies, no logical
        transfer counted.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst or nbytes == 0:
            return Transfer(self, src, dst, [], label)
        if chunk is not None:
            return Transfer(self, src, dst, [nbytes], label, chunk, False)
        step = chunk_bytes if chunk_bytes is not None else self.chunk_bytes
        if step is None:
            return Transfer(self, src, dst, [nbytes], label)
        if step < 1:
            raise ValueError("chunk_bytes must be >= 1 (or None)")
        return Transfer(self, src, dst, self.chunk_sizes(nbytes, step),
                        label, 0)
