"""GroutDaemon — the stdlib-asyncio HTTP front end of ``grout serve``.

One process, one event loop, one shared :class:`GroutService`: requests
are parsed from asyncio streams (a deliberately minimal HTTP/1.1
subset — no external dependencies), submissions enqueue onto the
persistent runtime, and a single *pump task* advances simulated time in
bounded quanta whenever work is in flight, resolving each request's
future as its session completes.  Hundreds of concurrent connections
therefore multiplex onto one cooperative simulation.

If ``service.pump()`` raises, the pump stops and says so: waiting runs
get a 500 carrying the error, ``/healthz`` and later runs a 503.

Endpoints::

    GET  /healthz      -> {"status": "ok"}
    GET  /v1/status    -> service snapshot (inflight, quotas, clock)
    GET  /metrics      -> Prometheus text (the full grout_* catalogue)
    POST /v1/run       -> body: one workload spec; replies with the
                          grout-serve/1 run-report when the workload's
                          last CE completes
    POST /v1/shutdown  -> drain, stop accepting, exit cleanly

Listens on TCP (``host``/``port``) or a unix socket (``path``).
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.protocol import SpecError
from repro.serve.service import (GroutService, QuotaError, ServiceClosed,
                                 Ticket)

__all__ = ["GroutDaemon"]

#: Engine deliveries per pump quantum — small enough that the loop
#: stays responsive to new connections, large enough to amortise the
#: task switch.
PUMP_QUANTUM = 2048

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

MAX_BODY = 8 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class GroutDaemon:
    """Serve one :class:`GroutService` over HTTP (TCP or unix socket)."""

    def __init__(self, service: GroutService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 path: str | None = None):
        self.service = service
        self.host = host
        self.port = port
        self.path = path
        self.address: str | None = None    # filled once bound
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._work = asyncio.Event()       # set while tickets are open
        self._waiters: dict[int, asyncio.Future] = {}
        #: What killed the pump, traceback attached; ``None`` while alive.
        self.pump_error: Exception | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> str:
        """Bind, start the pump task, return the listening address."""
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.path)
            self.address = f"unix:{self.path}"
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port)
            sock = self._server.sockets[0]
            bound_host, bound_port = sock.getsockname()[:2]
            self.port = bound_port
            self.address = f"http://{bound_host}:{bound_port}"
        self._pump_task = asyncio.ensure_future(self._pump())
        return self.address

    async def run(self) -> None:
        """Start, serve until :meth:`stop` (or POST /v1/shutdown), clean up.

        Safe to call after an explicit :meth:`start` (e.g. to print the
        bound address first) — it will not bind twice.
        """
        if self._server is None:
            await self.start()
        try:
            await self._stop.wait()
        finally:
            assert self._server is not None
            self._server.close()
            await self._server.wait_closed()
            self._work.set()               # unblock the pump for exit
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            # A dead pump left the simulation mid-step: do not run it on.
            self.service.close(settle=self.pump_error is None)

    def stop(self) -> None:
        """Request a clean exit of :meth:`run`."""
        self._stop.set()

    # -- the pump ----------------------------------------------------------------

    async def _pump(self) -> None:
        """Advance the shared simulation while submissions are in flight."""
        while not self._stop.is_set():
            await self._work.wait()
            if self._stop.is_set():
                return
            try:
                finished = self.service.pump(PUMP_QUANTUM)
            except Exception as exc:
                self._pump_died(exc)
                return
            self._resolve(finished)
            if not self.service.inflight():
                self._work.clear()
            # Yield so connection handlers run between quanta.
            await asyncio.sleep(0)

    def _pump_died(self, exc: Exception) -> None:
        self.pump_error = exc
        waiters, self._waiters = self._waiters, {}
        for future in waiters.values():
            if not future.done():
                future.set_exception(self._dead_pump(500))

    def _dead_pump(self, status: int) -> _HttpError:
        exc = self.pump_error
        return _HttpError(status, f"simulation pump died: "
                                  f"{type(exc).__name__}: {exc}")

    def _resolve(self, finished: list[Ticket]) -> None:
        for ticket in finished:
            future = self._waiters.pop(ticket.ticket_id, None)
            if future is not None and not future.done():
                future.set_result(ticket.report)

    async def _await_ticket(self, ticket: Ticket) -> dict:
        if ticket.finalized:               # e.g. manifests run inline
            assert ticket.report is not None
            return ticket.report
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._waiters[ticket.ticket_id] = future
        self._work.set()
        return await future

    # -- HTTP --------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, body = await self._read_request(reader)
                status, payload = await self._route(method, target, body)
            except _HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
            await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY:
            raise _HttpError(413, f"body over {MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _route(self, method: str, target: str, body: bytes
                     ) -> tuple[int, dict | str]:
        target = target.split("?", 1)[0]
        if target == "/healthz" and method == "GET":
            if self.pump_error is not None:
                return 503, {"status": "error",
                             "error": str(self._dead_pump(503))}
            return 200, {"status": "ok"}
        if target == "/v1/status" and method == "GET":
            return 200, self.service.status()
        if target == "/metrics" and method == "GET":
            from repro.obs import to_prometheus_text
            return 200, to_prometheus_text(self.service.runtime.metrics)
        if target == "/v1/run" and method == "POST":
            if self.pump_error is not None:
                raise self._dead_pump(503)
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"invalid JSON body: {exc}") \
                    from None
            try:
                ticket = self.service.submit(payload)
            except SpecError as exc:
                raise _HttpError(400, str(exc)) from None
            except QuotaError as exc:
                raise _HttpError(429, str(exc)) from None
            except ServiceClosed as exc:
                raise _HttpError(503, str(exc)) from None
            return 200, await self._await_ticket(ticket)
        if target == "/v1/shutdown" and method == "POST":
            # Reply first, then wind down: settle the tail, stop the
            # listener, let run() shut the runtime down.
            asyncio.get_event_loop().call_soon(self.stop)
            return 200, {"status": "shutting-down",
                         "inflight": self.service.inflight()}
        if target in ("/healthz", "/v1/status", "/metrics", "/v1/run",
                      "/v1/shutdown"):
            raise _HttpError(405, f"{method} not allowed on {target}")
        raise _HttpError(404, f"no route for {target}")

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict | str) -> None:
        if isinstance(payload, str):
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            body = payload.encode("utf-8")
        else:
            content_type = "application/json"
            body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
