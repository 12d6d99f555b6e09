"""GroutDaemon — HTTP front end, end-to-end over real sockets.

Each test boots the daemon on an ephemeral localhost port inside one
asyncio event loop and speaks minimal HTTP/1.1 through asyncio streams
(no external client library), exercising concurrent submissions, error
mapping, metrics exposure and the shutdown handshake.
"""

import asyncio
import json

import pytest

from repro.core import RuntimeConfig
from repro.gpu.specs import MIB
from repro.serve import GroutDaemon, GroutService

FOOTPRINT = 16 * MIB


def _daemon(**kwargs) -> GroutDaemon:
    service = GroutService(RuntimeConfig(policy="round-robin"), **kwargs)
    return GroutDaemon(service, host="127.0.0.1", port=0)


async def _request(port: int, method: str, path: str,
                   payload: dict | None = None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    text = body.decode()
    if b"application/json" in head:
        return status, json.loads(text)
    return status, text


def _run(coro):
    return asyncio.run(coro)


async def _with_daemon(daemon: GroutDaemon, inner):
    await daemon.start()
    runner = asyncio.ensure_future(daemon.run())
    try:
        return await inner(daemon.port)
    finally:
        daemon.stop()
        await runner


class TestEndpoints:
    def test_healthz_status_metrics_and_404(self):
        async def scenario(port):
            assert await _request(port, "GET", "/healthz") == \
                (200, {"status": "ok"})
            status, snapshot = await _request(port, "GET", "/v1/status")
            assert status == 200 and snapshot["inflight"] == 0
            status, text = await _request(port, "GET", "/metrics")
            assert status == 200
            assert "grout_serve_sessions_inflight" in text
            status, _ = await _request(port, "GET", "/nope")
            assert status == 404
            status, _ = await _request(port, "DELETE", "/v1/run")
            assert status == 405

        _run(_with_daemon(_daemon(), scenario))

    def test_run_returns_a_grout_serve_report(self):
        async def scenario(port):
            status, report = await _request(
                port, "POST", "/v1/run",
                {"workload": "mv", "footprint_bytes": FOOTPRINT,
                 "tenant": "alice"})
            assert status == 200
            assert report["schema"] == "grout-serve/1"
            assert report["tenant"] == "alice"
            assert report["completed"] and report["verified"]

        _run(_with_daemon(_daemon(), scenario))

    def test_concurrent_submissions_multiplex_one_runtime(self):
        async def scenario(port):
            results = await asyncio.gather(*[
                _request(port, "POST", "/v1/run",
                         {"workload": "mv",
                          "footprint_bytes": FOOTPRINT,
                          "tenant": f"t{i % 3}", "seed": i,
                          "check": False})
                for i in range(8)])
            assert all(status == 200 for status, _ in results)
            assert all(report["completed"] for _, report in results)
            # All eight shared one simulated cluster.
            sessions = {report["session"] for _, report in results}
            assert len(sessions) == 8

        _run(_with_daemon(_daemon(), scenario))


class TestErrorMapping:
    def test_bad_spec_400_quota_429(self):
        async def scenario(port):
            status, error = await _request(
                port, "POST", "/v1/run", {"workload": "nope"})
            assert status == 400 and "unknown workload" in error["error"]
            status, _ = await _request(port, "POST", "/v1/run",
                                       {"gibberish": True})
            assert status == 400
            # Quota 1: occupy the slot directly on the service (the
            # pump only runs for awaited HTTP tickets, so this one
            # stays in flight) — the same tenant's HTTP submission
            # must bounce with 429 while another tenant's passes.
            daemon.service.submit(
                {"workload": "mv", "footprint_bytes": FOOTPRINT,
                 "tenant": "alice", "check": False})
            status, error = await _request(
                port, "POST", "/v1/run",
                {"workload": "mv", "footprint_bytes": FOOTPRINT,
                 "tenant": "alice"})
            assert status == 429 and "quota" in error["error"]
            status, _ = await _request(
                port, "POST", "/v1/run",
                {"workload": "mv", "footprint_bytes": FOOTPRINT,
                 "tenant": "bob", "check": False})
            assert status == 200

        daemon = _daemon(tenant_quota=1)
        _run(_with_daemon(daemon, scenario))

    def test_invalid_json_body(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            body = b"{not json"
            writer.write((f"POST /v1/run HTTP/1.1\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          f"\r\n").encode() + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

        _run(_with_daemon(_daemon(), scenario))


class TestPumpFailure:
    def test_pump_death_is_reported_not_hidden(self):
        """A raising ``service.pump`` fails its waiters with a 500,
        turns ``/healthz`` and later runs into 503s naming the error,
        and ``run()`` still closes the service cleanly."""
        spec = {"workload": "mv", "footprint_bytes": FOOTPRINT}

        def pump(max_events=1024):
            raise RuntimeError("engine exploded")

        async def scenario(port):
            status, body = await _request(port, "POST", "/v1/run", spec)
            assert status == 500 and "engine exploded" in body["error"]
            status, body = await _request(port, "GET", "/healthz")
            assert status == 503 and "engine exploded" in body["error"]
            status, body = await _request(port, "POST", "/v1/run", spec)
            assert status == 503 and "engine exploded" in body["error"]

        daemon = _daemon()
        daemon.service.pump = pump
        _run(asyncio.wait_for(_with_daemon(daemon, scenario), timeout=30))
        assert daemon.service.closed
        assert daemon.service.runtime.closed


class TestShutdown:
    def test_shutdown_endpoint_stops_run_and_closes_service(self):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            runner = asyncio.ensure_future(daemon.run())
            status, payload = await _request(daemon.port, "POST",
                                             "/v1/shutdown")
            assert status == 200
            assert payload["status"] == "shutting-down"
            await asyncio.wait_for(runner, timeout=30)
            assert daemon.service.closed
            assert daemon.service.runtime.closed

        _run(scenario())

    def test_ephemeral_port_is_resolved(self):
        async def scenario(port):
            assert port != 0
            assert f":{port}" in daemon.address

        daemon = _daemon()
        _run(_with_daemon(daemon, scenario))
