"""serve-mix: ``grout serve`` under two closed-loop tenants.

One asyncio client holds at most two connections at a time, one per
tenant, and sends each tenant's next request only when its previous
reply has fully arrived (a closed loop):

``hot``
    resubmits one fixed spec (``mv``, 1 GiB, 4 chunks), so after the
    first request the plan cache replays its schedule and kernel costs;
``cold``
    submits specs whose (workload, footprint) pair never repeats, so
    every plan key is new and every request pays the recorder, LRU
    churn and live pricing.

Load comes in windows of one block of cold requests — one of each cold
workload, in seeded order — with ``hot`` looping for as long as
``cold`` runs.  Block ``b`` has footprint :data:`COLD_START_MIB` + ``b``
MiB, so every window asks for nearly the same work and the windows of
every run, whatever its seed, ask for the same work in the same order;
the seed picks the order within each block and each request's data
seed.  A run has ``--seconds`` x :data:`COLD_PER_S` cold requests, so
the daemon does the same work (and reaches the same memory) on every
run of a given length.  Between windows nothing is in flight and the
client, on the daemon's CPU, samples the host speed; each window's
rate and latencies are scaled by the samples around it, and a run
reports medians over its windows.  This module imports nothing from the
program: the daemon runs in its own process and is reached over HTTP
only.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import HostSpeed

HOT_SPEC = {"workload": "mv", "gb": 1, "n_chunks": 4, "seed": 11,
            "tenant": "hot"}
COLD_WORKLOADS = ("cg", "mle", "bs", "spmv", "img", "bfs")
COLD_MIB = (128, 512)
MIB = 1024 * 1024

#: The timed daemon: the real CLI.  The traced one is ``daemon.py``,
#: which builds the same configuration after installing the wrappers.
CLI_ARGS = ["-m", "repro", "serve", "--port", "0",
            "--policy", "round-robin", "--plan-cache"]

#: Cold requests per window (one block of the six cold workloads) and
#: per second of run; a window takes ~0.4 s on the nominal host.
WINDOW_COLD = len(COLD_WORKLOADS)
COLD_PER_S = 12
#: Footprint of the first block's cold requests; block ``b`` asks for
#: ``b`` MiB more, wrapping within :data:`COLD_MIB`.
COLD_START_MIB = 300
#: Idle time before a host-speed sample, so the daemon's tail work does
#: not share the CPU with the sample.
SETTLE_S = 0.05
BOOT_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def cold_specs(seed: int):
    """Cold specs: the six workloads in seeded shuffled blocks (so any
    prefix is balanced), one footprint per block walked 1 MiB a block
    from :data:`COLD_START_MIB` through 128-512 MiB, no (workload,
    footprint) pair twice — 385 blocks' worth."""
    rng = random.Random(seed)
    low, high = COLD_MIB
    sizes = high - low + 1
    for block in range(sizes):
        mib = low + (COLD_START_MIB - low + block) % sizes
        order = list(COLD_WORKLOADS)
        rng.shuffle(order)
        for workload in order:
            yield {"workload": workload, "footprint_bytes": mib * MIB,
                   "seed": rng.randrange(1 << 16), "tenant": "cold"}


# -- daemon process -----------------------------------------------------------

def spawn_daemon(root: str, env: dict, *, traced: bool,
                 trace_out: str | None = None) -> subprocess.Popen:
    """Start the daemon (CLI, or the tracing launcher) from ``root``."""
    if traced:
        argv = [sys.executable, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "daemon.py")]
        if trace_out:
            argv.append(trace_out)
    else:
        argv = [sys.executable, *CLI_ARGS]
    return subprocess.Popen(argv, cwd=root, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)


def wait_ready(proc: subprocess.Popen) -> tuple[str, int]:
    """Block until the daemon prints its ``listening on`` line."""
    assert proc.stdout is not None
    deadline = perf_counter() + BOOT_TIMEOUT_S
    while perf_counter() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://([^:\s]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))
    raise RuntimeError("daemon exited or stayed silent before becoming "
                       "ready")


def stop_daemon(proc: subprocess.Popen, host: str | None,
                port: int | None) -> str:
    """Ask for a clean shutdown, wait for exit, return remaining stdout.

    Kills the process if it does not exit in time; raises if it did
    not shut down cleanly.
    """
    if host is not None and proc.poll() is None:
        try:
            asyncio.run(_request(host, port, "POST", "/v1/shutdown"))
        except OSError:
            pass
    try:
        out, _ = proc.communicate(timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("daemon did not exit after /v1/shutdown")
    if proc.returncode != 0:
        raise RuntimeError(f"daemon exited with {proc.returncode}")
    return out


# -- HTTP client --------------------------------------------------------------

async def _request(host: str, port: int, method: str, path: str,
                   body: dict | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the daemon closes after each
    reply); returns the status and the body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n"
                     f"Connection: close\r\n\r\n".encode() + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1]) if head else 0
    return status, payload


async def _tenant(host, port, specs, keep_going, samples: list) -> None:
    """Closed loop: send each spec once the previous reply is in."""
    for spec in specs:
        if not keep_going():
            return
        start = perf_counter()
        ok, ces = False, 0
        try:
            status, payload = await _request(host, port, "POST",
                                             "/v1/run", spec)
            if status == 200:
                report = json.loads(payload)
                ok = bool(report.get("completed")
                          and report.get("verified"))
                ces = int(report.get("ce_count", 0))
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        samples.append((spec["tenant"], start, perf_counter(), ok, ces))


async def _window(host, port, cold, n_cold: int) -> list:
    """``n_cold`` cold requests, with ``hot`` looping alongside for as
    long as ``cold`` runs.  Ends with nothing in flight."""
    samples: list = []
    cold_running = True

    async def cold_tenant():
        nonlocal cold_running
        try:
            await _tenant(host, port, itertools.islice(cold, n_cold),
                          lambda: True, samples)
        finally:
            cold_running = False

    await asyncio.gather(
        cold_tenant(), _tenant(host, port, itertools.repeat(HOT_SPEC),
                               lambda: cold_running, samples))
    return samples


def windows_for(seconds: float) -> int:
    """Windows in a run of ``seconds`` (at least one)."""
    return max(1, round(seconds * COLD_PER_S / WINDOW_COLD))


async def _drive(host: str, port: int, seed: int, seconds: float):
    cold = cold_specs(seed)
    speed = HostSpeed()
    windows = []
    for _ in range(windows_for(seconds)):
        samples = await _window(host, port, cold, WINDOW_COLD)
        await asyncio.sleep(SETTLE_S)
        windows.append((samples, speed.factor()))
    _status, metrics = await _request(host, port, "GET", "/metrics")
    return windows, metrics.decode()


def drive(host: str, port: int, seed: int, seconds: float):
    """Load the daemon with :func:`windows_for` windows; returns
    ``(samples, host-speed factor)`` per window, each sample
    ``(tenant, start, end, ok, ce_count)``, and the final ``/metrics``
    text."""
    return asyncio.run(_drive(host, port, seed, seconds))


def prometheus_values(text: str) -> dict[str, float]:
    """Sum every sample per ``name`` (labels dropped) — plus
    ``name{quantile=q}`` keys for summary quantiles."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name, _, labels = name_part.partition("{")
        quantile = re.search(r'quantile="([^"]+)"', labels)
        key = f"{name}{{quantile={quantile.group(1)}}}" if quantile \
            else name
        out[key] = out.get(key, 0.0) + float(value)
    return out


# -- one measured daemon ------------------------------------------------------

def serve_pass(root: str, env: dict, seed: int, seconds: float, *,
               traced: bool, trace_out: str | None = None) -> dict:
    """Boot one daemon, load it for ``seconds``, shut it down.

    Per window, host-speed adjusted: the rate of completed requests and
    the mean latency of its cold requests (each window asks for the
    same cold work).  ``ops_per_s`` and ``latency_p50_ms`` are their
    medians over the windows.
    """
    proc = spawn_daemon(root, env, traced=traced, trace_out=trace_out)
    host = port = None
    try:
        host, port = wait_ready(proc)
        windows, metrics = drive(host, port, seed, seconds)
    finally:
        tail = stop_daemon(proc, host, port)
    rates, raw_rates, cold_means = [], [], []
    for window, factor in windows:
        span = max(s[2] for s in window) - min(s[1] for s in window)
        raw_rates.append(sum(1 for s in window if s[3]) / span)
        rates.append(raw_rates[-1] / factor)
        cold_means.append(statistics.mean(
            s[2] - s[1] for s in window if s[0] == "cold") * factor)
    adjusted = [(s[0], (s[2] - s[1]) * factor)
                for window, factor in windows for s in window]
    samples = [s for window, _factor in windows for s in window]
    ok = [s for s in samples if s[3]]
    out = {
        "ops_per_s": statistics.median(rates),
        "raw_ops_per_s": statistics.median(raw_rates),
        "latency_p50_ms": statistics.median(cold_means) * 1e3,
        "windows": len(windows),
        "ops": len(ok),
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "tenants": {t: [lat for tenant, lat in adjusted if tenant == t]
                    for t in ("hot", "cold")},
        "ces": sum(s[4] for s in ok),
        "hot_ces": sorted({s[4] for s in ok if s[0] == "hot"}),
        "metrics": prometheus_values(metrics),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if traced:
        out["trace"] = json.loads(tail.strip().splitlines()[-1])
    return out
