#!/usr/bin/env python
"""End-to-end smoke of the ``grout serve`` daemon (the CI serve job).

Boots ``python -m repro serve`` as a subprocess on an ephemeral port,
waits for the readiness line, submits three registry workload specs
over plain HTTP (``mv``, then ``bs`` and ``img``, which run the NumPy
``erf`` and stencils of :mod:`repro.numerics`), requires each
grout-serve/1 run-report to be completed and verified, asks the daemon
to shut down, and asserts a clean exit — all within a hard timeout.

Exit code 0 on success; non-zero with a diagnostic otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

BOOT_TIMEOUT = 60          # seconds to wait for the readiness line
EXIT_TIMEOUT = 60          # seconds to wait for a clean exit
SPECS = ({"workload": "mv", "gb": 0.125, "tenant": "smoke"},
         {"workload": "bs", "gb": 0.125, "tenant": "smoke"},
         {"workload": "img", "gb": 0.125, "tenant": "smoke"})

REPORT_KEYS = {"schema", "ticket", "tenant", "session", "workload",
               "footprint_bytes", "ce_count", "submitted_at",
               "finished_at", "latency_seconds", "completed", "verified"}


def fail(message: str, proc: subprocess.Popen | None = None) -> int:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    if proc is not None and proc.poll() is None:
        proc.kill()
    return 1


def post(base: str, path: str, payload: dict | None, timeout: float = 30):
    body = json.dumps(payload).encode() if payload is not None else b""
    req = urllib.request.Request(base + path, data=body, method="POST",
                                 headers={"Content-Type":
                                          "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read().decode())


def main() -> int:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=root)
    assert proc.stdout is not None

    # -- readiness: the CLI prints one flushed marker line once bound.
    deadline = time.monotonic() + BOOT_TIMEOUT
    base = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            return fail("daemon exited before becoming ready", proc)
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            base = match.group(1)
            break
    if base is None:
        return fail(f"no readiness line within {BOOT_TIMEOUT}s", proc)
    print(f"serve-smoke: daemon ready at {base}")

    try:
        with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
            if json.loads(r.read().decode()).get("status") != "ok":
                return fail("unexpected /healthz payload", proc)

        for spec in SPECS:
            status, report = post(base, "/v1/run", spec)
            if status != 200:
                return fail(f"/v1/run returned {status}: {report}", proc)
            missing = REPORT_KEYS - set(report)
            if missing:
                return fail(f"run-report missing keys {sorted(missing)}",
                            proc)
            if report["schema"] != "grout-serve/1":
                return fail(f"bad schema {report['schema']!r}", proc)
            if not (report["completed"] and report["verified"]):
                return fail(f"workload not verified: {report}", proc)
            print(f"serve-smoke: {spec['workload']} run-report ok "
                  f"(ce_count={report['ce_count']}, "
                  f"latency={report['latency_seconds']:.4g}s simulated)")

        status, payload = post(base, "/v1/shutdown", None)
        if status != 200 or payload.get("status") != "shutting-down":
            return fail(f"bad shutdown reply {status}: {payload}", proc)
    except Exception as exc:  # noqa: BLE001 - smoke diagnostics
        return fail(f"HTTP phase raised {exc!r}", proc)

    try:
        proc.wait(timeout=EXIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        return fail(f"daemon did not exit within {EXIT_TIMEOUT}s", proc)
    if proc.returncode != 0:
        return fail(f"daemon exited with code {proc.returncode}", proc)
    tail = proc.stdout.read()
    if "shut down cleanly" not in tail:
        return fail(f"missing clean-shutdown marker; tail: {tail!r}", proc)
    print("serve-smoke: clean shutdown; PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
