"""Traced serve daemon for the serve-mix workload's per-layer split.

Builds the same service ``python -m repro serve --port 0 --policy
round-robin --plan-cache`` builds, but installs the layer wrappers
first.  Prints the CLI's ``listening on`` line once bound, counts spans
from then until the daemon has shut down, and prints the per-layer
breakdown as one JSON line last.

Run from the repository root with ``PYTHONPATH=src``; it serves until a
client posts ``/v1/shutdown``.  An optional argument names a file for
the raw spans as Chrome-trace JSON.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import LayerTracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out = argv[0] if argv else None
    tracer = LayerTracer(record_spans=trace_out is not None)
    tracer.install()
    from repro.core.config import RuntimeConfig
    from repro.serve import GroutDaemon, GroutService

    service = GroutService(RuntimeConfig(policy="round-robin",
                                         plan_cache=True))
    daemon = GroutDaemon(service, port=0)
    window = {}

    async def serve() -> None:
        address = await daemon.start()
        print(f"grout serve listening on {address}", flush=True)
        window["start"] = perf_counter()
        tracer.on = True
        try:
            await daemon.run()
        finally:
            tracer.on = False
            window["end"] = perf_counter()

    asyncio.run(serve())
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    wall = window["end"] - window["start"]
    print(json.dumps({
        "wall_s": wall,
        "layers": tracer.breakdown(wall),
        "replay_fallbacks": tracer.replay_fallbacks,
        "events": service.runtime.engine.events_processed,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
