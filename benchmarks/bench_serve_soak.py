#!/usr/bin/env python
"""Long serve soak: memory and throughput that do not grow with requests.

Settles :data:`REQUESTS` serve-mix-shaped requests on one in-process
:class:`repro.serve.GroutService` with :func:`repro.bench.soak.serve_soak`,
sampling what its runtime holds every :data:`EVERY` requests, and prints
the samples.  Then it settles one more window of :data:`WINDOW`
requests.  Exits non-zero unless

* the samples meet :func:`repro.bench.soak.soak_problems`'s bar
  (nothing a settled request owned is left, and what swings with the
  prune cadence stays under a ceiling that does not grow), and
* that last window settles at least :data:`RATE_FLOOR` times as many
  requests per second as a first window does.

The speed a shared host gives one process drifts by tens of percent
over a minute, more than the bar allows, so the two windows are timed
at the same time: during the last window a fresh service settles the
soak's first window again, :data:`EVERY` requests at a turn,
alternating with the long-lived one.  The fresh service's objects
would count in the process-wide samples, so the bar covers the samples
taken before it starts.  Rates of every window of the soak itself are
printed too.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_soak.py
"""

from __future__ import annotations

import pathlib
import sys
import time

# Standalone convenience: make `repro` importable without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.soak import (cold_specs, format_samples, serve_soak,
                              settle_pair, soak_problems)
from repro.serve import GroutService

REQUESTS = 1440
#: Dense enough that each half's samples catch the prune cadence's
#: peaks; one block of the six cold workloads, so every turn of the
#: throughput comparison asks for the same work.
EVERY = 12
#: Requests per throughput window.
WINDOW = 120
#: The last window's requests/s over a first window's, at least.
RATE_FLOOR = 0.9


def main() -> int:
    samples = []
    fresh, fresh_seconds = None, 0.0
    for sample in serve_soak(REQUESTS + WINDOW, every=EVERY):
        samples.append(sample)
        if sample.requests > REQUESTS:
            if fresh is None:
                fresh, fresh_cold = GroutService(), cold_specs()
            start = time.perf_counter()
            for _ in range(EVERY // 2):
                settle_pair(fresh, next(fresh_cold))
            fresh_seconds += time.perf_counter() - start
    fresh.close(settle=False)
    seconds = {s.requests: s.seconds for s in samples}
    samples = [s for s in samples if s.requests <= REQUESTS]
    print(format_samples(samples))
    rates = [WINDOW / (seconds[end] - seconds.get(end - WINDOW, 0.0))
             for end in range(WINDOW, REQUESTS + WINDOW + 1, WINDOW)]
    print(f"requests/s per {WINDOW}-request window: "
          + " ".join(f"{r:.1f}" for r in rates))
    ratio = fresh_seconds * rates[-1] / WINDOW
    print(f"last window {rates[-1]:.1f} requests/s, a fresh service's "
          f"first window {WINDOW / fresh_seconds:.1f} at the same time: "
          f"{ratio:.3f}x (floor {RATE_FLOOR})")
    problems = soak_problems(samples)
    if ratio < RATE_FLOOR:
        problems.append(f"throughput fell: the last window ran at "
                        f"{ratio:.3f}x a first window, under {RATE_FLOOR}x")
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("OK: the soak stayed flat")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
