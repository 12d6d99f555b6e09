"""Export simulation traces to Chrome's trace-event format.

``chrome://tracing`` / Perfetto open the resulting JSON directly, giving
an interactive timeline of every GPU stream and network link in a run —
the heavyweight sibling of :mod:`repro.bench.timeline`'s ASCII charts.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs import MetricsRegistry, metric_counter_events
from repro.sim import Tracer

#: Category -> Chrome trace colour name (cname).
_COLOURS = {
    "kernel": "thread_state_running",
    "transfer": "thread_state_iowait",
    "migration": "thread_state_uninterruptible",
    "prefetch": "rail_load",
    "sched": "grey",
    "fault": "terrible",
    "retry": "bad",
    "chunk": "thread_state_runnable",
    "relay": "rail_response",
}


def to_chrome_trace(tracer: Tracer, *,
                    time_unit: float = 1e6,
                    metrics: MetricsRegistry | None = None) -> dict:
    """Convert a tracer's spans to a Chrome trace-event object.

    Simulated seconds are scaled by ``time_unit`` into the microseconds
    the format expects.  Lanes become (pid, tid) pairs: the part before
    the first ``/`` (the node, or ``net``) is the process, the full lane
    the thread, so nodes group naturally in the viewer.

    With ``metrics``, every counter and gauge in the registry adds a
    Chrome *counter track* (``"ph": "C"``) under a dedicated ``metrics``
    process — plotted values over simulated time next to the spans.
    """
    events = []
    lanes = {lane: i for i, lane in enumerate(tracer.lanes())}
    pids: dict[str, int] = {}
    for lane, tid in lanes.items():
        group = lane.split("/", 1)[0]
        pid = pids.setdefault(group, len(pids))
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": lane},
        })
    for group, pid in pids.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": group},
        })
    for span in tracer.spans:
        group = span.lane.split("/", 1)[0]
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "pid": pids[group],
            "tid": lanes[span.lane],
            "ts": span.start * time_unit,
            "dur": max(span.duration * time_unit, 0.001),
            "args": dict(span.meta),
        }
        colour = _COLOURS.get(span.category)
        if colour:
            event["cname"] = colour
        events.append(event)
    if metrics is not None:
        metrics_pid = len(pids)
        events.append({
            "name": "process_name", "ph": "M", "pid": metrics_pid,
            "tid": 0, "args": {"name": "metrics"},
        })
        events.extend(metric_counter_events(
            metrics, pid=metrics_pid, time_unit=time_unit))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, destination: "str | IO[str]",
                       **kwargs) -> None:
    """Serialise a tracer to a Chrome-trace JSON file or stream."""
    payload = to_chrome_trace(tracer, **kwargs)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    else:
        json.dump(payload, destination)

