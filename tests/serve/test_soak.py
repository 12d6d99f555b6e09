"""Soak gate: a settled serve request leaves nothing behind.

:func:`repro.bench.soak.serve_soak` settles serve-mix-shaped requests,
hot and cold in pairs, on one in-process service and samples what its
runtime still holds every few requests, with nothing in flight.
:func:`repro.bench.soak.soak_problems` is the bar: spans, CE profiles,
open tickets, Directory entries, queued engine deliveries and managed
bytes read zero at every sample; DAG nodes, live arrays, shared metric
series and gc-tracked objects stay under a ceiling that does not grow
with the request count (second-half maximum against first-half
maximum); the pricers' page-plan caches stay under their fixed
ceiling; session-labelled series stay at two or three per settled
session.  The rules are relative or follow from the cache's cap, so they
hold on every interpreter as is.
``benchmarks/bench_serve_soak.py`` runs the same probe over 1,440
requests and also checks throughput.
"""

from repro.bench.soak import format_samples, serve_soak, soak_problems


def test_settled_requests_leave_nothing_behind():
    samples = list(serve_soak(120, every=4))
    assert [s.requests for s in samples] == list(range(4, 121, 4))
    problems = soak_problems(samples)
    assert not problems, "\n".join(problems + [format_samples(samples)])
