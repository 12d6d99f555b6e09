"""Footprint gate: what a queued CE keeps alive.

Each scale shape (``repro.bench.scale.WORKLOADS``) queues 1,000 CEs on
an idle engine, after a 16-CE warm-up that allocates the shape's arrays
and first-use caches (:func:`repro.bench.scale.queued_ce_footprint`).
Nothing runs while the CEs queue, so the growth of the collector's
tracked-object count over the build, divided by the CEs built, is what
one queued CE keeps alive: its DAG nodes, its stream op, its waits and
the engine entries that will start them.

The count depends on the interpreter, so ceilings are keyed by its
(major, minor) version and hold only readings taken on that version.
On a version without one the gate skips rather than guess.  A ceiling
may only be raised with the reason written in CHANGES.md.
"""

import sys

import pytest

from repro.bench.scale import FOOTPRINT_CLUSTERS, queued_ce_footprint

#: (major, minor) -> shape -> ceiling in tracked objects per queued CE.
CEILINGS = {
    (3, 11): {"wide": 28.32, "deep": 26.55, "iterative": 28.97},
}


@pytest.mark.parametrize("shape", list(FOOTPRINT_CLUSTERS))
def test_queued_ce_footprint_under_ceiling(shape):
    ceilings = CEILINGS.get(sys.version_info[:2])
    if ceilings is None:
        pytest.skip("no committed reading for this interpreter")
    footprint = queued_ce_footprint(shape)
    assert footprint.ces >= 990
    assert footprint.objects_per_ce <= ceilings[shape], (
        f"{shape}: a queued CE keeps {footprint.objects_per_ce:.2f} "
        f"tracked objects alive, over the {ceilings[shape]} ceiling")
