"""Count gate: how many bits the DAGs' ancestor masks store at Fig. 7's
largest CG size.

``cg`` at 128 GiB queues its whole CE stream before anything completes,
so every DAG of the runtime holds its widest frontier at once (about
700 members on the Controller and GrCUDA DAGs).  After ``build`` and
``run``, and before ``sync``, this gate sums the widths
(``int.bit_length``) of every ancestor mask those DAGs hold and checks
that no DAG handed out a slot at or past ``2·|F| + SLOT_SWEEP_MIN``.

Bit counts do not depend on the interpreter, so unlike the queued-CE
footprint gate this one holds on every supported CPython.  A ceiling is
the committed reading plus a small margin, and may only be raised with
the reason written in CHANGES.md.
"""

import pytest

from repro.core.config import RuntimeConfig
from repro.workloads import make_workload

GIB = 1024 ** 3

#: mode -> ceiling on the summed mask widths, in bits (readings:
#: 908,929 and 736,623).
CEILINGS = {"grcuda": 923_000, "grout": 748_000}

#: mode -> ids the ancestor *sets* the masks replaced held at the same
#: point, for scale (about 50 bytes each, against 1/8 byte per bit).
SET_IDS = {"grcuda": 499_266, "grout": 340_549}


def _dags(rt, mode: str) -> list:
    if mode == "grcuda":
        return [rt.dag, rt.scheduler.local_dag]
    controller = rt.controller
    return [controller.dag,
            *(w.local_dag for w in controller.workers.values())]


@pytest.mark.parametrize("mode", ["grcuda", "grout"])
def test_cg_128_gib_mask_bits_under_ceiling(mode):
    workload = make_workload("cg", 128 * GIB, seed=0)
    rt = RuntimeConfig(mode=mode, policy="vector-step").build_runtime(
        workload=workload, footprint_bytes=128 * GIB)
    try:
        workload.build(rt)
        workload.run(rt)
        bits = 0
        for dag in _dags(rt, mode):
            width = len(dag._frontier_count)
            bound = 2 * width + dag.SLOT_SWEEP_MIN
            assert dag._slot_end <= bound, (
                f"{mode}: slot {dag._slot_end - 1} handed out with "
                f"|F| = {width} (bound {bound})")
            bits += sum(info.mask.bit_length()
                        for info in dag._info.values())
    finally:
        rt.shutdown()
    assert bits <= CEILINGS[mode], (
        f"{mode}: the DAGs' ancestor masks store {bits:,} bits, over the "
        f"{CEILINGS[mode]:,} ceiling (the ancestor sets they replaced "
        f"held {SET_IDS[mode]:,} ids here)")
