"""Byte-identical schedule regression for the single-node GrCUDA runtime.

``tests/data/golden_schedule_grcuda.json`` pins GrCUDA's event order the
way ``golden_schedule.json`` pins GrOUT's: every recorded span (lane,
category, name, start and end), the final simulated clock and the
engine's delivery count, for two programs:

* ``drive``: the GrOUT golden's program, with the prefetch's placement
  left to the runtime (its ``worker1`` names a GrOUT node);
* ``long``: 640 CEs in two interleaved kernel chains with a host read
  every 64 CEs and a prefetch every 96, so the Global DAG is pruned with
  completed CEs each time the scheduled count crosses the cadence.

Regenerating the fixture (only after an *intentional* schedule change)::

    PYTHONPATH=src python -m tests.core.pipeline.test_grcuda_schedule_regression
"""

import json
import pathlib

import numpy as np

from repro.core import GrCudaRuntime
from repro.gpu import Direction, TEST_GPU_1GB
from repro.gpu.specs import MIB
from tests.core.pipeline.test_schedule_regression import (_assert_matches,
                                                          _kernel, drive)

GOLDEN = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule_grcuda.json"

#: CEs the long program submits, host reads and prefetches included.
LONG_CES = 640


def long_program(rt) -> None:
    """Two independent read-modify-write chains over four arrays.

    CE ``i`` updates ``arrays[i % 4]`` from ``arrays[(i + 2) % 4]``, so
    the even and odd arrays form two chains the scheduler can overlap;
    every 64th CE is a host read (which runs the engine and completes
    the CEs before it) and every 96th a prefetch to GPU 1.
    """
    arrays = [rt.device_array(8, np.float32,
                              virtual_nbytes=(4 + 2 * i) * MIB,
                              name=f"l.a{i}") for i in range(4)]
    rt.host_write(arrays, lambda: [a.data.fill(1.0) for a in arrays],
                  label="l.init")
    step = _kernel("step", (Direction.INOUT, Direction.IN))
    for i in range(1, LONG_CES):
        target = arrays[i % 4]
        if i % 64 == 0:
            rt.host_read(target, label=f"l.read{i}")
        elif i % 96 == 0:
            rt.prefetch(target, gpu_index=1, label=f"l.prefetch{i}")
        else:
            rt.launch(step, 8, 128, (target, arrays[(i + 2) % 4]),
                      label=f"l.step{i}")
    rt.sync()


def run_program(program) -> dict:
    """Run ``program`` on a fresh GrCUDA runtime; its serialized schedule."""
    rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
    try:
        program(rt)
        spans = [[s.lane, s.category, s.name, s.start, s.end]
                 for s in rt.tracer.spans]
        return {"spans": spans, "elapsed": rt.engine.now,
                "events": rt.engine.events_processed}
    finally:
        rt.shutdown()


PROGRAMS = {
    "drive": lambda rt: drive(rt, prefetch_worker=None),
    "long": long_program,
}


def capture() -> dict:
    return {name: run_program(program) for name, program in PROGRAMS.items()}


def test_grcuda_schedule_is_byte_identical_to_golden():
    _assert_matches(json.loads(GOLDEN.read_text()), capture())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"GrCUDA golden schedule written to {GOLDEN}")
