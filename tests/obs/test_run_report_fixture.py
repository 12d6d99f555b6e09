"""The run report's simulated values, pinned on both runtimes.

``tests/data/run_report_v1.json`` holds the ``report`` and ``summary``
sections of the ``grout-run-report/1`` JSON that the two builders the
merged :class:`~repro.obs.RunReport` replaced wrote for one fixed small
program: ``cg`` at 3 GiB in two chunks and five iterations on 1 GiB test
GPUs, oversubscribed on the single node and spread over two workers on
GrOUT, so P2P replication and thrashing launches both show.  Every
simulated value in it must read the same from the one report, where
each v1 key now lives under the name :data:`V1_TO_REPORT` gives it.
Host-time values are left out: the decision cost, ``sched_seconds`` and
the per-CE totals that include it, and the top-CE ranking, which host
time can reorder.

The fixture is a record of the v1 layout and is not regenerated; after
an intentional schedule change, replace it with a ``grout-run-report/2``
capture and compare key for key.
"""

import json
import pathlib

import pytest

from repro.core.config import RuntimeConfig
from repro.gpu.specs import GIB, MIB
from repro.obs import build_run_report
from repro.workloads import make_workload

FIXTURE = pathlib.Path(__file__).resolve().parents[1] \
    / "data" / "run_report_v1.json"

FOOTPRINT = 3 * GIB
MODES = ("grout", "grcuda")

#: (v1 section, v1 key) -> the merged report's key holding that value.
#: Both v1 sections carried the makespan, the CE count and the node OSF.
V1_TO_REPORT = {
    ("report", "makespan_seconds"): "makespan_seconds",
    ("summary", "makespan_seconds"): "makespan_seconds",
    ("report", "ces_scheduled"): "ces_scheduled",
    ("summary", "ces_scheduled"): "ces_scheduled",
    ("report", "busy_by_category"): "busy_by_category",
    ("summary", "phase_totals"): "phase_totals",
    ("summary", "links"): "links",
    ("report", "network_bytes"): "network_bytes",
    ("report", "network_transfers"): "network_transfers",
    ("report", "p2p_transfers"): "p2p_transfers",
    ("report", "node_oversubscription"): "node_oversubscription",
    ("summary", "node_oversubscription"): "node_oversubscription",
    ("summary", "gpu_oversubscription"): "gpu_oversubscription",
    ("report", "uvm_link_gib"): "uvm_link_gib",
    ("report", "thrashing_launches"): "thrashing_launches",
    ("report", "top_kernels"): "top_kernels",
}

#: v1 values measured in host time, not simulated time.
HOST_TIME = {("report", "mean_decision_micros"), ("summary", "top_ces")}


def run_program(mode: str):
    """The fixed program, run to completion on a fresh ``mode`` runtime."""
    workload = make_workload("cg", FOOTPRINT, n_chunks=2, iterations=5)
    config = RuntimeConfig(mode=mode, gpu_spec="TEST_GPU_1GB",
                           page_size=4 * MIB)
    runtime = config.build_runtime(workload=workload,
                                   footprint_bytes=FOOTPRINT)
    assert workload.execute(runtime, check=True).verified
    return runtime


def _simulated(key: str, value):
    """``value`` without host time, and per-GPU values in GPU order."""
    if key == "phase_totals":
        return {phase: seconds for phase, seconds in value.items()
                if phase != "sched_seconds"}
    if key == "gpu_oversubscription":
        # v1 numbered a GPU by its process-wide id, so ``N`` in
        # ``node/gpuN`` depended on the GPUs built before the run; the
        # order within a node did not.
        keyed: dict[str, list[tuple[int, float]]] = {}
        for name, pressure in value.items():
            node, gpu = name.rsplit("/gpu", 1)
            keyed.setdefault(node, []).append((int(gpu), pressure))
        return {node: [pressure for _, pressure in sorted(gpus)]
                for node, gpus in keyed.items()}
    return value


def test_the_mapping_covers_every_v1_key():
    for mode, payload in json.loads(FIXTURE.read_text()).items():
        assert payload["schema"] == "grout-run-report/1"
        v1_keys = {(section, key) for section in ("report", "summary")
                   for key in payload[section]}
        assert v1_keys == set(V1_TO_REPORT) | HOST_TIME, mode


@pytest.mark.parametrize("mode", MODES)
def test_simulated_values_match_the_v1_fixture(mode):
    want = json.loads(FIXTURE.read_text())[mode]
    runtime = run_program(mode)
    got = json.loads(json.dumps(build_run_report(runtime).as_dict()))
    runtime.shutdown()
    for (section, v1_key), key in V1_TO_REPORT.items():
        assert _simulated(key, got[key]) == \
            _simulated(key, want[section][v1_key]), (section, v1_key)
