"""The run report: tables, busy seconds and the schema-stable JSON."""

import io
import json

import pytest

from repro import GroutRuntime
from repro.core import GrCudaRuntime
from repro.core.config import RuntimeConfig
from repro.gpu import TEST_GPU_1GB
from repro.gpu.specs import GIB, MIB
from repro.obs import (LinkUsage, RunReport, build_run_report,
                       json_run_report, write_run_report)
from repro.workloads import make_workload

#: Every key of ``RunReport.as_dict()``, the JSON report's ``report``.
REPORT_KEYS = {
    "makespan_seconds", "ces_scheduled", "busy_by_category",
    "phase_totals", "top_ces", "links", "network_bytes",
    "network_transfers", "p2p_transfers", "mean_decision_micros",
    "node_oversubscription", "gpu_oversubscription", "uvm_link_gib",
    "thrashing_launches", "top_kernels",
}


class TestLinkUsage:
    """Derived link statistics."""

    def test_name_utilisation_and_bandwidth(self):
        link = LinkUsage(src="ctrl", dst="w0", nbytes=GIB,
                         wire_seconds=2.0, transfers=3)
        assert link.name == "ctrl->w0"
        assert link.utilisation(4.0) == 0.5
        assert link.utilisation(0.0) == 0.0
        assert link.achieved_gib_per_s == pytest.approx(0.5)


class TestRunSummary:
    """build_run_report over a real two-node run."""

    @pytest.fixture(scope="class")
    def summary(self):
        runtime = GroutRuntime(n_workers=2)
        make_workload("bs", GIB // 2).execute(runtime)
        return build_run_report(runtime, top=5)

    def test_populated_from_run(self, summary):
        assert summary.makespan_seconds > 0
        assert summary.ces_scheduled > 0
        assert 0 < len(summary.top_ces) <= 5
        assert 0 < len(summary.top_kernels) <= 5
        assert summary.links, "fabric metrics should yield link rows"
        assert summary.node_oversubscription
        assert summary.gpu_oversubscription
        assert summary.busy_by_category["kernel"] > 0

    def test_links_derive_from_fabric_metrics(self, summary):
        sends = [ln for ln in summary.links if ln.src == "controller"]
        assert sends and all(ln.nbytes > 0 for ln in sends)
        assert all(ln.wire_seconds > 0 for ln in sends)
        assert summary.network_bytes == sum(
            ln.nbytes for ln in summary.links)
        assert summary.network_transfers == sum(
            ln.transfers for ln in summary.links)

    def test_render_contains_each_table(self, summary):
        text = summary.render()
        for title in ("Run report", "Where the simulated time went",
                      "slowest CEs", "Top kernels by simulated time",
                      "Fabric link utilisation", "Oversubscription"):
            assert title in text

    def test_as_dict_schema(self, summary):
        data = summary.as_dict()
        assert set(data) == REPORT_KEYS
        assert set(data["links"][0]) == {"src", "dst", "bytes",
                                         "wire_seconds", "transfers",
                                         "utilisation"}
        assert set(data["top_kernels"][0]) == {"kernel", "launches",
                                               "seconds"}
        ce = data["top_ces"][0]
        assert {"ce_id", "name", "kind", "node", "total_seconds",
                "sched_seconds", "transfer_seconds", "stall_seconds",
                "compute_seconds", "transfer_bytes"} <= set(ce)

    def test_empty_runtime_yields_empty_summary(self):
        summary = build_run_report(GroutRuntime(n_workers=2))
        assert summary.makespan_seconds == 0.0
        assert summary.ces_scheduled == 0
        assert summary.busy_by_category == {}
        assert summary.links == [] and summary.top_kernels == []
        assert "Run report" in summary.render()


class TestBusyByCategory:
    """What ``busy_by_category`` sums: every span's full duration."""

    def report_of(self, *spans):
        runtime = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        for span in spans:
            runtime.tracer.record(*span)
        return build_run_report(runtime)

    def test_sums_per_category(self):
        report = self.report_of(
            ("local/gpu0/stream0", "kernel", "k1", 0.0, 0.002),
            ("local/gpu1/stream0", "kernel", "k2", 0.001, 0.003),
            ("local/gpu0/migrate", "migration", "move", 0.0, 0.004))
        assert report.busy_by_category == {
            "kernel": pytest.approx(0.004),
            "migration": pytest.approx(0.004)}

    def test_empty_trace(self):
        assert self.report_of().busy_by_category == {}

    def test_overlapping_spans_on_one_lane_count_in_full(self):
        lane = "local/gpu0/stream0"
        report = self.report_of((lane, "kernel", "a", 0.0, 0.003),
                                (lane, "kernel", "b", 0.001, 0.004))
        assert report.busy_by_category["kernel"] == pytest.approx(0.006)
        assert report.makespan_seconds == pytest.approx(0.004)


def _small_run(mode: str):
    footprint = 2 * GIB
    workload = make_workload("mv", footprint, n_chunks=4)
    config = RuntimeConfig(mode=mode, policy="round-robin",
                           gpu_spec="TEST_GPU_1GB", page_size=4 * MIB)
    runtime = config.build_runtime(workload=workload,
                                   footprint_bytes=footprint)
    workload.execute(runtime, check=False)
    return runtime


@pytest.mark.parametrize("mode", ["grout", "grcuda"])
def test_json_run_report_layout_before_and_after_shutdown(mode):
    runtime = _small_run(mode)
    payloads = []
    for _ in range(2):          # running, then shut down
        payload = json_run_report(runtime)
        assert payload["schema"] == "grout-run-report/2"
        assert set(payload) == {"schema", "report", "metrics"}
        assert set(payload["report"]) == REPORT_KEYS
        assert payload["metrics"]["schema"] == "grout-metrics/1"
        assert json.loads(json.dumps(payload)) == payload
        payloads.append(payload)
        runtime.shutdown()
    assert payloads[0]["report"] == payloads[1]["report"]


def test_write_run_report_to_a_stream_and_a_path(tmp_path):
    runtime = _small_run("grout")
    runtime.shutdown()
    stream = io.StringIO()
    write_run_report(runtime, stream)
    path = tmp_path / "report.json"
    write_run_report(runtime, str(path))
    assert json.loads(stream.getvalue()) == json.loads(path.read_text()) \
        == json.loads(json.dumps(json_run_report(runtime)))


def test_an_empty_report_has_every_key():
    assert set(RunReport().as_dict()) == REPORT_KEYS
