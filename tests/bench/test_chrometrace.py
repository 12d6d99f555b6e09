"""Unit tests of the Chrome trace-event exporter."""

import io
import json

import pytest

from repro.bench.chrometrace import to_chrome_trace, write_chrome_trace
from repro.sim import Tracer


@pytest.fixture
def trace():
    tr = Tracer()
    tr.record("worker0/gpu0/stream0", "kernel", "k1", 0.0, 0.002)
    tr.record("worker0/gpu1/stream0", "kernel", "k2", 0.001, 0.003)
    tr.record("net:controller->worker0", "transfer", "move", 0.0, 0.004,
              nbytes=1024)
    return tr


class TestExport:
    def test_duration_events_scaled_to_micros(self, trace):
        payload = to_chrome_trace(trace)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 3
        k1 = next(e for e in spans if e["name"] == "k1")
        assert k1["ts"] == pytest.approx(0.0)
        assert k1["dur"] == pytest.approx(2000.0)

    def test_lanes_become_named_threads(self, trace):
        payload = to_chrome_trace(trace)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert "worker0/gpu0/stream0" in thread_names

    def test_nodes_group_as_processes(self, trace):
        payload = to_chrome_trace(trace)
        procs = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["name"] == "process_name"}
        assert "worker0" in procs
        assert "net:controller->worker0" in procs

    def test_meta_preserved_in_args(self, trace):
        payload = to_chrome_trace(trace)
        move = next(e for e in payload["traceEvents"]
                    if e.get("name") == "move")
        assert move["args"]["nbytes"] == 1024

    def test_write_to_stream_is_valid_json(self, trace):
        buf = io.StringIO()
        write_chrome_trace(trace, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["displayTimeUnit"] == "ms"

    def test_write_to_file(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(trace, str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_real_run_exports(self, tmp_path):
        from repro.core import GroutRuntime
        from repro.gpu import TEST_GPU_1GB
        from repro.workloads import make_workload
        from repro.gpu.specs import MIB

        wl = make_workload("mv", 256 * MIB, n_chunks=4)
        rt = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        wl.execute(rt, check=False)
        payload = to_chrome_trace(rt.tracer)
        kinds = {e.get("cat") for e in payload["traceEvents"]}
        assert "kernel" in kinds and "transfer" in kinds

