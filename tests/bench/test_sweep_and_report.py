"""Unit tests of the sweep utility and run reports."""

import io

import pytest

from repro.bench import sweep, write_csv
from repro.bench.sweep import CSV_FIELDS
from repro.core import GrCudaRuntime, GroutRuntime
from repro.gpu import GIB, MIB, TEST_GPU_1GB
from repro.obs import build_run_report
from repro.workloads import make_workload
from tests.core.pipeline.test_grcuda_schedule_regression import (
    LONG_CES, long_program)


class TestSweep:
    def test_lazy_generator(self):
        gen = sweep(["mv"], [2])
        import types
        assert isinstance(gen, types.GeneratorType)

    def test_cartesian_coverage(self):
        results = list(sweep(["mv"], [2, 4], modes=("grcuda",)))
        assert len(results) == 2
        assert {r.footprint_bytes for r in results} == {2 * GIB, 4 * GIB}

    def test_grout_policy_worker_fanout(self):
        results = list(sweep(
            ["mv"], [2], modes=("grout",),
            policies=("round-robin", "vector-step"),
            worker_counts=(2, 3)))
        assert len(results) == 4
        assert {(r.policy, r.n_workers) for r in results} == {
            ("round-robin", 2), ("round-robin", 3),
            ("vector-step", 2), ("vector-step", 3)}

    def test_csv_round_trip(self):
        buf = io.StringIO()
        rows = write_csv(sweep(["mv"], [2], modes=("grcuda",)), buf)
        assert rows == 1
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert lines[1].startswith("mv,grcuda,")

    def test_csv_to_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = write_csv(sweep(["mv"], [2], modes=("grcuda",)),
                         str(path))
        assert rows == 1
        assert path.read_text().count("\n") == 2


class TestRunReport:
    def test_grout_report_fields(self):
        wl = make_workload("mv", 2 * GIB, n_chunks=4)
        rt = GroutRuntime(n_workers=2, page_size=4 * MIB)
        wl.execute(rt, check=False)
        report = build_run_report(rt)
        assert report.makespan_seconds > 0
        assert report.network_bytes > 0
        assert report.ces_scheduled == wl.ce_count
        assert set(report.node_oversubscription) == {
            "worker0", "worker1"}
        assert report.top_kernels[0][0] == "mv_chunk"
        text = report.render()
        assert "network volume" in text and "mv_chunk" in text

    def test_grcuda_report_fields(self):
        wl = make_workload("bs", 1 * GIB, n_chunks=2)
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        wl.execute(rt, check=False)
        report = build_run_report(rt)
        assert report.network_bytes == 0
        assert report.node_oversubscription["local"] > 0
        assert report.top_kernels[0][0] == "black_scholes"

    @pytest.mark.parametrize("make_runtime", [
        lambda: GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB),
        lambda: GrCudaRuntime(gpu_spec=TEST_GPU_1GB),
    ], ids=["grout", "grcuda"])
    def test_report_counts_every_submitted_ce(self, make_runtime):
        """Host CEs and pruned CEs count too, and the count outlives
        shutdown: the report reads the host API's one CE count."""
        rt = make_runtime()
        long_program(rt)
        assert build_run_report(rt).ces_scheduled == LONG_CES
        rt.shutdown()
        assert build_run_report(rt).ces_scheduled == LONG_CES

    def test_busy_breakdown_covers_kernels_and_transfers(self):
        wl = make_workload("mv", 2 * GIB, n_chunks=4)
        rt = GroutRuntime(n_workers=2, page_size=4 * MIB)
        wl.execute(rt, check=False)
        breakdown = build_run_report(rt).busy_by_category
        assert breakdown["kernel"] > 0
        assert breakdown["transfer"] > 0


class TestCliSweep:
    def test_stdout_csv(self, capsys):
        from repro.cli import main
        assert main(["sweep", "mv", "--sizes", "2",
                     "--modes", "grcuda"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_FIELDS))

    def test_file_output(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "out.csv"
        assert main(["sweep", "mv", "--sizes", "2", "--modes", "grout",
                     "--policies", "round-robin", "--workers", "2",
                     "--out", str(path)]) == 0
        assert "1 rows" in capsys.readouterr().out
        assert "round-robin" in path.read_text()
