"""Paging-backend tests: registry, identity contract, gpuvm divergence.

The load-bearing guarantee is the identity contract: the default
``cpu-pme`` backend must be *object-identical* pass-through, so default
schedules stay byte-identical to the pre-backend code (the golden trace
re-checks that here with the backend named explicitly).  The ``gpuvm``
backend must then actually diverge — cheaper faults, no prefetcher —
or the plug point is decoration, not a design axis.
"""

import json

import pytest

from repro.bench import run_single_node
from repro.core import GrCudaRuntime, GroutRuntime, RoundRobinPolicy
from repro.cluster import paper_cluster
from repro.gpu import GIB, TEST_GPU_1GB, V100_16GB
from repro.gpu.kernel import AccessPattern
from repro.obs import to_prometheus_text
from repro.uvm import (
    DEFAULT_BACKEND,
    PAGING_BACKENDS,
    PAPER_CALIBRATION,
    CpuPmeBackend,
    GpuvmBackend,
    PagingBackend,
    PrefetchConfig,
    make_paging_backend,
)
from repro.workloads import make_workload
from tests.core.pipeline.test_schedule_regression import GOLDEN, drive


class TestRegistry:
    def test_default_is_cpu_pme(self):
        assert DEFAULT_BACKEND == "cpu-pme"
        assert PAGING_BACKENDS[DEFAULT_BACKEND] is CpuPmeBackend

    def test_names_match_registry_keys(self):
        for name, cls in PAGING_BACKENDS.items():
            assert issubclass(cls, PagingBackend)
            assert cls.name == name

    def test_resolution(self):
        assert isinstance(make_paging_backend(None), CpuPmeBackend)
        assert isinstance(make_paging_backend("gpuvm"), GpuvmBackend)
        instance = GpuvmBackend()
        assert make_paging_backend(instance) is instance

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="cpu-pme.*gpuvm"):
            make_paging_backend("hostvm")


class TestCpuPmeIdentity:
    """Every hook returns its argument *object* — not a copy."""

    def test_hooks_are_identity(self):
        backend = CpuPmeBackend()
        prefetch = PrefetchConfig()
        assert backend.model_params(PAPER_CALIBRATION) is PAPER_CALIBRATION
        assert backend.engine_spec(V100_16GB) is V100_16GB
        assert backend.prefetch_config(prefetch) is prefetch
        assert backend.eviction_order("lru") == "lru"

    def test_default_uvmspace_is_indistinguishable(self):
        plain = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        named = GrCudaRuntime(gpu_spec=TEST_GPU_1GB, uvm_backend="cpu-pme")
        for rt in (plain, named):
            assert rt.node.uvm.params is PAPER_CALIBRATION
            assert isinstance(rt.node.uvm.backend, CpuPmeBackend)
            assert rt.node.uvm.backend.name == "cpu-pme"


class TestGpuvm:
    def test_prefetcher_disabled(self):
        cfg = GpuvmBackend().prefetch_config(PrefetchConfig())
        assert cfg.enabled is False

    def test_engine_spec_changes_only_fault_constants(self):
        spec = GpuvmBackend().engine_spec(V100_16GB)
        assert spec.fault_batch_latency < V100_16GB.fault_batch_latency
        assert spec.fault_batch_pages < V100_16GB.fault_batch_pages
        # Memory geometry belongs to the hardware, not the paging design.
        assert spec.memory_bytes == V100_16GB.memory_bytes
        assert spec.hbm_bandwidth == V100_16GB.hbm_bandwidth
        assert spec.pcie_bandwidth == V100_16GB.pcie_bandwidth

    def test_model_params_shape(self):
        params = GpuvmBackend().model_params(PAPER_CALIBRATION)
        base_patterns = PAPER_CALIBRATION.patterns
        for p in params.patterns.values():
            assert p.prefetchable is False
            assert p.batch_penalty == 1.0
        rnd = params.patterns[AccessPattern.RANDOM]
        seq = params.patterns[AccessPattern.SEQUENTIAL]
        # Random access stops collapsing; streaming loses its runway.
        assert rnd.beta < base_patterns[AccessPattern.RANDOM].beta
        assert seq.knee < base_patterns[AccessPattern.SEQUENTIAL].knee
        assert params.fault_bw_efficiency <= 1.0
        assert params.fault_bw_efficiency \
            > PAPER_CALIBRATION.fault_bw_efficiency
        assert params.migration_overlap \
            < PAPER_CALIBRATION.migration_overlap


class TestBehaviouralDivergence:
    """The two designs must *disagree*, in the documented directions."""

    def test_streaming_prefers_cpu_pme(self):
        pme = run_single_node("mv", 64 * GIB, check=False, n_chunks=8,
                              uvm_backend="cpu-pme")
        gpuvm = run_single_node("mv", 64 * GIB, check=False, n_chunks=8,
                                uvm_backend="gpuvm")
        # Measured ~4.5x (no tree prefetcher / evict-ahead under gpuvm).
        assert gpuvm.elapsed_seconds > 2.0 * pme.elapsed_seconds

    def test_random_access_prefers_gpuvm(self):
        pme = run_single_node("join", 64 * GIB, check=False, n_chunks=8,
                              uvm_backend="cpu-pme")
        gpuvm = run_single_node("join", 64 * GIB, check=False, n_chunks=8,
                                uvm_backend="gpuvm")
        # Measured ~13x (no CPU handler saturation under gpuvm).
        assert pme.elapsed_seconds > 2.0 * gpuvm.elapsed_seconds


def _capture_schedule(uvm_backend):
    cluster = paper_cluster(3, gpu_spec=TEST_GPU_1GB,
                            uvm_backend=uvm_backend)
    rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
    try:
        drive(rt)
        return {"spans": [[s.lane, s.category, s.name, s.start, s.end]
                          for s in rt.tracer.spans],
                "elapsed": rt.engine.now,
                "events": rt.engine.events_processed}
    finally:
        rt.shutdown()


class TestGoldenDifferential:
    """Explicit cpu-pme replays the pinned golden; gpuvm must not."""

    def test_explicit_cpu_pme_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())["round-robin"]
        assert _capture_schedule("cpu-pme") == golden

    def test_gpuvm_diverges_from_golden(self):
        golden = json.loads(GOLDEN.read_text())["round-robin"]
        assert _capture_schedule("gpuvm")["elapsed"] != golden["elapsed"]


class TestMetricsLabel:
    def test_uvm_metrics_carry_backend_label(self):
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB, uvm_backend="gpuvm")
        wl = make_workload("mv", 2 * GIB, n_chunks=4)
        res = wl.execute(rt, check=False)
        assert res.completed
        text = to_prometheus_text(rt.metrics)
        cold = [line for line in text.splitlines()
                if line.startswith("grout_uvm_cold_bytes_total{")]
        assert cold, "no cold-byte samples published"
        assert all('backend="gpuvm"' in line for line in cold)
