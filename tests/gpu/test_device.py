"""Unit tests of the Gpu device object."""

import pytest

from repro.gpu import Gpu, TEST_GPU_1GB


class TestIdentity:
    def test_lane_format(self, gpu):
        assert gpu.lane == "n0/gpu0"

    def test_unique_gpu_ids(self, engine, small_spec):
        a = Gpu(engine, small_spec, node_name="n", index=0)
        b = Gpu(engine, small_spec, node_name="n", index=1)
        assert a.gpu_id != b.gpu_id

    def test_memory_matches_spec(self, gpu, small_spec):
        assert gpu.memory_bytes == small_spec.memory_bytes


class TestStreams:
    def test_new_streams_numbered(self, gpu):
        s0, s1 = gpu.new_stream(), gpu.new_stream()
        assert s0.index == 0 and s1.index == 1
        assert gpu.streams == [s0, s1]

    def test_default_stream_created_once(self, gpu):
        d1 = gpu.default_stream()
        d2 = gpu.default_stream()
        assert d1 is d2 and d1.index == 0


class TestCostHelpers:
    def test_compute_time(self, gpu):
        assert gpu.compute_time(gpu.spec.fp32_flops) == pytest.approx(1.0)

    def test_hbm_time(self, gpu):
        assert gpu.hbm_time(gpu.spec.hbm_bandwidth) == pytest.approx(1.0)

    def test_negative_inputs_rejected(self, gpu):
        with pytest.raises(ValueError):
            gpu.compute_time(-1.0)
        with pytest.raises(ValueError):
            gpu.hbm_time(-1.0)


class TestContention:
    def test_host_link_serialises(self, engine, gpu):
        log = []

        def user(tag):
            # Once granted, hold the link for 2 s, then release it.
            def release(req):
                gpu.host_link.release(req)
                log.append((tag, engine.now))

            gpu.host_link.request().callbacks.append(
                lambda req: engine.schedule_call(2.0, release, req))

        user("a")
        user("b")
        engine.run()
        assert log == [("a", 2.0), ("b", 4.0)]

    def test_copy_engines_match_spec(self, gpu):
        assert gpu.copy_engine.capacity == TEST_GPU_1GB.copy_engines
