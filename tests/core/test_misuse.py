"""Negative-path tests: API misuse fails loudly and early."""

import numpy as np
import pytest

from repro.core import GrCudaRuntime, GroutRuntime, ManagedArray
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB


def inout_kernel():
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.INOUT)]

    return KernelSpec("k", access_fn=access_fn)


class TestForeignArrays:
    def test_grout_rejects_unregistered_array(self):
        rt = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        stranger = ManagedArray(4, virtual_nbytes=MIB)   # never adopted
        with pytest.raises(KeyError, match="never registered"):
            rt.launch(inout_kernel(), 4, 128, (stranger,))

    def test_array_from_other_runtime_rejected(self):
        rt1 = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        rt2 = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        a = rt1.device_array(4, virtual_nbytes=MIB)
        with pytest.raises(KeyError):
            rt2.launch(inout_kernel(), 4, 128, (a,))

    def test_adopt_makes_foreign_array_usable(self):
        rt = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        stranger = ManagedArray(4, virtual_nbytes=MIB)
        rt.adopt(stranger)
        rt.launch(inout_kernel(), 4, 128, (stranger,))
        assert rt.sync()


class TestFreeSemantics:
    def test_use_after_free_rejected(self):
        rt = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        a = rt.device_array(4, virtual_nbytes=MIB)
        rt.launch(inout_kernel(), 4, 128, (a,))
        rt.sync()
        rt.free(a)
        with pytest.raises(KeyError):
            rt.launch(inout_kernel(), 4, 128, (a,))

    def test_double_free_is_noop(self):
        rt = GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB)
        a = rt.device_array(4, virtual_nbytes=MIB)
        rt.free(a)
        rt.free(a)


class TestLaunchValidation:
    def test_kernel_without_access_fn_needs_explicit_accesses(self):
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        a = rt.device_array(4, virtual_nbytes=MIB)
        with pytest.raises(ValueError, match="access_fn"):
            rt.launch(KernelSpec("bare"), 4, 128, (a,))

    def test_bad_launch_config_rejected(self):
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        a = rt.device_array(4, virtual_nbytes=MIB)
        with pytest.raises(ValueError):
            rt.launch(inout_kernel(), 0, 128, (a,))

    def test_failing_executor_propagates_with_context(self):
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        a = rt.device_array(4, virtual_nbytes=MIB)

        def boom(_array):
            raise RuntimeError("kernel crashed")

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.INOUT)]

        rt.launch(KernelSpec("boom", executor=boom,
                             access_fn=access_fn), 4, 128, (a,))
        with pytest.raises(RuntimeError, match="kernel crashed"):
            rt.sync()


@pytest.mark.parametrize("make_runtime", [
    lambda: GroutRuntime(n_workers=2, gpu_spec=TEST_GPU_1GB),
    lambda: GrCudaRuntime(gpu_spec=TEST_GPU_1GB),
], ids=["grout", "grcuda"])
def test_raising_host_body_fails_sync(make_runtime):
    """A host CE whose body raises fails its done event, undefused, so
    ``sync()`` raises the body's error: after the start hop, the
    host-bandwidth sleep over 1 MiB and the failed done event."""
    rt = make_runtime()
    a = rt.device_array(4, virtual_nbytes=MIB)

    def boom():
        raise RuntimeError("host body crashed")

    rt.host_write(a, boom)
    with pytest.raises(RuntimeError, match="host body crashed"):
        rt.sync()
    assert rt.engine.events_processed == 3
    assert rt.engine.now == 5.24288e-05


class TestArrayValidation:
    def test_negative_virtual_rejected(self):
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        with pytest.raises(ValueError):
            rt.device_array(1024, np.float64, virtual_nbytes=16)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            GroutRuntime(n_workers=0, gpu_spec=TEST_GPU_1GB)
