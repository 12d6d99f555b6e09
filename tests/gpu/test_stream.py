"""Unit tests of CUDA-stream FIFO semantics on the engine."""

import pytest

from repro.gpu.stream import StreamOp


class Sleep(StreamOp):
    """An op that sleeps ``duration``, logs its end and completes with
    ``tag``."""

    __slots__ = ("duration", "log", "tag")

    def __init__(self, stream, duration, log=None, tag=None, *,
                 name="op", category="kernel"):
        super().__init__(stream, name, category)
        self.duration = duration
        self.log = log
        self.tag = tag

    def begin(self):
        self.sleep(self.duration, Sleep.fin)

    def fin(self):
        if self.log is not None:
            self.log.append((self.tag, self.engine.now))
        self.finish(self.tag)


class TestFifoOrder:
    def test_ops_serialize_in_order(self, engine, gpu):
        stream = gpu.new_stream()
        log = []
        for i, d in enumerate((2.0, 1.0, 3.0)):
            stream.push(Sleep(stream, d, log, i, name=f"op{i}"))
        engine.run()
        assert log == [(0, 2.0), (1, 3.0), (2, 6.0)]

    def test_completion_event_value(self, engine, gpu):
        stream = gpu.new_stream()
        done = stream.push(Sleep(stream, 1.0, tag="result"))
        engine.run()
        assert done.value == "result"

    def test_two_streams_overlap(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        log = []
        s1.push(Sleep(s1, 2.0, log, "a"))
        s2.push(Sleep(s2, 2.0, log, "b"))
        engine.run()
        assert log == [("a", 2.0), ("b", 2.0)]   # concurrent

    def test_wait_events_delay_start(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        log = []
        first = s1.push(Sleep(s1, 3.0, log, "producer"))
        s2.push(Sleep(s2, 1.0, log, "consumer"), waits=[first])
        engine.run()
        assert log == [("producer", 3.0), ("consumer", 4.0)]

    def test_ops_enqueued_counter(self, engine, gpu):
        stream = gpu.new_stream()
        stream.push(Sleep(stream, 1.0))
        stream.push(Sleep(stream, 1.0))
        assert stream.ops_enqueued == 2

    def test_base_op_has_no_body(self, engine, gpu):
        stream = gpu.new_stream()
        stream.push(StreamOp(stream, "bare", "kernel"))
        with pytest.raises(NotImplementedError):
            engine.run()


class TestSynchronize:
    def test_empty_stream_sync_fires_immediately(self, engine, gpu):
        stream = gpu.new_stream()
        sync = stream.synchronize()
        engine.run()
        assert sync.processed

    def test_sync_is_last_completion(self, engine, gpu):
        stream = gpu.new_stream()
        stream.push(Sleep(stream, 1.0))
        tail = stream.push(Sleep(stream, 2.0))
        assert stream.synchronize() is tail

    def test_sync_after_completion_fires_immediately(self, engine, gpu):
        stream = gpu.new_stream()
        stream.push(Sleep(stream, 1.0))
        engine.run()
        sync = stream.synchronize()
        engine.run()
        assert sync.processed


class TestTracing:
    def test_spans_recorded_on_lane(self, engine, gpu, tracer):
        stream = gpu.new_stream()
        stream.push(Sleep(stream, 2.0, name="mykernel",
                          category="kernel"))
        engine.run()
        spans = tracer.by_category("kernel")
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "mykernel"
        assert span.lane == stream.lane
        assert span.duration == pytest.approx(2.0)

    def test_lane_includes_gpu_and_stream(self, engine, gpu):
        stream = gpu.new_stream()
        assert stream.lane == "n0/gpu0/stream0"
