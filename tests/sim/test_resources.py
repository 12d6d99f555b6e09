"""Unit tests of Resource."""

import pytest

from repro.sim import Resource, SimError


def user(engine, resource, hold, log, tag):
    """Request a slot; once granted, hold it ``hold`` seconds."""
    def granted(req):
        log.append((tag, "got", engine.now))
        engine.schedule_call(hold, release, req)

    def release(req):
        resource.release(req)
        log.append((tag, "rel", engine.now))

    resource.request().callbacks.append(granted)


class TestResource:
    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_grants_up_to_capacity_immediately(self, engine):
        res = Resource(engine, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert r1.triggered and r2.triggered and not r3.triggered
        assert res.count == 2 and res.queue_length == 1

    def test_fifo_grant_order(self, engine):
        res = Resource(engine, capacity=1)
        log = []
        for i in range(3):
            user(engine, res, 1.0, log, i)
        engine.run()
        got = [(tag, t) for tag, kind, t in log if kind == "got"]
        assert got == [(0, 0.0), (1, 1.0), (2, 2.0)]

    def test_release_grants_next_waiter(self, engine):
        res = Resource(engine, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r1)
        assert r2.triggered

    def test_release_unheld_raises(self, engine):
        res = Resource(engine, capacity=1)
        stranger = res.request()
        res.release(stranger)
        with pytest.raises(SimError):
            res.release(stranger)

    def test_cancel_queued_request(self, engine):
        res = Resource(engine, capacity=1)
        res.request()
        queued = res.request()
        res.release(queued)          # cancel while waiting
        assert res.queue_length == 0

    def test_parallel_capacity_two(self, engine):
        res = Resource(engine, capacity=2)
        log = []
        for i in range(4):
            user(engine, res, 2.0, log, i)
        engine.run()
        got = dict((tag, t) for tag, kind, t in log if kind == "got")
        assert got == {0: 0.0, 1: 0.0, 2: 2.0, 3: 2.0}

    def test_repr(self, engine):
        res = Resource(engine, capacity=3, name="pcie")
        assert "pcie" in repr(res) and "0/3" in repr(res)

