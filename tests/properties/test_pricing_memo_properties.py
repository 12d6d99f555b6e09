"""Differential property test: the pricing memo against the live pricer.

Twin UVM spaces (two GPUs joined by NVLink) run the same random op
sequence — registrations, launches over random buffer subsets and
access shapes, host reads/writes, invalidations, advises, prefetches
and unregistrations, sized so that some launches evict.  One twin
prices every launch through ``UvmSpace.price_kernel`` (memo first), the
other through the live pricer alone.  After every step the twins must
agree exactly: the launch's ``KernelCost``, the cumulative
``UvmStats``, every device's clock, arena order and per-buffer page
arrays, and every pricer's seed and first-use ordinals.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    AccessPattern,
    ArrayAccess,
    Direction,
    Gpu,
    KernelLaunch,
    KernelSpec,
    LaunchConfig,
    TEST_GPU_1GB,
)
from repro.gpu.specs import MIB
from repro.sim import Engine
from repro.uvm import Advise, UvmSpace

#: 256 pages of 1 MiB per GPU: two of the larger buffers fill one, and
#: the 1 GiB ballast (registered or not) swings the node OSF across
#: every pattern's degradation knee.
SPEC = dataclasses.replace(TEST_GPU_1GB.with_page_size(MIB),
                           memory_bytes=256 * MIB)
SIZES_MIB = (8, 24, 96, 140, 200, 1024)
N_BUFFERS = len(SIZES_MIB)


class Buf:
    def __init__(self, buffer_id, nbytes):
        self.buffer_id = buffer_id
        self.nbytes = nbytes


def make_twins():
    engine = Engine()
    gpus = [Gpu(engine, SPEC, node_name="n", index=i) for i in range(2)]
    return UvmSpace(gpus), UvmSpace(gpus), gpus


def buffers():
    return [Buf(10_000 + i, mib * MIB) for i, mib in enumerate(SIZES_MIB)]


buffer_index = st.integers(0, N_BUFFERS - 1)
#: Launches never name the ballast, so most launch keys stay eligible.
launched_index = st.integers(0, N_BUFFERS - 2)

#: Fraction 0.999 still covers every page of these buffers, 0.5 does not.
access_strategy = st.tuples(
    launched_index,
    st.sampled_from(list(AccessPattern)),
    st.sampled_from((1.0, 1.0, 0.999, 0.5)),
    st.sampled_from((Direction.IN, Direction.INOUT)),
    st.sampled_from((1.0, 2.0)),
)
#: ``cold`` launches invalidate their buffers first, so cold keys (the
#: ones whose cost depends on the OSF and on free pages) repeat too.
launch_strategy = st.tuples(
    st.just("launch"), st.integers(0, 1),
    st.lists(access_strategy, min_size=1, max_size=2),
    st.booleans())

OPS = {
    "register": st.tuples(st.just("register"), buffer_index),
    "unregister": st.tuples(st.just("unregister"), buffer_index),
    "invalidate": st.tuples(st.just("invalidate"), buffer_index),
    "host": st.tuples(st.just("host"), buffer_index, st.booleans()),
    "prefetch": st.tuples(st.just("prefetch"), st.integers(0, 1),
                          buffer_index),
    "advise": st.tuples(st.just("advise"), buffer_index,
                        st.sampled_from(list(Advise)), st.integers(0, 1)),
}
#: Launch-heavy mix; advises are sticky (an advised buffer prices live
#: until unregistered), so they stay rare.
KINDS = ["launch"] * 10 + ["register"] * 3 + ["unregister", "invalidate",
                                              "host", "prefetch", "advise"]


@st.composite
def programs(draw):
    """20-60 ops whose launches repeat a few drawn launch shapes, the
    way a program's loop does, so memo keys recur under changing OSF,
    residency and free pages."""
    pool = draw(st.lists(launch_strategy, min_size=1, max_size=4))
    ops = []
    for _ in range(draw(st.integers(20, 60))):
        kind = draw(st.sampled_from(KINDS))
        ops.append(draw(st.sampled_from(pool)) if kind == "launch"
                   else draw(OPS[kind]))
    return ops


def assert_same_state(memo, live):
    """Everything a memo hit must reproduce: stats, and per device the
    clock, arena order, page arrays, footprint and pricer state."""
    assert memo.stats == live.stats
    for a, b in zip(memo._devices.values(), live._devices.values()):
        ta, tb = a.table, b.table
        assert (ta.clock, ta.resident_pages, ta.arena_pages) \
            == (tb.clock, tb.resident_pages, tb.arena_pages)
        assert list(ta._offsets.items()) == list(tb._offsets.items())
        for pa in ta.buffers():
            pb = tb.buffer(pa.buffer_id)
            assert pa.read_mostly == pb.read_mostly
            for field in ("resident", "dirty", "last_access",
                          "access_count"):
                assert np.array_equal(getattr(pa, field),
                                      getattr(pb, field)), field
        assert list(a.touched_buffers.items()) \
            == list(b.touched_buffers.items())
        assert a.pricer._seed == b.pricer._seed
        assert list(a.pricer._ordinals.items()) \
            == list(b.pricer._ordinals.items())
        assert a.pricer._ordinals_seen == b.pricer._ordinals_seen


def apply(space, gpus, bufs, op, price):
    """Run one op on one twin; returns the op's observable result."""
    kind = op[0]
    if kind == "register":
        space.register(bufs[op[1]])
        return None
    if kind == "unregister":
        space.unregister(bufs[op[1]].buffer_id)
        return None
    if kind == "advise":
        _, b, advise, device = op
        space.advise(bufs[b].buffer_id, advise, device)
        return None
    if kind in ("host", "invalidate", "prefetch"):
        buf = bufs[op[-1] if kind == "prefetch" else op[1]]
        if not space.is_registered(buf.buffer_id):
            return None
        if kind == "host":
            return space.host_access(buf.buffer_id, write=op[2])
        if kind == "invalidate":
            return space.invalidate(buf.buffer_id)
        return space.prefetch(gpus[op[1]], buf)
    _, g, shapes, cold = op
    accesses = tuple(
        ArrayAccess(bufs[b], direction, pattern=pattern,
                    fraction=fraction, passes=passes)
        for b, pattern, fraction, direction, passes in shapes
        if space.is_registered(bufs[b].buffer_id))
    if not accesses:
        return None
    if cold:
        for access in accesses:
            space.invalidate(access.buffer.buffer_id)
    launch = KernelLaunch(KernelSpec("k", flops_per_byte=0.25),
                          LaunchConfig((64,), (256,)),
                          tuple(a.buffer for a in accesses), accesses)
    return price(space)(gpus[g], launch)


def run_twins(ops):
    memo, live, gpus = make_twins()
    bufs = buffers()
    for op in ops:
        got = apply(memo, gpus, bufs, op, lambda s: s.price_kernel)
        want = apply(live, gpus, bufs, op, lambda s: s._price_live)
        assert got == want, op
        assert_same_state(memo, live)
    return memo, live


@given(programs())
@settings(max_examples=200, deadline=None)
def test_memo_matches_live_pricing_step_by_step(ops):
    registers = [("register", b) for b in range(N_BUFFERS - 1)]
    _, live = run_twins(registers + ops)
    assert live.memo_hits == 0


def launch(gpu, *buffers, pattern=AccessPattern.SEQUENTIAL,
           direction=Direction.IN):
    """A launch op: full-coverage accesses to ``buffers`` on ``gpu``."""
    return ("launch", gpu,
            [(b, pattern, 1.0, direction, 1.0) for b in buffers], False)


def test_a_steady_loop_is_served_by_the_memo_and_evicting_launches_are_not():
    """A fixed sequence that exercises hits, NVLink pulls and launches
    the memo must refuse because they would evict."""
    bufs = buffers()
    registers = [("register", b) for b in range(N_BUFFERS - 1)]
    loop = [("launch", 0, [(0, AccessPattern.SEQUENTIAL, 1.0,
                            Direction.INOUT, 1.0),
                           (1, AccessPattern.RANDOM, 1.0,
                            Direction.IN, 1.0)], False)] * 4
    pull = [launch(1, 1)]
    # Buffer 4 (200 MiB) still fits beside buffers 0 and 1; buffer 3
    # (140 MiB) then exceeds the free pages, so it — and buffer 4 again,
    # now partly evicted — must price live.
    evicting = [launch(0, 4, direction=Direction.INOUT), launch(0, 3)]
    memo, live = run_twins(registers + loop + pull + loop + evicting * 2)
    # Each loop misses until its state repeats: 2 hits per loop.
    assert memo.memo_hits == 4
    assert memo.stats.cold_bytes == live.stats.cold_bytes > 0
    assert memo.stats.peer_bytes > 0
    target = next(iter(memo._devices.values())).table
    assert np.all(target.buffer(bufs[3].buffer_id).resident)


def test_the_node_osf_is_part_of_the_key():
    """One cold launch shape at two OSFs: registering the ballast
    pushes the OSF past the RANDOM knee, so the launch after it costs
    more and must not reuse the record made before it."""
    cold = [launch(0, 2, pattern=AccessPattern.RANDOM), ("invalidate", 2)]
    # The first launch registers buffer 2 on the GPU; the next two share
    # a key, the last one has the ballast's OSF.
    memo, _ = run_twins([("register", 2)] + cold * 3 + [("register", 5)]
                        + cold)
    assert memo.memo_hits == 1


def test_a_recorded_key_that_no_longer_fits_prices_live():
    """Buffer 3's cold launch is recorded while the GPU is empty; after
    buffer 4 fills most of it, the same key must evict, so it prices
    live instead of replaying the record."""
    cold = [launch(0, 3), ("invalidate", 3)]
    memo, live = run_twins(
        [("register", 3), ("register", 4)] + cold * 3
        + [launch(0, 4)] + cold)
    assert memo.memo_hits == 1
    bufs = buffers()
    target = next(iter(live._devices.values())).table
    assert target.buffer(bufs[4].buffer_id).resident_count == 256 - 140
