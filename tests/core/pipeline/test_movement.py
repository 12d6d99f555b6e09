"""DataMovementStage unit tests."""

from repro.gpu import Direction


def _mover(rt):
    return rt.controller.pipeline.stage("data-movement")


def test_controller_sourced_replication(rt, make_array):
    a = make_array("mv.a", mib=8)
    before = rt.controller.stats.transfers_issued
    ev = _mover(rt).ensure_on_node(a, "worker0")
    assert ev is not None
    rt.engine.run(until=ev)
    assert rt.controller.directory.up_to_date_on(a, "worker0")
    assert rt.controller.stats.transfers_issued == before + 1
    assert rt.controller.stats.bytes_requested >= a.nbytes
    assert rt.controller.stats.p2p_transfers == 0   # sourced from home


def test_no_event_when_already_up_to_date(rt, make_array):
    a = make_array("mv.b")
    ev = _mover(rt).ensure_on_node(a, "worker0")
    rt.engine.run(until=ev)
    # Second request: data already valid there, nothing in flight.
    assert _mover(rt).ensure_on_node(a, "worker0") is None


def test_inflight_replication_is_shared_not_reissued(rt, make_array):
    a = make_array("mv.c", mib=8)
    first = _mover(rt).ensure_on_node(a, "worker0")
    before = rt.controller.stats.transfers_issued
    again = _mover(rt).ensure_on_node(a, "worker0")
    assert again is first                 # the in-flight event is reused
    assert rt.controller.stats.transfers_issued == before
    rt.engine.run(until=first)


def test_p2p_source_preferred_over_controller(rt, make_array, kernel):
    a = make_array("mv.d", mib=8)
    k = kernel("k", (Direction.INOUT,))
    # Write the array on worker0: it becomes the sole up-to-date holder.
    rt.launch(k, 8, 128, (a,), label="mv.writer")
    rt.sync()
    state = rt.controller.directory.state(a)
    assert state.up_to_date == {"worker0"}

    before = rt.controller.stats.p2p_transfers
    ev = _mover(rt).ensure_on_node(a, "worker1")
    rt.engine.run(until=ev)
    assert rt.controller.stats.p2p_transfers == before + 1


def test_surviving_source_prefers_workers_and_breaks_ties_by_name(
        rt, make_array):
    a = make_array("mv.e")
    state = rt.controller.directory.state(a)
    home = rt.cluster.controller.name
    state.up_to_date |= {"worker1", "worker2", home}
    # Symmetric topology: worker1 and worker2 tie on cost; the name
    # tie-break keeps the choice independent of set-iteration order.
    assert _mover(rt).surviving_source(a, "worker0") == "worker1"
    assert _mover(rt).surviving_source(
        a, "worker0", exclude="worker1") == "worker2"


def test_surviving_source_falls_back_to_controller(rt, make_array):
    a = make_array("mv.f")
    state = rt.controller.directory.state(a)
    home = rt.cluster.controller.name
    state.up_to_date.clear()
    assert _mover(rt).surviving_source(a, "worker0") == home
    assert home in state.up_to_date        # home regained validity


def test_process_appends_one_wait_per_cold_array(rt, make_array, kernel):
    from repro.core.pipeline.base import SchedulingState
    from repro.core.ce import CeKind, ComputationalElement
    from repro.gpu import ArrayAccess
    from repro.gpu.kernel import LaunchConfig
    a, b = make_array("mv.g"), make_array("mv.h")
    k = kernel("k", (Direction.IN, Direction.IN))
    ce = ComputationalElement(
        kind=CeKind.KERNEL,
        accesses=(ArrayAccess(a, Direction.IN),
                  ArrayAccess(b, Direction.IN)),
        kernel=k, config=LaunchConfig((8,), (128,)),
        args=(a, b), label="mv.pair")
    state = SchedulingState(ce=ce, node="worker0")
    _mover(rt).process(ce, state)
    assert len(state.waits) == 2
    for ev in state.waits:
        rt.engine.run(until=ev)
    assert rt.controller.directory.up_to_date_on(a, "worker0")
    assert rt.controller.directory.up_to_date_on(b, "worker0")


# -- interrupts (the one interruptible chain) --------------------------------

def _moves_on(rt, array, producer, n):
    """``n`` moves of ``array`` to worker0 waiting on ``producer``."""
    from repro.core.pipeline.movement import Move
    moves = [Move(_mover(rt), array, rt.cluster.controller.name, "worker0",
                  producer, None) for _ in range(n)]
    rt.engine.run()          # deliver the start hops: all now wait
    return moves


def test_interrupt_detaches_by_tombstone_on_wide_event(rt, make_array):
    """Interrupting a move waiting on a wide fan-in event is O(1): its
    callback slot is tombstoned to ``None`` instead of a linear
    ``list.remove``.  Half of many waiters are interrupted; the list
    keeps its length, so every other recorded slot index stays valid,
    and the survivors still complete."""
    from repro.sim import Interrupt
    a = make_array("mv.wide", mib=1)
    producer = rt.engine.event(name="wide")
    n = 1000
    moves = _moves_on(rt, a, producer, n)
    assert len(producer.callbacks) == n

    for move in moves[::2]:
        move.cancel("reaped")       # an interrupt whose failure is defused
    assert len(producer.callbacks) == n
    assert producer.callbacks.count(None) == n // 2

    producer.succeed("go")
    rt.engine.run()
    for move in moves[::2]:
        assert not move.ok and isinstance(move.value, Interrupt)
        assert move.value.cause == "reaped"
    assert all(move.ok and move.value == a.nbytes for move in moves[1::2])


def test_interrupted_waiter_rewaits_on_wide_event(rt, make_array):
    """A crash-interrupted move re-sources and re-waits on the same wide
    event in a fresh slot; its stale tombstone does not shadow it."""
    from repro.core.pipeline.movement import NODE_CRASH
    a = make_array("mv.rewait", mib=1)
    producer = rt.engine.event(name="wide")
    *bystanders, victim = _moves_on(rt, a, producer, 11)
    old_slot = victim._wait_index

    victim.interrupt((NODE_CRASH, "worker2"))
    assert producer.callbacks[old_slot] is None
    rerouted = rt.controller.stats.transfers_rerouted
    rt.engine.run()                  # the interrupt's hop: re-source
    assert rt.controller.stats.transfers_rerouted == rerouted + 1
    assert victim._wait_index == len(producer.callbacks) - 1 == 11
    assert producer.callbacks[old_slot] is None

    producer.succeed("done")
    rt.engine.run()
    assert victim.ok and victim.value == a.nbytes
    assert all(move.ok for move in bystanders)
