"""Property-based tests of the simulation engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
def test_clock_never_goes_backwards(delays):
    engine = Engine()
    observed = []
    for d in delays:
        engine.timeout(d).callbacks.append(
            lambda _ev: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert engine.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30))
def test_equal_times_processed_in_creation_order(delays):
    engine = Engine()
    order = []
    for i, d in enumerate(delays):
        engine.timeout(d).callbacks.append(
            lambda _ev, i=i: order.append(i))
    engine.run()
    keyed = [(delays[i], i) for i in order]
    assert keyed == sorted(keyed)


@given(holds=st.lists(st.floats(min_value=0.01, max_value=10.0,
                                allow_nan=False), min_size=1, max_size=20),
       capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(holds, capacity):
    engine = Engine()
    resource = Resource(engine, capacity=capacity)
    high_water = [0]

    def granted(req, hold):
        high_water[0] = max(high_water[0], resource.count)
        engine.schedule_call(hold, resource.release, req)

    for hold in holds:
        resource.request().callbacks.append(
            lambda req, hold=hold: granted(req, hold))
    engine.run()
    assert high_water[0] <= capacity
    assert resource.count == 0
    assert resource.queue_length == 0


@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0,
                                allow_nan=False), min_size=2, max_size=15))
@settings(max_examples=50)
def test_unit_resource_serialises_total_time(holds):
    """With capacity 1, the makespan equals the sum of hold times."""
    engine = Engine()
    resource = Resource(engine, capacity=1)

    for hold in holds:
        resource.request().callbacks.append(
            lambda req, hold=hold: engine.schedule_call(
                hold, resource.release, req))
    engine.run()
    assert abs(engine.now - sum(holds)) < 1e-6 * len(holds)


@given(n=st.integers(min_value=0, max_value=30))
def test_all_of_fires_at_max_child_time(n):
    engine = Engine()
    children = [engine.timeout(float(i)) for i in range(n)]
    combo = engine.all_of(children)
    engine.run()
    assert combo.processed
    assert engine.now == (max(range(n)) if n else 0.0)


@given(st.data())
def test_process_chain_returns_in_topological_order(data):
    """A chain of links, each waiting on its upstream's event, then 1 s,
    then firing its own: they finish in chain order."""
    depth = data.draw(st.integers(min_value=1, max_value=15))
    engine = Engine()
    finished = []

    def link(i, upstream):
        done = engine.event()

        def finish(_arg):
            finished.append(i)
            done.succeed()

        def start(_ev=None):
            engine.schedule_call(1.0, finish)

        if upstream is None:
            start()
        else:
            upstream.callbacks.append(start)
        return done

    prev = None
    for i in range(depth):
        prev = link(i, prev)
    engine.run()
    assert finished == list(range(depth))
    assert engine.now == float(depth)
