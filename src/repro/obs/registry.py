"""The central metrics registry — one namespace for every instrument.

Before this subsystem each layer kept private tallies (``ControllerStats``
attributes, ``Fabric._retries``, per-scheduler dicts) that reports had to
know about individually.  The registry replaces that with three Prometheus
-style instrument kinds — :class:`Counter` (monotonic), :class:`Gauge`
(set/positional), :class:`Histogram` (bounded-reservoir distribution) —
grouped into labelled *families* so the same metric can be sliced by
node, GPU, link or policy.  Everything is thread-safe (one registry lock)
and bounded in memory: histograms keep a fixed reservoir, and the
per-instrument time series recorded for Chrome-trace counter tracks
decimates itself once it exceeds its capacity.

The canonical metric names live in :mod:`repro.obs.catalog`; exporters
live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Instrument kinds a family can be declared as.
KINDS = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """Invalid metric declaration or use (bad name, kind clash, ...)."""


class RunningAggregate:
    """Bounded running statistic: count/sum/min/max plus a fixed-size
    reservoir for percentiles.

    Week-long simulated runs schedule millions of CEs; a raw per-sample
    list grows memory linearly.  This keeps the mean *exact* (count and
    sum are complete) and approximates percentiles from a deterministic
    reservoir sample (Vitter's Algorithm R with a fixed seed).
    """

    __slots__ = ("count", "total", "minimum", "maximum",
                 "_reservoir", "_capacity", "_rng")

    def __init__(self, capacity: int = 512, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._reservoir: list[float] = []
        self._capacity = capacity
        self._rng = random.Random(seed)

    def add(self, sample: float) -> None:
        """Fold one sample into the aggregate (O(1), bounded memory)."""
        self.count += 1
        self.total += sample
        if sample < self.minimum:
            self.minimum = sample
        if sample > self.maximum:
            self.maximum = sample
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(sample)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = sample

    #: Alias so aggregate call sites read like the list they replaced.
    append = add

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of every sample ever added."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0-100) from the reservoir."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = q / 100 * (len(ordered) - 1)
        lo, hi = int(rank), min(int(rank) + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __repr__(self) -> str:
        return (f"<RunningAggregate n={self.count} mean={self.mean:.3g} "
                f"min={self.minimum if self.count else 0:.3g} "
                f"max={self.maximum if self.count else 0:.3g}>")


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """Declaration of one metric family: name, kind, meaning, labels."""

    name: str
    kind: str                      # "counter" | "gauge" | "histogram"
    help: str = ""
    unit: str = ""                 # "seconds", "bytes", "" for counts
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise MetricError(f"invalid metric name {self.name!r}")
        if self.kind not in KINDS:
            raise MetricError(
                f"{self.name}: kind must be one of {KINDS}, "
                f"got {self.kind!r}")
        for label in self.labels:
            if not _LABEL_RE.match(label):
                raise MetricError(
                    f"{self.name}: invalid label name {label!r}")


class _Shared:
    """What a registry's families and instruments read of it: the lock,
    the clock and the capacities.

    Families and instruments hold this object rather than the registry,
    so registry -> family -> instrument stays a tree with no back-edge:
    a dropped registry (and the engine its clock closes over) is freed
    by reference counting, never left for the cyclic collector.
    """

    __slots__ = ("lock", "clock", "reservoir", "series_capacity")

    def __init__(self, clock: Callable[[], float] | None,
                 reservoir: int, series_capacity: int):
        self.lock = threading.RLock()
        self.clock = clock
        self.reservoir = reservoir
        self.series_capacity = series_capacity


class _Instrument:
    """Base of one labelled child: the thing call sites actually update.

    Counters and gauges additionally keep a bounded ``(time, value)``
    series (when the registry has a clock) so exporters can draw counter
    tracks; the series halves itself by decimation when full, keeping
    memory O(capacity) over arbitrarily long runs.
    """

    __slots__ = ("_shared", "_value", "_series")

    def __init__(self, shared: _Shared):
        self._shared = shared
        self._value = 0.0
        self._series: list[tuple[float, float]] = []

    @property
    def value(self) -> float:
        """Current value of the instrument."""
        return self._value

    @property
    def series(self) -> list[tuple[float, float]]:
        """Recorded ``(time, value)`` samples (decimated, chronological)."""
        return list(self._series)

    def _record(self, value: float) -> None:
        """Set the value and add it to the series (caller holds the lock)."""
        self._value = value
        shared = self._shared
        clock = shared.clock
        if clock is None:
            return
        now = clock()
        series = self._series
        if series and series[-1][0] == now:
            # Coalesce same-timestamp updates: a discrete-event burst can
            # bump an instrument thousands of times at one simulated
            # instant, and exporters only ever need the settled value per
            # time point.  Keeps the series short and decimation rare.
            series[-1] = (now, value)
            return
        series.append((now, value))
        if len(series) > shared.series_capacity:
            # Keep the first and last points exact, thin the middle.
            self._series = series[:1] + series[1:-1:2] + series[-1:]


class Counter(_Instrument):
    """Monotonically increasing value (events, bytes, seconds spent)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        with self._shared.lock:
            self._record(self._value + amount)


class Gauge(_Instrument):
    """Point-in-time value that can move both ways (queue depth, OSF)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._shared.lock:
            self._record(float(value))

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._shared.lock:
            self._record(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)


class Histogram(RunningAggregate):
    """Distribution instrument: exact count/sum, reservoir percentiles.

    API-compatible with :class:`RunningAggregate` (``add``/``append``/
    ``mean``/``percentile``) so legacy stats call sites migrate without
    changes, plus the Prometheus-style ``observe`` spelling.
    """

    __slots__ = ("_shared",)

    def __init__(self, shared: _Shared,
                 capacity: int = 512, seed: int = 0):
        super().__init__(capacity=capacity, seed=seed)
        self._shared = shared

    def observe(self, sample: float) -> None:
        """Record one observation (thread-safe)."""
        with self._shared.lock:
            RunningAggregate.add(self, sample)

    add = observe
    append = observe

    @property
    def value(self) -> float:
        """The running sum — what a scrape of ``_sum`` would report."""
        return self.total


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, one child per label combination."""

    def __init__(self, shared: _Shared, spec: MetricSpec):
        self._shared = shared
        self.spec = spec
        self._children: dict[tuple[str, ...], _Instrument | Histogram] = {}

    @property
    def name(self) -> str:
        """The family's metric name."""
        return self.spec.name

    @property
    def kind(self) -> str:
        """The family's instrument kind."""
        return self.spec.kind

    def labels(self, **labelvalues: object):
        """The child for one label combination (created on first use).

        Label *names* must match the spec exactly — a typo'd or missing
        label is a bug in the instrumented layer, not data.
        """
        if set(labelvalues) != set(self.spec.labels):
            raise MetricError(
                f"{self.name}: expected labels {self.spec.labels}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name]) for name in self.spec.labels)
        shared = self._shared
        with shared.lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(shared, capacity=shared.reservoir)
                else:
                    child = _CHILD_TYPES[self.kind](shared)
                self._children[key] = child
            return child

    def children(self) -> Iterator[tuple[dict[str, str], object]]:
        """Iterate ``(labels_dict, instrument)`` pairs, insertion order."""
        for key, child in list(self._children.items()):
            yield dict(zip(self.spec.labels, key)), child

    def value_sum(self) -> float:
        """Sum of every child's value (counters/gauges: totals across
        labels; histograms: summed ``_sum``)."""
        return sum(child.value for _, child in self.children())

    def __repr__(self) -> str:
        return (f"<MetricFamily {self.name} kind={self.kind} "
                f"children={len(self._children)}>")


class MetricsRegistry:
    """Process-wide namespace of metric families.

    ``clock`` (usually ``lambda: engine.now``) timestamps the per-
    instrument series used for Chrome-trace counter tracks; without one,
    no series is kept and instruments are pure scalars.
    """

    def __init__(self, clock: Callable[[], float] | None = None, *,
                 reservoir: int = 512, series_capacity: int = 512):
        if reservoir < 1 or series_capacity < 4:
            raise MetricError(
                "reservoir must be >= 1 and series_capacity >= 4")
        self._shared = _Shared(clock, reservoir, series_capacity)
        self._families: dict[str, MetricFamily] = {}

    @property
    def lock(self) -> threading.RLock:
        """The one lock every family and instrument update takes."""
        return self._shared.lock

    @property
    def clock(self) -> Callable[[], float] | None:
        """Time source of the instrument series (``None``: no series)."""
        return self._shared.clock

    @property
    def reservoir(self) -> int:
        """Reservoir size of every histogram child."""
        return self._shared.reservoir

    @property
    def series_capacity(self) -> int:
        """Points a counter/gauge series keeps before decimating."""
        return self._shared.series_capacity

    # -- declaration ---------------------------------------------------------

    def register(self, spec: MetricSpec) -> MetricFamily:
        """Declare one family (idempotent; conflicting redeclarations
        raise)."""
        with self.lock:
            existing = self._families.get(spec.name)
            if existing is not None:
                if existing.spec != spec:
                    raise MetricError(
                        f"metric {spec.name!r} already registered with a "
                        f"different spec ({existing.spec} != {spec})")
                return existing
            family = MetricFamily(self._shared, spec)
            self._families[spec.name] = family
            return family

    def register_many(self, specs) -> None:
        """Declare a batch of specs (e.g. the whole catalogue)."""
        for spec in specs:
            self.register(spec)

    def _get(self, name: str, kind: str, help: str, unit: str,
             labels: tuple[str, ...] | None) -> MetricFamily:
        with self.lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise MetricError(
                        f"metric {name!r} is a {family.kind}, not a {kind}")
                return family
            return self.register(MetricSpec(
                name=name, kind=kind, help=help, unit=unit,
                labels=tuple(labels or ())))

    def counter(self, name: str, help: str = "", unit: str = "",
                labels: tuple[str, ...] | None = None) -> MetricFamily:
        """The counter family ``name`` (declared on first use)."""
        return self._get(name, "counter", help, unit, labels)

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: tuple[str, ...] | None = None) -> MetricFamily:
        """The gauge family ``name`` (declared on first use)."""
        return self._get(name, "gauge", help, unit, labels)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  labels: tuple[str, ...] | None = None) -> MetricFamily:
        """The histogram family ``name`` (declared on first use)."""
        return self._get(name, "histogram", help, unit, labels)

    # -- lifecycle -----------------------------------------------------------

    def finalize(self) -> None:
        """Seal the registry at teardown (idempotent).

        Drops the clock closure (usually ``lambda: engine.now``), so
        instruments stop recording time series and a registry that
        outlives its runtime (held by a report or a closed service) no
        longer holds the dead engine.  Every accumulated value, series
        and histogram stays readable, and instruments keep accepting
        writes; exporters and post-run reports work unchanged on a
        finalized registry.
        """
        with self.lock:
            self._shared.clock = None

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` ran (no clock -> no more series)."""
        return self.clock is None

    # -- introspection -------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by name (stable exports)."""
        with self.lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def family(self, name: str) -> MetricFamily:
        """Look up one family by name."""
        try:
            return self._families[name]
        except KeyError:
            raise MetricError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        """Sorted names of every registered family."""
        return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def snapshot(self) -> dict:
        """JSON-ready dump of every family and child (schema
        ``grout-metrics/1``; see docs/OBSERVABILITY.md)."""
        metrics = []
        for family in self.families():
            spec = family.spec
            samples = []
            for labels, child in family.children():
                if spec.kind == "histogram":
                    assert isinstance(child, Histogram)
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.total,
                        "min": child.minimum if child.count else 0.0,
                        "max": child.maximum if child.count else 0.0,
                        "mean": child.mean,
                        "p50": child.percentile(50),
                        "p95": child.percentile(95),
                        "p99": child.percentile(99),
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            metrics.append({
                "name": spec.name,
                "kind": spec.kind,
                "help": spec.help,
                "unit": spec.unit,
                "labels": list(spec.labels),
                "samples": samples,
            })
        return {"schema": "grout-metrics/1", "metrics": metrics}

    def __repr__(self) -> str:
        return f"<MetricsRegistry families={len(self._families)}>"
