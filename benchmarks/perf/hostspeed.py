"""Host-speed reference: keeps host times comparable on a shared machine.

On a shared host the speed available to one process drifts by up to 2x
over seconds (neighbours on the same cores), and CPU time drifts with
wall time, so neither removes it.  The benchmark therefore brackets
every timed unit — a pass, a fig7 run, a serve window, a set-up probe —
with a fixed pure-Python reference loop and reports host times scaled
to a *nominal host*, on which the loop takes :data:`REFERENCE_S`::

    adjusted time = measured time * REFERENCE_S / reference time

where the reference time is the mean of the loop just before and just
after the unit.  A rate is divided by the same factor.  The loop is the
benchmark's own code: it allocates no garbage-collected objects and
touches nothing of the program, so a program change cannot move it.
Raw (unadjusted) values are reported alongside.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds the reference loop takes on the nominal host (about what it
#: takes on an idle 2-vCPU x86-64 cloud host under CPython 3.11).
REFERENCE_S = 0.0065
_ROUNDS = 20_000
#: A sample is the fastest of this many loops: a burst that hits one
#: loop says nothing about the speed the neighbouring unit saw.
_REPEATS = 3


class _Node:
    __slots__ = ("key", "value", "next")


_POOL = [_Node() for _ in range(512)]
for _i, _node in enumerate(_POOL):
    _node.key = _i
    _node.value = (_i * 2654435761) & 0x7FFFFFFF
    _node.next = _POOL[(_i * 37 + 1) % 512]
_TABLE = dict.fromkeys(range(1024), 0)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _loop() -> float:
    start = perf_counter()
    node, table, acc = _POOL[0], _TABLE, 0
    for i in range(_ROUNDS):
        node = node.next
        node.value = value = (node.value * 1103515245 + i) & 0x7FFFFFFF
        key = value & 1023
        table[key] = table[key] + node.key
        acc = _mix(key, acc)
    return perf_counter() - start


def reference_seconds() -> float:
    """The reference loop's time now: attribute, dict and call traffic
    over preallocated objects (only ints are created)."""
    best = _loop()
    for _ in range(_REPEATS - 1):
        best = min(best, _loop())
    return best


class HostSpeed:
    """Chained reference samples around consecutive timed units.

    Create it just before the first unit; call :meth:`factor` right
    after each unit.  The factor multiplies that unit's host time.
    """

    def __init__(self):
        self._last = reference_seconds()

    def factor(self) -> float:
        now = reference_seconds()
        scale = 2 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale
