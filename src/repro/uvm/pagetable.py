"""Per-device page tables for the simulated UVM space.

Residency is tracked at base-page granularity (default 64 KiB, the real
UVM migration granule) with NumPy bitmaps, so a 160 GB buffer costs a few
megabytes of bookkeeping and every operation is vectorised.

The host's DRAM acts as the backing store: a page is either *resident* on
this device (possibly *dirty*, i.e. the host copy is stale) or lives on the
host.  Duplicated read-only residency (``cudaMemAdviseSetReadMostly``) is
modelled by admitting pages with dirtiness suppressed.

Each table keeps one *page arena*: a single ``resident``, ``dirty``,
``last_access`` and ``access_count`` array for the whole device, and
every :class:`BufferPages` is a slice view into it.  Eviction therefore
picks victims among every resident page of the device with a fixed
handful of vectorised calls, however many buffers are registered.

Arena slices keep the table's buffer-insertion order: a buffer is
appended at the end of the used prefix, and one registered again after
``unregister`` goes to the end too.  Eviction's candidate array is thus
exactly the per-buffer concatenation in insertion order, and since
``argpartition`` breaks ties between equal clocks by position, the
arena evicts exactly the pages a loop over the buffers would.
``unregister`` detaches the departing handle (it keeps private copies)
and blanks its hole.  The arena is *relaid* when a registration does
not fit after the used prefix, or when an unregistration leaves it
larger than twice the live pages plus ``MIN_ARENA_PAGES``: live slices
are compacted in their order into a fresh arena (``MIN_ARENA_PAGES``
doubled until the live pages and any newcomer fit) and every live
handle is repointed at its new slice.  Handles stay valid, and the
arena never holds more than twice the live pages plus its minimum, however
long tenants churn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Pages a fresh arena holds; relayouts double from here.
MIN_ARENA_PAGES = 64


class UvmError(Exception):
    """Raised on illegal UVM-state transitions."""


def _new_arena(n_pages: int) -> tuple[np.ndarray, ...]:
    """Blank ``resident``, ``dirty``, ``last_access``, ``access_count``."""
    return (np.zeros(n_pages, dtype=bool), np.zeros(n_pages, dtype=bool),
            np.zeros(n_pages, dtype=np.int64),
            np.zeros(n_pages, dtype=np.int64))


@dataclass(slots=True)
class BufferPages:
    """Residency bitmaps of one managed buffer on one device.

    While registered, the arrays are views into the table's arena; read
    them through the handle, since a relayout repoints them.
    """

    buffer_id: int
    n_pages: int
    resident: np.ndarray      # bool[n_pages]
    dirty: np.ndarray         # bool[n_pages]
    last_access: np.ndarray   # int64[n_pages], global LRU clock (0 = never)
    access_count: np.ndarray  # int64[n_pages], lifetime touch count (LFU)
    read_mostly: bool = False

    @classmethod
    def empty(cls, buffer_id: int, n_pages: int) -> "BufferPages":
        """A standalone (arena-free) all-blank state."""
        if n_pages <= 0:
            raise ValueError(f"buffer needs >= 1 page, got {n_pages}")
        return cls(buffer_id, n_pages, *_new_arena(n_pages))

    @property
    def resident_count(self) -> int:
        """Number of resident pages."""
        return int(np.count_nonzero(self.resident))

    @property
    def dirty_count(self) -> int:
        """Number of dirty pages."""
        return int(np.count_nonzero(self.dirty))


@dataclass(frozen=True, slots=True)
class EvictionResult:
    """Outcome of freeing device pages."""

    evicted_pages: int
    dirty_pages: int     # subset of evicted pages needing write-back


class DevicePageTable:
    """All UVM bookkeeping for one GPU.

    Parameters
    ----------
    capacity_pages:
        Device pages available to managed memory (HBM size / page size).
    page_size:
        Bytes per base page; only used by byte-level convenience helpers.
    """

    def __init__(self, capacity_pages: int, page_size: int):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._buffers: dict[int, BufferPages] = {}
        self._offsets: dict[int, int] = {}   # buffer_id -> arena slice start
        self._used = 0                       # end of the last live slice
        self._live_pages = 0                 # sum of registered n_pages
        self._resident, self._dirty, self._last_access, self._access_count \
            = _new_arena(MIN_ARENA_PAGES)
        self._resident_total = 0
        self._clock = 0

    # -- registration ------------------------------------------------------

    def register(self, buffer_id: int, n_pages: int,
                 read_mostly: bool = False) -> None:
        """Start tracking a managed buffer (idempotent for same shape)."""
        existing = self._buffers.get(buffer_id)
        if existing is not None:
            if existing.n_pages != n_pages:
                raise UvmError(
                    f"buffer {buffer_id} re-registered with {n_pages} pages, "
                    f"was {existing.n_pages}")
            return
        if n_pages <= 0:
            raise ValueError(f"buffer needs >= 1 page, got {n_pages}")
        if self._used + n_pages > len(self._resident):
            self._relayout(n_pages)
        lo = self._used
        self._used = lo + n_pages
        self._live_pages += n_pages
        self._offsets[buffer_id] = lo
        self._buffers[buffer_id] = BufferPages(
            buffer_id, n_pages, *self._slices(lo, n_pages),
            read_mostly=read_mostly)

    def unregister(self, buffer_id: int) -> None:
        """Drop a buffer; its resident pages are freed without write-back.

        The departing handle keeps private copies of its state, and its
        arena slice is blanked so a later registration may reuse it.
        """
        pages = self._buffers.pop(buffer_id, None)
        if pages is None:
            return
        self._resident_total -= pages.resident_count
        self._live_pages -= pages.n_pages
        lo = self._offsets.pop(buffer_id)
        pages.resident, pages.dirty, pages.last_access, pages.access_count \
            = (view.copy() for view in self._slices(lo, pages.n_pages))
        for arena in self._arena():
            arena[lo:lo + pages.n_pages] = 0
        last = next(reversed(self._buffers.values()), None)
        self._used = (0 if last is None
                      else self._offsets[last.buffer_id] + last.n_pages)
        if len(self._resident) > 2 * self._live_pages + MIN_ARENA_PAGES:
            self._relayout(0)

    def _arena(self) -> tuple[np.ndarray, ...]:
        return (self._resident, self._dirty, self._last_access,
                self._access_count)

    def _slices(self, lo: int, n_pages: int) -> tuple[np.ndarray, ...]:
        return tuple(arena[lo:lo + n_pages] for arena in self._arena())

    def _relayout(self, extra: int) -> None:
        """Compact live slices, in order, into an arena with room for
        ``extra`` more pages, and repoint every live handle."""
        size = MIN_ARENA_PAGES
        while size < self._live_pages + extra:
            size *= 2
        old = self._arena()
        self._resident, self._dirty, self._last_access, self._access_count \
            = _new_arena(size)
        at = 0
        for pages in self._buffers.values():
            lo = self._offsets[pages.buffer_id]
            n = pages.n_pages
            views = self._slices(at, n)
            for src, dst in zip(old, views):
                dst[:] = src[lo:lo + n]
            pages.resident, pages.dirty, pages.last_access, \
                pages.access_count = views
            self._offsets[pages.buffer_id] = at
            at += n
        self._used = at

    def is_registered(self, buffer_id: int) -> bool:
        """Whether the buffer is tracked on this device."""
        return buffer_id in self._buffers

    def buffer(self, buffer_id: int) -> BufferPages:
        """Bitmap state of one buffer (raises for unknown ids)."""
        try:
            return self._buffers[buffer_id]
        except KeyError:
            raise UvmError(f"buffer {buffer_id} is not registered") from None

    def buffers(self) -> list[BufferPages]:
        """Every tracked buffer's state."""
        return list(self._buffers.values())

    # -- global state --------------------------------------------------------

    @property
    def arena_pages(self) -> int:
        """Pages the arena holds: live slices, holes and free tail."""
        return len(self._resident)

    @property
    def resident_pages(self) -> int:
        """Total resident pages on the device."""
        return self._resident_total

    @property
    def free_pages(self) -> int:
        """Remaining device page capacity."""
        return self.capacity_pages - self._resident_total

    @property
    def clock(self) -> int:
        """Current LRU clock value."""
        return self._clock

    def tick(self) -> int:
        """Advance the LRU clock; one tick per logical operation."""
        self._clock += 1
        return self._clock

    def advance_clock(self, ticks: int) -> int:
        """Advance the LRU clock by several ticks at once.

        The pricing memo reproduces a recorded launch's clock movement
        without re-running the per-plan ``tick()`` calls; the resulting
        clock value is identical to the live path's.
        """
        if ticks < 0:
            raise ValueError("clock only moves forward")
        self._clock += ticks
        return self._clock

    def resident_bytes(self, buffer_id: int | None = None) -> int:
        """Resident bytes of one buffer, or of the whole device."""
        if buffer_id is None:
            return self._resident_total * self.page_size
        return self.buffer(buffer_id).resident_count * self.page_size

    # -- faults & admission ----------------------------------------------------

    def fault_pages(self, buffer_id: int, pages: np.ndarray) -> np.ndarray:
        """Subset of ``pages`` not currently resident (the faults)."""
        state = self.buffer(buffer_id)
        return pages[~state.resident[pages]]

    def admit(self, buffer_id: int, pages: np.ndarray, *,
              write: bool, clock: int | None = None) -> int:
        """Make ``pages`` resident and stamp their access clock.

        Returns the number of *newly* admitted pages.  The caller is
        responsible for having evicted enough beforehand; over-committing
        raises because it means the migration engine mis-accounted.
        """
        state = self.buffer(buffer_id)
        if clock is None:
            clock = self.tick()
        if len(pages) == 0:
            return 0
        was_resident = state.resident[pages]
        new = int((~was_resident).sum())
        if new > self.free_pages:
            raise UvmError(
                f"admitting {new} pages exceeds free capacity "
                f"{self.free_pages} — evict first")
        state.resident[pages] = True
        state.last_access[pages] = clock
        state.access_count[pages] += 1
        if write and not state.read_mostly:
            state.dirty[pages] = True
        self._resident_total += new
        return new

    def touch(self, buffer_id: int, pages: np.ndarray, *,
              write: bool, clock: int | None = None) -> None:
        """Refresh the clock (and dirtiness) of already-resident pages."""
        state = self.buffer(buffer_id)
        if clock is None:
            clock = self.tick()
        resident = pages[state.resident[pages]]
        state.last_access[resident] = clock
        state.access_count[resident] += 1
        if write and not state.read_mostly:
            state.dirty[resident] = True

    def fill_uniform(self, buffer_id: int, *, resident: bool | None,
                     dirty: bool | None = None, clock: int | None = None,
                     touches: int = 0) -> None:
        """Set one buffer's pages to a uniform state in O(slice) time.

        The pricing memo applies a recorded launch's all-or-nothing
        residency transition without walking page sets, and the
        migration engine a whole-buffer sweep of a buffer with every
        page resident or none:
        full admission stamps every page with one clock value and one
        access-count delta — exactly what ``touch`` + ``admit`` over a
        full-coverage page set would have produced.  ``resident=None``
        leaves residency untouched and ``dirty=None`` leaves dirtiness
        untouched (read-only access), except that evicting every page
        also cleans it.  The caller is responsible for capacity (guard
        ``free_pages`` first); admitting past capacity raises as
        :meth:`admit` would.
        """
        state = self.buffer(buffer_id)
        if resident is not None:
            was = state.resident_count
            now = state.n_pages if resident else 0
            if now - was > self.free_pages:
                raise UvmError(
                    f"admitting {now - was} pages exceeds free capacity "
                    f"{self.free_pages} — evict first")
            state.resident[:] = resident
            if not resident and dirty is None:
                state.dirty[:] = False
            self._resident_total += now - was
        if dirty is not None:
            state.dirty[:] = dirty and not state.read_mostly
        if clock is not None:
            state.last_access[:] = clock
        if touches:
            state.access_count += touches

    # -- eviction -----------------------------------------------------------------

    def evict(self, n_pages: int, *, order: str = "lru",
              rng: np.random.Generator | None = None,
              protect: int | None = None) -> EvictionResult:
        """Free ``n_pages`` device pages.

        Parameters
        ----------
        order:
            ``"lru"`` (oldest clock first), ``"lfu"`` (fewest lifetime
            touches first — the FALL-aware policy of [7]: streaming pages
            get evicted before frequently re-used ones), or ``"random"``.
        rng:
            Required for ``"random"``; deterministic generator.
        protect:
            Optional buffer_id whose pages are evicted only as a last
            resort (the buffer the current kernel is actively streaming).

        Returns page counts; the *caller* charges write-back time for the
        dirty subset.
        """
        if n_pages <= 0:
            return EvictionResult(0, 0)
        if n_pages > self._resident_total:
            raise UvmError(
                f"cannot evict {n_pages} pages, only {self._resident_total} "
                "resident")

        # Candidates are arena positions, hence in buffer-insertion order:
        # element for element the per-buffer concatenation, so ties
        # between equal clocks break exactly as they would per buffer.
        candidates = np.flatnonzero(self._resident[:self._used])
        pools = (candidates,)
        lo = self._offsets.get(protect)
        if lo is not None:
            hi = lo + self._buffers[protect].n_pages
            # A protected buffer with no resident page splits off an empty
            # pool: the candidates stay as they are.
            if np.count_nonzero(self._resident[lo:hi]):
                # Two rounds: everything except the protected buffer,
                # then it.
                a, b = np.searchsorted(candidates, (lo, hi))
                pools = (np.concatenate((candidates[:a], candidates[b:])),
                         candidates[a:b])

        remaining = n_pages
        evicted = dirty = 0
        for pool in pools:
            if remaining <= 0:
                break
            if len(pool) == 0:
                continue
            take = min(remaining, len(pool))
            if order == "lru":
                victims = pool if take == len(pool) else pool[
                    np.argpartition(self._last_access[pool], take - 1)[:take]]
            elif order == "lfu":
                # Fewest touches first, oldest clock breaking ties.
                victims = pool[np.lexsort((self._last_access[pool],
                                           self._access_count[pool]))[:take]]
            elif order == "random":
                if rng is None:
                    raise ValueError("random eviction requires an rng")
                victims = pool[rng.choice(len(pool), size=take,
                                          replace=False)]
            else:
                raise ValueError(f"unknown eviction order {order!r}")
            dirty += int(np.count_nonzero(self._dirty[victims]))
            self._resident[victims] = False
            self._dirty[victims] = False
            evicted += take
            remaining -= take

        self._resident_total -= evicted
        return EvictionResult(evicted, dirty)

    def ensure_free(self, n_pages: int, **evict_kwargs: object) -> EvictionResult:
        """Evict just enough to have ``n_pages`` free; no-op if already free."""
        need = n_pages - self.free_pages
        if need <= 0:
            return EvictionResult(0, 0)
        if n_pages > self.capacity_pages:
            raise UvmError(
                f"request for {n_pages} free pages exceeds device capacity "
                f"{self.capacity_pages}")
        return self.evict(need, **evict_kwargs)  # type: ignore[arg-type]

    # -- write-back ----------------------------------------------------------------

    def clean(self, buffer_id: int) -> int:
        """Mark a buffer's dirty pages clean (after write-back); returns count."""
        state = self.buffer(buffer_id)
        n = state.dirty_count
        state.dirty[:] = False
        return n

    def drop(self, buffer_id: int) -> int:
        """Evict all pages of one buffer without write-back; returns count.

        Used when another node takes ownership and the local copy is
        invalidated (the coherence layer already shipped the data).
        """
        state = self.buffer(buffer_id)
        n = state.resident_count
        state.resident[:] = False
        state.dirty[:] = False
        self._resident_total -= n
        return n

    def __repr__(self) -> str:
        return (f"<DevicePageTable {self._resident_total}/"
                f"{self.capacity_pages} pages, {len(self._buffers)} buffers>")
