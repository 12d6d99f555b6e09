"""``cudaMemAdvise`` equivalents.

The paper's "hand-tuning" alternative (§I) consists of prefetch calls and
memory advises; GrOUT's pitch is that users should not need them, but the
substrate still implements them so the ablation benchmarks can compare
tuned vs. untuned single-node UVM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Advise(enum.Enum):
    """Supported memory advises (mirrors the CUDA enum)."""

    READ_MOSTLY = "read_mostly"            # duplicate read-only copies
    PREFERRED_LOCATION_HOST = "preferred_host"   # pin to host, map over PCIe
    PREFERRED_LOCATION_DEVICE = "preferred_device"
    ACCESSED_BY = "accessed_by"            # establish mapping, no migration


@dataclass(slots=True)
class AdviseSet:
    """Advises applied to one managed buffer."""

    read_mostly: bool = False
    preferred_host: bool = False
    preferred_device: int | None = None
    accessed_by: set[int] = field(default_factory=set)

    def apply(self, advise: Advise, device: int | None = None) -> None:
        """Apply one advise (some require a device index)."""
        if advise is Advise.READ_MOSTLY:
            self.read_mostly = True
        elif advise is Advise.PREFERRED_LOCATION_HOST:
            self.preferred_host = True
            self.preferred_device = None
        elif advise is Advise.PREFERRED_LOCATION_DEVICE:
            if device is None:
                raise ValueError(
                    "PREFERRED_LOCATION_DEVICE requires a device index")
            self.preferred_device = device
            self.preferred_host = False
        elif advise is Advise.ACCESSED_BY:
            if device is None:
                raise ValueError("ACCESSED_BY requires a device index")
            self.accessed_by.add(device)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown advise {advise!r}")

    def clear(self) -> None:
        """Reset every advise on the buffer."""
        self.read_mostly = False
        self.preferred_host = False
        self.preferred_device = None
        self.accessed_by.clear()


class AdviseRegistry:
    """Per-UVM-space store of buffer advises."""

    def __init__(self) -> None:
        self._advises: dict[int, AdviseSet] = {}

    def for_buffer(self, buffer_id: int) -> AdviseSet:
        """The (lazily created) advise set of a buffer."""
        advise_set = self._advises.get(buffer_id)
        if advise_set is None:
            advise_set = self._advises[buffer_id] = AdviseSet()
        return advise_set

    def advise(self, buffer_id: int, advise: Advise,
               device: int | None = None) -> None:
        """Apply an advise to a buffer."""
        self.for_buffer(buffer_id).apply(advise, device)

    def forget(self, buffer_id: int) -> None:
        """Drop a buffer's advises (no-op when absent)."""
        self._advises.pop(buffer_id, None)
