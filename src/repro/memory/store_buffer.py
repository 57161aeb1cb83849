"""Store buffer model.

Committed stores drain through a finite store buffer to the cache
hierarchy.  The paper uses the store buffer to derive the analytic bound
on detailed warming W (Section 4.4): "a worst-case bound on W is the
product of store-buffer depth, memory latency in cycles, and the maximum
IPC".  The model is timestamp-based to match the detailed simulator: each
occupied entry carries the cycle at which it finishes writing back.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


@dataclass
class StoreBufferStats:
    stores: int = 0
    full_stalls: int = 0
    stall_cycles: int = 0


class StoreBuffer:
    """Finite store buffer draining committed stores to the memory system."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("store buffer entry count must be positive")
        self.entries = entries
        self.stats = StoreBufferStats()
        # Completion cycles of in-flight stores, a min-heap.
        self._inflight: list[int] = []

    def _expire(self, now: int) -> None:
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            heappop(inflight)

    def occupancy(self, now: int) -> int:
        self._expire(now)
        return len(self._inflight)

    def push(self, now: int, drain_latency: int) -> tuple[int, int]:
        """Insert a committed store at cycle ``now``.

        Returns ``(completion_cycle, stall_cycles)``.  When the buffer is
        full the store (and therefore commit) stalls until the oldest
        entry drains.
        """
        self._expire(now)
        stall = 0
        if len(self._inflight) >= self.entries:
            # Every entry left is later than ``now``, so waiting for the
            # earliest one to drain frees at least that entry.
            stall = self._inflight[0] - now
            self.stats.full_stalls += 1
            self.stats.stall_cycles += stall
            self._expire(self._inflight[0])
        completion = now + stall + drain_latency
        heappush(self._inflight, completion)
        self.stats.stores += 1
        return completion, stall

    def flush(self) -> None:
        self._inflight.clear()

    def reset_stats(self) -> None:
        self.stats = StoreBufferStats()
