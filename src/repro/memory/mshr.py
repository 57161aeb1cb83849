"""Miss status holding registers (MSHRs).

The paper's enhanced ``sim-outorder`` memory subsystem models MSHRs and
interconnect bottlenecks (Section 3.2).  This model is used by the
detailed timing simulator, which is timestamp-based: each outstanding
miss is an entry with the cycle at which its data returns.  Requests to a
block that already has an outstanding miss merge into the existing entry;
when all MSHRs are busy a new miss must wait for the earliest entry to
retire (a structural stall).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Completion cycle of an empty file (later than any cycle).
_NEVER = math.inf


@dataclass
class MSHRStats:
    allocations: int = 0
    merges: int = 0
    structural_stalls: int = 0
    stall_cycles: int = 0


class MSHRFile:
    """A bank of miss status holding registers.

    The file is consulted only by the detailed timing model; functional
    warming does not track outstanding misses (it has no notion of time).
    """

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("MSHR entry count must be positive")
        self.entries = entries
        self.stats = MSHRStats()
        # Maps block address -> completion cycle.
        self._outstanding: dict[int, int] = {}
        # A lower bound on the earliest outstanding completion (exact
        # after every scan): nothing expires before it, so ``_expire``
        # skips its scan until ``now`` reaches it.
        self._earliest = _NEVER

    def _expire(self, now: int) -> None:
        if now < self._earliest:
            return
        outstanding = self._outstanding
        expired = []
        earliest = _NEVER
        for blk, t in outstanding.items():
            if t <= now:
                expired.append(blk)
            elif t < earliest:
                earliest = t
        for blk in expired:
            del outstanding[blk]
        self._earliest = earliest

    def outstanding(self, now: int) -> int:
        """Number of misses still in flight at cycle ``now``."""
        self._expire(now)
        return len(self._outstanding)

    def request(self, block: int, now: int, latency: int) -> tuple[int, int]:
        """Issue a miss request for ``block`` at cycle ``now``.

        Returns ``(ready_cycle, stall_cycles)`` where ``ready_cycle`` is
        when the data becomes available and ``stall_cycles`` is any delay
        incurred waiting for a free MSHR (zero when one was available or
        the request merged with an outstanding miss).
        """
        self._expire(now)
        existing = self._outstanding.get(block)
        if existing is not None and existing > now:
            self.stats.merges += 1
            return existing, 0

        stall = 0
        if len(self._outstanding) >= self.entries:
            # Every entry left is later than ``now``, so waiting for the
            # earliest one to complete frees at least that entry.
            earliest = min(self._outstanding.values())
            stall = earliest - now
            self.stats.structural_stalls += 1
            self.stats.stall_cycles += stall
            self._expire(earliest)
        ready = now + stall + latency
        self._outstanding[block] = ready
        if ready < self._earliest:
            self._earliest = ready
        self.stats.allocations += 1
        return ready, stall

    def flush(self) -> None:
        self._outstanding.clear()
        self._earliest = _NEVER

    def reset_stats(self) -> None:
        self.stats = MSHRStats()
