"""Translation lookaside buffer model.

TLBs are part of the long-history microarchitectural state that SMARTS
keeps warm through functional warming ("SMARTSim performs in-order
functional instruction execution and maintains the state of L1/L2 I/D
caches, TLBs, and branch predictors", Section 4.1).  The model is a
set-associative tag array over virtual page numbers; a miss costs a
fixed page-walk penalty charged by the detailed timing model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class TLB:
    """Set-associative TLB with LRU replacement.

    Args:
        name: Identifier for statistics.
        entries: Total number of entries.
        assoc: Associativity.
        page_bytes: Page size (default 4 KiB).
    """

    def __init__(self, name: str, entries: int, assoc: int, page_bytes: int = 4096) -> None:
        if entries <= 0 or assoc <= 0:
            raise ValueError("TLB entries and associativity must be positive")
        if entries % assoc != 0:
            raise ValueError("TLB entries must be a multiple of associativity")
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.page_bytes = page_bytes
        self.num_sets = entries // assoc
        self.stats = TLBStats()
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def access(self, address: int) -> bool:
        """Translate ``address``; returns True on TLB hit."""
        vpn = address // self.page_bytes
        index = vpn % self.num_sets
        tag = vpn // self.num_sets
        tlb_set = self._sets[index]
        self.stats.accesses += 1
        if tag in tlb_set:
            if tlb_set[-1] != tag:
                tlb_set.remove(tag)
                tlb_set.append(tag)
            return True
        self.stats.misses += 1
        if len(tlb_set) >= self.assoc:
            tlb_set.pop(0)
        tlb_set.append(tag)
        return False

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    def reset_stats(self) -> None:
        self.stats = TLBStats()

    def copy_state(self) -> list[list[int]]:
        """Deep copy of the tag sets, LRU order included (checkpointing)."""
        return [list(s) for s in self._sets]

    def restore_state(self, saved: list[list[int]]) -> None:
        if len(saved) != self.num_sets:
            raise ValueError("saved TLB state has the wrong geometry")
        self._sets = [list(s) for s in saved]
