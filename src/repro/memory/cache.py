"""Set-associative cache model with LRU replacement.

The cache model serves three clients:

* the detailed timing simulator, which needs hit/miss outcomes to assign
  memory latencies;
* functional warming, which only needs the state-updating side effect of
  an access (Section 3.1: "maintaining large microarchitectural state,
  such as branch predictors and the cache hierarchy, during
  fast-forwarding");
* the energy model, which consumes the access counters.

Timing (latency accumulation, MSHR occupancy) is modeled by the caller,
so a cache access here is purely a tag-array lookup plus LRU update.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.accesses, self.misses, self.evictions, self.writebacks)


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Args:
        name: Identifier used in statistics and error messages.
        size_bytes: Total capacity.
        assoc: Associativity (ways per set).
        block_bytes: Cache block (line) size.
        write_allocate: Whether write misses allocate the block
            (write-back write-allocate policy, as SimpleScalar models).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_bytes: int = 32,
        write_allocate: bool = True,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        num_blocks = size_bytes // block_bytes
        if num_blocks < assoc:
            raise ValueError(
                f"cache {name!r}: capacity {size_bytes}B holds fewer blocks "
                f"than associativity {assoc}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.write_allocate = write_allocate
        self.num_sets = max(1, num_blocks // assoc)
        self.stats = CacheStats()
        # Each set is a list of (tag, dirty) with most-recently-used last.
        self._sets: list[list[list]] = [[] for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the cache; returns True on hit.

        On a miss the block is allocated (unless this is a write and the
        cache is not write-allocate), possibly evicting the LRU block of
        the set.
        """
        block = address // self.block_bytes
        index = block % self.num_sets
        tag = block // self.num_sets
        cache_set = self._sets[index]
        self.stats.accesses += 1

        for i, entry in enumerate(cache_set):
            if entry[0] == tag:
                # Hit: move to MRU position, update dirty bit.
                if i != len(cache_set) - 1:
                    cache_set.append(cache_set.pop(i))
                if is_write:
                    cache_set[-1][1] = True
                return True

        self.stats.misses += 1
        if is_write and not self.write_allocate:
            return False
        if len(cache_set) >= self.assoc:
            victim = cache_set.pop(0)
            self.stats.evictions += 1
            if victim[1]:
                self.stats.writebacks += 1
        cache_set.append([tag, is_write])
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        block = address // self.block_bytes
        index = block % self.num_sets
        tag = block // self.num_sets
        return any(entry[0] == tag for entry in self._sets[index])

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate all blocks (does not reset statistics)."""
        self._sets = [[] for _ in range(self.num_sets)]

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def resident_blocks(self) -> int:
        """Number of valid blocks currently cached."""
        return sum(len(s) for s in self._sets)

    def copy_state(self) -> list[list[list]]:
        """Deep copy of the tag arrays (for checkpoint/restore in tests)."""
        return [[list(entry) for entry in s] for s in self._sets]

    def restore_state(self, saved: list[list[list]]) -> None:
        if len(saved) != self.num_sets:
            raise ValueError(f"saved state for cache {self.name!r} has the "
                             f"wrong geometry")
        self._sets = [[list(entry) for entry in s] for s in saved]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SetAssociativeCache({self.name!r}, {self.size_bytes}B, "
            f"{self.assoc}-way, {self.block_bytes}B blocks)"
        )
