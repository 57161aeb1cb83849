"""Two-level cache hierarchy with TLBs.

One :class:`MemoryHierarchy` instance is shared between functional
warming and detailed simulation within a SMARTS run — that sharing *is*
functional warming: the detailed simulator starts every sampling unit
with cache and TLB state that has been continuously updated during
fast-forwarding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config.machines import MachineConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.tlb import TLB

#: Service level of a memory access.
L1 = "l1"
L2 = "l2"
MEM = "mem"

#: Service levels, indexed by the level field of
#: :meth:`MemoryHierarchy.access_code`.
LEVELS = (L1, L2, MEM)


@dataclass
class AccessResult:
    """Outcome of a memory access through the hierarchy."""

    level: str
    tlb_miss: bool


class MemoryHierarchy:
    """L1 I/D caches, unified L2, and I/D TLBs."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(
            "l1i", config.l1i.size_bytes, config.l1i.assoc, config.l1i.block_bytes)
        self.l1d = SetAssociativeCache(
            "l1d", config.l1d.size_bytes, config.l1d.assoc, config.l1d.block_bytes)
        self.l2 = SetAssociativeCache(
            "l2", config.l2.size_bytes, config.l2.assoc, config.l2.block_bytes)
        self.itlb = TLB("itlb", config.itlb.entries, config.itlb.assoc,
                        config.itlb.page_bytes)
        self.dtlb = TLB("dtlb", config.dtlb.entries, config.dtlb.assoc,
                        config.dtlb.page_bytes)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access_code(self, address: int, kind: int) -> int:
        """One access, as an int: ``level << 1 | tlb_miss``.

        ``kind`` is 0 = instruction fetch (I-TLB, L1I, then L2 on miss),
        1 = load, 2 = store (D-TLB, L1D, then L2); ``level`` is 0 = L1,
        1 = L2, 2 = memory (the index into :data:`LEVELS`).  This is the
        one implementation behind :meth:`access_instruction` and
        :meth:`access_data`; the detailed timing model calls it directly
        so a hit costs no :class:`AccessResult`.

        This per-structure path is the specification the detailed timing
        model's :meth:`bind` kernel is tested against.  A kernel is valid
        for one ``run`` call only: a restore, a flush or
        :meth:`reset_stats` replaces the sets and stats it holds.
        """
        if kind == 0:
            code = 0 if self.itlb.access(address) else 1
            if self.l1i.access(address):
                return code
            return code | (2 if self.l2.access(address) else 4)
        is_write = kind == 2
        code = 0 if self.dtlb.access(address) else 1
        if self.l1d.access(address, is_write):
            return code
        return code | (2 if self.l2.access(address, is_write) else 4)

    def access_instruction(self, address: int) -> AccessResult:
        """Fetch access: I-TLB, L1I, then L2 on miss."""
        code = self.access_code(address, 0)
        return AccessResult(LEVELS[code >> 1], bool(code & 1))

    def access_data(self, address: int, is_write: bool = False) -> AccessResult:
        """Load/store access: D-TLB, L1D, then L2 on miss."""
        code = self.access_code(address, 2 if is_write else 1)
        return AccessResult(LEVELS[code >> 1], bool(code & 1))

    def bind(self):
        """A bound :meth:`access_code` kernel: ``(access, close)``.

        ``access(address, kind)`` has exactly the effect and result of
        ``access_code(address, kind)``, but reads every structure's sets
        and geometry into closure locals once, checks the MRU (last)
        entry of a set before scanning it, and keeps the statistics in
        locals; ``close()`` adds them to the structures' stats (call it
        exactly once, when done).  A data access on the same ``address
        // gcd(L1D line, D-TLB page)`` key as the previous data access
        through this kernel is an MRU hit in both, because fetches never
        touch the D-TLB or L1D, so it only counts the two accesses (and
        dirties the line on a store).

        The kernel is valid until ``close()`` within one detailed
        ``run`` call: a restore, a flush or :meth:`reset_stats` replaces
        the sets and stats objects it holds.  Like :meth:`warm_many` it
        assumes write-allocate caches, the only kind ``__init__`` builds.
        """
        itlb, dtlb = self.itlb, self.dtlb
        l1i, l1d, l2 = self.l1i, self.l1d, self.l2
        itlb_sets, itlb_nsets, itlb_page, itlb_assoc = (
            itlb._sets, itlb.num_sets, itlb.page_bytes, itlb.assoc)
        dtlb_sets, dtlb_nsets, dtlb_page, dtlb_assoc = (
            dtlb._sets, dtlb.num_sets, dtlb.page_bytes, dtlb.assoc)
        l1i_sets, l1i_nsets, l1i_block, l1i_assoc = (
            l1i._sets, l1i.num_sets, l1i.block_bytes, l1i.assoc)
        l1d_sets, l1d_nsets, l1d_block, l1d_assoc = (
            l1d._sets, l1d.num_sets, l1d.block_bytes, l1d.assoc)
        l2_sets, l2_nsets, l2_block, l2_assoc = (
            l2._sets, l2.num_sets, l2.block_bytes, l2.assoc)
        data_unit = math.gcd(l1d_block, dtlb_page)
        fetches = itlb_miss = l1i_miss = l1i_evict = l1i_wb = 0
        datas = dtlb_miss = l1d_miss = l1d_evict = l1d_wb = 0
        l2_acc = l2_miss = l2_evict = l2_wb = 0
        # The previous data access's key and L1D set (its line is MRU).
        last_key, last_set = -1, None

        def l2_access(address, is_write):
            """L2 lookup on an L1 miss; True on hit."""
            nonlocal l2_acc, l2_miss, l2_evict, l2_wb
            block = address // l2_block
            cache_set = l2_sets[block % l2_nsets]
            tag = block // l2_nsets
            l2_acc += 1
            if cache_set:
                entry = cache_set[-1]
                if entry[0] == tag:
                    if is_write:
                        entry[1] = True
                    return True
                for entry in cache_set:
                    if entry[0] == tag:
                        cache_set.remove(entry)
                        cache_set.append(entry)
                        if is_write:
                            entry[1] = True
                        return True
            l2_miss += 1
            if len(cache_set) >= l2_assoc:
                l2_evict += 1
                if cache_set.pop(0)[1]:
                    l2_wb += 1
            cache_set.append([tag, is_write])
            return False

        def access(address, kind):
            nonlocal fetches, itlb_miss, l1i_miss, l1i_evict, l1i_wb
            nonlocal datas, dtlb_miss, l1d_miss, l1d_evict, l1d_wb
            nonlocal last_key, last_set
            if kind == 0:
                fetches += 1
                # I-TLB
                vpn = address // itlb_page
                tlb_set = itlb_sets[vpn % itlb_nsets]
                tag = vpn // itlb_nsets
                if tlb_set and tlb_set[-1] == tag:
                    code = 0
                elif tag in tlb_set:
                    tlb_set.remove(tag)
                    tlb_set.append(tag)
                    code = 0
                else:
                    itlb_miss += 1
                    if len(tlb_set) >= itlb_assoc:
                        tlb_set.pop(0)
                    tlb_set.append(tag)
                    code = 1
                # L1I
                block = address // l1i_block
                cache_set = l1i_sets[block % l1i_nsets]
                tag = block // l1i_nsets
                if cache_set:
                    if cache_set[-1][0] == tag:
                        return code
                    for entry in cache_set:
                        if entry[0] == tag:
                            cache_set.remove(entry)
                            cache_set.append(entry)
                            return code
                l1i_miss += 1
                if len(cache_set) >= l1i_assoc:
                    l1i_evict += 1
                    if cache_set.pop(0)[1]:
                        l1i_wb += 1
                cache_set.append([tag, False])
                return code | (2 if l2_access(address, False) else 4)

            datas += 1
            is_write = kind == 2
            key = address // data_unit
            if key == last_key:
                if is_write:
                    last_set[-1][1] = True
                return 0
            last_key = key
            # D-TLB
            vpn = address // dtlb_page
            tlb_set = dtlb_sets[vpn % dtlb_nsets]
            tag = vpn // dtlb_nsets
            if tlb_set and tlb_set[-1] == tag:
                code = 0
            elif tag in tlb_set:
                tlb_set.remove(tag)
                tlb_set.append(tag)
                code = 0
            else:
                dtlb_miss += 1
                if len(tlb_set) >= dtlb_assoc:
                    tlb_set.pop(0)
                tlb_set.append(tag)
                code = 1
            # L1D
            block = address // l1d_block
            cache_set = l1d_sets[block % l1d_nsets]
            last_set = cache_set
            tag = block // l1d_nsets
            if cache_set:
                entry = cache_set[-1]
                if entry[0] == tag:
                    if is_write:
                        entry[1] = True
                    return code
                for entry in cache_set:
                    if entry[0] == tag:
                        cache_set.remove(entry)
                        cache_set.append(entry)
                        if is_write:
                            entry[1] = True
                        return code
            l1d_miss += 1
            if len(cache_set) >= l1d_assoc:
                l1d_evict += 1
                if cache_set.pop(0)[1]:
                    l1d_wb += 1
            cache_set.append([tag, is_write])
            return code | (2 if l2_access(address, is_write) else 4)

        def close():
            itlb.stats.accesses += fetches
            itlb.stats.misses += itlb_miss
            dtlb.stats.accesses += datas
            dtlb.stats.misses += dtlb_miss
            for stats, accesses, misses, evictions, writebacks in (
                    (l1i.stats, fetches, l1i_miss, l1i_evict, l1i_wb),
                    (l1d.stats, datas, l1d_miss, l1d_evict, l1d_wb),
                    (l2.stats, l2_acc, l2_miss, l2_evict, l2_wb)):
                stats.accesses += accesses
                stats.misses += misses
                stats.evictions += evictions
                stats.writebacks += writebacks

        return access, close

    # ------------------------------------------------------------------
    # Bulk functional warming
    # ------------------------------------------------------------------
    @property
    def fetch_unit(self) -> int:
        """``gcd(L1I line, I-TLB page)``: two fetch addresses in the same
        ``address // fetch_unit`` share both their line and their page."""
        return math.gcd(self.l1i.block_bytes, self.itlb.page_bytes)

    def warm_many(self, events: list[int], fetches: int) -> None:
        """Replay an ordered stream of warming accesses in one call.

        ``events`` holds one int per access, ``address << 2 | kind``
        with kind 0 = instruction fetch, 1 = load, 2 = store (the
        encoding produced by the trace-compiled engine, see
        :mod:`repro.functional.fastpath`).  ``fetches`` is the number of
        instruction fetches the stream stands for: the engine emits a
        fetch event only where a block's fetch moves to a new
        :attr:`fetch_unit`, because every fetch it leaves out would hit
        the line and page of the fetch before it (only data events, which
        never touch the I-TLB or L1I, separate them) and only count an
        access.  A stream with one event per fetch passes their number.

        The effect — tag arrays, LRU order, dirty bits, and statistics —
        is exactly that of calling :meth:`access_instruction` per fetch
        and :meth:`access_data` per data event, in order; the tag-lookup
        logic of :class:`SetAssociativeCache` and :class:`TLB` is
        inlined here (structure state hoisted into locals, the MRU entry
        of a set checked before scanning it, no per-access
        :class:`AccessResult`) because this loop runs for every
        functionally warmed instruction.  Unlike
        :meth:`~repro.branch.unit.BranchUnit.warm_many` it does not go
        through :meth:`bind`: feeding each event to the kernel's
        ``access`` left identical state and statistics but cost a closure
        call per event, ~30% more memory-warming time on equake and gcc
        and 9–15% less ``sampled`` benchmark throughput.

        Event order is preserved, which matters: the instruction and
        data paths share L2, so their relative miss order is visible in
        its LRU state.  The inlined miss paths assume write-allocate
        caches, the only kind ``__init__`` builds.

        A fetch event on the same :attr:`fetch_unit` as the previous fetch
        event *in this call* is skipped for the same reason: data events
        never touch the I-TLB or L1I, and an L1I hit never reaches L2, so
        that line and its page are still MRU in their sets.  Likewise a
        data event on the same ``address // gcd(L1D line, D-TLB page)``
        key as the previous data event in this call only counts a D-TLB
        and an L1D access (and dirties that MRU line on a store): fetches
        never touch the D-TLB or L1D, and an L1D hit never reaches L2.
        The state is per call, because a detailed run, a restore or a
        flush may touch the L1s between calls.
        """
        itlb, dtlb = self.itlb, self.dtlb
        l1i, l1d, l2 = self.l1i, self.l1d, self.l2
        itlb_sets = itlb._sets
        itlb_nsets, itlb_page, itlb_assoc = (itlb.num_sets, itlb.page_bytes,
                                             itlb.assoc)
        dtlb_sets = dtlb._sets
        dtlb_nsets, dtlb_page, dtlb_assoc = (dtlb.num_sets, dtlb.page_bytes,
                                             dtlb.assoc)
        l1i_sets = l1i._sets
        l1i_nsets, l1i_block, l1i_assoc = (l1i.num_sets, l1i.block_bytes,
                                           l1i.assoc)
        l1d_sets = l1d._sets
        l1d_nsets, l1d_block, l1d_assoc = (l1d.num_sets, l1d.block_bytes,
                                           l1d.assoc)
        l2_sets = l2._sets
        l2_nsets, l2_block, l2_assoc = l2.num_sets, l2.block_bytes, l2.assoc

        # event // unit == address // gcd(line, page) for a fetch, and
        # also for a data event (its kind bits 1 or 2 never carry).
        fetch_unit = self.fetch_unit << 2
        data_unit = math.gcd(l1d_block, dtlb_page) << 2
        last_line = last_data = -1
        last_set = None
        itlb_miss = dtlb_acc = dtlb_miss = 0
        l1i_miss = l1i_evict = l1i_wb = 0
        l1d_miss = l1d_evict = l1d_wb = 0
        l2_acc = l2_miss = l2_evict = l2_wb = 0

        for event in events:
            kind = event & 3
            if kind == 0:
                line = event // fetch_unit
                if line == last_line:
                    continue
                last_line = line
                address = event >> 2
                # I-TLB
                vpn = address // itlb_page
                tlb_set = itlb_sets[vpn % itlb_nsets]
                tag = vpn // itlb_nsets
                if not tlb_set or tlb_set[-1] != tag:
                    if tag in tlb_set:
                        tlb_set.remove(tag)
                    else:
                        itlb_miss += 1
                        if len(tlb_set) >= itlb_assoc:
                            tlb_set.pop(0)
                    tlb_set.append(tag)
                # L1I
                block = address // l1i_block
                cache_set = l1i_sets[block % l1i_nsets]
                tag = block // l1i_nsets
                if cache_set and cache_set[-1][0] == tag:
                    continue
                for entry in cache_set:
                    if entry[0] == tag:
                        cache_set.remove(entry)
                        cache_set.append(entry)
                        break
                else:
                    l1i_miss += 1
                    if len(cache_set) >= l1i_assoc:
                        victim = cache_set.pop(0)
                        l1i_evict += 1
                        if victim[1]:
                            l1i_wb += 1
                    cache_set.append([tag, False])
                    # L2 (read)
                    block = address // l2_block
                    cache_set = l2_sets[block % l2_nsets]
                    tag = block // l2_nsets
                    l2_acc += 1
                    for entry in reversed(cache_set):
                        if entry[0] == tag:
                            if entry is not cache_set[-1]:
                                cache_set.remove(entry)
                                cache_set.append(entry)
                            break
                    else:
                        l2_miss += 1
                        if len(cache_set) >= l2_assoc:
                            victim = cache_set.pop(0)
                            l2_evict += 1
                            if victim[1]:
                                l2_wb += 1
                        cache_set.append([tag, False])
            else:
                dtlb_acc += 1
                is_write = kind == 2
                line = event // data_unit
                if line == last_data:
                    if is_write:
                        last_set[-1][1] = True
                    continue
                last_data = line
                address = event >> 2
                # D-TLB
                vpn = address // dtlb_page
                tlb_set = dtlb_sets[vpn % dtlb_nsets]
                tag = vpn // dtlb_nsets
                if not tlb_set or tlb_set[-1] != tag:
                    if tag in tlb_set:
                        tlb_set.remove(tag)
                    else:
                        dtlb_miss += 1
                        if len(tlb_set) >= dtlb_assoc:
                            tlb_set.pop(0)
                    tlb_set.append(tag)
                # L1D
                block = address // l1d_block
                cache_set = last_set = l1d_sets[block % l1d_nsets]
                tag = block // l1d_nsets
                if cache_set and cache_set[-1][0] == tag:
                    if is_write:
                        cache_set[-1][1] = True
                    continue
                for entry in cache_set:
                    if entry[0] == tag:
                        cache_set.remove(entry)
                        cache_set.append(entry)
                        if is_write:
                            entry[1] = True
                        break
                else:
                    l1d_miss += 1
                    if len(cache_set) >= l1d_assoc:
                        victim = cache_set.pop(0)
                        l1d_evict += 1
                        if victim[1]:
                            l1d_wb += 1
                    cache_set.append([tag, is_write])
                    # L2 (same read/write flavour as the L1D access)
                    block = address // l2_block
                    cache_set = l2_sets[block % l2_nsets]
                    tag = block // l2_nsets
                    l2_acc += 1
                    for entry in reversed(cache_set):
                        if entry[0] == tag:
                            if entry is not cache_set[-1]:
                                cache_set.remove(entry)
                                cache_set.append(entry)
                            if is_write:
                                entry[1] = True
                            break
                    else:
                        l2_miss += 1
                        if len(cache_set) >= l2_assoc:
                            victim = cache_set.pop(0)
                            l2_evict += 1
                            if victim[1]:
                                l2_wb += 1
                        cache_set.append([tag, is_write])

        itlb.stats.accesses += fetches
        itlb.stats.misses += itlb_miss
        dtlb.stats.accesses += dtlb_acc
        dtlb.stats.misses += dtlb_miss
        stats = l1i.stats
        stats.accesses += fetches
        stats.misses += l1i_miss
        stats.evictions += l1i_evict
        stats.writebacks += l1i_wb
        stats = l1d.stats
        stats.accesses += dtlb_acc
        stats.misses += l1d_miss
        stats.evictions += l1d_evict
        stats.writebacks += l1d_wb
        stats = l2.stats
        stats.accesses += l2_acc
        stats.misses += l2_miss
        stats.evictions += l2_evict
        stats.writebacks += l2_wb

    # ------------------------------------------------------------------
    # Latency mapping
    # ------------------------------------------------------------------
    def latency(self, result: AccessResult) -> int:
        """Cycles to service an access with the given outcome."""
        return self.latencies()[LEVELS.index(result.level) << 1
                                | bool(result.tlb_miss)]

    def latencies(self) -> tuple[int, ...]:
        """Service cycles indexed by an :meth:`access_code` result."""
        config = self.config
        return tuple(level + tlb
                     for level in (config.l1_latency, config.l2_latency,
                                   config.mem_latency)
                     for tlb in (0, config.tlb_miss_latency))

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate all cache and TLB state (cold start)."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.itlb.flush()
        self.dtlb.flush()

    def snapshot_state(self) -> dict:
        """Serializable copy of all cache/TLB contents (checkpointing).

        Captures tag arrays, dirty bits and LRU order — everything that
        influences future accesses — but not the access statistics, which
        are reporting-only.
        """
        return {
            "l1i": self.l1i.copy_state(),
            "l1d": self.l1d.copy_state(),
            "l2": self.l2.copy_state(),
            "itlb": self.itlb.copy_state(),
            "dtlb": self.dtlb.copy_state(),
        }

    def restore_state(self, saved: dict) -> None:
        """Restore cache/TLB contents captured by :meth:`snapshot_state`."""
        self.l1i.restore_state(saved["l1i"])
        self.l1d.restore_state(saved["l1d"])
        self.l2.restore_state(saved["l2"])
        self.itlb.restore_state(saved["itlb"])
        self.dtlb.restore_state(saved["dtlb"])

    def reset_stats(self) -> None:
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.itlb.reset_stats()
        self.dtlb.reset_stats()

    def stats_summary(self) -> dict[str, float]:
        """Miss rates of every structure, for reporting and tests."""
        return {
            "l1i_miss_rate": self.l1i.stats.miss_rate,
            "l1d_miss_rate": self.l1d.stats.miss_rate,
            "l2_miss_rate": self.l2.stats.miss_rate,
            "itlb_miss_rate": self.itlb.stats.miss_rate,
            "dtlb_miss_rate": self.dtlb.stats.miss_rate,
            "l1i_accesses": self.l1i.stats.accesses,
            "l1d_accesses": self.l1d.stats.accesses,
            "l2_accesses": self.l2.stats.accesses,
        }
