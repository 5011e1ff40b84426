"""Set-associative cache model with LRU replacement and writeback counting."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache structure."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        """Fraction of accesses that missed (0 when the cache was never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """A set-associative, LRU-replacement cache.

    The simulator builds one per LLC bank (L1 filtering happens upstream, in
    the synthetic trace generator).  The model tracks residency and dirtiness
    only; data values are irrelevant to the studies.

    Args:
        capacity_bytes: total cache capacity in bytes.
        associativity: ways per set.
        line_bytes: cache line size.
        name: human-readable name used in debugging output.
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int = 16,
        line_bytes: int = 64,
        name: str = "cache",
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.name = name
        lines = max(1, capacity_bytes // line_bytes)
        self.num_sets = max(1, lines // associativity)
        # Each set is an OrderedDict tag -> dirty bit in LRU order (last = MRU).
        self._sets: "list[OrderedDict[int, bool]]" = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    # --------------------------------------------------------------- indexing
    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        line_addr = address // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    def line_address(self, address: int) -> int:
        """Line-aligned address for ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    # ----------------------------------------------------------------- lookup
    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no LRU update, no stats)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets[index]

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the cache; returns True on a hit.

        Misses do *not* allocate -- call :meth:`fill` when the refill arrives so
        the timing model controls allocation order.
        """
        self.stats.accesses += 1
        index, tag = self._index_and_tag(address)
        cache_set = self._sets[index]
        if tag not in cache_set:
            self.stats.misses += 1
            return False
        cache_set.move_to_end(tag)
        if is_write:
            cache_set[tag] = True
        self.stats.hits += 1
        return True

    # ------------------------------------------------------------------- fill
    def fill(self, address: int, dirty: bool = False) -> "int | None":
        """Install the line holding ``address``; returns the evicted line address, if any."""
        index, tag = self._index_and_tag(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            if dirty:
                cache_set[tag] = True
            return None
        evicted_address: "int | None" = None
        if len(cache_set) >= self.associativity:
            victim_tag, victim_dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            evicted_address = (victim_tag * self.num_sets + index) * self.line_bytes
        cache_set[tag] = dirty
        return evicted_address

    def install(self, addresses: "Sequence[int] | np.ndarray") -> None:
        """Fill many clean lines at once, exactly as ``for a in addresses: fill(a)``.

        Every address must name a distinct line that is not yet resident; the
        resulting residency, per-set LRU order, dirty bits and :attr:`stats`
        then equal those of the one-at-a-time loop.  Lines are grouped by set
        (keeping their order within each set), and each set keeps the last
        ``associativity`` lines of its resident-then-installed sequence; the
        dropped prefix counts as evictions (and writebacks, for dirty victims).

        Raises:
            ValueError: if two addresses share a line or a line is already
                resident.
        """
        lines = np.asarray(addresses, dtype=np.int64) // self.line_bytes
        if len(lines) == 0:
            return
        ordered = np.sort(lines)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("install() needs distinct lines; got a repeated line")
        indices = lines % self.num_sets
        order = np.argsort(indices, kind="stable")
        indices = indices[order]
        tags = (lines[order] // self.num_sets).tolist()
        starts = np.flatnonzero(np.diff(indices, prepend=-1))
        ends = np.append(starts[1:], len(tags))
        set_ids = indices[starts]
        sets = self._sets
        occupied = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))[set_ids] > 0
        merges = list(
            zip(set_ids[occupied].tolist(), starts[occupied].tolist(), ends[occupied].tolist())
        )
        for index, lo, hi in merges:
            if not sets[index].keys().isdisjoint(tags[lo:hi]):
                raise ValueError(f"install() got a line already resident in set {index}")
        # Sets with resident lines: evict their LRU lines first, as fill() would.
        for index, lo, hi in merges:
            cache_set = sets[index]
            while cache_set and len(cache_set) + hi - lo > self.associativity:
                _, victim_dirty = cache_set.popitem(last=False)
                self.stats.evictions += 1
                if victim_dirty:
                    self.stats.writebacks += 1
            keep = max(lo, hi - self.associativity + len(cache_set))
            self.stats.evictions += keep - lo
            cache_set.update(dict.fromkeys(tags[keep:hi], False))
        # Empty sets: the last ``associativity`` lines survive, in order.
        empty = ~occupied
        keeps = np.maximum(starts[empty], ends[empty] - self.associativity)
        self.stats.evictions += int((keeps - starts[empty]).sum())
        for index, keep, hi in zip(set_ids[empty].tolist(), keeps.tolist(), ends[empty].tolist()):
            sets[index] = OrderedDict.fromkeys(tags[keep:hi], False)

    def invalidate(self, address: int) -> bool:
        """Remove the line holding ``address``; returns True if it was resident."""
        index, tag = self._index_and_tag(address)
        return self._sets[index].pop(tag, None) is not None

    # ------------------------------------------------------------------ sizes
    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)
