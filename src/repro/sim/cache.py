"""Set-associative cache model with LRU replacement and writeback counting."""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True, eq=False)
class CacheState:
    """A snapshot of everything a cache holds, comparable with ``==``.

    Attributes:
        tags: ``[num_sets, associativity]`` tags, each set's resident lines
            in LRU to MRU order, ``-1`` in its empty ways.
        dirty: dirty bits in the same layout (``False`` in empty ways).
        stats: a copy of the cache's counters.
    """

    tags: np.ndarray
    dirty: np.ndarray
    stats: CacheStats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        return (
            np.array_equal(self.tags, other.tags)
            and np.array_equal(self.dirty, other.dirty)
            and self.stats == other.stats
        )


class SetAssociativeCache:
    """A set-associative, LRU-replacement cache.

    The simulator builds one per LLC bank (L1 filtering happens upstream, in
    the synthetic trace generator).  The model tracks residency and dirtiness
    only; data values are irrelevant to the studies.

    The state lives in arrays: set ``s`` holds ``count[s]`` lines in
    ``tags[s, :count[s]]``, least recently used first, with their dirty bits
    in ``dirty[s, :count[s]]``.  The compiled simulation kernel
    (:mod:`repro.sim.kernel`) updates these arrays in place; the methods below
    are the per-access model it is held equal to.

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
        self.tags = np.zeros((self.num_sets, associativity), dtype=np.int64)
        self.dirty = np.zeros((self.num_sets, associativity), dtype=np.bool_)
        self.count = np.zeros(self.num_sets, dtype=np.int64)
        # Flat views of the same buffers: the per-access methods below read
        # and write single cells through them, several times faster than
        # indexing the arrays.  Set ``s`` starts at cell ``s * associativity``.
        self._tag_cells = memoryview(self.tags.reshape(-1))
        self._dirty_cells = memoryview(self.dirty.reshape(-1))
        self._counts = memoryview(self.count)
        self.stats = CacheStats()

    # --------------------------------------------------------------- indexing
    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        line_addr = address // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    def line_address(self, address: int) -> int:
        """Line-aligned address for ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    def _find(self, index: int, tag: int) -> "tuple[int, int]":
        """``(cell, count)``: the cell holding ``tag`` in set ``index`` (-1 if
        absent) and the set's line count."""
        count = self._counts[index]
        base = index * self.associativity
        ways = self._tag_cells[base : base + count].tolist()
        return (base + ways.index(tag) if tag in ways else -1), count

    def _remove(self, cell: int, end: int) -> "tuple[int, bool]":
        """Take the line at ``cell`` out of its set's lines ``cell .. end - 1``,
        shifting the newer ones down; returns its ``(tag, dirty)``."""
        tags, bits = self._tag_cells, self._dirty_cells
        line = tags[cell], bits[cell]
        tags[cell : end - 1] = tags[cell + 1 : end]
        bits[cell : end - 1] = bits[cell + 1 : end]
        return line

    def _touch(self, cell: int, end: int, dirty: bool) -> None:
        """Make the line at ``cell`` the MRU line of its set (whose lines end
        before cell ``end``), dirty if ``dirty``."""
        tag, was_dirty = self._remove(cell, end)
        self._tag_cells[end - 1] = tag
        self._dirty_cells[end - 1] = was_dirty or dirty

    # ----------------------------------------------------------------- lookup
    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no LRU update, no stats)."""
        index, tag = self._index_and_tag(address)
        return self._find(index, tag)[0] >= 0

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the cache; returns True on a hit.

        Misses do *not* allocate -- call :meth:`fill` when the refill arrives so
        the timing model controls allocation order.
        """
        self.stats.accesses += 1
        line = address // self.line_bytes
        index = line % self.num_sets
        count = self._counts[index]
        base = index * self.associativity
        ways = self._tag_cells[base : base + count].tolist()
        tag = line // self.num_sets
        if tag not in ways:
            self.stats.misses += 1
            return False
        self._touch(base + ways.index(tag), base + count, is_write)
        self.stats.hits += 1
        return True

    # ------------------------------------------------------------------- fill
    def fill(self, address: int, dirty: bool = False) -> "int | None":
        """Install the line holding ``address``; returns the evicted line address, if any."""
        line = address // self.line_bytes
        index = line % self.num_sets
        count = self._counts[index]
        base = index * self.associativity
        ways = self._tag_cells[base : base + count].tolist()
        tag = line // self.num_sets
        if tag in ways:
            self._touch(base + ways.index(tag), base + count, dirty)
            return None
        evicted_address: "int | None" = None
        if count >= self.associativity:
            victim_tag, victim_dirty = self._remove(base, base + count)
            count -= 1
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            evicted_address = (victim_tag * self.num_sets + index) * self.line_bytes
        self._tag_cells[base + count] = tag
        self._dirty_cells[base + count] = dirty
        self._counts[index] = count + 1
        return evicted_address

    def install(self, addresses: "Sequence[int] | np.ndarray") -> None:
        """Fill many clean lines at once, exactly as ``for a in addresses: fill(a)``.

        Every address must name a distinct line that is not yet resident; the
        resulting residency, per-set LRU order, dirty bits and :attr:`stats`
        then equal those of the one-at-a-time loop.  Lines are grouped by set
        (keeping their order within each set), and each set keeps the last
        ``associativity`` lines of its resident-then-installed sequence; the
        dropped prefix counts as evictions (and writebacks, for dirty victims).
        Empty sets, the warm-up's whole case, are filled in one array pass.

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
        tags = lines[order] // self.num_sets
        starts = np.flatnonzero(np.diff(indices, prepend=-1))
        ends = np.append(starts[1:], len(tags))
        set_ids = indices[starts]
        occupied = self.count[set_ids] > 0
        merged = []
        for index, lo, hi in zip(
            set_ids[occupied].tolist(), starts[occupied].tolist(), ends[occupied].tolist()
        ):
            resident = self.tags[index, : self.count[index]].tolist()
            installed = tags[lo:hi].tolist()
            if not set(resident).isdisjoint(installed):
                raise ValueError(f"install() got a line already resident in set {index}")
            dirty = self.dirty[index, : len(resident)].tolist() + [False] * len(installed)
            merged.append((index, resident + installed, dirty))
        # Sets with resident lines keep the last ``associativity`` lines of
        # their resident-then-installed sequence, as fill() would.
        for index, sequence, dirty in merged:
            dropped = max(0, len(sequence) - self.associativity)
            self.stats.evictions += dropped
            self.stats.writebacks += sum(dirty[:dropped])
            self.tags[index, : len(sequence) - dropped] = sequence[dropped:]
            self.dirty[index, : len(sequence) - dropped] = dirty[dropped:]
            self.count[index] = len(sequence) - dropped
        # Empty sets: the last ``associativity`` lines survive, in order.
        empty = ~occupied
        starts, ends, set_ids = starts[empty], ends[empty], set_ids[empty]
        keeps = np.maximum(starts, ends - self.associativity)
        self.stats.evictions += int((keeps - starts).sum())
        kept = ends - keeps
        group = np.repeat(np.arange(len(kept)), kept)
        way = np.arange(len(group)) - np.repeat(np.cumsum(kept) - kept, kept)
        self.tags[set_ids[group], way] = tags[keeps[group] + way]
        self.count[set_ids] = kept

    def invalidate(self, address: int) -> bool:
        """Remove the line holding ``address``; returns True if it was resident."""
        index, tag = self._index_and_tag(address)
        cell, count = self._find(index, tag)
        if cell < 0:
            return False
        last = index * self.associativity + count - 1
        self._remove(cell, last + 1)
        self._tag_cells[last] = 0
        self._dirty_cells[last] = False
        self._counts[index] = count - 1
        return True

    # ------------------------------------------------------------------ state
    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return int(self.count.sum())

    def state(self) -> CacheState:
        """Per-set LRU order, dirty bits and counters, as one comparable snapshot."""
        empty = np.arange(self.associativity) >= self.count[:, None]
        return CacheState(
            tags=np.where(empty, -1, self.tags),
            dirty=np.where(empty, False, self.dirty),
            stats=replace(self.stats),
        )
