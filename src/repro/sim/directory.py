"""Directory coherence model.

Each LLC slice has a co-located directory slice (Figure 4.1b) tracking which
cores hold each line in their L1s.  On an LLC access the directory decides
whether a snoop must be sent: an invalidation when a writer needs exclusivity
while other cores share the line, or a forwarding request when another core holds
the only up-to-date copy.  Scale-out workloads trigger such snoops on only ~2.7 %
of LLC accesses (Figure 4.3), which is the property NOC-Out exploits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DirectoryStats:
    """Counters kept by the directory."""

    lookups: int = 0
    invalidation_snoops: int = 0
    forward_snoops: int = 0

    @property
    def total_snoops(self) -> int:
        """All snoop messages sent to cores."""
        return self.invalidation_snoops + self.forward_snoops

    @property
    def snoop_fraction(self) -> float:
        """Fraction of directory lookups that generated at least one snoop."""
        if self.lookups == 0:
            return 0.0
        return self.total_snoops / self.lookups


class Directory:
    """Sharer-tracking directory for one coherence domain (one pod).

    Each tracked line keeps its sharers as a bitmask (bit ``c`` set when core
    ``c`` holds the line) and, while one core holds it modified, that owner.
    """

    def __init__(self, line_bytes: int = 64):
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes
        #: line address -> bitmask of the core ids holding the line in their L1.
        self.sharers: "dict[int, int]" = {}
        #: line address -> core id holding the line modified.
        self.owners: "dict[int, int]" = {}
        self.stats = DirectoryStats()

    def _line(self, address: int) -> int:
        return (address // self.line_bytes) * self.line_bytes

    # ----------------------------------------------------------------- access
    def access(self, core_id: int, address: int, is_write: bool) -> int:
        """Record an LLC access by ``core_id`` and return the number of snoops sent."""
        line = self._line(address)
        self.stats.lookups += 1
        sharers = self.sharers.get(line, 0)
        me = 1 << core_id
        snoops = 0

        if is_write:
            # Invalidate every other sharer; the writer becomes the owner.
            snoops = (sharers & ~me).bit_count()
            self.stats.invalidation_snoops += snoops
            self.sharers[line] = me
            self.owners[line] = core_id
        else:
            # A read of a line owned (modified) by another core forwards from its L1.
            owner = self.owners.get(line)
            if owner is not None and owner != core_id:
                snoops = 1
                self.stats.forward_snoops += 1
                del self.owners[line]
            self.sharers[line] = sharers | me
        return snoops

    # ------------------------------------------------------------- eviction
    def evict(self, address: int) -> None:
        """Drop directory state for a line evicted from the LLC (inclusive LLC)."""
        line = self._line(address)
        self.sharers.pop(line, None)
        self.owners.pop(line, None)

    def sharers_of(self, address: int) -> "frozenset[int]":
        """Cores currently recorded as sharing ``address``."""
        mask = self.sharers.get(self._line(address), 0)
        return frozenset(core for core in range(mask.bit_length()) if mask >> core & 1)
