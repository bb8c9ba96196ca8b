"""Processor cache model for cacheable MMIO.

§3.1's cacheable MMIO: with a coherent interconnect (CAPI/CCIX/GenZ) the
lines backed by the SSD BAR may be cached, letting re-references hit at
DRAM-like latency instead of paying a PCIe round trip each time.  Stores
to a persistent region bypass this model: they always take the MMIO path,
and ``PersistentRegion.persist_store`` charges the ``clflush`` of each
written line itself (§3.5).

The model is a set-associative write-back cache over host-physical cache
line addresses.  It only tracks presence/dirtiness — payloads live in the
backing stores — which is all the latency accounting needs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.sim.stats import StatRegistry


class CPUCache:
    """Set-associative write-back cache keyed by cache-line address."""

    def __init__(
        self,
        num_lines: int = 512,
        ways: int = 8,
        line_size: int = 64,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if num_lines <= 0 or ways <= 0 or num_lines < ways:
            raise ValueError(f"invalid cache shape lines={num_lines} ways={ways}")
        if line_size <= 0:
            raise ValueError(f"line_size must be > 0, got {line_size}")
        self.line_size = line_size
        self.ways = ways
        self.num_sets = max(1, num_lines // ways)
        # Each set: line address -> dirty flag, LRU-ordered (oldest first).
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = stats if stats is not None else StatRegistry()
        self._hits = self.stats.ratio("cpu_cache.hits")
        self._writebacks = self.stats.counter("cpu_cache.writebacks")
        # Never incremented; registered because perf/expected.json hashes
        # every registered counter.
        self.stats.counter("cpu_cache.flushes")

    def _line_of(self, phys_addr: int) -> int:
        return phys_addr // self.line_size

    def _set_of(self, line: int) -> "OrderedDict[int, bool]":
        return self._sets[line % self.num_sets]

    def access(self, phys_addr: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access one line; returns (hit, evicted dirty line address or None).

        A miss installs the line, evicting the set's LRU line; if the victim
        is dirty its address is returned so the caller can charge the
        write-back to the right backing store.
        """
        line = self._line_of(phys_addr)
        cache_set = self._set_of(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            self._hits.record(True)
            return True, None
        self._hits.record(False)
        evicted: Optional[int] = None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self._writebacks.add()
                evicted = victim_line * self.line_size
        cache_set[line] = is_write
        return False, evicted

    def contains(self, phys_addr: int) -> bool:
        line = self._line_of(phys_addr)
        return line in self._set_of(line)

    def is_dirty(self, phys_addr: int) -> bool:
        line = self._line_of(phys_addr)
        return self._set_of(line).get(line, False)

    @property
    def hit_ratio(self) -> float:
        return self._hits.ratio
