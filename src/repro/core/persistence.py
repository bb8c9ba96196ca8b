"""Byte-granular data persistence (§3.5).

A persistent memory region maps its pages with the PTE Persist (P) bit set:
those pages are pinned to the SSD (never promoted — the battery-backed
SSD-Cache is the durability domain, host DRAM is not), and the P bit rides
with every request to the host bridge, which moves it into the PCIe TLP's
attribute field.

The durability protocol for a store is the paper's:

1. store to the region (a posted MMIO write after cache-line flushes),
2. ``clwb``/``clflush`` the written lines,
3. a *write-verify read* that acts like ``mfence`` — once it returns,
   every earlier posted write sits in the battery-backed SSD-Cache and
   survives power failure.

:meth:`PersistentRegion.persist_store` performs 1-2; :meth:`commit` is the
fence.  The convenience :meth:`durable_store` does all three, which is what
a single small metadata update costs end to end.

The region duck-types its system: anything with ``store``/``mmap``, a
clock, and an ``ssd`` port exposing ``verify_read``/``recover_read``/
``persistence_sanitizer`` works.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.memory_system import MappedRegion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.hierarchy import FlatFlash


class PersistentRegion:
    """A byte-granular persistent memory region on a FlatFlash system.

    Create through :func:`create_pmem_region` (the paper's API name).
    """

    def __init__(self, system: "FlatFlash", region: MappedRegion) -> None:
        if not region.persist:
            raise ValueError("PersistentRegion requires a persist-mapped region")
        self.system = system
        self.region = region
        stats = system.stats
        self._persist_stores = stats.counter("pmem.persist_stores")
        self._commits = stats.counter("pmem.commits")
        # Post-crash reads that found no surviving flash copy: callers get
        # None and must treat the bytes as lost, never as zeroes.
        self._recover_failures = stats.counter("pmem.recover_failures")

    @property
    def size(self) -> int:
        return self.region.size

    def addr(self, offset: int) -> int:
        return self.region.addr(offset)

    # ------------------------------------------------------------------ #
    # Durability protocol
    # ------------------------------------------------------------------ #

    def persist_store(self, offset: int, size: int, data: Optional[bytes] = None) -> int:
        """Posted durable write: store + cache-line flush; returns cost in ns.

        Not durable until :meth:`commit` — a crash may lose it (the posted
        write can still be sitting in the host bridge's write buffer).
        """
        system = self.system
        vaddr = self.region.addr(offset)
        result = system.store(vaddr, size, data)
        # Flush the written lines out of the processor cache (clwb).
        line = system.config.geometry.cacheline_size
        lines = (offset + size - 1) // line - offset // line + 1
        flush_cost = lines * system.config.latency.clflush_ns
        system.clock.advance(flush_cost)
        self._persist_stores.add()
        return result.latency_ns + flush_cost

    def commit(self) -> int:
        """Write-verify read fence: all prior posted writes become durable."""
        cost = self.system.ssd.verify_read()
        self.system.clock.advance(cost)
        self._commits.add()
        return cost

    def durable_store(self, offset: int, size: int, data: Optional[bytes] = None) -> int:
        """Store + flush + fence: one fully durable byte-granular update."""
        cost = self.persist_store(offset, size, data)
        cost += self.commit()
        sanitizer = self.system.ssd.persistence_sanitizer
        if sanitizer is not None:
            # The store is acknowledged durable here: no posted persist
            # write may remain unfenced, or a crash would lose it.
            sanitizer.ack_durable(f"durable_store(offset={offset}, size={size})")
        return cost

    def load(self, offset: int, size: int) -> Optional[bytes]:
        """Read back region contents (normal load path)."""
        return self.system.load(self.region.addr(offset), size).data

    # ------------------------------------------------------------------ #
    # Crash testing helpers
    # ------------------------------------------------------------------ #

    def recover_bytes(self, offset: int, size: int) -> Optional[bytes]:
        """Contents after a crash: read straight from the flash copy."""
        system = self.system
        page, page_offset = divmod(offset, system.page_size)
        if page != (offset + size - 1) // system.page_size:
            raise ValueError("recover_bytes must not cross a page boundary")
        lpn = system.lpn_of_vpn(self.region.base_vpn + page)
        data = system.ssd.recover_read(lpn)
        if data is None:
            self._recover_failures.add()
            return None
        return data[page_offset : page_offset + size]


def create_pmem_region(system: "FlatFlash", num_pages: int, name: str = "pmem") -> PersistentRegion:
    """The paper's ``create_pmem_region(void* vaddr, size_t size)``.

    Maps ``num_pages`` with the Persist bit set and wraps them in a
    :class:`PersistentRegion`.
    """
    region = system.mmap(num_pages, persist=True, name=name)
    return PersistentRegion(system, region)
