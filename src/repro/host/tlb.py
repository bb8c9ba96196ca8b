"""TLB model: translation caching, shootdowns and lazy batched updates.

The simulator charges a page-table walk only on TLB misses.  Two update
paths matter to the paper:

* **Shootdown** (synchronous invalidate) when a page moves — its cost is
  small relative to SSD latencies (§3.3), but we account it.
* **Lazy batched updates** (§4): GC address changes are propagated to
  PTE/TLB entries in batches with a single interrupt, which
  :class:`repro.core.hierarchy.FlatFlash` drives via the device's remap
  table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.sim.stats import StatRegistry
from repro.units import VPN, TimeNs


class TLB:
    """A capacity-limited translation cache over virtual page numbers."""

    def __init__(
        self,
        entries: int,
        shootdown_cost_ns: TimeNs,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError(f"TLB entries must be > 0, got {entries}")
        if shootdown_cost_ns < 0:
            raise ValueError(f"shootdown cost must be >= 0, got {shootdown_cost_ns}")
        self.capacity = entries
        self.shootdown_cost_ns = shootdown_cost_ns
        self._cached: "OrderedDict[VPN, None]" = OrderedDict()
        self.stats = stats if stats is not None else StatRegistry()
        self._hits = self.stats.ratio("tlb.hits")
        self._shootdowns = self.stats.counter("tlb.shootdowns")
        self._batch_updates = self.stats.counter("tlb.batch_updates")

    def lookup(self, vpn: VPN) -> bool:
        """True on a TLB hit; hit entries become most-recently used."""
        if vpn in self._cached:
            self._cached.move_to_end(vpn)
            self._hits.record(True)
            return True
        self._hits.record(False)
        return False

    def fill(self, vpn: VPN) -> None:
        """Install a translation after a walk, evicting LRU if full."""
        if vpn in self._cached:
            self._cached.move_to_end(vpn)
            return
        if len(self._cached) >= self.capacity:
            self._cached.popitem(last=False)
        self._cached[vpn] = None

    def invalidate(self, vpn: VPN) -> TimeNs:
        """Shoot down one translation; returns the cost in ns."""
        self._shootdowns.add()
        self._cached.pop(vpn, None)
        return self.shootdown_cost_ns

    def batch_invalidate(self, vpns: Iterable[VPN]) -> TimeNs:
        """Lazily propagate a batch of address changes with one interrupt.

        Cost is a single shootdown regardless of batch size (§4's single-
        interrupt batch propagation).
        """
        count = 0
        for vpn in vpns:
            self._cached.pop(vpn, None)
            count += 1
        if count == 0:
            return 0
        self._batch_updates.add()
        return self.shootdown_cost_ns

    @property
    def hit_ratio(self) -> float:
        return self._hits.ratio

    def __len__(self) -> int:
        return len(self._cached)
