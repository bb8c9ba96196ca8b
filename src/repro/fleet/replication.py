"""Replica tracking for durable (persist-mapped) fleet pages.

The fleet mirrors every persist-mapped global page onto ``R`` devices
(primary included).  This module is pure bookkeeping — *which* copies
exist and which is primary; the fleet applies the actual writes and
charges quorum timing.  Copy lists are kept in ack-ring order: index 0
is the primary, the rest are replicas.

Every promotion, lost copy and re-replication bumps exactly one counter, so
``repl.replicas_lost`` vs ``repl.re_replications`` in a campaign report
is the exact redundancy debt failover left behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sim.stats import StatRegistry


class ReplicaMap:
    """Copy sets of replicated pages: vpn -> [(device, local vpn), ...]."""

    def __init__(self, stats: Optional[StatRegistry] = None) -> None:
        self.stats = stats if stats is not None else StatRegistry()
        self._copies: Dict[int, List[Tuple[int, int]]] = {}
        # Per-device membership index: device -> vpns with a copy there.
        self._on_device: Dict[int, Set[int]] = {}
        self._pages = self.stats.counter("repl.pages_replicated")
        self._promotions = self.stats.counter("repl.promotions")
        self._lost = self.stats.counter("repl.replicas_lost")
        self._repairs = self.stats.counter("repl.re_replications")

    def register(self, vpn: int, copies: Tuple[Tuple[int, int], ...]) -> None:
        """Record the copy set of a newly mapped replicated page."""
        if vpn in self._copies:
            raise ValueError(f"vpn {vpn} already has a copy set")
        if len(copies) < 2:
            raise ValueError(f"a copy set needs >= 2 copies, got {len(copies)}")
        devices = [device for device, _local in copies]
        if len(set(devices)) != len(devices):
            raise ValueError(f"copy set for vpn {vpn} repeats a device")
        self._copies[vpn] = list(copies)
        for device in devices:
            self._on_device.setdefault(device, set()).add(vpn)
        self._pages.add()

    def copies(self, vpn: int) -> List[Tuple[int, int]]:
        """The page's copy set, primary first (empty if unreplicated)."""
        return list(self._copies.get(vpn, ()))

    def replicas(self, vpn: int) -> List[Tuple[int, int]]:
        """The non-primary copies, in ack-ring order."""
        return list(self._copies.get(vpn, ())[1:])

    def promote(self, vpn: int, device: int) -> Tuple[int, int]:
        """Make the copy on ``device`` primary; returns its slot."""
        copies = self._copies.get(vpn)
        if not copies:
            raise KeyError(f"vpn {vpn} has no copy set")
        index = next(
            (i for i, (dev, _local) in enumerate(copies) if dev == device), None
        )
        if index is None:
            raise KeyError(f"vpn {vpn} has no copy on device {device}")
        copies.insert(0, copies.pop(index))
        self._promotions.add()
        return copies[0]

    def record_loss(self, vpn: int, device: int) -> None:
        """Drop the copy on a failed device from the page's copy set; a
        page whose last copy died is forgotten."""
        copies = self._copies.get(vpn)
        if not copies:
            raise KeyError(f"vpn {vpn} has no copy set")
        kept = [(dev, local) for dev, local in copies if dev != device]
        if len(kept) == len(copies):
            raise KeyError(f"vpn {vpn} has no copy on device {device}")
        if kept:
            self._copies[vpn] = kept
        else:
            del self._copies[vpn]
        self._on_device[device].discard(vpn)
        self._lost.add()

    def record_repair(self, vpn: int, device: int, local_vpn: int) -> None:
        """Append a freshly re-replicated copy to the page's copy set."""
        copies = self._copies.get(vpn)
        if not copies:
            raise KeyError(f"vpn {vpn} has no copy set")
        if any(dev == device for dev, _local in copies):
            raise ValueError(f"vpn {vpn} already has a copy on device {device}")
        copies.append((device, local_vpn))
        self._on_device.setdefault(device, set()).add(vpn)
        self._repairs.add()

    def pages_with_copy_on(self, device: int) -> List[int]:
        """Replicated vpns holding a copy on a device, sorted."""
        return sorted(self._on_device.get(device, ()))

    def __len__(self) -> int:
        return len(self._copies)
