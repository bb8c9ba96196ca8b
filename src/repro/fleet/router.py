"""Shard router: the global page → (device, local page) bijection.

The fleet exposes one flat virtual address space; the router decides
which device backs each global page and tracks the resulting placement.
Placement has two parts:

* a pluggable, stateless *striping policy* that names the preferred
  device for a page (pure arithmetic — replayable by construction);
* the mutable *placement map*, a bijection from global vpn to
  ``(device, local vpn)`` that failover rewrites when a replica is
  promoted or a page is relocated to a survivor.

Local page numbers are the device's own vpns (each backing page is a
one-page mapping on the member device), so per-device PLBs, SSD-Caches
and promotion machinery run completely unchanged.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.sim.stats import StatRegistry


class StripedPolicy:
    """Round-robin striping: page ``v`` prefers device ``v % N``."""

    name = "striped"

    def device_of(self, vpn: int, num_devices: int) -> int:
        return vpn % num_devices


class HashedPolicy:
    """Hash placement: crc32 of the page number, mod N.

    Decorrelates placement from access strides (a power-of-two stride
    never camps on one device) while staying seed-free deterministic.
    """

    name = "hashed"

    def device_of(self, vpn: int, num_devices: int) -> int:
        digest = zlib.crc32(int(vpn).to_bytes(8, "little"))
        return digest % num_devices


class BlockedPolicy:
    """Chunked striping: runs of ``chunk`` consecutive pages per device,
    preserving intra-chunk spatial locality (sequential prefetch,
    SSD-Cache line reuse) at the cost of coarser load spreading."""

    name = "blocked"

    def __init__(self, chunk: int) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    def device_of(self, vpn: int, num_devices: int) -> int:
        return (vpn // self.chunk) % num_devices


def make_policy(name: str, chunk: int = 8):
    """Build a striping policy by config name."""
    if name == "striped":
        return StripedPolicy()
    if name == "hashed":
        return HashedPolicy()
    if name == "blocked":
        return BlockedPolicy(chunk)
    raise ValueError(f"unknown striping policy {name!r}")


class ShardRouter:
    """The mutable placement bijection: global vpn ↔ (device, local vpn)."""

    def __init__(
        self,
        policy,
        num_devices: int,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.policy = policy
        self.num_devices = num_devices
        self.stats = stats if stats is not None else StatRegistry()
        self._forward: Dict[int, Tuple[int, int]] = {}
        # Per-device reverse maps: device -> {local vpn: global vpn}.
        self._by_device: List[Dict[int, int]] = [{} for _ in range(num_devices)]
        self._placements = self.stats.counter("router.placements")
        self._routes = self.stats.counter("router.routes")
        self._remaps = self.stats.counter("router.remaps")
        # Never incremented; registered because the fault campaign's report
        # lists every ``router.`` counter.
        self.stats.counter("router.removals")

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #

    def preferred_device(self, vpn: int) -> int:
        """The striping policy's choice for a page (ignores liveness)."""
        return self.policy.device_of(vpn, self.num_devices)

    # ------------------------------------------------------------------ #
    # Placement map
    # ------------------------------------------------------------------ #

    def place(self, vpn: int, device: int, local_vpn: int) -> None:
        """Record the initial placement of a new global page."""
        if vpn in self._forward:
            raise ValueError(f"vpn {vpn} is already placed")
        self._claim(device, local_vpn, vpn)
        self._forward[vpn] = (device, local_vpn)
        self._placements.add()

    def route(self, vpn: int) -> Tuple[int, int]:
        """Resolve a global page to its current (device, local vpn)."""
        entry = self._forward.get(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn} is not placed on any device")
        self._routes.add()
        return entry

    def lookup(self, vpn: int) -> Optional[Tuple[int, int]]:
        """Like :meth:`route` but uncounted and None when unplaced."""
        return self._forward.get(vpn)

    def vpn_at(self, device: int, local_vpn: int) -> Optional[int]:
        """Reverse lookup: which global page a device slot backs."""
        return self._by_device[device].get(local_vpn)

    def remap(self, vpn: int, device: int, local_vpn: int) -> None:
        """Move a placed page to a new slot (promotion / relocation)."""
        old = self._forward.get(vpn)
        if old is None:
            raise KeyError(f"vpn {vpn} is not placed on any device")
        self._claim(device, local_vpn, vpn)
        del self._by_device[old[0]][old[1]]
        self._forward[vpn] = (device, local_vpn)
        self._remaps.add()

    def _claim(self, device: int, local_vpn: int, vpn: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} outside fleet of {self.num_devices}")
        holder = self._by_device[device].get(local_vpn)
        if holder is not None:
            raise ValueError(
                f"slot (device={device}, local={local_vpn}) already backs "
                f"vpn {holder}"
            )
        self._by_device[device][local_vpn] = vpn

    # ------------------------------------------------------------------ #
    # Enumeration (failover, tests)
    # ------------------------------------------------------------------ #

    def pages_on(self, device: int) -> List[Tuple[int, int]]:
        """All (global vpn, local vpn) primaries on a device, vpn-sorted."""
        return sorted(
            (vpn, local) for local, vpn in self._by_device[device].items()
        )

    def placed_vpns(self) -> List[int]:
        """Every placed global page, sorted."""
        return sorted(self._forward)

    def __len__(self) -> int:
        return len(self._forward)
