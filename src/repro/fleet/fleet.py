"""N FlatFlash devices behind one flat address space, with failover.

:class:`FlatFlashFleet` is a :class:`~repro.core.memory_system.MemorySystem`
whose backing store is a *fleet* of complete, unmodified
:class:`~repro.core.hierarchy.FlatFlash` members — each with its own host
DRAM shard, PLB, SSD-Cache, FTL and PCIe link.  Three mechanisms compose
them:

* **Sharding** — the :class:`~repro.fleet.router.ShardRouter` stripes
  global pages across devices; every global page is a one-page mapping
  on its member device, so per-device promotion/caching machinery runs
  unchanged.  Accesses are split at page boundaries and device-contiguous
  runs are delegated as single member accesses, which makes a one-device
  fleet *bit-identical* to a bare FlatFlash system.
* **Replication** — persist-mapped (durable) pages are mirrored onto R
  devices.  Writes apply to every copy; the foreground charge is the
  write-quorum completion time (the W-th fastest ack, copies issued in
  parallel), the rest is charged to the background ledger.
* **Failover** — a member dies fail-stop (``DeviceLostError`` from its
  PCIe link: the injected ``pcie.device_loss`` plane or a scheduled
  kill).  Detection reuses the host bridge's
  :class:`~repro.host.bridge.MMIORetryPolicy` degradation ladder keyed
  by device: each observed loss is a "consecutive failure"; crossing the
  threshold declares the device failed, promotes surviving replicas to
  primary, re-replicates onto spare survivors in the background, and
  records a :class:`FailoverEvent` with detection/recovery times.

With R ≥ 2, killing any single device loses zero durable bytes: every
persist page has a surviving replica that is promoted in place.
Unreplicated pages on the dead device are relocated to fresh zeroed
pages on survivors and counted as lost (volatile or durable-sole-copy).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import FlatFlashConfig
from repro.core.hierarchy import FlatFlash
from repro.core.memory_system import AccessResult, MemorySystem
from repro.fleet.config import FleetConfig
from repro.fleet.replication import ReplicaMap
from repro.fleet.router import ShardRouter, make_policy
from repro.host.bridge import MMIORetryPolicy
from repro.interconnect.pcie import DeviceLostError
from repro.units import LPN, VPN


class FleetExhaustedError(RuntimeError):
    """Every device in the fleet has failed; no placement is possible."""


class FailoverEvent:
    """One completed device failover, with its recovery accounting."""

    __slots__ = (
        "device",
        "detected_ns",
        "detection_ns",
        "pages_promoted",
        "pages_re_replicated",
        "volatile_pages_lost",
        "durable_pages_lost",
        "recovery_ns",
    )

    def __init__(
        self,
        device: int,
        detected_ns: int,
        detection_ns: int,
        pages_promoted: int,
        pages_re_replicated: int,
        volatile_pages_lost: int,
        durable_pages_lost: int,
        recovery_ns: int,
    ) -> None:
        self.device = device
        #: Fleet-clock instant the loss was declared.
        self.detected_ns = detected_ns
        #: Foreground time burned observing the dead link (timeouts and
        #: ladder backoffs) before declaration.
        self.detection_ns = detection_ns
        self.pages_promoted = pages_promoted
        self.pages_re_replicated = pages_re_replicated
        self.volatile_pages_lost = volatile_pages_lost
        #: Sole-copy persist pages lost (always 0 when R >= 2).
        self.durable_pages_lost = durable_pages_lost
        #: Background time spent restoring redundancy (re-replication I/O).
        self.recovery_ns = recovery_ns

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"FailoverEvent(device={self.device}, at={self.detected_ns}ns, "
            f"promoted={self.pages_promoted}, lost_durable="
            f"{self.durable_pages_lost}, recovery={self.recovery_ns}ns)"
        )


class _FleetSanitizerFan:
    """Fans durability acknowledgements out to every member sanitizer."""

    def __init__(self, sanitizers) -> None:
        self._sanitizers = sanitizers

    def ack_durable(self, what: str = "durable store") -> None:
        for sanitizer in self._sanitizers:
            sanitizer.ack_durable(what)


class _FleetStoragePort:
    """Duck-typed stand-in for ``system.ssd`` on a fleet.

    :class:`~repro.core.persistence.PersistentRegion` (and the WAL /
    FlatFS apps above it) only touch three points of the device surface:
    ``verify_read()`` (the §3.5 durability fence), ``recover_read(lpn)``
    (post-crash flash reads) and ``persistence_sanitizer``.  The port
    maps each onto the fleet: the fence completes when every active
    member's fence completes (parallel, so the cost is the max), crash
    reads route through the shard router, and acknowledgements fan out
    to every member's sanitizer.
    """

    def __init__(self, fleet: "FlatFlashFleet") -> None:
        self._fleet = fleet

    @property
    def flash(self):
        """Geometry probe (e.g. MiniDB channel count); members are uniform."""
        return self._fleet.devices[0].ssd.flash

    @property
    def persistence_sanitizer(self):
        sanitizers = [
            device.ssd.persistence_sanitizer
            for device in self._fleet.active_devices()
            if device.ssd.persistence_sanitizer is not None
        ]
        if not sanitizers:
            return None
        return _FleetSanitizerFan(sanitizers)

    def verify_read(self) -> int:
        """Fence every active member; cost = slowest fence (parallel)."""
        fleet = self._fleet
        cost = 0
        for index in fleet.active_indices():
            device = fleet.devices[index]
            try:
                device.clock.advance_to(fleet.clock.now)
                cost = max(cost, device.ssd.verify_read())
            except DeviceLostError as err:
                cost = max(cost, err.latency_ns)
                fleet._note_loss(index, err.latency_ns)
        return cost

    def recover_read(self, lpn: LPN) -> Optional[bytes]:
        """Post-crash read of a global page via its current primary."""
        fleet = self._fleet
        entry = fleet._router.lookup(int(lpn))
        if entry is None:
            return None
        device_index, local_vpn = entry
        device = fleet.devices[device_index]
        # The local page is its own device-level lpn (regions tile the
        # member's logical space linearly) — sanctioned local cast.
        return device.ssd.recover_read(LPN(local_vpn))


class FlatFlashFleet(MemorySystem):
    """A sharded, replicated fleet of FlatFlash devices (one flat space)."""

    name = "FlatFlashFleet"
    #: The fleet preserves FlatFlash's byte-granular persistence protocol
    #: (persist stores post to every replica; the fence covers them all).
    supports_byte_persistence = True

    def __init__(
        self,
        config: Optional[FlatFlashConfig] = None,
        fleet: Optional[FleetConfig] = None,
        cache_policy: str = "rrip",
    ) -> None:
        if config is None:
            config = FlatFlashConfig()
        if fleet is None:
            fleet = FleetConfig()
        fleet.validate()
        super().__init__(config)
        self.fleet_config = fleet
        #: The member devices; each is a complete unmodified FlatFlash
        #: with per-device fault-injector RNG namespaces ("dev<k>").
        self.devices: List[FlatFlash] = [
            FlatFlash(config, cache_policy=cache_policy, device_id=index)
            for index in range(fleet.num_devices)
        ]
        self._device_state: List[str] = ["active"] * fleet.num_devices
        self._router = ShardRouter(
            make_policy(fleet.striping, fleet.stripe_chunk_pages),
            fleet.num_devices,
            stats=self.stats,
        )
        self._replicas = ReplicaMap(stats=self.stats)
        # Device-loss detection reuses the bridge's MMIO degradation
        # ladder, keyed by device index instead of lpn: each observed
        # DeviceLostError is a consecutive failure, and crossing the
        # (fleet-scoped) threshold declares the device failed.
        self._ladder = MMIORetryPolicy(
            max_retries=config.faults.mmio_max_retries,
            backoff_base_ns=config.faults.mmio_backoff_base_ns,
            backoff_multiplier=config.faults.mmio_backoff_multiplier,
            degraded_threshold=fleet.loss_detect_threshold,
            stats=self.stats,
        )
        self.ssd = _FleetStoragePort(self)
        #: Completed failovers, in declaration order.
        self.failover_events: List[FailoverEvent] = []
        self._local_regions: Dict[Tuple[int, int], object] = {}
        self._page_persist: Dict[int, bool] = {}
        self._pending_losses: List[Tuple[int, int]] = sorted(
            fleet.scheduled_losses
        )
        self._loss_observed_ns: Dict[int, int] = {}
        self._device_losses = self.stats.counter("fleet.device_losses")
        self._scheduled_kills = self.stats.counter("fleet.scheduled_kills")
        self._volatile_lost = self.stats.counter("fleet.volatile_pages_lost")
        self._durable_lost = self.stats.counter("fleet.durable_pages_lost")
        self._detection_total = self.stats.counter("fleet.detection_ns")
        self._recovery_total = self.stats.counter("fleet.recovery_ns")
        self._replica_writes = self.stats.counter("fleet.replica_writes")
        self._replica_lag_ns = self.stats.counter("fleet.replica_lag_ns")

    # ------------------------------------------------------------------ #
    # Device liveness
    # ------------------------------------------------------------------ #

    def active_indices(self) -> List[int]:
        return [
            index
            for index, state in enumerate(self._device_state)
            if state == "active"
        ]

    def active_devices(self) -> List[FlatFlash]:
        return [self.devices[index] for index in self.active_indices()]

    def device_state(self, index: int) -> str:
        """``"active"`` or ``"failed"``."""
        return self._device_state[index]

    def _fire_due_losses(self) -> None:
        """Apply scheduled administrative kills whose instant has come."""
        while self._pending_losses and self._pending_losses[0][0] <= self.clock.now:
            _at_ns, device_index = self._pending_losses.pop(0)
            self.devices[device_index].ssd.fail_stop()
            self._scheduled_kills.add()

    def _note_loss(self, device_index: int, latency_ns: int) -> None:
        """One DeviceLostError observed; escalate through the ladder."""
        self._loss_observed_ns[device_index] = (
            self._loss_observed_ns.get(device_index, 0) + latency_ns
        )
        # Device index rides the ladder's page-keyed table — the
        # sanctioned fleet-scope reuse of the degradation ladder.
        if self._ladder.note_failure(LPN(device_index)):
            self._failover(device_index)

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def _map_page(self, vpn: VPN, lpn: LPN, persist: bool) -> None:
        primary = self._pick_active(self._router.preferred_device(vpn))
        local = self._allocate_local(primary, persist, f"shard:v{vpn}")
        self._router.place(vpn, primary, local)
        self._page_persist[int(vpn)] = persist
        factor = self.fleet_config.replication_factor
        if persist and factor > 1:
            copies: List[Tuple[int, int]] = [(primary, local)]
            taken = {primary}
            cursor = primary
            while len(copies) < factor:
                cursor = self._next_active(cursor, exclude=taken)
                if cursor is None:
                    break
                taken.add(cursor)
                copies.append(
                    (cursor, self._allocate_local(cursor, True, f"repl:v{vpn}"))
                )
            if len(copies) > 1:
                self._replicas.register(int(vpn), tuple(copies))

    def _unmap_page(self, vpn: VPN) -> None:
        entry = self._router.lookup(int(vpn))
        if entry is None:
            return
        copies = self._replicas.copies(int(vpn)) or [entry]
        for device_index, local in copies:
            region = self._local_regions.pop((device_index, local), None)
            if region is not None and self._device_state[device_index] == "active":
                self.devices[device_index].munmap(region)
        self._router.remove(int(vpn))
        self._replicas.discard(int(vpn))
        self._page_persist.pop(int(vpn), None)

    def _allocate_local(self, device_index: int, persist: bool, name: str) -> int:
        """One fresh backing page on a member device; returns its local vpn."""
        region = self.devices[device_index].mmap(1, persist=persist, name=name)
        self._local_regions[(device_index, region.base_vpn)] = region
        return region.base_vpn

    def _pick_active(self, preferred: int) -> int:
        if self._device_state[preferred] == "active":
            return preferred
        fallback = self._next_active(preferred, exclude={preferred})
        if fallback is None:
            raise FleetExhaustedError("every device in the fleet has failed")
        return fallback

    def _next_active(self, start: int, exclude) -> Optional[int]:
        count = self.fleet_config.num_devices
        for step in range(1, count + 1):
            candidate = (start + step) % count
            if candidate in exclude:
                continue
            if self._device_state[candidate] == "active":
                return candidate
        return None

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _access(
        self, vaddr: int, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        if size <= 0:
            raise ValueError(f"access size must be > 0, got {size}")
        if vaddr < 0:
            raise ValueError(f"negative virtual address {vaddr:#x}")
        self._fire_due_losses()
        if is_write:
            self._stores.add()
        else:
            self._loads.add()
        chunks = self._split_chunks(vaddr, size, data)
        total_latency = 0
        fault = False
        source = "dram"
        pieces: List[bytes] = []
        position = 0
        while position < len(chunks):
            latency, result, taken = self._group_access(chunks, position, is_write)
            total_latency += latency
            fault = fault or result.fault
            source = result.source
            if result.data is not None:
                pieces.append(result.data)
            position += taken
        self.clock.advance(total_latency)
        self._access_latency.record(total_latency)
        by_source = self._by_source_latency.get(source)
        if by_source is None:
            by_source = self.stats.latency(
                f"mem.by_source.{source}", keep_samples=False
            )
            self._by_source_latency[source] = by_source
        by_source.record(total_latency)
        merged = b"".join(pieces) if pieces else None
        return AccessResult(total_latency, source, fault, merged)

    def _access_page(
        self,
        vpn: VPN,
        offset: int,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> AccessResult:
        """Unused: the fleet overrides ``_access`` and delegates whole
        device-contiguous runs to its members instead of single pages."""
        raise NotImplementedError(
            "FlatFlashFleet delegates accesses to member devices"
        )

    def _split_chunks(
        self, vaddr: int, size: int, data: Optional[bytes]
    ) -> List[Tuple[int, int, int, Optional[bytes]]]:
        """Page-confined (vpn, page offset, size, payload) pieces."""
        chunks: List[Tuple[int, int, int, Optional[bytes]]] = []
        offset_in_access = 0
        remaining = size
        addr = vaddr
        while remaining > 0:
            vpn, page_offset = divmod(addr, self.page_size)
            chunk = min(remaining, self.page_size - page_offset)
            payload = None
            if data is not None:
                payload = data[offset_in_access : offset_in_access + chunk]
            chunks.append((vpn, page_offset, chunk, payload))
            addr += chunk
            offset_in_access += chunk
            remaining -= chunk
        return chunks

    def _group_access(
        self,
        chunks: List[Tuple[int, int, int, Optional[bytes]]],
        position: int,
        is_write: bool,
    ) -> Tuple[int, AccessResult, int]:
        """Delegate a maximal same-device run of chunks to its member.

        Regrouped from scratch on every attempt: a failover triggered by
        a ``DeviceLostError`` rewrites the routing, so the retry may
        land on a different device (the promoted replica).  Returns
        (latency including detection overhead, member result, chunks
        consumed).
        """
        extra_ns = 0
        attempt = 0
        while True:
            vpn0 = chunks[position][0]
            device_index, local0 = self._router.route(vpn0)
            taken = 1
            group_size = chunks[position][2]
            while position + taken < len(chunks):
                next_vpn = chunks[position + taken][0]
                entry = self._router.lookup(next_vpn)
                if entry is None or entry != (device_index, local0 + taken):
                    break
                group_size += chunks[position + taken][2]
                taken += 1
            payload: Optional[bytes] = None
            if is_write and chunks[position][3] is not None:
                payload = b"".join(
                    chunks[position + i][3] for i in range(taken)
                )
            local_vaddr = local0 * self.page_size + chunks[position][1]
            device = self.devices[device_index]
            try:
                device.clock.advance_to(self.clock.now)
                if is_write:
                    result = device.store(local_vaddr, group_size, payload)
                else:
                    result = device.load(local_vaddr, group_size)
            except DeviceLostError as err:
                extra_ns += err.latency_ns
                failed_before = len(self.failover_events)
                self._note_loss(device_index, err.latency_ns)
                if len(self.failover_events) == failed_before:
                    # Not yet declared: back off and probe the link again.
                    wait = self._ladder.backoff_ns(attempt)
                    self._loss_observed_ns[device_index] += wait
                    extra_ns += wait
                    attempt += 1
                else:
                    attempt = 0
                continue
            self._ladder.note_success(LPN(device_index))
            latency = extra_ns + result.latency_ns
            if is_write:
                latency += self._replicate_group(
                    chunks, position, taken, result.latency_ns
                )
            return latency, result, taken

    def _replicate_group(
        self,
        chunks: List[Tuple[int, int, int, Optional[bytes]]],
        position: int,
        taken: int,
        primary_latency_ns: int,
    ) -> int:
        """Mirror a written group onto its replicas; returns the extra
        foreground wait beyond the primary ack (quorum semantics).

        All copies are issued in parallel at the access instant, so the
        write completes in the foreground when the W-th fastest copy
        (primary included) acknowledges; slower replicas drain in the
        background ledger.
        """
        ack_latencies: List[int] = []
        for i in range(taken):
            vpn, page_offset, chunk_size, payload = chunks[position + i]
            for replica_index, replica_local in self._replicas.replicas(vpn):
                if self._device_state[replica_index] != "active":
                    continue
                replica = self.devices[replica_index]
                replica_vaddr = replica_local * self.page_size + page_offset
                try:
                    replica.clock.advance_to(self.clock.now)
                    result = replica.store(replica_vaddr, chunk_size, payload)
                except DeviceLostError as err:
                    self._replica_lag_ns.add(err.latency_ns)
                    self._note_loss(replica_index, err.latency_ns)
                    continue
                self._ladder.note_success(LPN(replica_index))
                self._replica_writes.add()
                ack_latencies.append(result.latency_ns)
        if not ack_latencies:
            return 0
        acks = sorted([primary_latency_ns] + ack_latencies)
        quorum = min(self.fleet_config.effective_write_quorum, len(acks))
        foreground = max(acks[quorum - 1], primary_latency_ns)
        self._replica_lag_ns.add(sum(acks) - foreground)
        return foreground - primary_latency_ns

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def _note_failed_device(self, device_index: int) -> None:
        self._device_state[device_index] = "failed"
        self._device_losses.add()

    def _failover(self, device_index: int) -> None:
        """Declare a device failed: promote, re-replicate, relocate."""
        detected_ns = self.clock.now
        self._note_failed_device(device_index)
        # The loss may have been observed on any path (access, replica
        # write, fence); make the fail-stop explicit and idempotent.
        self.devices[device_index].ssd.fail_stop()
        promoted = 0
        repaired = 0
        recovery_ns = 0
        # 1. Replicated pages with a copy on the dead device: drop the
        # copy, promote a survivor when the primary died, and restore
        # the replication factor onto a spare survivor.
        for vpn in self._replicas.pages_with_copy_on(device_index):
            copies = self._replicas.copies(vpn)
            primary_device = copies[0][0]
            self._replicas.record_loss(vpn, device_index)
            if primary_device == device_index:
                survivors = self._replicas.copies(vpn)
                if not survivors:
                    # Every copy died (repeated losses outran repair);
                    # step 2 relocates it and charges the durable loss.
                    self._replicas.discard(vpn)
                    continue
                new_primary, new_local = survivors[0]
                self._replicas.promote(vpn, new_primary)
                self._local_regions.pop((device_index, copies[0][1]), None)
                self._router.remap(vpn, new_primary, new_local)
                promoted += 1
            if self.fleet_config.re_replicate:
                spare = self._spare_device_for(vpn)
                if spare is not None:
                    try:
                        recovery_ns += self._re_replicate(vpn, spare)
                    except DeviceLostError:
                        # A second device died mid-repair; its own
                        # detection will declare it — skip this repair.
                        continue
                    repaired += 1
        # 2. Sole-copy pages whose only home was the dead device:
        # relocate to fresh zeroed pages on survivors and count the loss.
        volatile_before = self._volatile_lost.value
        durable_before = self._durable_lost.value
        for vpn, local in self._router.pages_on(device_index):
            self._local_regions.pop((device_index, local), None)
            if self._page_persist.get(vpn, False):
                self._lose_durable_page(vpn)
            else:
                self._lose_volatile_page(vpn)
        detection_ns = self._loss_observed_ns.get(device_index, 0)
        event = FailoverEvent(
            device=device_index,
            detected_ns=detected_ns,
            detection_ns=detection_ns,
            pages_promoted=promoted,
            pages_re_replicated=repaired,
            volatile_pages_lost=self._volatile_lost.value - volatile_before,
            durable_pages_lost=self._durable_lost.value - durable_before,
            recovery_ns=recovery_ns,
        )
        self.failover_events.append(event)
        self._detection_total.add(detection_ns)
        self._recovery_total.add(recovery_ns)
        # Redundancy restoration runs off the critical path.
        self.charge_background(recovery_ns)

    def _spare_device_for(self, vpn: int) -> Optional[int]:
        holders = {device for device, _local in self._replicas.copies(vpn)}
        for candidate in self.active_indices():
            if candidate not in holders:
                return candidate
        return None

    def _re_replicate(self, vpn: int, target_index: int) -> int:
        """Copy a page's primary onto a spare survivor (block path)."""
        source_index, source_local = self._replicas.copies(vpn)[0]
        source = self.devices[source_index]
        target = self.devices[target_index]
        # Local pages are their own device-level lpns — sanctioned cast.
        data, read_cost = source.ssd.read_page_block(LPN(source_local))
        new_local = self._allocate_local(target_index, True, f"repair:v{vpn}")
        write_cost = target.ssd.write_page_block(LPN(new_local), data)
        self._replicas.record_repair(vpn, target_index, new_local)
        return read_cost + write_cost

    def _lose_volatile_page(self, vpn: int) -> None:
        self._relocate_lost_page(vpn, persist=False)
        self._volatile_lost.add()

    def _lose_durable_page(self, vpn: int) -> None:
        self._relocate_lost_page(vpn, persist=True)
        self._durable_lost.add()

    def _relocate_lost_page(self, vpn: int, persist: bool) -> None:
        """Repoint a sole-copy page to a fresh zeroed page on a survivor."""
        survivor = self._pick_active(self._router.preferred_device(vpn))
        local = self._allocate_local(survivor, persist, f"relocate:v{vpn}")
        self._router.remap(vpn, survivor, local)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def fleet_summary(self) -> Dict[str, int]:
        """Headline failover/replication metrics for reports."""
        return {
            "num_devices": self.fleet_config.num_devices,
            "replication_factor": self.fleet_config.replication_factor,
            "write_quorum": self.fleet_config.effective_write_quorum,
            "active_devices": len(self.active_indices()),
            "device_losses": self._device_losses.value,
            "pages_promoted": sum(
                event.pages_promoted for event in self.failover_events
            ),
            "pages_re_replicated": sum(
                event.pages_re_replicated for event in self.failover_events
            ),
            "volatile_pages_lost": self._volatile_lost.value,
            "durable_pages_lost": self._durable_lost.value,
            "detection_ns": self._detection_total.value,
            "recovery_ns": self._recovery_total.value,
            "replica_writes": self._replica_writes.value,
            "replica_lag_ns": self._replica_lag_ns.value,
        }
