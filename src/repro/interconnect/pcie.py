"""PCIe interconnect model: BAR windows and MMIO/DMA transaction costs.

FlatFlash reaches the SSD through PCIe memory-mapped I/O (Section 3.1): one of
the SSD's Base Address Registers exposes the flash address space to the host,
the host bridge routes physical addresses inside that window to the device,
and the CPU issues loads/stores (including atomics) directly against it.

The model here is deliberately simple — a latency-and-traffic model, not a
TLP-level simulation:

* MMIO **reads** are non-posted (full round trip, Table 2: 4.8 us / line).
* MMIO **writes** are posted; they complete when the data reaches the host
  bridge's write buffer (Table 2: 0.6 us / line).  Durability therefore
  needs the *write-verify read* barrier the persistence path issues (§3.5).
* **DMA** moves whole pages (used by page promotion and the paging
  baselines).
* Traffic counters record bytes moved in each direction so experiments can
  report I/O-traffic reductions and SSD-lifetime effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import LatencyConfig
from repro.sim.sanitizers import PersistenceSanitizer
from repro.sim.stats import StatRegistry
from repro.units import TimeNs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultInjector


class PCIeFaultError(RuntimeError):
    """An injected PCIe fault dropped an MMIO transaction.

    ``kind`` is ``"timeout"`` (the completion never arrived; the penalty is
    the completion-timeout window) or ``"corrupt"`` (a poisoned/malformed
    completion detected by the host bridge; normal transfer cost was paid).
    Either way the operation did not take effect — posted write data never
    landed, a read returned no usable data — and the host bridge's retry
    policy decides what happens next.
    """

    def __init__(self, site: str, kind: str, latency_ns: int) -> None:
        super().__init__(f"PCIe fault at {site}: {kind}")
        self.site = site
        self.kind = kind
        #: Time the host observably lost on the failed transaction.
        self.latency_ns = latency_ns


class DeviceLostError(RuntimeError):
    """The PCIe link is down: the whole device has fail-stopped.

    Unlike :class:`PCIeFaultError` this is *not* retryable at the device
    level — the link never comes back — so it is deliberately not a
    subclass: it flies past the host bridge's per-page MMIO retry ladder
    and is handled by whoever composes devices (a fleet promotes a
    replica; a single-device system has lost the device for good).
    """

    def __init__(self, site: str, latency_ns: int) -> None:
        super().__init__(f"device lost at {site}: PCIe link down")
        self.site = site
        #: Time the host observably lost discovering the dead link (the
        #: completion-timeout window).
        self.latency_ns = latency_ns


class PCIeTransaction(enum.Enum):
    """Transaction kinds the link accounts for."""

    MMIO_READ = "mmio_read"
    MMIO_WRITE = "mmio_write"
    MMIO_ATOMIC = "mmio_atomic"
    DMA_TO_HOST = "dma_to_host"
    DMA_FROM_HOST = "dma_from_host"


@dataclass(frozen=True)
class BarWindow:
    """A Base Address Register window in host physical address space."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ValueError(f"invalid BAR window base={self.base} size={self.size}")

    @property
    def end(self) -> int:
        """One past the last byte of the window."""
        return self.base + self.size

    def contains(self, phys_addr: int) -> bool:
        return self.base <= phys_addr < self.end

    def offset_of(self, phys_addr: int) -> int:
        """Device-relative offset of a host physical address."""
        if not self.contains(phys_addr):
            raise ValueError(
                f"address {phys_addr:#x} outside BAR [{self.base:#x}, {self.end:#x})"
            )
        return phys_addr - self.base


class PCIeLink:
    """Cost and traffic accounting for one PCIe endpoint link."""

    def __init__(
        self,
        latency: LatencyConfig,
        cacheline_size: int = 64,
        stats: Optional[StatRegistry] = None,
        persistence_sanitizer: Optional[PersistenceSanitizer] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if cacheline_size <= 0:
            raise ValueError(f"cacheline_size must be > 0, got {cacheline_size}")
        self.latency = latency
        self.cacheline_size = cacheline_size
        self.stats = stats if stats is not None else StatRegistry()
        # Sanitizer hook: posted writes accumulate until a non-posted read
        # orders them (the PCIe producer/consumer ordering rule the §3.5
        # write-verify fence relies on).
        self.persistence_sanitizer = persistence_sanitizer
        self.faults = faults
        # Fail-stop flag: set by an injected pcie.device_loss fault or an
        # administrative kill_link(); permanent for the simulation's life.
        self._down = False
        self._reads = self.stats.counter("pcie.mmio_reads")
        self._device_losses = self.stats.counter("pcie.device_losses")
        self._writes = self.stats.counter("pcie.mmio_writes")
        self._atomics = self.stats.counter("pcie.mmio_atomics")
        self._dma_ops = self.stats.counter("pcie.dma_ops")
        self._bytes_to_device = self.stats.counter("pcie.bytes_to_device")
        self._bytes_from_device = self.stats.counter("pcie.bytes_from_device")
        self._timeouts = self.stats.counter("pcie.mmio_timeouts")
        self._corruptions = self.stats.counter("pcie.mmio_corruptions")

    @property
    def is_down(self) -> bool:
        """True once the link has fail-stopped (device loss)."""
        return self._down

    def kill_link(self) -> None:
        """Fail-stop the link permanently (device loss).

        Idempotent; every transaction afterwards raises
        :class:`DeviceLostError` after the completion-timeout window.
        """
        if not self._down:
            self._down = True
            self._device_losses.add()

    def _check_link(self, site: str) -> None:
        if self._down:
            raise DeviceLostError(site, self.latency.mmio_timeout_ns)

    def _maybe_fault(self, op: str, line_cost_ns: int) -> None:
        """Draw the per-op fault sites; raises :class:`PCIeFaultError`
        or :class:`DeviceLostError`.

        Device loss is drawn first (it fail-stops the link), then
        timeout, then corrupt — independent seeded streams, so enabling
        one never reshuffles the others.  A faulted transaction still
        occupies the link (traffic was already counted) but is *not*
        announced to the persistence sanitizer: a dropped posted write
        never lands, and a failed read orders nothing.
        """
        self._check_link(f"pcie.{op}")
        if self.faults is None:
            return
        if self.faults.fires("pcie.device_loss"):
            self.kill_link()
            raise DeviceLostError(f"pcie.{op}", self.latency.mmio_timeout_ns)
        if self.faults.fires(f"pcie.{op}.timeout"):
            self._timeouts.add()
            raise PCIeFaultError(
                f"pcie.{op}", "timeout", self.latency.mmio_timeout_ns
            )
        if self.faults.fires(f"pcie.{op}.corrupt"):
            self._corruptions.add()
            raise PCIeFaultError(f"pcie.{op}", "corrupt", line_cost_ns)

    def _cachelines(self, size: int) -> int:
        if size <= 0:
            raise ValueError(f"transfer size must be > 0, got {size}")
        return -(-size // self.cacheline_size)  # ceiling division

    def mmio_read_cost(self, size: int) -> TimeNs:
        """Cost of a non-posted MMIO read of ``size`` bytes."""
        lines = self._cachelines(size)
        self._reads.add(lines)
        self._bytes_from_device.add(size)
        self._maybe_fault("mmio_read", lines * self.latency.mmio_read_cacheline_ns)
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_ordering_read()
        return lines * self.latency.mmio_read_cacheline_ns

    def mmio_write_cost(self, size: int) -> TimeNs:
        """Cost of a posted MMIO write of ``size`` bytes."""
        lines = self._cachelines(size)
        self._writes.add(lines)
        self._bytes_to_device.add(size)
        self._maybe_fault("mmio_write", lines * self.latency.mmio_write_cacheline_ns)
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_posted_tlp(lines)
        return lines * self.latency.mmio_write_cacheline_ns

    def mmio_atomic_cost(self, size: int) -> TimeNs:
        """Cost of a PCIe atomic (round trip: behaves like a read)."""
        lines = self._cachelines(size)
        self._atomics.add(1)
        self._bytes_to_device.add(size)
        self._bytes_from_device.add(size)
        self._maybe_fault("mmio_atomic", lines * self.latency.mmio_read_cacheline_ns)
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_ordering_read()
        return lines * self.latency.mmio_read_cacheline_ns

    def verify_read_cost(self) -> TimeNs:
        """Cost of the write-verify read flushing posted writes (§3.5)."""
        self._check_link("pcie.verify_read")
        self._reads.add(1)
        self._bytes_from_device.add(self.cacheline_size)
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_ordering_read()
        return self.latency.mmio_verify_read_ns

    def dma_to_host_cost(self, size: int) -> TimeNs:
        """Cost of a device-initiated DMA into host DRAM (page promotion)."""
        self._check_link("pcie.dma_to_host")
        pages = self._cachelines(size) * self.cacheline_size
        self._dma_ops.add(1)
        self._bytes_from_device.add(size)
        # DMA cost scales with page-sized chunks of the transfer.
        chunk = 4_096
        chunks = -(-pages // chunk)
        return chunks * self.latency.dma_page_transfer_ns

    def dma_from_host_cost(self, size: int) -> TimeNs:
        """Cost of a DMA from host DRAM into the device (page write-back)."""
        self._check_link("pcie.dma_from_host")
        self._dma_ops.add(1)
        self._bytes_to_device.add(size)
        chunk = 4_096
        chunks = -(-size // chunk)
        return chunks * self.latency.dma_page_transfer_ns

    @property
    def bytes_to_device(self) -> int:
        return self._bytes_to_device.value

    @property
    def bytes_from_device(self) -> int:
        return self._bytes_from_device.value
