"""Power-loss injection and system restart (the third fault plane).

Unlike the NAND and PCIe planes, power loss is not probabilistic: the
injector arms a deadline on the simulation clock and the clock raises
:class:`~repro.sim.clock.PowerLossTriggered` the moment simulated time
reaches it — deterministic to the nanosecond, so a campaign can sweep the
loss instant across every point of a workload.

Recovery follows the paper's §3.5 story:

1. :meth:`~repro.ssd.device.ByteAddressableSSD.crash` — unfenced posted
   writes are reverted (they never reached the battery domain), then the
   battery-backed controller destages dirty SSD-Cache pages to flash;
2. :meth:`~repro.ssd.device.ByteAddressableSSD.flash_image` snapshots
   what survives: the NAND array and the FTL's mapping state;
3. :func:`restart_system` boots a *fresh* FlatFlash from the same config,
   loads the image, and rebuilds the page table to point every surviving
   logical page back at its flash location.  Host DRAM contents are gone
   — pages promoted to DRAM restart from their last flash copy, which is
   exactly the durability contract (only persist regions, pinned to the
   SSD, promise byte durability).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.hierarchy import FlatFlash
from repro.sim.clock import PowerLossTriggered
from repro.units import TimeNs


class PowerLossInjector:
    """Arms a power-loss deadline and runs a workload until it trips."""

    def __init__(self, system: FlatFlash, at_ns: TimeNs) -> None:
        if at_ns < 0:
            raise ValueError(f"power-loss instant must be >= 0, got {at_ns}")
        self.system = system
        self.at_ns = at_ns
        #: Simulated time at which the loss actually fired (None = never).
        self.tripped_at_ns: Optional[TimeNs] = None

    def run(self, workload: Callable[[], None]) -> bool:
        """Run ``workload`` with the deadline armed; True if power was lost.

        The workload is any callable driving the system's clock.  When the
        deadline fires mid-access the exception unwinds the workload; the
        system is then in the crashed state and must go through
        :func:`restart_system` before further use.
        """
        self.system.clock.arm_power_loss(self.at_ns)
        try:
            workload()
        except PowerLossTriggered as loss:
            self.tripped_at_ns = loss.at_ns
            return True
        finally:
            self.system.clock.disarm_power_loss()
        return False


def restart_system(old_system: FlatFlash) -> FlatFlash:
    """Boot a fresh FlatFlash from ``old_system``'s surviving flash image.

    Models the machine coming back after power loss: the device performs
    its crash handling (battery destage + posted-write revert), the flash
    image is carried over, and the new host rebuilds its address space —
    same regions at the same virtual addresses, every PTE pointing at the
    page's current flash location.  The page table is rebuilt *directly*
    rather than via ``mmap`` (which would program fresh zero pages over
    the survivors).
    """
    old_system.ssd.crash()
    image = old_system.ssd.flash_image()
    system = FlatFlash(old_system.config)
    system.ssd.load_flash_image(image)

    # Region bookkeeping carries over verbatim: MappedRegion objects are
    # immutable address-range descriptors, so applications holding one
    # (a WAL's pmem region, FlatFS's data region) can reattach by handing
    # it to the new system.
    system.regions = list(old_system.regions)
    system._next_vpn = old_system._next_vpn
    persist_of = {}
    for region in old_system.regions:
        for page in range(region.num_pages):
            persist_of[region.base_vpn + page] = region.persist
    for vpn, lpn in old_system._vpn_to_lpn.items():
        system._vpn_to_lpn[vpn] = lpn
        ssd_page = system.ssd.host_page_of(lpn)
        pte = system.page_table.entry(vpn)
        pte.point_to_ssd(ssd_page, present=True)
        pte.persist = persist_of.get(vpn, False)
        system._ssd_page_to_vpn[ssd_page] = vpn
    return system
