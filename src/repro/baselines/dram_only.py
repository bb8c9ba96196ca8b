"""DRAM-only system for the cost-effectiveness analysis (§5.7, Table 3).

Every mapped page gets a DRAM frame up front — the working set is fully
resident, so each access costs one DRAM reference.  It is the performance
upper bound; Table 3 weighs that speed against the price of provisioning
the whole dataset in DRAM (the paper's $30/GB DRAM vs $2/GB flash).
"""

from __future__ import annotations

from typing import Optional

from repro.config import FlatFlashConfig
from repro.core.memory_system import AccessResult, MemorySystem
from repro.host.dram import HostDRAM


class DRAMOnly(MemorySystem):
    """All data resident in DRAM."""

    name = "DRAM-only"

    def __init__(self, config: Optional[FlatFlashConfig] = None) -> None:
        if config is None:
            config = FlatFlashConfig()
        super().__init__(config)
        self.dram = HostDRAM(
            config.geometry.dram_pages,
            config.geometry.page_size,
            track_data=config.track_data,
            stats=self.stats,
        )

    def _map_page(self, vpn: int, lpn: int, persist: bool) -> None:
        frame = self.dram.allocate(vpn)
        if frame is None:
            raise MemoryError(
                f"DRAM-only system out of frames at vpn {vpn}: configure "
                f"dram_pages >= total mapped pages"
            )
        pte = self.page_table.entry(vpn)
        pte.point_to_dram(frame.index)
        pte.persist = persist

    def _access_page(
        self, vpn: int, offset: int, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        pte = self.page_table.lookup(vpn)
        if pte is None:
            raise KeyError(f"vpn {vpn} is not mapped")
        frame = self.dram.frames[pte.frame_index]
        self.dram.touch(frame)
        latency = self.config.latency
        if is_write:
            self.dram.write_bytes(frame, offset, data if data is not None else b"\x00" * size)
            return AccessResult(latency.dram_store_ns, "dram")
        payload = self.dram.read_bytes(frame, offset, size)
        return AccessResult(latency.dram_load_ns, "dram", data=payload)
