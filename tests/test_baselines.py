"""Tests for the paging baselines and the DRAM-only system."""

import pytest

from repro import DRAMOnly, FlatFlash, TraditionalStack, UnifiedMMap, small_config
from repro.host.page_table import Domain


class TestPagingBehaviour:
    @pytest.mark.parametrize("cls", [TraditionalStack, UnifiedMMap])
    def test_first_touch_faults(self, cls):
        system = cls(small_config())
        region = system.mmap(4)
        result = system.load(region.addr(0), 8)
        assert result.fault
        assert system.page_faults == 1

    @pytest.mark.parametrize("cls", [TraditionalStack, UnifiedMMap])
    def test_second_touch_is_dram(self, cls):
        system = cls(small_config())
        region = system.mmap(4)
        system.load(region.addr(0), 8)
        result = system.load(region.addr(64), 8)
        assert not result.fault
        assert result.latency_ns == system.config.latency.dram_load_ns

    @pytest.mark.parametrize("cls", [TraditionalStack, UnifiedMMap])
    def test_data_round_trips_through_swap(self, cls):
        system = cls(small_config())
        frames = system.dram.num_frames
        region = system.mmap(frames + 8)
        system.store(region.addr(4), 8, b"swapme!!")
        # Touch enough other pages to force page 0 out.
        for page in range(1, frames + 8):
            system.load(region.page_addr(page, 0), 8)
        result = system.load(region.addr(4), 8)
        assert result.data == b"swapme!!"
        assert system.stats.counters()["mem.pages_out"] >= 1

    def test_traditional_fault_costs_more_than_unified(self):
        traditional = TraditionalStack(small_config())
        unified = UnifiedMMap(small_config())
        region_t = traditional.mmap(4)
        region_u = unified.mmap(4)
        fault_t = traditional.load(region_t.addr(0), 8).latency_ns
        fault_u = unified.load(region_u.addr(0), 8).latency_ns
        assert fault_t > fault_u

    def test_traditional_loses_more_dram_to_metadata(self):
        traditional = TraditionalStack(small_config())
        unified = UnifiedMMap(small_config())
        assert traditional.dram.num_frames <= unified.dram.num_frames

    def test_unified_device_books_no_gc_remaps(self):
        """UnifiedMMap's faults read by lpn and its evictions re-derive the
        ppn from the FTL, so nothing drains a GC remap table: dirty
        write-backs (out-of-place rewrites) must not book one."""
        system = UnifiedMMap(small_config())
        frames = system.dram.num_frames
        region = system.mmap(frames + 8)
        for _sweep in range(2):
            for page in range(frames + 8):
                system.store(region.page_addr(page, 0), 8)
        assert system.stats.counters()["mem.pages_out"] > 0
        assert system.ssd.remaps == {}

    def test_traditional_uses_device_ftl(self):
        traditional = TraditionalStack(small_config())
        unified = UnifiedMMap(small_config())
        assert not traditional.ssd.host_merged_ftl
        assert unified.ssd.host_merged_ftl

    @pytest.mark.parametrize("cls", [TraditionalStack, UnifiedMMap])
    def test_fault_migrates_whole_page(self, cls):
        system = cls(small_config())
        region = system.mmap(2)
        system.load(region.addr(0), 8)
        assert system.stats.counters()["mem.pages_in"] == 1
        pte = system.page_table.lookup(region.base_vpn)
        assert pte.domain is Domain.DRAM

    @pytest.mark.parametrize("cls", [TraditionalStack, UnifiedMMap])
    def test_evicted_pages_fault_again(self, cls):
        system = cls(small_config())
        frames = system.dram.num_frames
        region = system.mmap(frames + 4)
        for page in range(frames + 4):
            system.load(region.page_addr(page, 0), 8)
        result = system.load(region.addr(0), 8)
        assert result.fault  # thrashing: page 0 was swapped out


class TestDRAMOnly:
    def test_all_accesses_at_dram_latency(self):
        system = DRAMOnly(small_config())
        region = system.mmap(8)
        walk = system.config.latency.page_table_walk_ns
        dram = system.config.latency.dram_load_ns
        for page in range(8):
            first = system.load(region.page_addr(page, 0), 8)
            assert first.latency_ns == dram + walk  # TLB miss on first touch
            assert not first.fault
            again = system.load(region.page_addr(page, 8), 8)
            assert again.latency_ns == dram

    def test_data_round_trip(self):
        system = DRAMOnly(small_config())
        region = system.mmap(4)
        system.store(region.addr(100), 8, b"dramonly")
        assert system.load(region.addr(100), 8).data == b"dramonly"

    def test_overcommit_raises(self):
        system = DRAMOnly(small_config())
        with pytest.raises(MemoryError):
            system.mmap(1_000)

    def test_no_page_movements(self):
        system = DRAMOnly(small_config())
        region = system.mmap(8)
        for page in range(8):
            system.load(region.page_addr(page, 0), 8)
        assert system.page_movements == 0


class TestCrossSystemAgreement:
    def test_all_systems_compute_identical_contents(self):
        """One scripted workload, four systems, byte-identical results."""
        import numpy as np

        rng = np.random.default_rng(8)
        script = [
            (int(rng.integers(0, 12 * 4_096 - 8)), bytes(rng.integers(0, 256, 8, dtype=np.uint8)))
            for _ in range(120)
        ]
        observations = []
        for cls in (FlatFlash, UnifiedMMap, TraditionalStack, DRAMOnly):
            system = cls(small_config())
            region = system.mmap(12)
            for offset, payload in script:
                system.store(region.addr(offset), 8, payload)
            reads = [system.load(region.addr(offset), 8).data for offset, _ in script]
            observations.append(reads)
        assert observations[0] == observations[1] == observations[2] == observations[3]
