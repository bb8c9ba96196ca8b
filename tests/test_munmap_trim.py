"""Tests for munmap and the FTL TRIM path."""

import pytest

from repro import DRAMOnly, FlatFlash, TraditionalStack, UnifiedMMap, small_config
from repro.config import LatencyConfig
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL


class TestFTLTrim:
    def make_ftl(self):
        flash = FlashArray(8, 4, 64, LatencyConfig(), track_data=True)
        return flash, PageFTL(flash, overprovision=0.25)

    def test_trim_drops_mapping_and_invalidates(self):
        flash, ftl = self.make_ftl()
        ppn, _ = ftl.write(3, b"\xaa" * 64)
        ftl.trim(3)
        assert not ftl.is_mapped(3)
        assert flash.state_of(ppn).value == "invalid"

    def test_trim_unmapped_is_noop(self):
        _flash, ftl = self.make_ftl()
        ftl.trim(5)
        assert ftl.stats.counters()["ftl.trims"] == 0

    def test_trim_counted(self):
        _flash, ftl = self.make_ftl()
        ftl.write(0, None)
        ftl.trim(0)
        assert ftl.stats.counters()["ftl.trims"] == 1

    def test_trim_out_of_range_rejected(self):
        _flash, ftl = self.make_ftl()
        with pytest.raises(ValueError):
            ftl.trim(ftl.exported_pages)

    def test_trimmed_page_rewritable(self):
        _flash, ftl = self.make_ftl()
        ftl.write(2, b"\x01" * 64)
        ftl.trim(2)
        ftl.write(2, b"\x02" * 64)
        _ppn, data, _ = ftl.read(2)
        assert data == b"\x02" * 64

    def test_trim_gives_gc_free_space(self):
        """Trimmed pages reclaim without relocation: lower amplification."""
        flash, ftl = self.make_ftl()
        for lpn in range(8):
            ftl.write(lpn, None)
        for lpn in range(8):
            ftl.trim(lpn)
        before_gc_writes = ftl.stats.counters()["ftl.gc_writes"]
        ftl.collect_garbage()
        assert ftl.stats.counters()["ftl.gc_writes"] == before_gc_writes


class TestMunmap:
    @pytest.mark.parametrize("cls", [FlatFlash, UnifiedMMap, TraditionalStack])
    def test_munmap_releases_ssd_backing(self, cls):
        system = cls(small_config())
        region = system.mmap(8)
        system.store(region.addr(0), 8, b"tempdata")
        mapped_before = len(system.ssd.ftl.mapping)
        system.munmap(region)
        assert len(system.ssd.ftl.mapping) < mapped_before
        assert region not in system.regions

    def test_munmap_frees_dram_frames(self):
        system = DRAMOnly(small_config())
        region = system.mmap(8)
        used = system.dram.allocated_frames
        system.munmap(region)
        assert system.dram.allocated_frames == used - 8

    def test_access_after_munmap_faults_loudly(self):
        system = FlatFlash(small_config())
        region = system.mmap(4)
        system.munmap(region)
        with pytest.raises(KeyError):
            system.load(region.addr(0), 8)

    def test_munmap_unknown_region_rejected(self):
        system = FlatFlash(small_config())
        other = UnifiedMMap(small_config()).mmap(2)
        with pytest.raises(ValueError):
            system.munmap(other)

    def test_munmap_promoted_pages_returns_frames(self):
        system = FlatFlash(small_config())
        region = system.mmap(8)
        for line in range(16):  # promote page 0
            system.load(region.addr(line * 64), 64)
        system.quiesce()
        frames_used = system.dram.allocated_frames
        assert frames_used > 0
        system.munmap(region)
        assert system.dram.allocated_frames < frames_used

    def test_munmap_mid_promotion_settles_first(self):
        system = FlatFlash(small_config())
        region = system.mmap(8)
        for line in range(7):  # promotion now in flight
            system.load(region.addr(line * 64), 64)
        system.munmap(region)  # must not corrupt PLB state
        assert system.bridge.plb.in_flight == 0

    def test_other_regions_survive_munmap(self):
        system = FlatFlash(small_config())
        keep = system.mmap(4)
        drop = system.mmap(4)
        system.store(keep.addr(0), 8, b"keep me!")
        system.munmap(drop)
        assert system.load(keep.addr(0), 8).data == b"keep me!"

    def test_addresses_are_not_recycled(self):
        system = FlatFlash(small_config())
        first = system.mmap(4)
        system.munmap(first)
        second = system.mmap(4)
        assert second.base_vpn > first.base_vpn

    @pytest.mark.parametrize("cls", [FlatFlash, UnifiedMMap, TraditionalStack])
    def test_munmap_books_one_shootdown_as_background(self, cls):
        """The batched TLB shootdown is background time, off the clock."""
        system = cls(small_config())
        region = system.mmap(8)
        for page in range(4):
            system.store(region.page_addr(page), 8)
        background_before = system.stats.counters()["mem.background_ns"]
        now = system.clock.now
        system.munmap(region)
        background = system.stats.counters()["mem.background_ns"] - background_before
        assert system.tlb.shootdown_cost_ns > 0
        assert background == system.tlb.shootdown_cost_ns
        assert system.clock.now == now
