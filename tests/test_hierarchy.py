"""Tests for the FlatFlash unified hierarchy: promotion, eviction, PLB, remap."""


from repro import FlatFlash, small_config
from repro.host.page_table import Domain


def make_system(**overrides):
    return FlatFlash(small_config(**overrides))


def hammer_page(system, region, page=0, touches=16):
    """Touch distinct cache lines of one page until promotion triggers."""
    for line in range(touches):
        system.load(region.page_addr(page, (line % 64) * 64), 64)


class TestDirectAccess:
    def test_ssd_pages_are_present_no_faults(self):
        system = make_system()
        region = system.mmap(8)
        result = system.load(region.addr(0), 64)
        assert not result.fault
        assert result.source == "ssd"

    def test_store_then_load_round_trips_via_ssd(self):
        system = make_system()
        region = system.mmap(8)
        system.store(region.addr(100), 8, b"12345678")
        assert system.load(region.addr(100), 8).data == b"12345678"

    def test_unwritten_memory_reads_zero(self):
        system = make_system()
        region = system.mmap(8)
        assert system.load(region.addr(500), 4).data == b"\x00" * 4

    def test_cacheable_mmio_serves_repeats_from_cpu_cache(self):
        system = make_system()
        region = system.mmap(8)
        system.load(region.addr(0), 64)
        repeat = system.load(region.addr(0), 64)
        assert repeat.source == "cpu_cache"
        assert repeat.latency_ns == system.config.latency.cpu_cache_hit_ns

    def test_uncacheable_mmio_pays_pcie_every_time(self):
        system = make_system(cacheable_mmio=False)
        region = system.mmap(8)
        system.load(region.addr(0), 64)
        repeat = system.load(region.addr(0), 64)
        assert repeat.source == "ssd"
        assert repeat.latency_ns >= system.config.latency.mmio_read_cacheline_ns


class TestPromotionLifecycle:
    def test_hot_page_promotes_to_dram(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, page=0)
        system.quiesce()
        pte = system.page_table.lookup(region.base_vpn)
        assert pte.domain is Domain.DRAM
        assert system.promotions == 1

    def test_promoted_page_serves_at_dram_latency(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region)
        system.quiesce()
        result = system.load(region.addr(0), 64)
        assert result.source == "dram"

    def test_promotion_preserves_data(self):
        system = make_system()
        region = system.mmap(8)
        system.store(region.addr(40), 8, b"precious")
        hammer_page(system, region)
        system.quiesce()
        assert system.load(region.addr(40), 8).data == b"precious"

    def test_promotion_cost_not_on_access_path(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region)
        assert system.background_ns > 0

    def test_dirty_cache_source_marks_frame_dirty(self):
        system = make_system()
        region = system.mmap(8)
        system.store(region.addr(0), 8, b"dirtyyes")  # dirty in SSD-Cache
        hammer_page(system, region)
        system.quiesce()
        pte = system.page_table.lookup(region.base_vpn)
        assert system.dram.frames[pte.frame_index].dirty

    def test_persist_pages_never_promote(self):
        system = make_system()
        region = system.mmap(4, persist=True)
        for line in range(32):
            system.load(region.addr((line % 64) * 64), 64)
        system.quiesce()
        pte = system.page_table.lookup(region.base_vpn)
        assert pte.domain is Domain.SSD
        assert system.promotions == 0

    def test_promotion_counts_as_page_movement(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region)
        system.quiesce()
        assert system.page_movements >= 1


class TestPLBWindow:
    def test_access_during_flight_is_plb_mediated(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, touches=7)  # reaches threshold
        # Promotion (12.1us) is now in flight; next access goes via PLB.
        result = system.load(region.addr(0), 64)
        assert result.source == "plb"

    def test_store_during_flight_survives(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, touches=7)
        system.store(region.addr(64 * 60), 8, b"inflight")  # late line
        system.quiesce()
        assert system.load(region.addr(64 * 60), 8).data == b"inflight"

    def test_store_during_flight_is_dram_speed(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, touches=7)
        result = system.store(region.addr(64 * 50), 8)
        assert result.latency_ns == system.config.latency.dram_store_ns

    def test_partial_store_during_flight_merges_with_snapshot(self):
        """Regression: a sub-line store to a not-yet-copied line must not
        wipe the rest of that cache line (read-for-ownership merge)."""
        system = make_system()
        region = system.mmap(8)
        # Pre-existing data in the back half of the page (line 60).
        system.store(region.addr(64 * 60), 64, bytes(range(64)))
        hammer_page(system, region, touches=7)  # promotion now in flight
        # Partial 8-byte store into the middle of line 60 before the
        # inbound copy reaches it.
        system.store(region.addr(64 * 60 + 16), 8, b"PARTIAL!")
        system.quiesce()
        page = system.load(region.addr(64 * 60), 64).data
        expected = bytearray(range(64))
        expected[16:24] = b"PARTIAL!"
        assert page == bytes(expected)

    def test_load_spanning_copied_and_uncopied_lines(self):
        """Regression: a load over copied + uncopied lines must merge the
        frame's redirected stores with the SSD's snapshot, per line."""
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, touches=7)  # promotion in flight
        system.store(region.addr(0), 1, b"\x01")  # line 0 redirected
        # Read the first two lines in one access: line 0 from the frame,
        # line 1 still from the SSD side.
        data = system.load(region.addr(0), 128).data
        assert data[0] == 1
        assert data[1:] == b"\x00" * 127

    def test_plb_entry_retires_after_completion(self):
        system = make_system()
        region = system.mmap(8)
        hammer_page(system, region, touches=7)
        assert system.bridge.plb.in_flight == 1
        system.clock.advance(system.config.latency.page_promotion_ns + 1)
        system.load(region.page_addr(1, 0), 64)  # any access settles flights
        assert system.bridge.plb.in_flight == 0


class TestEviction:
    def test_dram_pressure_evicts_lru(self):
        system = make_system()
        region = system.mmap(64)
        frames = system.dram.num_frames
        # Promote more pages than DRAM holds.
        for page in range(frames + 4):
            hammer_page(system, region, page=page, touches=10)
            system.quiesce()
        assert system.evictions > 0
        assert system.dram.allocated_frames <= frames

    def test_evicted_dirty_page_written_back_and_readable(self):
        system = make_system()
        region = system.mmap(64)
        system.store(region.addr(8), 8, b"keepsafe")
        hammer_page(system, region, page=0)
        system.quiesce()
        # Evict page 0 by promoting everything else.
        for page in range(1, system.dram.num_frames + 4):
            hammer_page(system, region, page=page)
            system.quiesce()
        pte = system.page_table.lookup(region.base_vpn)
        if pte.domain is Domain.SSD:  # page 0 was evicted
            assert system.load(region.addr(8), 8).data == b"keepsafe"

    def test_eviction_repoints_pte_to_ssd_present(self):
        system = make_system()
        region = system.mmap(64)
        for page in range(system.dram.num_frames + 4):
            hammer_page(system, region, page=page)
            system.quiesce()
        ssd_resident = [
            vpn
            for vpn, pte in system.page_table.mapped_vpns().items()
            if pte.domain is Domain.SSD
        ]
        assert ssd_resident
        for vpn in ssd_resident:
            assert system.page_table.lookup(vpn).present  # never faults


class TestRemapPropagation:
    def test_gc_remaps_lazily_propagate(self):
        system = make_system()
        region = system.mmap(8)
        pte = system.page_table.lookup(region.base_vpn)
        original = pte.ssd_page
        # Force a rewrite of the backing page (eviction write-back path).
        system.store(region.addr(0), 8, b"version1")
        system.ssd.write_page_block(region.base_vpn, b"\x01" * 4_096)
        system.load(region.addr(8), 8)  # drains remaps
        refreshed = system.page_table.lookup(region.base_vpn)
        assert refreshed.ssd_page != original
        # And the device agrees the new address resolves.
        assert system.ssd.resolve_lpn(refreshed.ssd_page) == region.base_vpn

    def test_access_before_drain_still_correct(self):
        system = make_system()
        region = system.mmap(8)
        system.store(region.addr(0), 8, b"original")
        system.ssd.write_page_block(region.base_vpn, b"\x05" * 4_096)
        # Old ssd_page in the PTE resolves through the device remap table.
        assert system.load(region.addr(0), 8).data == b"\x05" * 8


class TestQuiesce:
    def test_quiesce_completes_all_flights(self):
        system = make_system()
        region = system.mmap(16)
        for page in range(4):
            hammer_page(system, region, page=page, touches=7)
        system.quiesce()
        assert system.bridge.plb.in_flight == 0

    def test_quiesce_idempotent(self):
        system = make_system()
        system.mmap(4)
        system.quiesce()
        system.quiesce()
