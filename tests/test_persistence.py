"""Tests for byte-granular persistence: pmem regions, fences, crashes."""

import pytest

from repro import FlatFlash, create_pmem_region, small_config


@pytest.fixture
def system():
    return FlatFlash(small_config())


@pytest.fixture
def pmem(system):
    return create_pmem_region(system, num_pages=4)


class TestRegionBasics:
    def test_region_pages_have_persist_bit(self, system, pmem):
        for page in range(4):
            pte = system.page_table.lookup(pmem.region.base_vpn + page)
            assert pte.persist

    def test_requires_persist_region(self, system):
        from repro.core.persistence import PersistentRegion

        plain = system.mmap(2)
        with pytest.raises(ValueError):
            PersistentRegion(system, plain)

    def test_size_and_addr(self, pmem):
        assert pmem.size == 4 * 4_096
        assert pmem.addr(10) == pmem.region.base_addr + 10


class TestDurabilityProtocol:
    def test_persist_store_writes_data(self, system, pmem):
        pmem.persist_store(0, 8, b"ledger01")
        assert pmem.load(0, 8) == b"ledger01"

    def test_persist_store_charges_flush_and_posted_write(self, system, pmem):
        cost = pmem.persist_store(0, 64, b"\x00" * 64)
        latency = system.config.latency
        assert cost >= latency.mmio_write_cacheline_ns + latency.clflush_ns

    def test_commit_costs_verify_read(self, system, pmem):
        assert pmem.commit() == system.config.latency.mmio_verify_read_ns

    def test_durable_store_is_store_plus_fence(self, system, pmem):
        cost = pmem.durable_store(0, 8)
        latency = system.config.latency
        assert cost >= (
            latency.mmio_write_cacheline_ns
            + latency.clflush_ns
            + latency.mmio_verify_read_ns
        )

    def test_byte_persist_cheaper_than_page_write(self, system, pmem):
        # The headline claim: a small durable update costs far less than
        # the page-granular path (flash program + DMA).  Warm the page so
        # the measurement excludes the one-time SSD-Cache fill.
        pmem.persist_store(0, 8)
        byte_cost = pmem.durable_store(0, 64)
        latency = system.config.latency
        page_cost = latency.flash_program_page_ns + latency.dma_page_transfer_ns
        assert byte_cost < page_cost

    def test_clock_advances_for_persist_ops(self, system, pmem):
        before = system.clock.now
        pmem.durable_store(0, 8)
        assert system.clock.now > before


class TestCrashSemantics:
    def test_committed_data_survives_crash(self, system, pmem):
        pmem.persist_store(0, 8, b"COMMITED")
        pmem.commit()
        system.ssd.crash()
        assert pmem.recover_bytes(0, 8) == b"COMMITED"

    def test_unfenced_data_lost_on_crash(self, system, pmem):
        pmem.persist_store(0, 8, b"fenced!!")
        pmem.commit()
        pmem.persist_store(8, 8, b"unfenced")
        system.ssd.crash()
        assert pmem.recover_bytes(0, 8) == b"fenced!!"
        assert pmem.recover_bytes(8, 8) == b"\x00" * 8

    def test_unfenced_overwrite_rolls_back_to_old_value(self, system, pmem):
        pmem.persist_store(0, 8, b"version1")
        pmem.commit()
        pmem.persist_store(0, 8, b"version2")
        system.ssd.crash()
        assert pmem.recover_bytes(0, 8) == b"version1"

    def test_multiple_unfenced_writes_all_roll_back(self, system, pmem):
        pmem.persist_store(0, 4, b"AAAA")
        pmem.commit()
        pmem.persist_store(0, 4, b"BBBB")
        pmem.persist_store(4, 4, b"CCCC")
        pmem.persist_store(0, 4, b"DDDD")
        system.ssd.crash()
        assert pmem.recover_bytes(0, 4) == b"AAAA"
        assert pmem.recover_bytes(4, 4) == b"\x00" * 4

    def test_without_battery_everything_in_cache_dies(self):
        system = FlatFlash(small_config(battery_backed=False))
        pmem = create_pmem_region(system, num_pages=2)
        pmem.persist_store(0, 8, b"volatile")
        pmem.commit()
        system.ssd.crash()
        assert pmem.recover_bytes(0, 8) == b"\x00" * 8

    def test_recover_bytes_rejects_page_crossing(self, pmem):
        with pytest.raises(ValueError):
            pmem.recover_bytes(4_090, 16)


class TestFilePersistenceCounters:
    def test_counters_track_protocol(self, system, pmem):
        pmem.persist_store(0, 8)
        pmem.commit()
        counters = system.stats.counters()
        assert counters["pmem.persist_stores"] == 1
        assert counters["pmem.commits"] == 1
