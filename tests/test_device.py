"""Tests for the byte-addressable SSD device."""

import pytest

from repro.config import small_config
from repro.ssd.device import ByteAddressableSSD
from repro.units import HostPage


@pytest.fixture
def device():
    return ByteAddressableSSD(small_config())


@pytest.fixture
def mapped(device):
    host_page, _cost = device.map_page(0)
    return device, host_page


class TestMapping:
    def test_map_page_returns_host_page_and_cost(self, device):
        host_page, cost = device.map_page(0)
        assert cost > 0  # first touch programs flash
        assert device.resolve_lpn(host_page) == 0

    def test_map_same_page_twice_is_stable(self, device):
        first, _ = device.map_page(0)
        second, cost = device.map_page(0)
        assert first == second
        assert cost == 0

    def test_host_merged_mode_exposes_ppns(self, device):
        host_page, _ = device.map_page(5)
        # The BAR page number *is* the ppn — asserted through the
        # sanctioned pun cast.
        assert HostPage(device.ftl.lookup(5)) == host_page

    def test_device_ftl_mode_exposes_lpns(self):
        device = ByteAddressableSSD(small_config(), host_merged_ftl=False)
        host_page, _ = device.map_page(5)
        assert host_page == 5

    def test_bar_window_spans_flash(self, device):
        assert device.bar.size == device.flash.total_pages * 4096


class TestMMIO:
    def test_read_miss_then_hit(self, mapped):
        device, page = mapped
        miss = device.mmio_read(page, 0, 64)
        assert not miss.cache_hit
        hit = device.mmio_read(page, 0, 64)
        assert hit.cache_hit
        assert hit.latency_ns < miss.latency_ns

    def test_write_then_read_round_trips(self, mapped):
        device, page = mapped
        device.mmio_write(page, 100, 4, b"abcd")
        result = device.mmio_read(page, 100, 4)
        assert result.data == b"abcd"

    def test_write_hit_cost_is_posted(self, mapped):
        device, page = mapped
        device.mmio_read(page, 0, 64)  # fill
        result = device.mmio_write(page, 0, 64)
        assert result.latency_ns == device.config.latency.mmio_write_cacheline_ns

    def test_read_hit_cost_is_one_round_trip(self, mapped):
        device, page = mapped
        device.mmio_read(page, 0, 64)
        result = device.mmio_read(page, 64, 64)
        assert result.latency_ns == device.config.latency.mmio_read_cacheline_ns

    def test_wrong_data_length_rejected(self, mapped):
        device, page = mapped
        with pytest.raises(ValueError):
            device.mmio_write(page, 0, 8, b"too long for size")

    def test_atomic_marks_durable(self, mapped):
        device, page = mapped
        device.mmio_atomic(page, 0, 8)
        assert device.stats.counters()["ssd.durable_writes"] == 1

    def test_unmapped_host_page_raises(self, device):
        with pytest.raises(KeyError):
            device.mmio_read(12345, 0, 64)


class TestPromotionInterface:
    def test_read_page_for_promotion_returns_fresh_data(self, mapped):
        device, page = mapped
        device.mmio_write(page, 0, 4, b"wxyz")
        data, dirty, cost = device.read_page_for_promotion(page)
        assert data[:4] == b"wxyz"
        assert dirty  # the cache copy was dirty
        assert cost > 0

    def test_promotion_invalidates_cache_copy(self, mapped):
        device, page = mapped
        device.mmio_read(page, 0, 64)
        device.read_page_for_promotion(page)
        assert not device.cache.contains(0)

    def test_clean_promotion_reports_not_dirty(self, mapped):
        device, page = mapped
        device.mmio_read(page, 0, 64)
        _data, dirty, _cost = device.read_page_for_promotion(page)
        assert not dirty

    def test_write_page_returns_new_location(self, mapped):
        device, page = mapped
        new_page, cost = device.write_page(0, b"\x07" * 4096)
        assert new_page != page  # out-of-place
        assert cost > 0
        assert device.resolve_lpn(page) == 0  # old address still resolves


class TestRemap:
    def test_rewrite_creates_remap_entry(self, mapped):
        device, old_page = mapped
        device.write_page(0, None)
        updates, cost = device.drain_remaps()
        assert old_page in updates
        assert cost > 0

    def test_drain_clears(self, mapped):
        device, _page = mapped
        device.write_page(0, None)
        device.drain_remaps()
        updates, cost = device.drain_remaps()
        assert updates == {}
        assert cost == 0

    def test_old_address_resolves_through_chain(self, mapped):
        device, original = mapped
        device.write_page(0, None)
        device.write_page(0, None)
        assert device.resolve_lpn(original) == 0


class TestBlockInterface:
    def test_block_read_returns_cached_fresh_copy(self, mapped):
        device, page = mapped
        device.mmio_write(page, 0, 4, b"hot!")
        data, _cost = device.read_page_block(0)
        assert data[:4] == b"hot!"

    def test_device_ftl_mode_charges_lookup(self):
        device = ByteAddressableSSD(small_config(), host_merged_ftl=False)
        device.map_page(0)
        _data, cost = device.read_page_block(0)
        assert cost >= device.config.latency.ftl_lookup_ns

    def test_block_write_invalidates_cache(self, mapped):
        device, page = mapped
        device.mmio_read(page, 0, 64)
        device.write_page_block(0, None)
        assert not device.cache.contains(0)


class TestPersistenceDomain:
    def test_crash_preserves_fenced_writes(self, mapped):
        device, page = mapped
        device.mmio_write(page, 0, 4, b"save", persist=True)
        device.verify_read()
        device.crash()
        assert device.recover_read(0)[:4] == b"save"

    def test_crash_drops_unfenced_writes(self, mapped):
        device, page = mapped
        device.mmio_write(page, 0, 4, b"good", persist=True)
        device.verify_read()
        device.mmio_write(page, 0, 4, b"BAD!", persist=True)
        device.crash()
        assert device.recover_read(0)[:4] == b"good"

    def test_crash_without_battery_loses_cache(self):
        config = small_config(battery_backed=False)
        device = ByteAddressableSSD(config)
        page, _ = device.map_page(0)
        device.mmio_write(page, 0, 4, b"lost", persist=True)
        device.verify_read()
        device.crash()
        assert device.recover_read(0)[:4] == b"\x00\x00\x00\x00"

    def test_non_persist_dirty_data_survives_with_battery(self, mapped):
        device, page = mapped
        device.mmio_write(page, 8, 4, b"norm")
        device.crash()
        assert device.recover_read(0)[8:12] == b"norm"


class TestBackgroundAccounting:
    def test_dirty_cache_eviction_charged_to_background(self):
        config = small_config()
        config.geometry.ssd_cache_pages = 4
        config.geometry.ssd_cache_ways = 2
        device = ByteAddressableSSD(config.validate())
        pages = []
        for lpn in range(6):
            page, _ = device.map_page(lpn)
            pages.append(page)
        for page in pages:
            device.mmio_write(page, 0, 8)
        assert device.take_background_ns() > 0
        assert device.take_background_ns() == 0  # drained


class TestSpanValidation:
    def test_read_beyond_page_rejected(self, mapped):
        device, page = mapped
        with pytest.raises(ValueError):
            device.mmio_read(page, 4_090, 16)

    def test_write_beyond_page_rejected(self, mapped):
        device, page = mapped
        with pytest.raises(ValueError):
            device.mmio_write(page, 4_095, 8)

    def test_negative_offset_rejected(self, mapped):
        device, page = mapped
        with pytest.raises(ValueError):
            device.mmio_read(page, -1, 8)

    def test_zero_size_rejected(self, mapped):
        device, page = mapped
        with pytest.raises(ValueError):
            device.mmio_read(page, 0, 0)

    def test_full_page_span_allowed(self, mapped):
        device, page = mapped
        result = device.mmio_read(page, 0, 4_096)
        assert len(result.data) == 4_096
