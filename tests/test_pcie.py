"""Tests for the PCIe interconnect model."""

import pytest

from repro.config import LatencyConfig
from repro.interconnect.pcie import BarWindow, PCIeLink


@pytest.fixture
def link():
    return PCIeLink(LatencyConfig(), cacheline_size=64)


class TestBarWindow:
    def test_contains(self):
        bar = BarWindow(base=0x1000, size=0x100)
        assert bar.contains(0x1000)
        assert bar.contains(0x10FF)
        assert not bar.contains(0x1100)
        assert not bar.contains(0xFFF)

    def test_offset_of(self):
        bar = BarWindow(base=0x1000, size=0x100)
        assert bar.offset_of(0x1010) == 0x10

    def test_offset_outside_raises(self):
        bar = BarWindow(base=0x1000, size=0x100)
        with pytest.raises(ValueError):
            bar.offset_of(0x2000)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            BarWindow(base=-1, size=10)
        with pytest.raises(ValueError):
            BarWindow(base=0, size=0)

    def test_end(self):
        assert BarWindow(base=100, size=50).end == 150


class TestPCIeLink:
    def test_read_one_line_costs_table2_number(self, link):
        assert link.mmio_read_cost(64) == 4_800

    def test_read_sub_line_rounds_up(self, link):
        assert link.mmio_read_cost(8) == 4_800

    def test_read_multiple_lines_scales(self, link):
        assert link.mmio_read_cost(256) == 4 * 4_800

    def test_posted_write_is_cheap(self, link):
        assert link.mmio_write_cost(64) == 600

    def test_write_traffic_counted(self, link):
        link.mmio_write_cost(128)
        assert link.bytes_to_device == 128

    def test_read_traffic_counted(self, link):
        link.mmio_read_cost(64)
        link.mmio_read_cost(64)
        assert link.bytes_from_device == 128

    def test_verify_read_cost(self, link):
        assert link.verify_read_cost() == 4_800

    def test_dma_page_cost(self, link):
        assert link.dma_to_host_cost(4_096) == 3_000

    def test_dma_larger_than_page_scales(self, link):
        assert link.dma_from_host_cost(8_192) == 6_000

    def test_zero_size_rejected(self, link):
        with pytest.raises(ValueError):
            link.mmio_read_cost(0)

    @pytest.mark.parametrize("size", [0, -8])
    @pytest.mark.parametrize("cost", ["dma_to_host_cost", "dma_from_host_cost"])
    def test_dma_bad_size_rejected_before_counting(self, link, cost, size):
        """Both DMA directions apply the transfer-size rule before any
        ``pcie.*`` counter moves."""
        before = link.stats.counters()
        with pytest.raises(ValueError, match="transfer size must be > 0"):
            getattr(link, cost)(size)
        assert link.stats.counters() == before

    def test_invalid_cacheline_size_rejected(self):
        with pytest.raises(ValueError):
            PCIeLink(LatencyConfig(), cacheline_size=0)

    def test_stats_counters_exposed(self, link):
        link.mmio_read_cost(64)
        link.mmio_write_cost(64)
        counters = link.stats.counters()
        assert counters["pcie.mmio_reads"] == 1
        assert counters["pcie.mmio_writes"] == 1
