"""Tests for the host bridge: the BAR window and the PLB."""

import pytest

from repro.host.bridge import HostBridge
from repro.interconnect.pcie import BarWindow


@pytest.fixture
def bridge():
    return HostBridge(
        dram_bytes=16 * 4_096,
        ssd_bar=BarWindow(base=1 << 40, size=64 * 4_096),
        page_size=4_096,
        plb_entries=8,
    )


def test_ssd_addr_builder(bridge):
    assert bridge.ssd_addr(3) == (1 << 40) + 3 * 4_096
    with pytest.raises(ValueError):
        bridge.ssd_addr(64)


def test_bar_overlapping_dram_rejected():
    with pytest.raises(ValueError):
        HostBridge(
            dram_bytes=1 << 41,
            ssd_bar=BarWindow(base=1 << 40, size=4_096),
            page_size=4_096,
            plb_entries=4,
        )


def test_plb_attached(bridge):
    assert bridge.plb.capacity == 8
