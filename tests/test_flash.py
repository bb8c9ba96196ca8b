"""Tests for the NAND flash array model."""

import pytest

from repro.config import LatencyConfig
from repro.ssd.flash import FlashArray, FlashPageState


def make_flash(blocks=4, pages=8, page_size=256, track_data=True):
    return FlashArray(
        num_blocks=blocks,
        pages_per_block=pages,
        page_size=page_size,
        latency=LatencyConfig(),
        track_data=track_data,
    )


def test_geometry():
    flash = make_flash(blocks=4, pages=8)
    assert flash.total_pages == 32


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        make_flash(blocks=0)


def test_pages_start_erased():
    flash = make_flash()
    assert flash.state_of(0) is FlashPageState.ERASED


def test_program_then_read_round_trips_data():
    flash = make_flash()
    payload = bytes(range(256))
    flash.program(3, payload)
    op = flash.read(3)
    assert op.data == payload


def test_program_without_data_reads_zeros():
    flash = make_flash()
    flash.program(0)
    assert flash.read(0).data == b"\x00" * 256


def test_read_erased_page_returns_zeros():
    flash = make_flash()
    assert flash.read(5).data == b"\x00" * 256


def test_program_costs_program_latency():
    flash = make_flash()
    assert flash.program(0).latency_ns == LatencyConfig().flash_program_page_ns


def test_read_costs_read_latency():
    flash = make_flash()
    assert flash.read(0).latency_ns == LatencyConfig().flash_read_page_ns


def test_program_twice_without_erase_raises():
    flash = make_flash()
    flash.program(0)
    with pytest.raises(RuntimeError):
        flash.program(0)


def test_program_wrong_size_rejected():
    flash = make_flash()
    with pytest.raises(ValueError):
        flash.program(0, b"short")


def test_invalidate_marks_page():
    flash = make_flash()
    flash.program(0)
    flash.invalidate(0)
    assert flash.state_of(0) is FlashPageState.INVALID


def test_invalidate_non_programmed_raises():
    flash = make_flash()
    with pytest.raises(RuntimeError):
        flash.invalidate(0)


def test_erase_returns_block_to_erased():
    flash = make_flash(pages=4)
    for offset in range(4):
        flash.program(offset)
        flash.invalidate(offset)
    flash.erase(0)
    for offset in range(4):
        assert flash.state_of(offset) is FlashPageState.ERASED


def test_erase_with_valid_pages_raises():
    flash = make_flash()
    flash.program(0)
    with pytest.raises(RuntimeError):
        flash.erase(0)


def test_erase_increments_wear():
    flash = make_flash(pages=2)
    flash.program(0)
    flash.invalidate(0)
    flash.erase(0)
    assert flash.blocks[0].erase_count == 1
    assert flash.max_erase_count == 1
    assert flash.total_erases == 1


def test_erase_clears_data():
    flash = make_flash(pages=2)
    flash.program(0, bytes(256))
    flash.invalidate(0)
    flash.erase(0)
    flash.program(0)  # must be programmable again
    assert flash.read(0).data == b"\x00" * 256


def test_block_page_accounting():
    flash = make_flash(pages=4)
    flash.program(0)
    flash.program(1)
    flash.invalidate(1)
    block = flash.blocks[0]
    assert block.valid_pages == 1
    assert block.invalid_pages == 1
    assert block.erased_pages == 2


def test_out_of_range_ppn_rejected():
    flash = make_flash(blocks=1, pages=4)
    with pytest.raises(ValueError):
        flash.read(4)
    with pytest.raises(ValueError):
        flash.erase(1)
    flash.program(3)
    for ppn in (4, -1):
        with pytest.raises(ValueError):
            flash.program(ppn)
        with pytest.raises(ValueError):
            flash.invalidate(ppn)
    # Neither rejected call touched page 3 (what -1 would wrap to).
    assert flash.state_of(3) is FlashPageState.PROGRAMMED
    assert flash.blocks[0].valid_pages == 1


def test_program_counter():
    flash = make_flash()
    flash.program(0)
    flash.program(1)
    assert flash.total_programs == 2


def test_no_data_tracking_mode():
    flash = make_flash(track_data=False)
    flash.program(0, None)
    assert flash.read(0).data is None
