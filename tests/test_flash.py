"""Tests for the NAND flash array model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LatencyConfig
from repro.faults.plan import FaultConfig, FaultInjector
from repro.sim.sanitizers import FlashSanitizer
from repro.ssd.flash import PAGE_ERASED, PAGE_INVALID, PAGE_PROGRAMMED, FlashArray


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
    assert flash.page_state[0] == PAGE_ERASED


def test_program_then_read_round_trips_data():
    flash = make_flash()
    payload = bytes(range(256))
    flash.program(3, payload)
    data, _latency, _failed = flash.read(3)
    assert data == payload


def test_program_without_data_reads_zeros():
    flash = make_flash()
    flash.program(0)
    assert flash.read(0)[0] == b"\x00" * 256


def test_read_erased_page_returns_zeros():
    flash = make_flash()
    assert flash.read(5)[0] == b"\x00" * 256


def test_program_costs_program_latency():
    flash = make_flash()
    assert flash.program(0) == (LatencyConfig().flash_program_page_ns, False)


def test_read_costs_read_latency():
    flash = make_flash()
    _data, latency, failed = flash.read(0)
    assert latency == LatencyConfig().flash_read_page_ns
    assert not failed


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
    assert flash.page_state[0] == PAGE_INVALID


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
        assert flash.page_state[offset] == PAGE_ERASED


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
    assert flash.erase_counts[0] == 1
    assert flash.max_erase_count == 1
    assert flash.total_erases == 1


def test_erase_clears_data():
    flash = make_flash(pages=2)
    flash.program(0, bytes(256))
    flash.invalidate(0)
    flash.erase(0)
    flash.program(0)  # must be programmable again
    assert flash.read(0)[0] == b"\x00" * 256


def test_block_page_accounting():
    flash = make_flash(pages=4)
    flash.program(0)
    flash.program(1)
    flash.invalidate(1)
    assert flash.valid_pages[0] == 1
    assert flash.invalid_pages[0] == 1
    assert flash.page_state[:4].count(PAGE_ERASED) == 2


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
    assert flash.page_state[3] == PAGE_PROGRAMMED
    assert flash.valid_pages[0] == 1


def test_program_counter():
    flash = make_flash()
    flash.program(0)
    flash.program(1)
    assert flash.total_programs == 2


def test_no_data_tracking_mode():
    flash = make_flash(track_data=False)
    flash.program(0, None)
    assert flash.read(0)[0] is None


# --------------------------------------------------------------------- #
# The flat page-state table: per-block counts stay in step with it
# --------------------------------------------------------------------- #

BLOCKS, PAGES = 4, 4


def make_sanitized(faults=None):
    return FlashArray(
        BLOCKS, PAGES, 64, LatencyConfig(), sanitizer=FlashSanitizer(), faults=faults
    )


def assert_counts_match_table(flash):
    for block in range(BLOCKS):
        states = flash.page_state[block * PAGES : (block + 1) * PAGES]
        assert flash.valid_pages[block] == states.count(PAGE_PROGRAMMED)
        assert flash.invalid_pages[block] == states.count(PAGE_INVALID)


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["program", "invalidate", "erase"]),
            st.integers(0, BLOCKS * PAGES - 1),
        ),
        max_size=80,
    ),
    program_fails=st.sets(st.integers(0, 40), max_size=6),
    erase_fails=st.sets(st.integers(0, 12), max_size=2),
    wear_limit=st.sampled_from([0, 3]),
)
def test_counts_follow_table_through_faults_and_restore(
    ops, program_fails, erase_fails, wear_limit
):
    forced = {"nand.program": tuple(program_fails), "nand.erase": tuple(erase_fails)}
    flash = make_sanitized(
        FaultInjector(FaultConfig(nand_wear_limit=wear_limit, forced=forced))
    )
    erased_clean = set()  # the sanitizer rejects a second erase of these
    for op, ppn in ops:
        block = ppn // PAGES
        state = flash.page_state[ppn]
        if op == "program" and state == PAGE_ERASED and not flash.bad[block]:
            flash.program(ppn)
            erased_clean.discard(block)
        elif op == "invalidate" and state == PAGE_PROGRAMMED:
            flash.invalidate(ppn)
        elif (
            op == "erase"
            and not flash.bad[block]
            and not flash.valid_pages[block]
            and block not in erased_clean
        ):
            _latency, failed = flash.erase(block)
            if not failed:
                erased_clean.add(block)
    assert_counts_match_table(flash)

    restored = make_sanitized()
    restored.restore_state(flash.snapshot_state())
    assert restored.page_state == flash.page_state
    assert_counts_match_table(restored)
    assert restored.erase_counts == flash.erase_counts
    assert restored.bad == flash.bad

    # The restored array and its resynced sanitizer accept further work.
    for block in range(BLOCKS):
        if restored.bad[block]:
            continue
        first = block * PAGES
        for ppn in range(first, first + PAGES):
            if restored.page_state[ppn] == PAGE_PROGRAMMED:
                restored.invalidate(ppn)
        assert not restored.erase(block)[1]
        assert not restored.program(first)[1]
        assert restored.erase_counts[block] == flash.erase_counts[block] + 1
    assert_counts_match_table(restored)
