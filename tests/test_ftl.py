"""Tests for the page-level FTL: out-of-place writes, GC, remap hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LatencyConfig
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import OutOfSpaceError, PageFTL


def make_ftl(blocks=8, pages=8, overprovision=0.25, page_size=64):
    flash = FlashArray(
        num_blocks=blocks,
        pages_per_block=pages,
        page_size=page_size,
        latency=LatencyConfig(),
        track_data=True,
    )
    return FlashArray, flash, PageFTL(flash, overprovision=overprovision)


def test_exported_capacity_leaves_spares():
    _cls, flash, ftl = make_ftl(blocks=8, pages=8, overprovision=0.25)
    assert ftl.exported_pages <= (8 - 2) * 8
    assert ftl.exported_pages > 0


def test_map_page_programs_once():
    _cls, flash, ftl = make_ftl()
    ppn, cost = ftl.map_page(0)
    assert cost > 0
    again, cost2 = ftl.map_page(0)
    assert again == ppn
    assert cost2 == 0


def test_write_is_out_of_place():
    _cls, flash, ftl = make_ftl()
    first, _ = ftl.write(0, b"\x01" * 64)
    second, _ = ftl.write(0, b"\x02" * 64)
    assert first != second
    assert ftl.lookup(0) == second


def test_write_invalidates_old_page():
    _cls, flash, ftl = make_ftl()
    first, _ = ftl.write(0, b"\x01" * 64)
    ftl.write(0, b"\x02" * 64)
    assert flash.state_of(first).value == "invalid"


def test_read_returns_latest_data():
    _cls, flash, ftl = make_ftl()
    ftl.write(5, b"\xaa" * 64)
    ftl.write(5, b"\xbb" * 64)
    _ppn, data, _cost = ftl.read(5)
    assert data == b"\xbb" * 64


def test_read_unmapped_raises():
    _cls, flash, ftl = make_ftl()
    with pytest.raises(KeyError):
        ftl.read(3)


def test_lpn_out_of_range_rejected():
    _cls, flash, ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.write(ftl.exported_pages, None)
    # On every lpn entry point: a ValueError, not an unmapped lpn's KeyError.
    for lpn in (ftl.exported_pages, -1):
        with pytest.raises(ValueError):
            ftl.write(lpn, None)
        with pytest.raises(ValueError):
            ftl.read(lpn)
        with pytest.raises(ValueError):
            ftl.lookup(lpn)


def test_reverse_lookup():
    _cls, flash, ftl = make_ftl()
    ppn, _ = ftl.write(7, None)
    assert ftl.lpn_of(ppn) == 7
    assert ftl.lpn_of(ppn + 1) is None


def test_gc_triggers_and_reclaims_space():
    _cls, flash, ftl = make_ftl(blocks=6, pages=4, overprovision=0.3)
    # Overwrite a small working set until GC must have run.
    for round_index in range(20):
        for lpn in range(4):
            ftl.write(lpn, bytes([round_index]) * 64)
    assert flash.total_erases > 0
    # Data still correct after all that GC.
    for lpn in range(4):
        _ppn, data, _ = ftl.read(lpn)
        assert data == bytes([19]) * 64


def test_gc_fires_relocate_hooks():
    _cls, flash, ftl = make_ftl(blocks=6, pages=4, overprovision=0.3)
    moves = []
    ftl.add_relocate_hook(lambda lpn, old, new: moves.append((lpn, old, new)))
    for round_index in range(20):
        for lpn in range(4):
            ftl.write(lpn, None)
    assert moves  # overwrites and/or GC moved live pages
    for lpn, old, new in moves:
        assert old != new


def test_write_amplification_starts_at_one():
    _cls, flash, ftl = make_ftl()
    ftl.write(0, None)
    assert ftl.write_amplification == 1.0


def test_write_amplification_grows_with_gc():
    _cls, flash, ftl = make_ftl(blocks=6, pages=4, overprovision=0.3)
    # Cold data interleaved with hot churn: victim blocks carry live pages
    # that GC must relocate, which is what drives amplification above 1.
    cold = list(range(8, 14))
    hot = list(range(3))
    for index, lpn in enumerate(cold):
        ftl.write(lpn, None)
        for _ in range(3):
            ftl.write(hot[index % len(hot)], None)
    for _ in range(20):
        for lpn in hot:
            ftl.write(lpn, None)
    assert ftl.write_amplification > 1.0


def test_out_of_space_when_capacity_exhausted():
    _cls, flash, ftl = make_ftl(blocks=4, pages=4, overprovision=0.0)
    with pytest.raises(OutOfSpaceError):
        # Map every exported page (all valid, no invalid pages to reclaim),
        # then keep writing fresh pages with nothing reclaimable.
        for lpn in range(ftl.exported_pages):
            ftl.map_page(lpn)
        for _ in range(100):
            for lpn in range(ftl.exported_pages):
                ftl.map_page(lpn)
        raise OutOfSpaceError  # pragma: no cover - loop must raise first


def test_page_source_folds_fresh_data_during_gc():
    _cls, flash, ftl = make_ftl(blocks=6, pages=4, overprovision=0.3)
    fresh = {0: b"\xff" * 64}
    ftl.page_source = lambda lpn: fresh.get(lpn)
    # Fill block 0 with lpn 0 plus three victims-to-be, then invalidate the
    # three: block 0 becomes the greedy GC victim with lpn 0 still live.
    for lpn in range(4):
        ftl.write(lpn, b"\x00" * 64)
    for lpn in range(1, 4):
        ftl.write(lpn, b"\x11" * 64)
    ftl.collect_garbage()
    _ppn, data, _ = ftl.read(0)
    assert data == b"\xff" * 64  # GC picked up the cache's fresher copy


def test_select_victim_prefers_most_invalid():
    _cls, flash, ftl = make_ftl(blocks=6, pages=4, overprovision=0.0)
    # Fill two blocks fully: lpns 0..7 land in blocks 0 and 1.
    for lpn in range(8):
        ftl.write(lpn, None)
    # Invalidate 3 pages of block 0 (rewrite lpns 0-2), 1 page of block 1;
    # plenty of free blocks remain, so no GC interferes.
    for lpn in (0, 1, 2, 4):
        ftl.write(lpn, None)
    victim = ftl.select_victim()
    assert victim == 0


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 255)), min_size=1, max_size=200))
def test_ftl_behaves_like_a_dict(ops):
    """Random overwrites: the FTL must always read back the latest value."""
    _cls, flash, ftl = make_ftl(blocks=8, pages=8, overprovision=0.25, page_size=64)
    model = {}
    for lpn, value in ops:
        payload = bytes([value]) * 64
        ftl.write(lpn, payload)
        model[lpn] = payload
    for lpn, expected in model.items():
        _ppn, data, _ = ftl.read(lpn)
        assert data == expected


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=300))
def test_mapping_and_reverse_stay_consistent(lpns):
    _cls, flash, ftl = make_ftl(blocks=8, pages=8, overprovision=0.25)
    for lpn in lpns:
        ftl.write(lpn, None)
    assert len(ftl.mapping) == len(ftl.reverse)
    for lpn, ppn in ftl.mapping.items():
        assert ftl.reverse[ppn] == lpn
        assert flash.state_of(ppn).value == "programmed"
