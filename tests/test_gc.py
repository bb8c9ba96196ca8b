"""Tests for the read-modify-write garbage collector with cache folding."""

from repro.config import LatencyConfig
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.ssd_cache import SSDCache


def make_stack(blocks=8, pages=4, page_size=64, cache_pages=4):
    flash = FlashArray(blocks, pages, page_size, LatencyConfig(), track_data=True)
    ftl = PageFTL(flash, overprovision=0.25)
    cache = SSDCache(cache_pages, ways=2, page_size=page_size, track_data=True)
    gc = GarbageCollector(flash, ftl, cache)
    return flash, ftl, cache, gc


def test_flush_entry_writes_back_and_cleans():
    flash, ftl, cache, gc = make_stack()
    ftl.write(0, b"\x00" * 64)
    cache.insert(0, b"\xaa" * 64, dirty=True)
    cost = gc.flush_entry(cache.peek(0))
    assert cost > 0
    assert not cache.peek(0).dirty
    _ppn, data, _ = ftl.read(0)
    assert data == b"\xaa" * 64


def test_flush_clean_entry_is_free():
    flash, ftl, cache, gc = make_stack()
    ftl.write(0, None)
    cache.insert(0, b"\x00" * 64, dirty=False)
    assert gc.flush_entry(cache.peek(0)) == 0


def test_flush_dirty_flushes_everything():
    flash, ftl, cache, gc = make_stack()
    for lpn in range(3):
        ftl.write(lpn, b"\x00" * 64)
        cache.insert(lpn, bytes([lpn + 1]) * 64, dirty=True)
    gc.flush_dirty()
    assert not cache.dirty_entries()
    for lpn in range(3):
        _ppn, data, _ = ftl.read(lpn)
        assert data == bytes([lpn + 1]) * 64


def test_gc_folds_dirty_cache_pages_during_relocation():
    flash, ftl, cache, gc = make_stack(blocks=8, pages=4)
    # Block 0: lpn 0 live, lpns 1-3 invalidated by rewrites.
    for lpn in range(4):
        ftl.write(lpn, b"\x00" * 64)
    for lpn in range(1, 4):
        ftl.write(lpn, b"\x11" * 64)
    cache.insert(0, b"\xee" * 64, dirty=True)
    ftl.collect_garbage()
    # The relocated flash copy carries the cache's newer bytes and the
    # cache entry is now clean.
    _ppn, data, _ = ftl.read(0)
    assert data == b"\xee" * 64
    assert not cache.peek(0).dirty
    assert gc.stats.counters()["gc.cache_pages_folded"] == 1


def test_background_time_accumulates():
    flash, ftl, cache, gc = make_stack()
    ftl.write(0, None)
    cache.insert(0, None, dirty=True)
    gc.flush_dirty()
    assert gc.stats.counters()["gc.background_ns"] > 0
