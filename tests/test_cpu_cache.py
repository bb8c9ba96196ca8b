"""Tests for the processor cache model."""

import pytest

from repro.host.cpu_cache import CPUCache


def make_cache(lines=8, ways=2, line_size=64):
    return CPUCache(num_lines=lines, ways=ways, line_size=line_size)


def test_miss_then_hit():
    cache = make_cache()
    hit, _ = cache.access(0, is_write=False)
    assert not hit
    hit, _ = cache.access(0, is_write=False)
    assert hit


def test_same_line_different_offsets_hit():
    cache = make_cache()
    cache.access(0, is_write=False)
    hit, _ = cache.access(63, is_write=False)
    assert hit
    hit, _ = cache.access(64, is_write=False)
    assert not hit  # next line


def test_write_marks_dirty():
    cache = make_cache()
    cache.access(0, is_write=True)
    assert cache.is_dirty(0)
    cache.access(64, is_write=False)
    assert not cache.is_dirty(64)


def test_read_hit_preserves_dirty():
    cache = make_cache()
    cache.access(0, is_write=True)
    cache.access(0, is_write=False)
    assert cache.is_dirty(0)


def test_eviction_returns_dirty_victim_address():
    cache = make_cache(lines=2, ways=2)  # 1 set, 2 ways
    cache.access(0 * 64, is_write=True)
    cache.access(1 * 64, is_write=False)
    _hit, evicted = cache.access(2 * 64, is_write=False)
    assert evicted == 0  # dirty line 0 written back


def test_clean_eviction_returns_none():
    cache = make_cache(lines=2, ways=2)
    cache.access(0, is_write=False)
    cache.access(64, is_write=False)
    _hit, evicted = cache.access(128, is_write=False)
    assert evicted is None


def test_lru_within_set():
    cache = make_cache(lines=2, ways=2)
    cache.access(0, is_write=False)
    cache.access(64, is_write=False)
    cache.access(0, is_write=False)  # line 0 most recent
    cache.access(128, is_write=False)  # evicts line 1
    assert cache.contains(0)
    assert not cache.contains(64)


def test_hit_ratio():
    cache = make_cache()
    cache.access(0, is_write=False)
    cache.access(0, is_write=False)
    assert cache.hit_ratio == pytest.approx(0.5)


def test_writeback_counter():
    cache = make_cache(lines=2, ways=2)
    cache.access(0, is_write=True)
    cache.access(64, is_write=True)
    cache.access(128, is_write=False)
    cache.access(192, is_write=False)
    assert cache.stats.counters()["cpu_cache.writebacks"] == 2


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        CPUCache(num_lines=0)
    with pytest.raises(ValueError):
        CPUCache(num_lines=4, ways=8)
    with pytest.raises(ValueError):
        CPUCache(line_size=0)
