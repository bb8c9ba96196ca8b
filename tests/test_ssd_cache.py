"""Tests for the SSD-Cache (set-associative, RRIP, dirty tracking)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ssd.ssd_cache import LRUSet, SSDCache


def make_cache(pages=16, ways=4, page_size=64, policy="rrip", track_data=True):
    return SSDCache(
        num_pages=pages,
        ways=ways,
        page_size=page_size,
        track_data=track_data,
        policy=policy,
    )


def test_shape():
    cache = make_cache(pages=16, ways=4)
    assert cache.num_sets == 4
    assert cache.capacity_pages == 16


def test_insert_then_lookup_hits():
    cache = make_cache()
    cache.insert(5, b"\xab" * 64)
    entry = cache.lookup(5)
    assert entry is not None
    assert bytes(entry.data) == b"\xab" * 64


def test_lookup_miss_returns_none_and_counts():
    cache = make_cache()
    assert cache.lookup(9) is None
    assert cache.hit_ratio == 0.0


def test_hit_ratio_tracks():
    cache = make_cache()
    cache.insert(1, None)
    cache.lookup(1)
    cache.lookup(2)
    assert cache.hit_ratio == pytest.approx(0.5)


def test_peek_does_not_affect_stats():
    cache = make_cache()
    cache.insert(1, None)
    cache.peek(1)
    cache.peek(3)
    assert cache.stats.ratio("ssd_cache.hits").total == 0


def test_double_insert_rejected():
    cache = make_cache()
    cache.insert(1, None)
    with pytest.raises(ValueError):
        cache.insert(1, None)


def test_eviction_when_set_full():
    cache = make_cache(pages=4, ways=2)  # 2 sets
    evicted = []
    cache.add_evict_hook(lambda entry: evicted.append(entry.lpn))
    # lpns 0, 2, 4 all map to set 0; third insert evicts one.
    cache.insert(0, None)
    cache.insert(2, None)
    entry = cache.insert(4, None)
    assert entry.lpn == 4
    assert cache.peek(4) is entry  # insert returns the installed entry
    assert len(evicted) == 1
    assert evicted[0] in (0, 2)
    assert not cache.contains(evicted[0])
    assert cache.occupancy == 2


def test_eviction_hooks_fire():
    cache = make_cache(pages=4, ways=2)
    evicted = []
    cache.add_evict_hook(lambda entry: evicted.append(entry.lpn))
    cache.insert(0, None)
    cache.insert(2, None)
    cache.insert(4, None)
    assert len(evicted) == 1


def test_dirty_eviction_counted():
    cache = make_cache(pages=4, ways=2)
    cache.insert(0, None, dirty=True)
    cache.insert(2, None, dirty=True)
    cache.insert(4, None)
    assert cache.stats.counters()["ssd_cache.dirty_evictions"] == 1


def test_invalidate_removes_entry():
    cache = make_cache()
    cache.insert(3, None)
    entry = cache.invalidate(3)
    assert entry is not None
    assert not cache.contains(3)
    assert cache.invalidate(3) is None


def test_dirty_entries_listing():
    cache = make_cache()
    cache.insert(1, None, dirty=True)
    cache.insert(2, None)
    cache.insert(3, None, dirty=True)
    assert sorted(e.lpn for e in cache.dirty_entries()) == [1, 3]


def test_clear_empties_without_hooks():
    cache = make_cache()
    fired = []
    cache.add_evict_hook(lambda entry: fired.append(entry))
    cache.insert(1, None)
    cache.insert(2, None)
    cache.clear()
    assert cache.occupancy == 0
    assert not fired


def test_wrong_page_size_rejected():
    cache = make_cache(page_size=64)
    with pytest.raises(ValueError):
        cache.insert(0, b"\x00" * 32)


def test_no_data_mode():
    cache = make_cache(track_data=False)
    cache.insert(0, None)
    assert cache.peek(0).data is None


def test_lru_policy_evicts_least_recent():
    cache = make_cache(pages=2, ways=2, policy="lru")  # 1 set
    cache.insert(0, None)
    cache.insert(1, None)
    cache.lookup(0)  # 0 is now more recent
    cache.insert(2, None)
    assert not cache.contains(1)  # the least recent page was the victim
    assert cache.contains(0)


def test_lru_set_prefers_free_way():
    lru = LRUSet(2)
    lru.on_insert(0)
    assert lru.select_victim([True, False]) == 1


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        make_cache(policy="fifo")


def test_rrip_scan_resistance_keeps_rehit_page():
    cache = make_cache(pages=4, ways=4)  # fully associative single set
    cache.insert(0, None)
    cache.lookup(0)  # re-referenced: RRPV 0
    for lpn in range(1, 10):
        cache.insert(lpn, None)
        cache.lookup(lpn)  # a re-use, but after insertion
    # The steadily re-hit page should still be resident more often than
    # not; with RRIP the single-scan pages age out first.
    cache2 = make_cache(pages=4, ways=4)
    cache2.insert(0, None)
    for _ in range(6):
        cache2.lookup(0)
    for lpn in range(1, 4):
        cache2.insert(lpn, None)
    assert cache2.contains(0)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(lpns):
    cache = make_cache(pages=8, ways=2)
    for lpn in lpns:
        if not cache.contains(lpn):
            cache.insert(lpn, None)
        else:
            cache.lookup(lpn)
    assert cache.occupancy <= cache.capacity_pages
    # The index and the entry array agree.
    listed = {entry.lpn for row in cache._entries for entry in row if entry}
    assert listed == set(cache._where)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)), min_size=1, max_size=150
    )
)
def test_cached_data_matches_model(ops):
    """Whatever survives in the cache must hold the latest written bytes."""
    cache = make_cache(pages=8, ways=4, page_size=16)
    model = {}
    for lpn, value in ops:
        payload = bytes([value]) * 16
        if cache.contains(lpn):
            entry = cache.peek(lpn)
            entry.data[:] = payload
            entry.dirty = True
        else:
            cache.insert(lpn, payload, dirty=True)
        model[lpn] = payload
    for row in cache._entries:
        for entry in row:
            if entry is not None:
                assert bytes(entry.data) == model[entry.lpn]
