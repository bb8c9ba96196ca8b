"""Device-level property tests: the SSD is a correct store under churn.

These drive the ByteAddressableSSD directly (below the memory systems)
with arbitrary interleavings of MMIO reads/writes, page writes, destages
and GC, checking byte-exact contents against a dict model.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.ssd.device import ByteAddressableSSD
from repro.ssd.flash import PAGE_PROGRAMMED

LPNS = 12
PAGE = 4_096


def make_device(cache_pages=8):
    config = small_config()
    config.geometry.ssd_cache_pages = cache_pages
    config.geometry.ssd_cache_ways = 4
    return ByteAddressableSSD(config.validate())


operations = st.lists(
    st.tuples(
        st.sampled_from(["mmio_write", "mmio_read", "page_write", "flush", "gc"]),
        st.integers(0, LPNS - 1),
        st.integers(0, PAGE - 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=120,
)


@settings(deadline=None, max_examples=30)
@given(operations)
def test_device_matches_dict_model(ops):
    device = make_device()
    pages = {}
    for lpn in range(LPNS):
        device.map_page(lpn)
        pages[lpn] = bytearray(PAGE)
    for op, lpn, offset, value in ops:
        host_page = device.host_page_of(lpn)
        if op == "mmio_write":
            payload = bytes([value]) * 16
            device.mmio_write(host_page, offset, 16, payload)
            pages[lpn][offset : offset + 16] = payload
        elif op == "mmio_read":
            data, _cost = device.mmio_read(host_page, offset, 16)
            assert data == bytes(pages[lpn][offset : offset + 16])
        elif op == "page_write":
            payload = bytes([value]) * PAGE
            device.write_page_block(lpn, payload)
            pages[lpn][:] = payload
        elif op == "flush":
            device.gc.flush_dirty()
        elif op == "gc" and device.ftl.select_victim() is not None:
            try:
                device.ftl.collect_garbage()
            except Exception:  # noqa: BLE001 - OutOfSpace acceptable here
                pass
    # Final check: every page reads back its model bytes.
    for lpn in range(LPNS):
        host_page = device.host_page_of(lpn)
        data, _cost = device.mmio_read(host_page, 0, PAGE)
        assert data == bytes(pages[lpn]), f"lpn {lpn} diverged"


@settings(deadline=None, max_examples=20)
@given(
    st.lists(st.tuples(st.integers(0, LPNS - 1), st.integers(0, 255)), min_size=5, max_size=80),
)
def test_heavy_overwrite_churn_with_tiny_cache(writes):
    """A 4-page SSD-Cache forces constant eviction/destage; GC runs under
    pressure.  The newest write must always win."""
    device = make_device(cache_pages=4)
    model = {}
    for lpn in range(LPNS):
        device.map_page(lpn)
    for lpn, value in writes:
        payload = bytes([value]) * 32
        device.mmio_write(device.host_page_of(lpn), 64, 32, payload)
        model[lpn] = payload
    for lpn, payload in model.items():
        data, _cost = device.mmio_read(device.host_page_of(lpn), 64, 32)
        assert data == payload


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_flash_invariants_after_random_workload(seed):
    """Structural invariants of the flash/FTL after arbitrary churn."""
    rng = np.random.default_rng(seed)
    device = make_device()
    for lpn in range(LPNS):
        device.map_page(lpn)
    for _ in range(150):
        lpn = int(rng.integers(0, LPNS))
        action = rng.random()
        if action < 0.6:
            device.mmio_write(device.host_page_of(lpn), 0, 8)
        elif action < 0.8:
            device.write_page_block(lpn, None)
        else:
            for entry in device.cache.dirty_entries()[:2]:
                device.gc.flush_entry(entry)
    ftl = device.ftl
    # Mapping and reverse mapping are mutual inverses over programmed pages.
    assert len(ftl.mapping) == len(ftl.reverse)
    for lpn, ppn in ftl.mapping.items():
        assert ftl.reverse[ppn] == lpn
        assert device.flash.page_state[ppn] == PAGE_PROGRAMMED
    # No block both free and holding valid pages.
    for block_index in ftl._free_blocks:
        assert device.flash.valid_pages[block_index] == 0
