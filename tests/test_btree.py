"""Tests for the B+-tree on unified memory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DRAMOnly, FlatFlash, UnifiedMMap, small_config
from repro.apps.btree import BPlusTree


def make_tree(max_keys=4, capacity_pages=128, system_cls=FlatFlash):
    config = small_config()
    config.geometry.dram_pages = 32
    config.geometry.ssd_pages = 4_096
    if system_cls is DRAMOnly:
        config.geometry.dram_pages = capacity_pages + 8
    return BPlusTree(
        system_cls(config.validate()), capacity_pages=capacity_pages, max_keys=max_keys
    )


def test_empty_tree():
    tree = make_tree()
    assert tree.get(5) is None
    assert len(tree) == 0
    assert tree.height == 1


def test_insert_and_get():
    tree = make_tree()
    tree.insert(10, 100)
    tree.insert(5, 50)
    assert tree.get(10) == 100
    assert tree.get(5) == 50
    assert tree.get(7) is None
    assert len(tree) == 2


def test_update_in_place():
    tree = make_tree()
    tree.insert(1, 10)
    tree.insert(1, 20)
    assert tree.get(1) == 20
    assert len(tree) == 1


def test_leaf_split_grows_tree():
    tree = make_tree(max_keys=4)
    for key in range(6):
        tree.insert(key, key * 2)
    assert tree.height == 2
    for key in range(6):
        assert tree.get(key) == key * 2


def test_many_inserts_multilevel():
    tree = make_tree(max_keys=4)
    keys = list(range(200))
    np.random.default_rng(1).shuffle(keys)
    for key in keys:
        tree.insert(key, key + 1_000)
    assert tree.height >= 3
    for key in range(200):
        assert tree.get(key) == key + 1_000
    assert len(tree) == 200


def test_items_are_sorted():
    tree = make_tree(max_keys=4)
    keys = [17, 3, 99, 4, 250, 42, 8]
    for key in keys:
        tree.insert(key, key)
    assert [k for k, _v in tree.items()] == sorted(keys)


def test_scan_range():
    tree = make_tree(max_keys=4)
    for key in range(0, 100, 5):
        tree.insert(key, key * 3)
    result = dict(tree.scan(20, 50))
    assert result == {key: key * 3 for key in range(20, 50, 5)}


def test_scan_empty_range():
    tree = make_tree()
    tree.insert(1, 1)
    assert list(tree.scan(5, 5)) == []
    assert list(tree.scan(9, 4)) == []


def test_key_bounds():
    tree = make_tree()
    with pytest.raises(ValueError):
        tree.insert(-1, 0)
    with pytest.raises(ValueError):
        tree.insert(2**64 - 1, 0)


def test_out_of_pages_raises():
    tree = make_tree(max_keys=2, capacity_pages=4)
    with pytest.raises(MemoryError):
        for key in range(100):
            tree.insert(key, key)


def test_invalid_shapes_rejected():
    system = FlatFlash(small_config())
    with pytest.raises(ValueError):
        BPlusTree(system, capacity_pages=1)
    with pytest.raises(ValueError):
        BPlusTree(system, max_keys=1)
    with pytest.raises(ValueError):
        BPlusTree(system, max_keys=10_000)


def test_natural_fanout_fits_page():
    tree = BPlusTree(FlatFlash(small_config()), capacity_pages=8)
    # Child slot max_keys+2 must stay inside the page.
    last_offset = tree._val_off(tree.max_keys + 2) + 8
    assert last_offset <= tree.page_size


def test_works_on_every_system():
    for system_cls in (FlatFlash, UnifiedMMap, DRAMOnly):
        tree = make_tree(max_keys=4, capacity_pages=64, system_cls=system_cls)
        for key in range(60):
            tree.insert(key * 7 % 61, key)
        assert len(tree) == 60
        assert tree.get(1) is not None


def test_traversals_charge_the_memory_system():
    tree = make_tree(max_keys=4)
    before = tree.system.stats.counters()["mem.loads"]
    for key in range(50):
        tree.insert(key, key)
    tree.get(25)
    assert tree.system.stats.counters()["mem.loads"] > before
    assert tree.system.clock.now > 0


@settings(deadline=None, max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 2**32)),
        min_size=1,
        max_size=150,
    )
)
def test_btree_behaves_like_a_dict(pairs):
    tree = make_tree(max_keys=4, capacity_pages=256)
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    assert len(tree) == len(model)
    for key, value in model.items():
        assert tree.get(key) == value
    assert dict(tree.items()) == model
    assert [k for k, _ in tree.items()] == sorted(model)
