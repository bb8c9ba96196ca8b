"""Tests for RRIP replacement state."""

import random

import pytest

from repro.ssd.rrip import RRIPSet


def test_empty_ways_chosen_first():
    rrip = RRIPSet(4)
    assert rrip.select_victim([False, False, False, False]) == 0
    assert rrip.select_victim([True, False, True, False]) == 1


def test_insert_sets_long_interval():
    rrip = RRIPSet(4)
    rrip.on_insert(0)
    assert rrip.rrpv_of(0) == rrip.max_rrpv - 1


def test_hit_sets_near_immediate():
    rrip = RRIPSet(4)
    rrip.on_insert(2)
    rrip.on_hit(2)
    assert rrip.rrpv_of(2) == 0


def test_victim_is_max_rrpv_way():
    rrip = RRIPSet(3)
    for way in range(3):
        rrip.on_insert(way)
    rrip.on_hit(0)
    rrip.on_hit(2)
    # way 1 still at max-1; aging pushes it to max first.
    assert rrip.select_victim([True, True, True]) == 1


def test_aging_preserves_relative_order():
    rrip = RRIPSet(2)
    rrip.on_insert(0)
    rrip.on_hit(0)  # rrpv 0
    rrip.on_insert(1)  # rrpv max-1
    assert rrip.select_victim([True, True]) == 1


def test_recently_hit_way_survives_scan():
    rrip = RRIPSet(4)
    for way in range(4):
        rrip.on_insert(way)
    rrip.on_hit(3)
    victims = []
    occupied = [True] * 4
    for _ in range(3):
        victim = rrip.select_victim(occupied)
        victims.append(victim)
        rrip.on_insert(victim)  # replacement fills the way
    assert 3 not in victims


def test_leftmost_max_breaks_ties():
    rrip = RRIPSet(3)
    for way in range(3):
        rrip.on_insert(way)
    assert rrip.select_victim([True, True, True]) == 0


def test_reset_way_becomes_preferred_victim():
    rrip = RRIPSet(2)
    rrip.on_insert(0)
    rrip.on_insert(1)
    rrip.on_hit(0)
    rrip.reset_way(0)
    assert rrip.rrpv_of(0) == rrip.max_rrpv


def test_occupied_length_checked():
    rrip = RRIPSet(2)
    with pytest.raises(ValueError):
        rrip.select_victim([True])


def test_way_bounds_checked():
    rrip = RRIPSet(2)
    with pytest.raises(ValueError):
        rrip.on_hit(2)
    with pytest.raises(ValueError):
        rrip.on_insert(-1)


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        RRIPSet(0)
    with pytest.raises(ValueError):
        RRIPSet(4, rrpv_bits=0)


def test_custom_rrpv_bits():
    rrip = RRIPSet(2, rrpv_bits=3)
    assert rrip.max_rrpv == 7
    rrip.on_insert(0)
    assert rrip.rrpv_of(0) == 6


def aging_loop_victim(rrpv, max_rrpv, occupied):
    """Reference victim search: age every way by one until one is at max."""
    for way, used in enumerate(occupied):
        if not used:
            return way
    while True:
        for way in range(len(rrpv)):
            if rrpv[way] >= max_rrpv:
                return way
        for way in range(len(rrpv)):
            rrpv[way] += 1


@pytest.mark.parametrize("rrpv_bits", [1, 2, 3])
@pytest.mark.parametrize("free_ways", [False, True], ids=["full", "with-free-ways"])
def test_victim_matches_aging_loop(rrpv_bits, free_ways):
    rng = random.Random(rrpv_bits * 2 + free_ways)
    for _ in range(300):
        num_ways = rng.randint(1, 16)
        rrip = RRIPSet(num_ways, rrpv_bits=rrpv_bits)
        states = [rng.randint(0, rrip.max_rrpv) for _ in range(num_ways)]
        for way, rrpv in enumerate(states):
            rrip._rrpv[way] = rrpv
        occupied = [not free_ways or rng.random() < 0.7 for _ in range(num_ways)]
        expected = aging_loop_victim(states, rrip.max_rrpv, occupied)
        assert rrip.select_victim(occupied) == expected
        assert [rrip.rrpv_of(way) for way in range(num_ways)] == states
