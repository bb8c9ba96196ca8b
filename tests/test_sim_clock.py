"""Tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


def test_starts_at_zero():
    assert SimClock().now == 0


def test_starts_at_given_time():
    assert SimClock(500).now == 500


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        SimClock(-1)


def test_advance_moves_forward():
    clock = SimClock()
    assert clock.advance(100) == 100
    assert clock.now == 100


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(100)
    clock.advance(250)
    assert clock.now == 350


def test_advance_zero_is_allowed():
    clock = SimClock(10)
    assert clock.advance(0) == 10


def test_advance_negative_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-5)


def test_advance_truncates_float():
    clock = SimClock()
    clock.advance(10.9)
    assert clock.now == 10


def test_repr_mentions_time():
    assert "123" in repr(SimClock(123))
