"""Tests for host DRAM frame management."""

import pytest

from repro.host.dram import HostDRAM


def make_dram(frames=4, page_size=64, track_data=True):
    return HostDRAM(frames, page_size, track_data=track_data)


def test_allocate_assigns_frames():
    dram = make_dram()
    frame = dram.allocate(vpn=7)
    assert frame is not None
    assert frame.vpn == 7
    assert dram.allocated_frames == 1
    assert dram.free_frames == 3


def test_allocate_with_data():
    dram = make_dram()
    frame = dram.allocate(0, b"\x42" * 64)
    assert bytes(frame.data) == b"\x42" * 64


def test_allocate_wrong_size_rejected():
    dram = make_dram()
    with pytest.raises(ValueError):
        dram.allocate(0, b"short")


def test_allocate_when_full_returns_none():
    dram = make_dram(frames=1)
    assert dram.allocate(0) is not None
    assert dram.allocate(1) is None
    assert dram.is_full


def test_free_recycles():
    dram = make_dram(frames=1)
    frame = dram.allocate(0)
    dram.free(frame)
    assert dram.allocate(1) is not None


def test_free_unallocated_raises():
    dram = make_dram()
    frame = dram.frames[0]
    with pytest.raises(ValueError):
        dram.free(frame)


def test_free_clears_state():
    dram = make_dram()
    frame = dram.allocate(3)
    frame.dirty = True
    dram.free(frame)
    assert frame.vpn is None
    assert not frame.dirty
    assert frame.data is None


def test_victim_without_allocations_raises():
    with pytest.raises(RuntimeError):
        make_dram().victim()


def test_iter_lru_order():
    dram = make_dram(frames=3)
    a = dram.allocate(0)
    b = dram.allocate(1)
    c = dram.allocate(2)
    dram.touch(a)
    assert [frame.vpn for frame in dram.iter_lru()] == [1, 2, 0]
    assert b is dram.frames[b.index] and c is dram.frames[c.index]


def test_clock_victim_skips_referenced():
    dram = make_dram(frames=3)
    a = dram.allocate(0)
    b = dram.allocate(1)
    c = dram.allocate(2)
    # allocate() touches, so all referenced; first sweep clears a, b, c and
    # wraps; re-touch b so only b survives the second sweep.
    victim1 = dram.victim()
    assert victim1 in (a, b, c)
    dram.touch(b)
    victim2 = dram.victim()
    assert victim2 is not b


def test_read_write_bytes():
    dram = make_dram()
    frame = dram.allocate(0)
    dram.write_bytes(frame, 10, b"xyz")
    assert dram.read_bytes(frame, 10, 3) == b"xyz"
    assert frame.dirty


def test_write_bounds_checked():
    dram = make_dram()
    frame = dram.allocate(0)
    with pytest.raises(ValueError):
        dram.write_bytes(frame, 62, b"xyz")
    with pytest.raises(ValueError):
        dram.read_bytes(frame, 60, 8)


def test_no_data_mode_reads_none_but_tracks_dirty():
    dram = make_dram(track_data=False)
    frame = dram.allocate(0)
    dram.write_bytes(frame, 0, b"ab")
    assert frame.dirty
    assert dram.read_bytes(frame, 0, 2) is None


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        HostDRAM(0, 64)
    with pytest.raises(ValueError):
        HostDRAM(4, 0)
