"""Tests for wear statistics and static wear leveling in the FTL."""

import pytest

from repro.config import LatencyConfig
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL


def make_ftl(blocks=8, pages=4, wear_level_threshold=0):
    flash = FlashArray(blocks, pages, 64, LatencyConfig(), track_data=True)
    ftl = PageFTL(
        flash, overprovision=0.25, wear_level_threshold=wear_level_threshold
    )
    return flash, ftl


def churn(ftl, hot_lpns, rounds):
    for _ in range(rounds):
        for lpn in hot_lpns:
            ftl.write(lpn, None)


def test_wear_stats_shape():
    flash, ftl = make_ftl()
    ftl.write(0, None)
    stats = ftl.wear_stats()
    assert set(stats) == {"min", "max", "mean", "spread"}
    assert stats["spread"] == stats["max"] - stats["min"]


def test_negative_threshold_rejected():
    flash = FlashArray(4, 4, 64, LatencyConfig())
    with pytest.raises(ValueError):
        PageFTL(flash, wear_level_threshold=-1)


def test_no_leveling_when_disabled():
    flash, ftl = make_ftl(wear_level_threshold=0)
    # Cold data in the first block, then heavy hot churn.
    for lpn in range(8, 12):
        ftl.write(lpn, bytes([lpn]) * 64)
    churn(ftl, range(3), rounds=60)
    assert ftl.stats.counters()["ftl.wear_levelings"] == 0


def test_leveling_triggers_and_moves_cold_block():
    flash, ftl = make_ftl(wear_level_threshold=4)
    cold = {lpn: bytes([lpn]) * 64 for lpn in range(8, 12)}
    for lpn, payload in cold.items():
        ftl.write(lpn, payload)
    churn(ftl, range(3), rounds=80)
    assert ftl.stats.counters()["ftl.wear_levelings"] >= 1
    # Cold data is intact after relocation.
    for lpn, payload in cold.items():
        _ppn, data, _ = ftl.read(lpn)
        assert data == payload


def test_leveling_reduces_wear_spread():
    spreads = {}
    for threshold in (0, 4):
        flash, ftl = make_ftl(wear_level_threshold=threshold)
        for lpn in range(8, 12):
            ftl.write(lpn, None)
        churn(ftl, range(3), rounds=80)
        spreads[threshold] = ftl.wear_stats()["spread"]
    assert spreads[4] < spreads[0]


def test_leveling_fires_relocate_hooks():
    flash, ftl = make_ftl(wear_level_threshold=4)
    moves = []
    ftl.add_relocate_hook(lambda lpn, old, new: moves.append(lpn))
    for lpn in range(8, 12):
        ftl.write(lpn, None)
    churn(ftl, range(3), rounds=80)
    assert any(lpn >= 8 for lpn in moves)  # cold lpns were relocated


def test_victim_tie_break_prefers_less_worn_block():
    flash, ftl = make_ftl(blocks=6, pages=2)
    # Two fully-invalid blocks with different erase counts.
    ftl.write(0, None)
    ftl.write(1, None)  # block 0 full
    ftl.write(2, None)
    ftl.write(3, None)  # block 1 full
    for lpn in range(4):
        ftl.write(lpn, None)  # invalidate both blocks
    flash.erase_counts[0] = 5  # pretend block 0 is worn
    victim = ftl.select_victim()
    assert victim == 1
