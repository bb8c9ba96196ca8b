"""Tests for multi-channel flash."""

import pytest

from repro import FlatFlash, small_config
from repro.apps.database import MiniDB
from repro.config import GeometryConfig, LatencyConfig
from repro.ssd.flash import FlashArray


class TestFlashChannels:
    def test_channel_of_stripes_by_block(self):
        flash = FlashArray(8, 4, 64, LatencyConfig(), num_channels=4)
        assert flash.channel_of(0) == 0
        assert flash.channel_of(3) == 0  # same block
        assert flash.channel_of(4) == 1  # next block
        assert flash.channel_of(16) == 0  # wraps at num_channels

    def test_invalid_channel_count_rejected(self):
        with pytest.raises(ValueError):
            FlashArray(4, 4, 64, LatencyConfig(), num_channels=0)
        with pytest.raises(ValueError):
            GeometryConfig(flash_channels=0).validate()

    def test_device_inherits_channel_config(self):
        config = small_config()
        config.geometry.flash_channels = 4
        system = FlatFlash(config.validate())
        assert system.ssd.flash.num_channels == 4

    def test_minidb_uses_device_channels(self):
        config = small_config(track_data=False)
        config.geometry.flash_channels = 2
        system = FlatFlash(config.validate())
        db = MiniDB(system, table_pages=8, log_pages=4)
        assert db.flash_channels == 2
