"""Tests for configuration validation and derivation."""

import pytest

from repro.config import (
    FlatFlashConfig,
    GeometryConfig,
    LatencyConfig,
    PromotionConfig,
    small_config,
)


def test_defaults_validate():
    FlatFlashConfig().validate()


def test_small_config_validates():
    config = small_config()
    assert config.geometry.dram_pages == 16


def test_small_config_overrides():
    config = small_config(track_data=False)
    assert not config.track_data


def test_small_config_unknown_override_rejected():
    with pytest.raises(TypeError):
        small_config(nonsense=True)


@pytest.mark.parametrize("value", [-1, 100.5, True])
def test_negative_latency_rejected(value):
    latency = LatencyConfig(dram_load_ns=value)
    with pytest.raises(ValueError, match="dram_load_ns"):
        latency.validate()


def test_table2_defaults():
    latency = LatencyConfig()
    assert latency.mmio_read_cacheline_ns == 4_800
    assert latency.mmio_write_cacheline_ns == 600
    assert latency.page_promotion_ns == 12_100
    assert latency.pte_tlb_update_ns == 1_400
    assert latency.page_table_walk_ns == 700


def test_geometry_page_alignment_checked():
    geometry = GeometryConfig(page_size=100, cacheline_size=64)
    with pytest.raises(ValueError):
        geometry.validate()


def test_geometry_positive_sizes_checked():
    with pytest.raises(ValueError):
        GeometryConfig(dram_pages=0).validate()
    with pytest.raises(ValueError):
        GeometryConfig(ssd_pages=0).validate()
    with pytest.raises(ValueError):
        GeometryConfig(plb_entries=0).validate()


def test_ssd_cache_derived_from_ratio():
    geometry = GeometryConfig(ssd_pages=80_000, ssd_cache_ratio=0.00125)
    assert geometry.resolved_ssd_cache_pages() == 100


def test_ssd_cache_explicit_override():
    geometry = GeometryConfig(ssd_cache_pages=42)
    assert geometry.resolved_ssd_cache_pages() == 42


def test_ssd_cache_floor_is_ways():
    geometry = GeometryConfig(ssd_pages=100, ssd_cache_ratio=0.0001, ssd_cache_ways=8)
    assert geometry.resolved_ssd_cache_pages() == 8


def test_cachelines_per_page():
    assert GeometryConfig().cachelines_per_page == 64


def test_promotion_config_paper_defaults():
    promotion = PromotionConfig()
    assert promotion.lw_ratio == 0.25
    assert promotion.hi_ratio == 0.75
    assert promotion.max_threshold == 7
    assert promotion.reset_epoch == 10_000


def test_promotion_ratio_ordering_checked():
    with pytest.raises(ValueError):
        PromotionConfig(lw_ratio=0.8, hi_ratio=0.5).validate()


def test_scaled_copy_replaces_geometry():
    config = FlatFlashConfig()
    scaled = config.scaled(dram_pages=7)
    assert scaled.geometry.dram_pages == 7
    assert config.geometry.dram_pages != 7  # original untouched
