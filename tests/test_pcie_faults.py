"""Tests for the PCIe fault plane: retry, backoff, degradation."""

import pytest

from repro.config import LatencyConfig, small_config
from repro.core.hierarchy import FlatFlash
from repro.faults.plan import FaultConfig, FaultInjector
from repro.host.bridge import MMIORetryPolicy
from repro.interconnect.pcie import PCIeFaultError, PCIeLink


def make_link(**config_overrides):
    injector = FaultInjector(FaultConfig(**config_overrides))
    return PCIeLink(LatencyConfig(), 64, faults=injector)


def make_system(faults, **tweaks):
    config = small_config(track_data=True, faults=faults)
    config.promotion.enabled = False  # keep pages on the MMIO path
    config.cacheable_mmio = False  # every access pays the link
    for name, value in tweaks.items():
        setattr(config, name, value)
    return FlatFlash(config)


# --------------------------------------------------------------------- #
# Link-level fault semantics
# --------------------------------------------------------------------- #


def test_forced_timeout_raises_with_timeout_latency():
    link = make_link(forced={"pcie.mmio_read.timeout": (0,)})
    with pytest.raises(PCIeFaultError) as exc:
        link.mmio_read_cost(8)
    assert exc.value.site == "pcie.mmio_read"
    assert exc.value.kind == "timeout"
    assert exc.value.latency_ns == LatencyConfig().mmio_timeout_ns
    # The very next transaction is clean.
    assert link.mmio_read_cost(8) > 0


def test_forced_corrupt_write_raises_normal_cost():
    link = make_link(forced={"pcie.mmio_write.corrupt": (0,)})
    with pytest.raises(PCIeFaultError) as exc:
        link.mmio_write_cost(8)
    assert exc.value.kind == "corrupt"
    reference = make_link().mmio_write_cost(8)
    assert exc.value.latency_ns == reference


def test_verify_read_and_dma_are_never_faulted():
    link = make_link(pcie_timeout_rate=1.0, pcie_corrupt_rate=1.0)
    assert link.verify_read_cost() > 0
    assert link.dma_to_host_cost(4096) > 0
    assert link.dma_from_host_cost(4096) > 0


# --------------------------------------------------------------------- #
# Retry policy unit behavior
# --------------------------------------------------------------------- #


def test_backoff_is_exponential():
    policy = MMIORetryPolicy(3, 1_000, 4, 8)
    assert policy.backoff_ns(0) == 1_000
    assert policy.backoff_ns(1) == 4_000
    assert policy.backoff_ns(2) == 16_000
    assert policy.stats.counters()["bridge.mmio_backoff_ns"] == 21_000
    assert policy.stats.counters()["bridge.mmio_retries"] == 3


def test_consecutive_failures_degrade_and_success_resets():
    policy = MMIORetryPolicy(3, 1_000, 2, 3)
    lpn = 7
    assert policy.note_failure(lpn) is False
    policy.note_success(lpn)  # run broken: counter resets
    assert policy.note_failure(lpn) is False
    assert policy.note_failure(lpn) is False
    assert policy.note_failure(lpn) is True  # third consecutive -> degraded
    assert policy.is_degraded(lpn)
    assert policy.degraded_pages == 1


def test_policy_validates_arguments():
    with pytest.raises(ValueError):
        MMIORetryPolicy(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        MMIORetryPolicy(0, 0, 0, 1)
    with pytest.raises(ValueError):
        MMIORetryPolicy(0, 0, 1, 0)


# --------------------------------------------------------------------- #
# System-level retry / degradation
# --------------------------------------------------------------------- #


def test_transient_timeout_is_retried_and_access_succeeds():
    faults = FaultConfig(forced={"pcie.mmio_read.timeout": (0,)})
    system = make_system(faults)
    region = system.mmap(1, name="retry")
    system.store_u64(region.addr(0), 0xCAFE)
    value, result = system.load_u64(region.addr(0))
    assert value == 0xCAFE
    assert result.source == "ssd"
    counters = system.stats.counters()
    assert counters["pcie.mmio_timeouts"] == 1
    assert counters["bridge.mmio_failures"] == 1
    assert counters["bridge.mmio_retries"] == 1
    # The faulted attempt's timeout and the backoff wait are both charged.
    assert result.latency_ns > LatencyConfig().mmio_timeout_ns


def test_retry_exhaustion_falls_back_to_block_path_once():
    config = FaultConfig(
        forced={"pcie.mmio_read.timeout": (0, 1)}, mmio_max_retries=1
    )
    system = make_system(config)
    region = system.mmap(1, name="giveup")
    system.store_u64(region.addr(0), 0xF0F0)
    value, result = system.load_u64(region.addr(0))
    assert value == 0xF0F0
    assert result.source == "ssd_block"
    counters = system.stats.counters()
    assert counters["bridge.mmio_giveups"] == 1
    assert counters.get("bridge.degraded_pages", 0) == 0
    # One-shot fallback: the page keeps its MMIO path afterwards.
    _value, after = system.load_u64(region.addr(0))
    assert after.source == "ssd"


def test_threshold_crossing_degrades_page_permanently():
    config = FaultConfig(
        forced={"pcie.mmio_read.timeout": (0, 1)},
        mmio_max_retries=1,
        mmio_degraded_threshold=2,
    )
    system = make_system(config)
    region = system.mmap(1, name="degrade")
    system.store_u64(region.addr(0), 0xD00D)
    value, result = system.load_u64(region.addr(0))
    assert value == 0xD00D
    assert result.source == "ssd_block"
    counters = system.stats.counters()
    assert counters["bridge.degraded_pages"] == 1
    # Every later access stays on the block path, fault-free or not.
    _value, after = system.load_u64(region.addr(0))
    assert after.source == "ssd_block"
    assert system.stats.counters()["bridge.degraded_accesses"] >= 2


def test_degraded_page_writes_are_durable_read_modify_write():
    config = FaultConfig(
        forced={"pcie.mmio_write.timeout": (0, 1)},
        mmio_max_retries=1,
        mmio_degraded_threshold=2,
    )
    system = make_system(config)
    region = system.mmap(1, name="degwrite")
    result = system.store_u64(region.addr(8), 0xABCD)
    assert result.source == "ssd_block"
    value, read_back = system.load_u64(region.addr(8))
    assert value == 0xABCD
    assert read_back.source == "ssd_block"


def test_degraded_page_is_not_promoted():
    config = FaultConfig(
        forced={"pcie.mmio_read.timeout": (0, 1)},
        mmio_max_retries=1,
        mmio_degraded_threshold=2,
    )
    system = FlatFlash(small_config(track_data=True, faults=config))
    region = system.mmap(1, name="nopromo")
    system.store_u64(region.addr(0), 1)
    for _ in range(64):  # plenty of touches to trip any promotion policy
        system.load_u64(region.addr(0))
    assert system.promotions == 0


def test_corrupt_posted_write_never_lands_partially():
    """A corrupted posted write is dropped wholesale and retried."""
    faults = FaultConfig(forced={"pcie.mmio_write.corrupt": (0,)})
    system = make_system(faults)
    region = system.mmap(1, name="corrupt")
    system.store_u64(region.addr(0), 0x1234_5678_9ABC_DEF0)
    value, _ = system.load_u64(region.addr(0))
    assert value == 0x1234_5678_9ABC_DEF0
    assert system.stats.counters()["pcie.mmio_corruptions"] == 1
