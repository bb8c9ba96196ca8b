"""Tests for the simfault NAND/PCIe fault planes (repro.faults)."""

import pytest

from repro.config import LatencyConfig, small_config
from repro.core.hierarchy import FlatFlash
from repro.faults.plan import FAULT_SITES, FaultConfig, FaultInjector
from repro.ssd.flash import PAGE_INVALID, PAGE_PROGRAMMED, FlashArray


def make_flash(faults=None, blocks=4, pages=8, page_size=256):
    return FlashArray(
        num_blocks=blocks,
        pages_per_block=pages,
        page_size=page_size,
        latency=LatencyConfig(),
        track_data=True,
        faults=faults,
    )


def injector(**overrides):
    return FaultInjector(FaultConfig(**overrides))


# --------------------------------------------------------------------- #
# Plan / injector
# --------------------------------------------------------------------- #


def test_default_config_is_inactive():
    assert not FaultConfig().active


@pytest.mark.parametrize(
    "field", ["nand_read_error_rate", "pcie_timeout_rate", "pcie_corrupt_rate"]
)
def test_any_rate_activates(field):
    assert FaultConfig(**{field: 0.1}).active


def test_wear_limit_and_forced_activate():
    assert FaultConfig(nand_wear_limit=4).active
    assert FaultConfig(forced={"nand.read": (0,)}).active


def test_validate_rejects_bad_rates_and_sites():
    with pytest.raises(ValueError):
        FaultConfig(nand_read_error_rate=1.5).validate()
    with pytest.raises(ValueError):
        FaultConfig(forced={"nand.bogus": (0,)}).validate()
    with pytest.raises(ValueError):
        FaultConfig(forced={"nand.read": (-1,)}).validate()
    with pytest.raises(ValueError):
        FaultConfig(mmio_backoff_multiplier=0).validate()


def test_same_seed_same_schedule():
    def realize():
        inj = injector(seed=7, nand_read_error_rate=0.3, pcie_timeout_rate=0.2)
        for _ in range(200):
            inj.fires("nand.read")
            inj.fires("pcie.mmio_read.timeout")
        return [(event.site, event.index) for event in inj.events]

    assert realize() == realize()


@pytest.mark.parametrize(
    "config, site, expected",
    [
        (
            FaultConfig(seed=3, pcie_timeout_rate=0.05),
            "pcie.mmio_write.timeout",
            [1, 9, 43, 46, 72, 124, 125, 136, 141, 153, 183, 186, 195, 217,
             241, 267, 281, 283, 290, 296],
        ),
        (
            FaultConfig(seed=7, nand_read_error_rate=0.05),
            "nand.read",
            [15, 18, 28, 33, 39, 72, 96, 133, 143, 150, 159, 178, 190, 216,
             230, 242, 253, 298],
        ),
    ],
    ids=["pcie", "nand"],
)
def test_site_streams_are_pinned(config, site, expected):
    """Each site's stream is keyed by (seed, crc32(site)): the fire
    indices are fixed literals, not just equal across two runs."""
    inj = FaultInjector(config)
    fires = [index for index in range(300) if inj.fires(site)]
    assert fires == expected


def test_sites_are_independent_streams():
    """Adding traffic at one site never changes another site's schedule."""
    lonely = injector(seed=3, nand_read_error_rate=0.25)
    noisy = injector(seed=3, nand_read_error_rate=0.25, pcie_timeout_rate=0.5)
    lonely_fires = [lonely.fires("nand.read") for _ in range(300)]
    noisy_fires = []
    for _ in range(300):
        noisy.fires("pcie.mmio_write.timeout")  # interleaved other-plane traffic
        noisy_fires.append(noisy.fires("nand.read"))
    assert lonely_fires == noisy_fires


def test_forced_sites_fire_exactly_there():
    inj = injector(forced={"nand.program": (1, 3)})
    fires = [inj.fires("nand.program") for _ in range(5)]
    assert fires == [False, True, False, True, False]
    assert inj.fired("nand.program") == 2
    assert inj.operations("nand.program") == 5


def test_zero_rate_never_draws_rng():
    inj = injector(forced={"nand.erase": (0,)})
    for _ in range(50):
        inj.fires("nand.read")
    assert inj._rngs == {}  # no generator was ever materialized


def test_summary_covers_all_sites_in_order():
    inj = injector(forced={"nand.read": (0,)})
    inj.fires("nand.read")
    assert tuple(inj.summary()) == FAULT_SITES


# --------------------------------------------------------------------- #
# NAND plane: flash-level semantics
# --------------------------------------------------------------------- #


def test_forced_read_fault_flags_op_but_carries_data():
    flash = make_flash(injector(forced={"nand.read": (1,)}))
    payload = bytes(range(256))
    flash.program(0, payload)
    assert flash.read(0)[2] is False
    data, _latency, failed = flash.read(0)  # second read: forced index 1
    assert failed is True
    assert data == payload  # ECC error is a retryable event, not data loss


def test_forced_program_fail_burns_page():
    flash = make_flash(injector(forced={"nand.program": (0,)}))
    _latency, failed = flash.program(0, b"\xaa" * 256)
    assert failed
    assert flash.page_state[0] == PAGE_INVALID
    # The page is consumed: a fresh program must use another page.
    _latency, failed = flash.program(1, b"\xbb" * 256)
    assert not failed
    assert flash.read(1)[0] == b"\xbb" * 256


def test_forced_erase_fail_retires_block():
    flash = make_flash(injector(forced={"nand.erase": (0,)}))
    _latency, failed = flash.erase(0)
    assert failed
    assert flash.bad[0]
    with pytest.raises(RuntimeError):
        flash.erase(0)  # bad blocks must never be erased again


def test_wear_limit_retires_block_after_successful_erase():
    flash = make_flash(injector(nand_wear_limit=2))
    flash.erase(0)
    assert not flash.bad[0]
    flash.erase(0)
    assert flash.bad[0]
    assert flash.stats.counters()["flash.wear_retired_blocks"] == 1


def test_snapshot_restore_roundtrip():
    flash = make_flash(injector(forced={"nand.erase": (0,)}))
    flash.program(0, b"\x11" * 256)
    flash.program(1, b"\x22" * 256)
    flash.erase(2)  # forced index 0: this erase fails -> block 2 retired
    image = flash.snapshot_state()
    other = make_flash()
    other.restore_state(image)
    assert other.read(0)[0] == b"\x11" * 256
    assert other.read(1)[0] == b"\x22" * 256
    assert other.bad[2]
    assert other.page_state[0] == PAGE_PROGRAMMED


# --------------------------------------------------------------------- #
# NAND plane: FTL absorption (system level, forced sites)
# --------------------------------------------------------------------- #


def test_ecc_retry_recovers_first_try_error():
    faults = FaultConfig(forced={"nand.read": (0,)})
    system = FlatFlash(small_config(track_data=True, faults=faults))
    region = system.mmap(1, name="ecc")
    system.store_u64(region.addr(0), 0xDEAD)
    value, _ = system.load_u64(region.addr(0))
    assert value == 0xDEAD
    counters = system.stats.counters()
    assert counters["flash.read_faults"] >= 1
    assert counters["ftl.ecc_retries"] >= 1
    assert counters.get("ftl.ecc_hard_errors", 0) == 0


def test_ecc_exhaustion_soft_decodes_without_data_loss():
    # First read plus every retry fails -> soft-decode rescue path.
    faults = FaultConfig(forced={"nand.read": (0, 1, 2, 3)}, ecc_max_retries=3)
    system = FlatFlash(small_config(track_data=True, faults=faults))
    region = system.mmap(1, name="hard")
    system.store_u64(region.addr(0), 0xBEEF)
    value, _ = system.load_u64(region.addr(0))
    assert value == 0xBEEF
    assert system.stats.counters()["ftl.ecc_hard_errors"] == 1


def test_program_fail_retries_to_next_page():
    faults = FaultConfig(forced={"nand.program": (0,)})
    system = FlatFlash(small_config(track_data=True, faults=faults))
    region = system.mmap(1, name="prog")
    system.store_u64(region.addr(0), 0xF00D)
    value, _ = system.load_u64(region.addr(0))
    assert value == 0xF00D
    assert system.stats.counters()["ftl.program_retries"] >= 1


def test_zero_fault_config_is_bit_identical_to_baseline():
    def run(config):
        system = FlatFlash(config)
        region = system.mmap(8, name="ident")
        for round_index in range(4):
            for page in range(8):
                system.store_u64(region.page_addr(page), round_index + page)
                system.load_u64(region.page_addr(page))
        system.quiesce()
        return system.stats.snapshot(), system.clock.now

    base_stats, base_ns = run(small_config(track_data=True))
    fault_stats, fault_ns = run(
        small_config(track_data=True, faults=FaultConfig(seed=99))
    )
    assert base_ns == fault_ns
    assert base_stats == fault_stats


def test_zero_fault_device_has_no_injector():
    system = FlatFlash(small_config(track_data=True, faults=FaultConfig()))
    assert system.ssd.faults is None
    assert system.bridge.mmio_retry is None
