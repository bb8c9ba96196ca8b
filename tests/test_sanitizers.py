"""Tests for the runtime invariant sanitizers (repro.sim.sanitizers).

Each section deliberately corrupts simulator state — or drives an API the
way a buggy caller would — and asserts the sanitizer raises a diagnostic
naming the offending page / lock / time, at the operation that breaks the
invariant rather than at the end of the run.
"""

import numpy as np
import pytest

from repro import FlatFlash, TraditionalStack, create_pmem_region, small_config
from repro.config import LatencyConfig
from repro.engine import AccessTrace, fused_blockers, replay
from repro.host.bridge import HostBridge
from repro.interconnect.pcie import BarWindow
from repro.sim import sanitizers
from repro.sim.clock import SimClock
from repro.sim.des import (
    Acquire,
    AcquireSlot,
    Delay,
    Lock,
    Release,
    Semaphore,
    Simulator,
)
from repro.sim.sanitizers import (
    ClockSanitizer,
    ClockSanitizerError,
    FlashSanitizer,
    FlashSanitizerError,
    LockSanitizer,
    LockSanitizerError,
    PersistenceSanitizer,
    PersistenceSanitizerError,
    SanitizerConfig,
    SanitizerError,
)
from repro.ssd.flash import FlashArray, FlashPageState


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #


def test_sanitizer_errors_are_runtime_errors():
    for cls in (
        SanitizerError,
        ClockSanitizerError,
        FlashSanitizerError,
        LockSanitizerError,
        PersistenceSanitizerError,
    ):
        assert issubclass(cls, RuntimeError)


def test_set_default_enabled_returns_previous():
    previous = sanitizers.set_default_enabled(False)
    try:
        assert sanitizers.default_enabled() is False
        assert sanitizers.set_default_enabled(True) is False
        assert sanitizers.default_enabled() is True
    finally:
        sanitizers.set_default_enabled(previous)


def test_config_from_default_follows_process_default():
    # The suite conftest enables sanitizers globally.
    config = SanitizerConfig.from_default()
    assert config.any_enabled()
    assert config.flash and config.clock and config.lock and config.persistence


def test_config_validate_rejects_non_bool():
    config = SanitizerConfig(flash="yes")
    with pytest.raises(ValueError, match="flash"):
        config.validate()


def test_system_wires_sanitizers_when_enabled():
    system = FlatFlash(small_config())
    assert system.ssd.flash_sanitizer is not None
    assert system.ssd.persistence_sanitizer is not None


def test_system_without_sanitizers_when_disabled():
    previous = sanitizers.set_default_enabled(False)
    try:
        system = FlatFlash(small_config())
        assert system.ssd.flash_sanitizer is None
        assert system.ssd.persistence_sanitizer is None
    finally:
        sanitizers.set_default_enabled(previous)


# --------------------------------------------------------------------- #
# ClockSanitizer
# --------------------------------------------------------------------- #


def make_clock():
    return SimClock(sanitizer=ClockSanitizer())


def test_clock_rejects_float_delta():
    clock = make_clock()
    with pytest.raises(ClockSanitizerError, match="12.5"):
        clock.advance(12.5)


def test_clock_rejects_bool_delta():
    clock = make_clock()
    with pytest.raises(ClockSanitizerError, match="True"):
        clock.advance(True)


def test_clock_rejects_negative_delta():
    clock = make_clock()
    clock.advance(100)
    with pytest.raises(ClockSanitizerError, match="-5"):
        clock.advance(-5)


def test_clock_detects_tampered_state():
    clock = make_clock()
    clock.advance(100)
    clock._now = 42  # corrupt the clock behind the sanitizer's back
    with pytest.raises(ClockSanitizerError, match="t=42ns.*t=100ns"):
        clock.advance(10)


def test_clock_detects_tampering_on_the_fused_replay_path():
    """The fused replay hands each batched advance to the clock, so a
    delegated access that rewinds the clock is caught at the next sync."""
    system = TraditionalStack(small_config(sanitizers=SanitizerConfig.all()))
    region = system.mmap(4)
    real_access_page = system._access_page

    def rewinding_access_page(*args):
        result = real_access_page(*args)
        system.clock._now -= 1
        return result

    system._access_page = rewinding_access_page
    # Page 0 faults in (delegated), its revisit is a DRAM hit (fused),
    # then page 1 faults (delegated) and syncs the clock first.
    pages = np.array([0, 0, 1, 1], dtype=np.int64)
    trace = AccessTrace.loads(region.addr(0) + pages * region.page_size, 8)
    assert fused_blockers(system) == []
    with pytest.raises(ClockSanitizerError, match="tampered"):
        replay(system, trace)


def test_clock_clean_integer_advances():
    clock = make_clock()
    clock.advance(100)
    clock.advance_to(250)
    clock.advance(0)
    assert clock.now == 250


# --------------------------------------------------------------------- #
# FlashSanitizer
# --------------------------------------------------------------------- #


def make_flash():
    return FlashArray(
        num_blocks=4,
        pages_per_block=8,
        page_size=64,
        latency=LatencyConfig(),
        sanitizer=FlashSanitizer(),
    )


def test_flash_program_to_programmed_page_names_ppn():
    flash = make_flash()
    flash.program(3, bytes(64))
    with pytest.raises(FlashSanitizerError, match="ppn=3"):
        flash.program(3, bytes(64))


def test_flash_detects_corrupted_page_state():
    flash = make_flash()
    flash.program(0, bytes(64))
    # Corrupt the primary state: the page looks erased to the array, but
    # the sanitizer's shadow still knows it was programmed.
    flash.blocks[0].states[0] = FlashPageState.ERASED
    with pytest.raises(FlashSanitizerError, match="ppn=0.*programmed"):
        flash.program(0, bytes(64))


def test_flash_erase_of_valid_pages_names_block():
    flash = make_flash()
    flash.program(8, bytes(64))  # block 1
    with pytest.raises(FlashSanitizerError, match="block 1"):
        flash.erase(1)


def test_flash_double_erase_names_block():
    flash = make_flash()
    flash.erase(2)
    with pytest.raises(FlashSanitizerError, match="double erase of block 2"):
        flash.erase(2)


def test_flash_erase_after_program_is_clean():
    flash = make_flash()
    flash.program(0, bytes(64))
    flash.invalidate(0)
    flash.erase(0)
    flash.program(0, bytes(64))
    flash.invalidate(0)
    flash.erase(0)  # not a double erase: the block was programmed in between


def test_flash_accounting_leak_reports_both_counts():
    sanitizer = FlashSanitizer()
    sanitizer.attach(num_blocks=2, pages_per_block=4)
    sanitizer.on_program(0)
    sanitizer.on_program(1)
    with pytest.raises(
        FlashSanitizerError, match="GC collect.*2 programmed pages.*1 logical"
    ):
        sanitizer.check_accounting(1, context="GC collect")
    sanitizer.check_accounting(2)  # balanced: no raise


# --------------------------------------------------------------------- #
# LockSanitizer
# --------------------------------------------------------------------- #


def test_lock_release_by_non_holder_names_lock_and_holder():
    sim = Simulator(sanitizer=LockSanitizer())
    lock = Lock("wal")

    def owner():
        yield Acquire(lock)
        yield Delay(100)
        yield Release(lock)

    def thief():
        yield Delay(10)
        yield Release(lock)

    sim.spawn(owner())
    sim.spawn(thief())
    with pytest.raises(LockSanitizerError, match="'wal'.*held by 0"):
        sim.run()


def _leak_directly(lock):
    yield Acquire(lock)
    yield Delay(5)


def _acquire(lock):
    yield Acquire(lock)


def _leak_through_helper(lock):
    # The lock is taken inside a ``yield from`` helper and never released
    # by the caller: the interprocedural leak no single function shows.
    yield from _acquire(lock)
    yield Delay(5)


@pytest.mark.parametrize(
    "leaker", [_leak_directly, _leak_through_helper], ids=["direct", "helper"]
)
def test_lock_held_at_exit_names_lock(leaker):
    sim = Simulator(sanitizer=LockSanitizer())
    lock = Lock("btree-root")
    sim.spawn(leaker(lock))
    with pytest.raises(LockSanitizerError, match="btree-root.*deadlocked"):
        sim.run()


def test_lock_cycle_detected_at_block_time():
    sim = Simulator(sanitizer=LockSanitizer())
    lock_a = Lock("a")
    lock_b = Lock("b")

    def first():
        yield Acquire(lock_a)
        yield Delay(10)
        yield Acquire(lock_b)
        yield Release(lock_b)
        yield Release(lock_a)

    def second():
        yield Acquire(lock_b)
        yield Delay(10)
        yield Acquire(lock_a)
        yield Release(lock_a)
        yield Release(lock_b)

    sim.spawn(first())
    sim.spawn(second())
    with pytest.raises(LockSanitizerError, match="deadlock.*cycle"):
        sim.run()


def test_semaphore_slot_leak_at_exit():
    sim = Simulator(sanitizer=LockSanitizer())
    channels = Semaphore(2, name="channels")

    def leaker():
        yield AcquireSlot(channels)
        yield Delay(5)

    sim.spawn(leaker())
    with pytest.raises(LockSanitizerError, match="channels.*deadlocked"):
        sim.run()


def test_balanced_locking_is_clean():
    sim = Simulator(sanitizer=LockSanitizer())
    lock = Lock("log")

    def worker():
        for _ in range(3):
            yield Delay(10)
            yield Acquire(lock)
            yield Delay(20)
            yield Release(lock)

    for _ in range(4):
        sim.spawn(worker())
    sim.run()


# --------------------------------------------------------------------- #
# PersistenceSanitizer
# --------------------------------------------------------------------- #


def test_unfenced_durable_ack_names_pending_write():
    system = FlatFlash(small_config())
    pmem = create_pmem_region(system, num_pages=2)
    pmem.persist_store(128, 8, b"ledger01")
    sanitizer = system.ssd.persistence_sanitizer
    with pytest.raises(
        PersistenceSanitizerError, match=r"checkpoint.*1 posted.*offset=128"
    ):
        sanitizer.ack_durable("checkpoint")


def test_durable_store_fences_and_acks_clean():
    system = FlatFlash(small_config())
    pmem = create_pmem_region(system, num_pages=2)
    pmem.durable_store(0, 8, b"ledger01")
    assert system.ssd.persistence_sanitizer.pending_persist_writes == 0


def test_crash_clears_pending_writes():
    system = FlatFlash(small_config())
    pmem = create_pmem_region(system, num_pages=2)
    pmem.persist_store(0, 8, b"ledger01")
    system.ssd.crash()
    system.ssd.persistence_sanitizer.ack_durable("post-crash")  # nothing pending


def test_fence_with_unordered_link_writes_raises():
    sanitizer = PersistenceSanitizer()
    sanitizer.on_posted_tlp(3)
    with pytest.raises(PersistenceSanitizerError, match="3 posted cache lines"):
        sanitizer.on_fence()
    sanitizer.on_ordering_read()
    sanitizer.on_fence()  # ordered now: clean


def test_persist_routed_to_dram_names_frame():
    bridge = HostBridge(
        dram_bytes=1 << 20,
        ssd_bar=BarWindow(base=1 << 30, size=1 << 20),
        page_size=4096,
        plb_entries=8,
        persistence_sanitizer=PersistenceSanitizer(),
    )
    tagged = bridge.tag_persist(5 * 4096, persist=True)
    with pytest.raises(PersistenceSanitizerError, match="DRAM frame 5"):
        bridge.route(tagged)
    # The same address without the P bit routes fine.
    assert bridge.route(5 * 4096)[0] == "dram"
