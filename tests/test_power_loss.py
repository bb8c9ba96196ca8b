"""Power-loss injection, restart, and crash-recovery invariants.

Includes the property-based sweep (hypothesis) of power-loss instants
across a WAL commit: at no instant may recovery observe a torn commit —
the recovered log is always an exact prefix of what was appended, and
every acknowledged (fenced) append survives.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.flatfs import FlatFS
from repro.apps.wal import WriteAheadLog
from repro.config import small_config
from repro.core.hierarchy import FlatFlash
from repro.core.persistence import PersistentRegion, create_pmem_region
from repro.faults.power import PowerLossInjector, restart_system
from repro.faults.recovery import (
    check_flatfs,
    check_log_monotonic,
    check_wal_prefix,
)
from repro.sim.clock import PowerLossTriggered, SimClock


# --------------------------------------------------------------------- #
# Clock deadline semantics
# --------------------------------------------------------------------- #


def test_advance_past_deadline_raises_and_disarms():
    clock = SimClock()
    clock.arm_power_loss(100)
    clock.advance(99)
    with pytest.raises(PowerLossTriggered) as exc:
        clock.advance(5)
    assert exc.value.at_ns == 100
    assert clock.power_deadline is None  # disarmed before raising
    clock.advance(1_000)  # crash handling may keep advancing freely


def test_disarm_cancels():
    clock = SimClock()
    clock.arm_power_loss(10)
    clock.disarm_power_loss()
    clock.advance(100)
    assert clock.now == 100


def test_injector_reports_untripped_run():
    system = FlatFlash(small_config(track_data=True))
    injector = PowerLossInjector(system, 10**15)
    assert injector.run(lambda: system.clock.advance(10)) is False
    assert injector.tripped_at_ns is None
    assert system.clock.power_deadline is None


# --------------------------------------------------------------------- #
# Restart: surviving image, rebuilt address space
# --------------------------------------------------------------------- #


def test_restart_preserves_durable_bytes_and_addresses():
    system = FlatFlash(small_config(track_data=True))
    pmem = create_pmem_region(system, 2, name="surv")
    pmem.durable_store(100, 8, b"ABCDEFGH")
    plain = system.mmap(2, name="volatile")
    system.store(plain.addr(0), 4, b"wxyz")
    restarted = restart_system(system)
    # Same region descriptors, same virtual addresses, fresh host state.
    assert restarted.regions == system.regions
    assert restarted.clock.now == 0
    again = PersistentRegion(restarted, pmem.region)
    assert again.recover_bytes(100, 8) == b"ABCDEFGH"
    # The plain region is still mapped and readable after restart.
    assert restarted.load(plain.addr(0), 4).latency_ns > 0


def test_restart_drops_unfenced_posted_writes():
    system = FlatFlash(small_config(track_data=True))
    pmem = create_pmem_region(system, 1, name="unfenced")
    pmem.durable_store(0, 4, b"OLD!")
    pmem.persist_store(0, 4, b"NEW!")  # posted, never fenced
    restarted = restart_system(system)
    again = PersistentRegion(restarted, pmem.region)
    assert again.recover_bytes(0, 4) == b"OLD!"


# --------------------------------------------------------------------- #
# Property: no torn WAL commit at any power-loss instant (satellite)
# --------------------------------------------------------------------- #

_PAYLOADS = [bytes([index]) * (8 + 3 * index) for index in range(10)]


def _wal_workload_span():
    system = FlatFlash(small_config(track_data=True))
    wal = WriteAheadLog.create(system, num_pages=2, name="span")
    for payload in _PAYLOADS:
        wal.append(payload)
    return system.clock.now


_SPAN = _wal_workload_span()


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=_SPAN))
def test_power_loss_never_tears_a_wal_commit(at_ns):
    system = FlatFlash(small_config(track_data=True))
    wal = WriteAheadLog.create(system, num_pages=2, name="prop")
    completed = []

    def workload():
        for payload in _PAYLOADS:
            wal.append(payload)  # fence=True: durable once append returns
            completed.append(payload)

    tripped = PowerLossInjector(system, at_ns).run(workload)
    if not tripped:
        assert completed == _PAYLOADS
        return
    restarted = restart_system(system)
    recovered = WriteAheadLog(
        PersistentRegion(restarted, wal.pmem.region)
    ).recover()
    assert check_wal_prefix(_PAYLOADS, recovered) == []
    # Every acknowledged append must have survived the crash.
    assert len(recovered) >= len(completed)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=1, max_value=_SPAN))
def test_recovered_log_can_continue_appending(at_ns):
    system = FlatFlash(small_config(track_data=True))
    wal = WriteAheadLog.create(system, num_pages=2, name="cont")

    def workload():
        for payload in _PAYLOADS:
            wal.append(payload)

    if not PowerLossInjector(system, at_ns).run(workload):
        return
    restarted = restart_system(system)
    again = WriteAheadLog(PersistentRegion(restarted, wal.pmem.region))
    prefix = again.recover()
    again.append(b"post-crash")
    assert again.records() == prefix + [b"post-crash"]


def test_monotonic_log_survives_midstream_loss():
    import struct

    system = FlatFlash(small_config(track_data=True))
    wal = WriteAheadLog.create(system, num_pages=2, name="mono")

    def workload():
        for sequence in range(12):
            wal.append(struct.pack("<Q", sequence))

    target = FlatFlash(small_config(track_data=True))
    probe = WriteAheadLog.create(target, num_pages=2, name="probe")
    for sequence in range(12):
        probe.append(struct.pack("<Q", sequence))
    midpoint = target.clock.now // 2

    assert PowerLossInjector(system, midpoint).run(workload)
    restarted = restart_system(system)
    recovered = WriteAheadLog(
        PersistentRegion(restarted, wal.pmem.region)
    ).recover()
    assert check_log_monotonic(recovered) == []
    assert 0 < len(recovered) < 12


# --------------------------------------------------------------------- #
# FlatFS power loss: fsck clean after redo recovery
# --------------------------------------------------------------------- #


def _flatfs_ops(fs):
    fs.mkdir("/d")
    fs.create("/d/a")
    fs.write_file("/d/a", b"abc" * 200)
    fs.create("/top")
    fs.link("/d/a", "/hard")
    fs.rename("/top", "/d/top")
    fs.unlink("/hard")
    fs.mkdir("/d/e")
    fs.create("/d/e/f")
    fs.unlink("/d/top")


def _flatfs_span():
    system = FlatFlash(small_config(track_data=True))
    fs = FlatFS(system, num_inodes=16, data_blocks=16)
    start = system.clock.now
    _flatfs_ops(fs)
    return start, system.clock.now


@pytest.mark.parametrize("fraction", [1, 3, 7, 12, 19, 23])
def test_flatfs_fsck_clean_after_power_loss(fraction):
    start, end = _flatfs_span()
    at_ns = start + max(1, ((end - start) * fraction) // 24)
    system = FlatFlash(small_config(track_data=True))
    fs = FlatFS(system, num_inodes=16, data_blocks=16)
    tripped = PowerLossInjector(system, at_ns).run(lambda: _flatfs_ops(fs))
    assert tripped  # all sampled instants sit inside the op stream
    restarted = restart_system(system)
    recovered = FlatFS.reattach(restarted, fs)
    recovered.recover()
    assert check_flatfs(recovered) == []
    # The namespace keeps working post-recovery.
    recovered.create("/after-crash")
    assert recovered.exists("/after-crash")
    assert recovered.fsck() == []
