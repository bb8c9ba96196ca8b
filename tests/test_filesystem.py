"""Tests for the file-system persistence engines."""

import pytest

from repro import FlatFlash, UnifiedMMap, small_config
from repro.apps.filesystem import (
    BlockJournalFS,
    ByteGranularFS,
    FileSystemKind,
    _journal_pages,
    make_filesystem,
)
from repro.workloads.filebench import CREATE_FILE, READ_FILE, repeated_ops, workload_by_name


def test_journal_page_counts_ordered_by_amplification():
    # For the same op, COW (BtrFS) > physical journal (EXT4) > logical (XFS).
    ext4 = _journal_pages(FileSystemKind.EXT4, CREATE_FILE)
    xfs = _journal_pages(FileSystemKind.XFS, CREATE_FILE)
    btrfs = _journal_pages(FileSystemKind.BTRFS, CREATE_FILE)
    assert btrfs > ext4 > xfs


def test_read_only_op_needs_no_journal():
    for kind in FileSystemKind:
        assert _journal_pages(kind, READ_FILE) == 0


def test_make_filesystem_picks_backend():
    flat = make_filesystem(FileSystemKind.EXT4, FlatFlash(small_config()))
    block = make_filesystem(FileSystemKind.EXT4, UnifiedMMap(small_config()))
    assert isinstance(flat, ByteGranularFS)
    assert isinstance(block, BlockJournalFS)


def test_byte_backend_requires_flatflash():
    with pytest.raises(TypeError):
        make_filesystem(
            FileSystemKind.EXT4, UnifiedMMap(small_config()), byte_granular=True
        )


def test_block_run_produces_flash_writes():
    system = UnifiedMMap(small_config())
    filesystem = make_filesystem(FileSystemKind.EXT4, system)
    outcome = filesystem.run(repeated_ops(CREATE_FILE, 10))
    assert outcome.operations == 10
    assert outcome.flash_page_writes >= 10  # journal amplification
    assert outcome.elapsed_ns > 0


def test_byte_backend_is_faster_per_op():
    flat_system = FlatFlash(small_config())
    block_system = UnifiedMMap(small_config())
    flat = make_filesystem(FileSystemKind.EXT4, flat_system)
    block = make_filesystem(FileSystemKind.EXT4, block_system)
    stream = repeated_ops(CREATE_FILE, 20)
    flat_result = flat.run(stream)
    block_result = block.run(stream)
    assert flat_result.mean_op_ns < block_result.mean_op_ns


def test_byte_backend_reduces_flash_writes():
    flat = make_filesystem(FileSystemKind.BTRFS, FlatFlash(small_config()))
    block = make_filesystem(FileSystemKind.BTRFS, UnifiedMMap(small_config()))
    stream = repeated_ops(CREATE_FILE, 20)
    flat_writes = flat.run(stream).flash_page_writes
    block_writes = block.run(stream).flash_page_writes
    assert flat_writes < block_writes


def test_btrfs_block_costs_more_than_xfs():
    xfs = make_filesystem(FileSystemKind.XFS, UnifiedMMap(small_config()))
    btrfs = make_filesystem(FileSystemKind.BTRFS, UnifiedMMap(small_config()))
    stream = repeated_ops(CREATE_FILE, 15)
    assert btrfs.run(stream).mean_op_ns > xfs.run(stream).mean_op_ns


def test_all_five_workloads_run_on_both_backends():
    for name in ("CreateFile", "RenameFile", "CreateDirectory", "VarMail", "WebServer"):
        for system_cls in (FlatFlash, UnifiedMMap):
            system = system_cls(small_config())
            filesystem = make_filesystem(FileSystemKind.EXT4, system)
            outcome = filesystem.run(workload_by_name(name, 8))
            assert outcome.operations == 8


def test_ops_per_sec_metric():
    system = FlatFlash(small_config())
    filesystem = make_filesystem(FileSystemKind.EXT4, system)
    outcome = filesystem.run(repeated_ops(CREATE_FILE, 5))
    assert outcome.ops_per_sec == pytest.approx(
        outcome.operations * 1e9 / outcome.elapsed_ns
    )
