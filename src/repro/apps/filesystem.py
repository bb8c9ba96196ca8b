"""File-system metadata persistence engines (§3.5, §5.5, Fig. 13).

Three journaling disciplines are modelled, matching the file systems the
paper instruments:

* **EXT4** — physical block journaling: every metadata structure an
  operation dirties is logged as a full page in the journal, plus a commit
  block; checkpointing (in-place write-back) happens in the background.
* **XFS** — logical journaling: compact log records, but the log write is
  still a block-interface I/O (one page per synchronous transaction).
* **BtrFS** — copy-on-write: no journal, but persisting an update rewrites
  the B-tree path (leaf + internal nodes + superblock tail).

Each engine runs on either persistence backend:

* **block** (TraditionalStack / UnifiedMMap): journal/COW writes go
  through the SSD's block interface, page-granular — the write
  amplification of Fig. 6.
* **byte** (FlatFlash): the same logical updates are persisted with
  byte-granular durable writes into a pmem region, one write-verify fence
  per operation (§3.5).

File *data* writes are page I/O on every backend; only metadata moves to
the byte path, exactly as the paper proposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.hierarchy import FlatFlash
from repro.core.memory_system import MemorySystem
from repro.core.persistence import PersistentRegion, create_pmem_region
from repro.workloads.filebench import MetadataOp, OpStream


class FileSystemKind(enum.Enum):
    EXT4 = "ext4"
    XFS = "xfs"
    BTRFS = "btrfs"


@dataclass
class FSRunResult:
    """Timing and traffic of one op-stream run."""

    name: str
    operations: int
    elapsed_ns: int
    flash_page_writes: int

    @property
    def mean_op_ns(self) -> float:
        """Mean per-op latency (reporting only; never fed back into timing)."""
        if self.operations == 0:
            return 0.0
        return self.elapsed_ns / self.operations  # simlint: disable=SL003

    @property
    def ops_per_sec(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.operations * 1e9 / self.elapsed_ns


def _journal_pages(kind: FileSystemKind, op: MetadataOp) -> int:
    """Synchronous page writes one operation costs on the block backend."""
    updates = len(op.updates)
    if updates == 0:
        return 0
    if kind is FileSystemKind.EXT4:
        # One journal page per dirtied metadata block, plus a commit block.
        return updates + 1
    if kind is FileSystemKind.XFS:
        # Logical log records are compact but the synchronous log write and
        # its tail update still cost two block I/Os per transaction.
        return 2
    # BtrFS copy-on-write: every dirtied structure rewrites its B-tree path
    # (leaf + internals) plus the log-tree/superblock tail.
    return 3 + updates


class _FileSystemBase:
    """Shared metadata-read and data-write paths."""

    def __init__(
        self,
        kind: FileSystemKind,
        system: MemorySystem,
        metadata_pages: int = 16,
        seed: int = 31,
    ) -> None:
        self.kind = kind
        self.system = system
        self.metadata_region = system.mmap(metadata_pages, name=f"{kind.value}.meta")
        self._rng = np.random.default_rng(seed)
        self._ops = system.stats.counter("fs.operations")
        self._data_lpn_cursor = 0

    def _read_metadata(self, count: int) -> None:
        """Directory/inode lookups: random 64-byte reads of metadata."""
        for _ in range(count):
            offset = int(self._rng.integers(0, self.metadata_region.size - 64))
            self.system.load(self.metadata_region.addr(offset), 64)

    def _write_data(self, data_bytes: int) -> None:
        """File data goes through page-granular writes on every backend."""
        if data_bytes <= 0:
            return
        device = getattr(self.system, "ssd", None)
        if device is None:
            return  # DRAM-only systems have no storage data path
        pages = -(-data_bytes // self.system.page_size)
        region_pages = self.metadata_region.num_pages
        software = self.system.config.latency.block_io_software_ns
        for _ in range(pages):
            lpn = self.metadata_region.base_vpn + (self._data_lpn_cursor % region_pages)
            self._data_lpn_cursor += 1
            cost = software + device.write_page_block(lpn, None)[1]
            self.system.charge_foreground(cost)

    def run(self, stream: OpStream) -> FSRunResult:
        """Apply an operation stream; returns timing and flash traffic."""
        device = getattr(self.system, "ssd", None)
        start_writes = device.flash.total_programs if device is not None else 0
        start_ns = self.system.clock.now
        for op in stream:
            self.apply(op)
        if device is not None:
            # Destage whatever still sits in the SSD-Cache so the flash
            # write counts compare like for like across backends.
            device.gc.flush_dirty()
        flash_writes = (
            device.flash.total_programs - start_writes if device is not None else 0
        )
        return FSRunResult(
            name=stream.name,
            operations=len(stream),
            elapsed_ns=self.system.clock.now - start_ns,
            flash_page_writes=flash_writes,
        )

    def apply(self, op: MetadataOp) -> None:
        raise NotImplementedError


class BlockJournalFS(_FileSystemBase):
    """Metadata persistence through the block interface (journal / COW)."""

    def __init__(
        self,
        kind: FileSystemKind,
        system: MemorySystem,
        metadata_pages: int = 64,
        journal_pages: int = 64,
        seed: int = 31,
    ) -> None:
        super().__init__(kind, system, metadata_pages, seed)
        self.journal_region = system.mmap(journal_pages, name=f"{kind.value}.journal")
        self._journal_cursor = 0
        self._journal_writes = system.stats.counter("fs.journal_page_writes")

    def _journal_write(self, pages: int) -> None:
        device = getattr(self.system, "ssd", None)
        if device is None:
            raise TypeError("block-backend file system needs an SSD-backed system")
        software = self.system.config.latency.block_io_software_ns
        for _ in range(pages):
            lpn = self.journal_region.base_vpn + (
                self._journal_cursor % self.journal_region.num_pages
            )
            self._journal_cursor += 1
            cost = software + device.write_page_block(lpn, None)[1]
            self.system.charge_foreground(cost)
            self._journal_writes.add()

    def apply(self, op: MetadataOp) -> None:
        self._ops.add()
        self._read_metadata(op.metadata_reads)
        self._write_data(op.data_bytes)
        pages = _journal_pages(self.kind, op)
        if pages:
            self._journal_write(pages)
            if self.kind is not FileSystemKind.BTRFS:
                # Journal checkpoint: in-place metadata write-back, deferred.
                checkpoint = len(op.updates) * self.system.config.latency.flash_program_page_ns
                self.system.charge_background(checkpoint)


class ByteGranularFS(_FileSystemBase):
    """FlatFlash metadata persistence: byte-granular durable writes."""

    def __init__(
        self,
        kind: FileSystemKind,
        system: FlatFlash,
        metadata_pages: int = 64,
        pmem_pages: int = 16,
        seed: int = 31,
    ) -> None:
        if not getattr(system, "supports_byte_persistence", False):
            raise TypeError("byte-granular persistence requires a FlatFlash system")
        super().__init__(kind, system, metadata_pages, seed)
        self.pmem: PersistentRegion = create_pmem_region(
            system, pmem_pages, name=f"{kind.value}.pmem"
        )
        self._pmem_cursor = 0

    def _write_data(self, data_bytes: int) -> None:
        """Small synchronous appends ride the byte-granular path too; bulk
        data still goes through page writes (the paper only moves
        *metadata* and small log payloads off the block interface)."""
        if data_bytes <= 0:
            return
        if data_bytes <= self.system.page_size // 4:
            offset = self._pmem_cursor % (self.pmem.size - self.system.page_size)
            self._pmem_cursor += data_bytes
            self.pmem.persist_store(offset, data_bytes)
            return
        super()._write_data(data_bytes)

    def _persist_updates(self, op: MetadataOp) -> None:
        """Persist each metadata structure in place, one fence per op."""
        for size in op.updates:
            offset = self._pmem_cursor % (self.pmem.size - 256)
            self._pmem_cursor += size
            self.pmem.persist_store(offset, size)
        if op.updates:
            self.pmem.commit()

    def apply(self, op: MetadataOp) -> None:
        self._ops.add()
        self._read_metadata(op.metadata_reads)
        self._write_data(op.data_bytes)
        self._persist_updates(op)


def make_filesystem(
    kind: FileSystemKind,
    system: MemorySystem,
    byte_granular: Optional[bool] = None,
    metadata_pages: int = 64,
    seed: int = 31,
) -> Union[BlockJournalFS, ByteGranularFS]:
    """Build the right engine for a system: FlatFlash gets the byte path."""
    if byte_granular is None:
        byte_granular = getattr(system, "supports_byte_persistence", False)
    if byte_granular:
        if not getattr(system, "supports_byte_persistence", False):
            raise TypeError("byte-granular persistence requires FlatFlash")
        return ByteGranularFS(kind, system, metadata_pages=metadata_pages, seed=seed)
    return BlockJournalFS(kind, system, metadata_pages=metadata_pages, seed=seed)
