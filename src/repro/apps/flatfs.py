"""FlatFS: a small file system with byte-granular metadata persistence.

The Fig. 13 engines *model* file-system persistence costs; FlatFS is the
real thing at miniature scale — a working hierarchical file system whose
metadata lives in FlatFlash persistent memory and is made crash-consistent
the way §3.5 proposes:

* the **inode table** and **block bitmap** sit in a pmem region and are
  updated with posted byte-granular writes (tens of bytes per op, not
  journal pages);
* every namespace operation first appends one **logical redo record** to
  a write-ahead log (a single fenced byte-granular append) describing the
  op as *absolute state assignments* — replaying a record any number of
  times yields the same state, so recovery is a simple idempotent redo of
  the log over the on-flash metadata;
* **file data** goes through ordinary (page-granular) writes, like the
  paper's designs: only metadata moves to the byte interface.

Limitations (deliberate, documented): names up to 23 bytes, at most
``DIRECT_BLOCKS`` data blocks per file, directories hold one block of
entries, no permissions.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.hierarchy import FlatFlash
from repro.core.persistence import PersistentRegion, create_pmem_region
from repro.apps.wal import WriteAheadLog

INODE_SIZE = 64
DIRECT_BLOCKS = 10
NAME_LEN = 23
DIRENT_SIZE = 32
FREE, FILE, DIR = 0, 1, 2

_INODE = struct.Struct("<BxHI" + "I" * DIRECT_BLOCKS + "x" * 16)
assert _INODE.size == INODE_SIZE
_DIRENT = struct.Struct("<I4x23sB")
assert _DIRENT.size == DIRENT_SIZE

# Redo records (absolute state assignments).
_REC_SET_INODE = 1  # ino, type, nlink, size, blocks[10]
_REC_SET_DIRENT = 2  # dir_ino, slot, child_ino, name, used
_REC_SET_BITMAP = 3  # block, used
_HDR = struct.Struct("<B")
_R_INODE = struct.Struct("<IBxH I" + "I" * DIRECT_BLOCKS)
_R_DIRENT = struct.Struct("<III23sB")
_R_BITMAP = struct.Struct("<IB")


class FsError(Exception):
    """File-system operation error (missing path, exists, full, ...)."""


class FlatFS:
    """A hierarchical file system over a FlatFlash memory system."""

    def __init__(
        self,
        system: FlatFlash,
        num_inodes: int = 64,
        data_blocks: int = 64,
        name: str = "flatfs",
    ) -> None:
        if not getattr(system, "supports_byte_persistence", False):
            raise TypeError("FlatFS needs a FlatFlash system (byte persistence)")
        if not system.config.track_data:
            raise ValueError("FlatFS needs track_data=True")
        if num_inodes < 2 or data_blocks < 1:
            raise ValueError("need at least 2 inodes and 1 data block")
        self.system = system
        self.num_inodes = num_inodes
        self.data_blocks = data_blocks
        self.block_size = system.page_size
        itable_bytes = num_inodes * INODE_SIZE + data_blocks  # + bitmap bytes
        self.meta = create_pmem_region(
            system, -(-itable_bytes // system.page_size), name=f"{name}.meta"
        )
        self._bitmap_base = num_inodes * INODE_SIZE
        self.data_region = system.mmap(data_blocks, name=f"{name}.data")
        self.wal = WriteAheadLog.create(system, num_pages=4, name=f"{name}.wal")
        self._dirents_per_block = self.block_size // DIRENT_SIZE
        # Root directory (inode 0) with its directory block.
        if self._read_inode(0)[0] == FREE:
            block = self._alloc_block()
            self._set_inode(0, DIR, 1, self.block_size, [block] + [0] * 9)
            self.checkpoint()

    @classmethod
    def reattach(cls, system: FlatFlash, old: "FlatFS") -> "FlatFS":
        """Rebind a file system to a restarted FlatFlash (post power loss).

        The regions are the same address ranges on the same flash image —
        only the host objects are rebuilt.  No region is created and the
        root is not re-formatted: the metadata on flash is authoritative.
        The caller runs :meth:`recover` on the result to redo the journal.
        """
        fs = cls.__new__(cls)
        fs.system = system
        fs.num_inodes = old.num_inodes
        fs.data_blocks = old.data_blocks
        fs.block_size = old.block_size
        fs.meta = PersistentRegion(system, old.meta.region)
        fs._bitmap_base = old._bitmap_base
        fs.data_region = old.data_region
        fs.wal = WriteAheadLog(PersistentRegion(system, old.wal.pmem.region))
        fs._dirents_per_block = old._dirents_per_block
        return fs

    # ------------------------------------------------------------------ #
    # Raw metadata accessors (pmem region)
    # ------------------------------------------------------------------ #

    def _inode_off(self, ino: int) -> int:
        if not 0 <= ino < self.num_inodes:
            raise FsError(f"inode {ino} out of range")
        return ino * INODE_SIZE

    def _read_inode(self, ino: int) -> Tuple[int, int, int, List[int]]:
        raw = self.meta.load(self._inode_off(ino), INODE_SIZE)
        fields = _INODE.unpack(raw)
        return fields[0], fields[1], fields[2], list(fields[3 : 3 + DIRECT_BLOCKS])

    def _set_inode(
        self, ino: int, itype: int, nlink: int, size: int, blocks: List[int]
    ) -> None:
        packed = _INODE.pack(itype, nlink, size, *blocks)
        self.meta.persist_store(self._inode_off(ino), INODE_SIZE, packed)

    def _bitmap_get(self, block: int) -> bool:
        raw = self.meta.load(self._bitmap_base + block, 1)
        return raw[0] != 0

    def _bitmap_set(self, block: int, used: bool) -> None:
        self.meta.persist_store(
            self._bitmap_base + block, 1, b"\x01" if used else b"\x00"
        )

    def _alloc_inode(self) -> int:
        for ino in range(1, self.num_inodes):
            if self._read_inode(ino)[0] == FREE:
                return ino
        raise FsError("out of inodes")

    def _alloc_block(self) -> int:
        for block in range(self.data_blocks):
            if not self._bitmap_get(block):
                self._bitmap_set(block, True)
                return block
        raise FsError("out of data blocks")

    # ------------------------------------------------------------------ #
    # Directory entries (stored in the directory's first data block)
    # ------------------------------------------------------------------ #

    def _dirent_addr(self, dir_block: int, slot: int) -> int:
        return self.data_region.page_addr(dir_block, slot * DIRENT_SIZE)

    def _read_dirent(self, dir_block: int, slot: int) -> Tuple[int, str, bool]:
        raw = self.system.load(self._dirent_addr(dir_block, slot), DIRENT_SIZE).data
        child, name, used = _DIRENT.unpack(raw)
        return child, name.rstrip(b"\x00").decode(errors="replace"), bool(used)

    def _write_dirent(
        self, dir_block: int, slot: int, child: int, name: str, used: bool
    ) -> None:
        packed = _DIRENT.pack(child, name.encode()[:NAME_LEN], int(used))
        self.system.store(self._dirent_addr(dir_block, slot), DIRENT_SIZE, packed)

    def _dir_entries(self, dir_ino: int) -> Iterator[Tuple[int, int, str]]:
        itype, _n, _size, blocks = self._read_inode(dir_ino)
        if itype != DIR:
            raise FsError(f"inode {dir_ino} is not a directory")
        for slot in range(self._dirents_per_block):
            child, name, used = self._read_dirent(blocks[0], slot)
            if used:
                yield slot, child, name

    def _find(self, dir_ino: int, name: str) -> Optional[Tuple[int, int]]:
        for slot, child, entry_name in self._dir_entries(dir_ino):
            if entry_name == name:
                return slot, child
        return None

    def _free_slot(self, dir_ino: int) -> int:
        _t, _n, _s, blocks = self._read_inode(dir_ino)
        for slot in range(self._dirents_per_block):
            _child, _name, used = self._read_dirent(blocks[0], slot)
            if not used:
                return slot
        raise FsError("directory full")

    # ------------------------------------------------------------------ #
    # Path resolution
    # ------------------------------------------------------------------ #

    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [part for part in path.split("/") if part]
        for part in parts:
            if len(part.encode()) > NAME_LEN:
                raise FsError(f"name {part!r} longer than {NAME_LEN} bytes")
        return parts

    def _resolve_dir(self, parts: List[str]) -> int:
        """Inode of the directory identified by ``parts``."""
        ino = 0
        for part in parts:
            hit = self._find(ino, part)
            if hit is None:
                raise FsError(f"no such directory: {part!r}")
            ino = hit[1]
            if self._read_inode(ino)[0] != DIR:
                raise FsError(f"{part!r} is not a directory")
        return ino

    def _resolve_parent(self, path: str) -> Tuple[int, str]:
        parts = self._split(path)
        if not parts:
            raise FsError("path names the root")
        return self._resolve_dir(parts[:-1]), parts[-1]

    # ------------------------------------------------------------------ #
    # Redo journaling
    # ------------------------------------------------------------------ #

    def _log_inode(self, ino: int, itype: int, nlink: int, size: int, blocks: List[int]) -> bytes:
        return _HDR.pack(_REC_SET_INODE) + _R_INODE.pack(ino, itype, nlink, size, *blocks)

    def _log_dirent(self, dir_ino: int, slot: int, child: int, name: str, used: bool) -> bytes:
        return _HDR.pack(_REC_SET_DIRENT) + _R_DIRENT.pack(
            dir_ino, slot, child, name.encode()[:NAME_LEN], int(used)
        )

    def _log_bitmap(self, block: int, used: bool) -> bytes:
        return _HDR.pack(_REC_SET_BITMAP) + _R_BITMAP.pack(block, int(used))

    def _journal(self, records: List[bytes]) -> None:
        """One fenced append covering an op's absolute state assignments."""
        self.wal.append(b"".join(records))

    def _apply_record(self, payload: bytes) -> None:
        kind = payload[0]
        body = payload[1:]
        if kind == _REC_SET_INODE:
            fields = _R_INODE.unpack(body)
            self._set_inode(fields[0], fields[1], fields[2], fields[3], list(fields[4:]))
        elif kind == _REC_SET_DIRENT:
            dir_ino, slot, child, name, used = _R_DIRENT.unpack(body)
            _t, _n, _s, blocks = self._read_inode(dir_ino)
            self._write_dirent(
                blocks[0], slot, child,
                name.rstrip(b"\x00").decode(errors="replace"), bool(used),
            )
        elif kind == _REC_SET_BITMAP:
            block, used = _R_BITMAP.unpack(body)
            self._bitmap_set(block, bool(used))
        else:
            raise FsError(f"unknown redo record kind {kind}")

    def _apply_op(self, op_payload: bytes) -> None:
        offset = 0
        sizes = {
            _REC_SET_INODE: 1 + _R_INODE.size,
            _REC_SET_DIRENT: 1 + _R_DIRENT.size,
            _REC_SET_BITMAP: 1 + _R_BITMAP.size,
        }
        while offset < len(op_payload):
            kind = op_payload[offset]
            size = sizes.get(kind)
            if size is None:
                raise FsError(f"corrupt redo op at offset {offset}")
            self._apply_record(op_payload[offset : offset + size])
            offset += size

    def checkpoint(self) -> None:
        """Fence all metadata and truncate the journal."""
        self.meta.commit()
        self.wal.truncate()

    def recover(self) -> int:
        """After a crash: idempotently redo the journal; returns ops redone.

        Directory blocks live in the data region, whose page contents are
        read back from flash by the normal access path after the device
        crash handling — the redo records rewrite exactly the slots each
        logged op touched.
        """
        ops = self.wal.recover()
        for op_payload in ops:
            self._apply_op(op_payload)
        self.checkpoint()
        return len(ops)

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #

    def create(self, path: str) -> int:
        """Create an empty file; returns its inode."""
        parent, name = self._resolve_parent(path)
        if self._find(parent, name) is not None:
            raise FsError(f"{path!r} exists")
        ino = self._alloc_inode()
        slot = self._free_slot(parent)
        self._journal([
            self._log_inode(ino, FILE, 1, 0, [0] * DIRECT_BLOCKS),
            self._log_dirent(parent, slot, ino, name, True),
        ])
        self._set_inode(ino, FILE, 1, 0, [0] * DIRECT_BLOCKS)
        _t, _n, _s, blocks = self._read_inode(parent)
        self._write_dirent(blocks[0], slot, ino, name, True)
        return ino

    def mkdir(self, path: str) -> int:
        parent, name = self._resolve_parent(path)
        if self._find(parent, name) is not None:
            raise FsError(f"{path!r} exists")
        ino = self._alloc_inode()
        block = self._alloc_block()
        # A recycled block may still hold old file bytes, which would parse
        # as garbage directory entries; scrub it before the dir goes live.
        self.system.store(
            self.data_region.page_addr(block, 0),
            self.block_size,
            b"\x00" * self.block_size,
        )
        slot = self._free_slot(parent)
        blocks = [block] + [0] * (DIRECT_BLOCKS - 1)
        self._journal([
            self._log_bitmap(block, True),
            self._log_inode(ino, DIR, 1, self.block_size, blocks),
            self._log_dirent(parent, slot, ino, name, True),
        ])
        self._set_inode(ino, DIR, 1, self.block_size, blocks)
        _t, _n, _s, pblocks = self._read_inode(parent)
        self._write_dirent(pblocks[0], slot, ino, name, True)
        return ino

    def write_file(self, path: str, data: bytes) -> None:
        """Replace a file's contents (data page-granular, metadata byte)."""
        parent, name = self._resolve_parent(path)
        hit = self._find(parent, name)
        if hit is None:
            raise FsError(f"no such file: {path!r}")
        ino = hit[1]
        itype, nlink, old_size, old_blocks = self._read_inode(ino)
        if itype != FILE:
            raise FsError(f"{path!r} is not a file")
        needed = -(-len(data) // self.block_size) if data else 0
        if needed > DIRECT_BLOCKS:
            raise FsError(f"file of {len(data)} bytes exceeds {DIRECT_BLOCKS} blocks")
        new_blocks = []
        old_live = [
            block
            for index, block in enumerate(old_blocks)
            if index * self.block_size < old_size
        ]
        for index in range(needed):
            if index < len(old_live):
                new_blocks.append(old_live[index])
            else:
                new_blocks.append(self._alloc_block())
        records = [
            self._log_bitmap(block, True) for block in new_blocks[len(old_live):]
        ]
        freed = old_live[needed:]
        records += [self._log_bitmap(block, False) for block in freed]
        padded = new_blocks + [0] * (DIRECT_BLOCKS - len(new_blocks))
        records.append(self._log_inode(ino, FILE, nlink, len(data), padded))
        self._journal(records)
        for block in freed:
            self._bitmap_set(block, False)
        for index, block in enumerate(new_blocks):
            chunk = data[index * self.block_size : (index + 1) * self.block_size]
            self.system.store(
                self.data_region.page_addr(block, 0),
                len(chunk),
                chunk,
            )
        self._set_inode(ino, FILE, nlink, len(data), padded)

    def read_file(self, path: str) -> bytes:
        parent, name = self._resolve_parent(path)
        hit = self._find(parent, name)
        if hit is None:
            raise FsError(f"no such file: {path!r}")
        itype, _n, size, blocks = self._read_inode(hit[1])
        if itype != FILE:
            raise FsError(f"{path!r} is not a file")
        out = bytearray()
        remaining = size
        for block in blocks:
            if remaining <= 0:
                break
            chunk = min(remaining, self.block_size)
            data = self.system.load(self.data_region.page_addr(block, 0), chunk).data
            out.extend(data)
            remaining -= chunk
        return bytes(out)

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        hit = self._find(parent, name)
        if hit is None:
            raise FsError(f"no such file: {path!r}")
        slot, ino = hit
        itype, nlink, size, blocks = self._read_inode(ino)
        if itype == DIR and any(True for _ in self._dir_entries(ino)):
            raise FsError(f"directory {path!r} not empty")
        if itype == FILE and nlink > 1:
            # Other hard links remain: just drop this name.
            self._journal([
                self._log_dirent(parent, slot, 0, "", False),
                self._log_inode(ino, FILE, nlink - 1, size, blocks),
            ])
            _t, _n2, _s, pblocks = self._read_inode(parent)
            self._write_dirent(pblocks[0], slot, 0, "", False)
            self._set_inode(ino, FILE, nlink - 1, size, blocks)
            return
        live = [b for i, b in enumerate(blocks) if i * self.block_size < size]
        if itype == DIR:
            live = [blocks[0]]
        records = [
            self._log_dirent(parent, slot, 0, "", False),
            self._log_inode(ino, FREE, 0, 0, [0] * DIRECT_BLOCKS),
        ]
        records += [self._log_bitmap(block, False) for block in live]
        self._journal(records)
        _t, _n2, _s, pblocks = self._read_inode(parent)
        self._write_dirent(pblocks[0], slot, 0, "", False)
        self._set_inode(ino, FREE, 0, 0, [0] * DIRECT_BLOCKS)
        for block in live:
            self._bitmap_set(block, False)

    def rename(self, old_path: str, new_path: str) -> None:
        old_parent, old_name = self._resolve_parent(old_path)
        hit = self._find(old_parent, old_name)
        if hit is None:
            raise FsError(f"no such file: {old_path!r}")
        old_slot, ino = hit
        new_parent, new_name = self._resolve_parent(new_path)
        if self._find(new_parent, new_name) is not None:
            raise FsError(f"{new_path!r} exists")
        new_slot = self._free_slot(new_parent)
        self._journal([
            self._log_dirent(new_parent, new_slot, ino, new_name, True),
            self._log_dirent(old_parent, old_slot, 0, "", False),
        ])
        _t, _n, _s, nblocks = self._read_inode(new_parent)
        self._write_dirent(nblocks[0], new_slot, ino, new_name, True)
        _t, _n, _s, oblocks = self._read_inode(old_parent)
        self._write_dirent(oblocks[0], old_slot, 0, "", False)

    def link(self, existing_path: str, new_path: str) -> None:
        """Create a hard link: two directory entries, one inode."""
        parent, name = self._resolve_parent(existing_path)
        hit = self._find(parent, name)
        if hit is None:
            raise FsError(f"no such file: {existing_path!r}")
        ino = hit[1]
        itype, nlink, size, blocks = self._read_inode(ino)
        if itype != FILE:
            raise FsError("hard links to directories are not allowed")
        new_parent, new_name = self._resolve_parent(new_path)
        if self._find(new_parent, new_name) is not None:
            raise FsError(f"{new_path!r} exists")
        slot = self._free_slot(new_parent)
        self._journal([
            self._log_inode(ino, FILE, nlink + 1, size, blocks),
            self._log_dirent(new_parent, slot, ino, new_name, True),
        ])
        self._set_inode(ino, FILE, nlink + 1, size, blocks)
        _t, _n, _s, pblocks = self._read_inode(new_parent)
        self._write_dirent(pblocks[0], slot, ino, new_name, True)

    def append_file(self, path: str, data: bytes) -> None:
        """Append to a file (read-modify-write of the tail block)."""
        if not data:
            return
        current = self.read_file(path)
        self.write_file(path, current + data)

    def listdir(self, path: str = "/") -> List[str]:
        parts = self._split(path)
        ino = self._resolve_dir(parts)
        return sorted(name for _slot, _child, name in self._dir_entries(ino))

    def exists(self, path: str) -> bool:
        try:
            parent, name = self._resolve_parent(path)
        except FsError:
            return len(self._split(path)) == 0  # the root always exists
        return self._find(parent, name) is not None

    def fsck(self) -> List[str]:
        """Consistency check; returns a list of problems (empty = clean).

        Invariants checked:

        * every directory entry points at an allocated inode;
        * every file inode's link count equals its directory references;
        * every live data block is marked used in the bitmap;
        * no two inodes share a data block;
        * no allocated inode is orphaned (unreachable from the root);
        * no bitmap bit is set without an owning inode.
        """
        problems: List[str] = []
        referenced: Dict[int, int] = {}
        reachable = {0}
        stack = [0]
        while stack:
            dir_ino = stack.pop()
            for _slot, child, name in self._dir_entries(dir_ino):
                itype = self._read_inode(child)[0]
                if itype == FREE:
                    problems.append(f"dirent {name!r} points at free inode {child}")
                    continue
                referenced[child] = referenced.get(child, 0) + 1
                if itype == DIR and child not in reachable:
                    reachable.add(child)
                    stack.append(child)
                else:
                    reachable.add(child)
        block_owner: Dict[int, int] = {}
        for ino in range(self.num_inodes):
            itype, nlink, size, blocks = self._read_inode(ino)
            if itype == FREE:
                continue
            if ino != 0 and ino not in reachable:
                problems.append(f"orphan inode {ino}")
            if itype == FILE and referenced.get(ino, 0) != nlink:
                problems.append(
                    f"inode {ino}: nlink={nlink} but {referenced.get(ino, 0)} dirents"
                )
            live = [
                block
                for index, block in enumerate(blocks)
                if index * self.block_size < max(size, 1 if itype == DIR else 0)
            ]
            if itype == DIR:
                live = [blocks[0]]
            for block in live:
                if not self._bitmap_get(block):
                    problems.append(f"inode {ino} uses unallocated block {block}")
                if block in block_owner:
                    problems.append(
                        f"block {block} shared by inodes {block_owner[block]} and {ino}"
                    )
                block_owner[block] = ino
        for block in range(self.data_blocks):
            if self._bitmap_get(block) and block not in block_owner:
                problems.append(f"leaked block {block} (bitmap set, no owner)")
        return problems

    def stat(self, path: str) -> Dict[str, int]:
        parent, name = self._resolve_parent(path)
        hit = self._find(parent, name)
        if hit is None:
            raise FsError(f"no such path: {path!r}")
        itype, nlink, size, _blocks = self._read_inode(hit[1])
        return {"ino": hit[1], "type": itype, "nlink": nlink, "size": size}
