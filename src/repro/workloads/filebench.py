"""FileBench-style metadata operation streams (§5.5, Fig. 13).

Each file-system operation is modelled as the set of *metadata updates* it
must persist (inode, directory entry, allocation bitmap, journal record —
8-256 bytes each, §3.5) plus the metadata reads it needs.  The block-based
engines in :mod:`repro.apps.filesystem` turn every update into page-sized
journal or copy-on-write I/O; FlatFlash persists the bytes directly.

Primitive sizes follow the paper's discussion: file creation allocates an
inode and updates the parent directory, which block file systems amplify
into 16-116 KB of write I/O [47]; VarMail emulates a mail server (one file
per message, fsync-heavy); WebServer emulates static serving plus log
appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class MetadataOp:
    """One file-system operation's persistence footprint."""

    name: str
    #: Byte sizes of the metadata structures that must be made durable.
    updates: Tuple[int, ...]
    #: Metadata blocks that must be read first (directory lookup etc.).
    metadata_reads: int = 0
    #: File *data* bytes written alongside (page-granular on every system).
    data_bytes: int = 0

    @property
    def metadata_bytes(self) -> int:
        return sum(self.updates)


# Core primitives (Fig. 13's first three groups).  Update sets: inode,
# directory entry, allocation bitmap / free-list, and where applicable the
# parent inode's mtime.
CREATE_FILE = MetadataOp("CreateFile", updates=(256, 64, 32, 16), metadata_reads=2)
RENAME_FILE = MetadataOp("RenameFile", updates=(64, 64, 16, 16), metadata_reads=3)
CREATE_DIRECTORY = MetadataOp(
    "CreateDirectory", updates=(256, 64, 32, 32, 16), metadata_reads=2
)
DELETE_FILE = MetadataOp("DeleteFile", updates=(64, 32, 16), metadata_reads=2)
APPEND_SYNC = MetadataOp(
    "AppendSync", updates=(64, 32), metadata_reads=1, data_bytes=4096
)
READ_FILE = MetadataOp("ReadFile", updates=(), metadata_reads=2)
LOG_APPEND = MetadataOp("LogAppend", updates=(48,), metadata_reads=0, data_bytes=512)


@dataclass
class OpStream:
    """A named stream of metadata operations."""

    name: str
    ops: List[MetadataOp] = field(default_factory=list)

    def __iter__(self) -> Iterator[MetadataOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def total_metadata_bytes(self) -> int:
        return sum(op.metadata_bytes for op in self.ops)


def repeated_ops(op: MetadataOp, count: int) -> OpStream:
    """A microbenchmark stream: the same primitive ``count`` times."""
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    return OpStream(op.name, [op] * count)


def varmail_ops(
    count: int, rng: Optional[np.random.Generator] = None
) -> OpStream:
    """VarMail: a mail server storing each message in a file.

    FileBench's varmail personality: create+write+fsync new mail, read
    mail, delete mail, append+fsync (flag updates) — roughly balanced, with
    every write path fsync-ed, which makes metadata persistence dominant.
    """
    if rng is None:
        rng = np.random.default_rng(99)
    mix = [
        (CREATE_FILE, 0.25),
        (APPEND_SYNC, 0.25),
        (READ_FILE, 0.25),
        (DELETE_FILE, 0.25),
    ]
    return _mixed_stream("VarMail", mix, count, rng)


def webserver_ops(
    count: int, rng: Optional[np.random.Generator] = None
) -> OpStream:
    """WebServer: mostly whole-file reads plus a synchronous access log."""
    if rng is None:
        rng = np.random.default_rng(100)
    mix = [
        (READ_FILE, 0.45),
        (LOG_APPEND, 0.5),
        (CREATE_FILE, 0.05),
    ]
    return _mixed_stream("WebServer", mix, count, rng)


def _mixed_stream(
    name: str,
    mix: List[Tuple[MetadataOp, float]],
    count: int,
    rng: np.random.Generator,
) -> OpStream:
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    weights = np.array([weight for _op, weight in mix], dtype=np.float64)
    if not np.isclose(weights.sum(), 1.0):
        raise ValueError(f"op mix weights must sum to 1, got {weights.sum()}")
    choices = rng.choice(len(mix), size=count, p=weights)
    ops = [mix[int(choice)][0] for choice in choices]
    return OpStream(name, ops)


#: The five Fig. 13 workloads by name.
def workload_by_name(name: str, count: int, seed: int = 5) -> OpStream:
    rng = np.random.default_rng(seed)
    streams = {
        "CreateFile": lambda: repeated_ops(CREATE_FILE, count),
        "RenameFile": lambda: repeated_ops(RENAME_FILE, count),
        "CreateDirectory": lambda: repeated_ops(CREATE_DIRECTORY, count),
        "VarMail": lambda: varmail_ops(count, rng),
        "WebServer": lambda: webserver_ops(count, rng),
    }
    try:
        return streams[name]()
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(streams)}"
        ) from None
