"""Applications on the unified memory interface.

Stand-ins for the paper's evaluation workloads (KV store, graph engine,
file systems, mini OLTP database) plus reusable components a downstream
user would build on FlatFlash: a crash-safe write-ahead log and a B+-tree
index.
"""

from repro.apps.btree import BPlusTree
from repro.apps.database import LoggingScheme, MiniDB, run_oltp
from repro.apps.filesystem import FileSystemKind, make_filesystem
from repro.apps.flatfs import FlatFS, FsError
from repro.apps.graph_analytics import GraphEngine
from repro.apps.kvstore import KVStore, run_ycsb
from repro.apps.wal import LogFullError, WriteAheadLog

__all__ = [
    "KVStore",
    "run_ycsb",
    "GraphEngine",
    "FileSystemKind",
    "make_filesystem",
    "MiniDB",
    "LoggingScheme",
    "run_oltp",
    "WriteAheadLog",
    "LogFullError",
    "BPlusTree",
    "FlatFS",
    "FsError",
]
