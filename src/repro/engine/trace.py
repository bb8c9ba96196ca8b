"""Flat structured-array access traces (phase 1 of the replay engine).

A compiled trace is the workloads' exchange format: one numpy structured
array with a row per memory access, in program order.  Workload
generators emit it from ``compile_*`` entry points; the replay
interpreter (:mod:`repro.engine.replay`) consumes it.  The row layout is

====== ====== =====================================================
field  dtype  meaning
====== ====== =====================================================
addr   <u8    virtual byte address
size   <u4    access size in bytes
op     <u1    0 = load, 1 = store
====== ====== =====================================================

The interpreter replays rows strictly in array order, which is the order
the workload issues them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Operation codes of the ``op`` column.
OP_LOAD = 0
OP_STORE = 1

#: One row per access, program order.  Little-endian fixed layout so
#: saved traces are portable across hosts.
TRACE_DTYPE = np.dtype([("addr", "<u8"), ("size", "<u4"), ("op", "<u1")])


class AccessTrace:
    """An immutable compiled access trace over :data:`TRACE_DTYPE` rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        if rows.dtype != TRACE_DTYPE:
            raise TypeError(f"trace rows must have dtype {TRACE_DTYPE}, got {rows.dtype}")
        if rows.ndim != 1:
            raise ValueError(f"trace rows must be 1-D, got shape {rows.shape}")
        self.rows = rows

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    @classmethod
    def from_columns(
        cls, addrs: Sequence[int], sizes: Sequence[int], ops: Sequence[int]
    ) -> "AccessTrace":
        """Build a trace from per-column arrays (broadcast scalars allowed)."""
        addr_col = np.asarray(addrs, dtype=np.uint64)
        count = addr_col.shape[0]
        rows = np.zeros(count, dtype=TRACE_DTYPE)
        rows["addr"] = addr_col
        rows["size"] = np.broadcast_to(np.asarray(sizes, dtype=np.uint32), (count,))
        rows["op"] = np.broadcast_to(np.asarray(ops, dtype=np.uint8), (count,))
        return cls(rows).validate()

    @classmethod
    def loads(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """All-load trace of fixed-size accesses."""
        return cls.from_columns(addrs, size, OP_LOAD)

    @classmethod
    def stores(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """All-store trace of fixed-size accesses."""
        return cls.from_columns(addrs, size, OP_STORE)

    @classmethod
    def interleaved_rw(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """Read-modify-write trace: a load then a store at each address.

        This is GUPS's access shape — each random update reads the word
        and writes it back before moving on.
        """
        addr_col = np.asarray(addrs, dtype=np.uint64)
        rows = np.zeros(2 * addr_col.shape[0], dtype=TRACE_DTYPE)
        rows["addr"] = np.repeat(addr_col, 2)
        rows["size"] = size
        rows["op"][1::2] = OP_STORE
        return cls(rows).validate()

    # ------------------------------------------------------------------ #
    # Validation / persistence
    # ------------------------------------------------------------------ #

    def validate(self) -> "AccessTrace":
        """Reject rows no scalar access could issue (size 0, bad opcode)."""
        rows = self.rows
        if rows.shape[0]:
            if int(rows["size"].min()) <= 0:
                raise ValueError("trace contains a zero-size access")
            if int(rows["op"].max()) > OP_STORE:
                raise ValueError("trace contains an op code other than load/store")
        return self

    def save(self, path: str) -> None:
        """Persist to ``.npz`` (compressed, dtype-checked on load)."""
        np.savez_compressed(path, rows=self.rows)

    @classmethod
    def load(cls, path: str) -> "AccessTrace":
        with np.load(path) as archive:
            rows = archive["rows"]
        if rows.dtype != TRACE_DTYPE:
            raise ValueError(f"{path!r} holds rows of dtype {rows.dtype}, not {TRACE_DTYPE}")
        return cls(np.ascontiguousarray(rows)).validate()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_loads(self) -> int:
        return int(np.count_nonzero(self.rows["op"] == OP_LOAD))

    @property
    def num_stores(self) -> int:
        return int(np.count_nonzero(self.rows["op"] == OP_STORE))

    def __repr__(self) -> str:
        return (
            f"AccessTrace(ops={len(self)}, loads={self.num_loads}, "
            f"stores={self.num_stores})"
        )
