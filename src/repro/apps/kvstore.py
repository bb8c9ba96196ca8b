"""A Redis-style in-memory key-value store over a memory system (§5.4).

Fixed-size records (64-byte key-value pairs, the paper's setup) live in a
mapped region; key *k* occupies bytes ``[k * record_size, (k+1) *
record_size)``.  GET/PUT translate to one load/store each, so the store's
latency distribution directly reflects the memory hierarchy underneath —
which is what Figs. 11 and 12 measure.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.memory_system import MemorySystem
from repro.engine import replay
from repro.sim.stats import LatencyStats
from repro.workloads.ycsb import YCSBWorkload, compile_trace


class KVStore:
    """Flat fixed-record key-value store."""

    def __init__(
        self,
        system: MemorySystem,
        capacity_records: int,
        record_size: int = 64,
        name: str = "kvstore",
    ) -> None:
        if capacity_records <= 0:
            raise ValueError(f"capacity_records must be > 0, got {capacity_records}")
        if record_size <= 0 or record_size > system.page_size:
            raise ValueError(f"record_size must be in (0, page], got {record_size}")
        self.system = system
        self.record_size = record_size
        self.capacity_records = capacity_records
        total_bytes = capacity_records * record_size
        pages = -(-total_bytes // system.page_size)
        self.region = system.mmap(pages, name=name)
        self._gets = system.stats.counter("kv.gets")
        self._puts = system.stats.counter("kv.puts")

    def _addr(self, key: int) -> int:
        if not 0 <= key < self.capacity_records:
            raise KeyError(f"key {key} outside capacity {self.capacity_records}")
        return self.region.addr(key * self.record_size)

    def get(self, key: int) -> Tuple[Optional[bytes], int]:
        """Read a record: returns (value, latency_ns)."""
        self._gets.add()
        result = self.system.load(self._addr(key), self.record_size)
        return result.data, result.latency_ns

    def put(self, key: int, value: Optional[bytes] = None) -> int:
        """Write a record; returns latency_ns."""
        if value is not None:
            if len(value) > self.record_size:
                raise ValueError(
                    f"value of {len(value)} bytes exceeds record size {self.record_size}"
                )
            value = value.ljust(self.record_size, b"\x00")
        self._puts.add()
        result = self.system.store(self._addr(key), self.record_size, value)
        return result.latency_ns

    def put_u64(self, key: int, number: int) -> int:
        """Store an integer value (convenience for tests/examples)."""
        return self.put(key, struct.pack("<Q", number & (2**64 - 1)))

    def get_u64(self, key: int) -> Tuple[int, int]:
        data, latency = self.get(key)
        value = struct.unpack("<Q", data[:8])[0] if data else 0
        return value, latency


def run_ycsb(
    store: KVStore,
    workload: YCSBWorkload,
    num_ops: int,
    num_records: Optional[int] = None,
    theta: float = 0.99,
    seed: int = 21,
) -> LatencyStats:
    """Drive a KV store with a YCSB mix; returns per-op latencies.

    ``num_records`` is the number of pre-loaded records the skewed key
    distribution draws from; inserts (workload D) go to fresh keys above
    it, so capacity must cover ``num_records + expected inserts``.  The
    op stream is compiled once and replayed: each GET is one record load
    and each PUT one record store, exactly as :meth:`KVStore.get` and
    :meth:`KVStore.put` issue them without a payload.
    """
    if num_records is None:
        num_records = store.capacity_records // 2
    trace = compile_trace(
        workload,
        num_ops,
        num_records,
        store.region.addr(0),
        capacity_records=store.capacity_records,
        record_size=store.record_size,
        theta=theta,
        seed=seed,
    )
    result = replay(store.system, trace)
    store._gets.add(trace.num_loads)
    store._puts.add(trace.num_stores)
    stats = LatencyStats(workload.name)
    stats.extend(result.latencies.tolist())
    return stats
