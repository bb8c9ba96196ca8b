"""Access-trace recording and replay.

Research workflows often need to run *the same* access stream against
several configurations (the paper does this implicitly by fixing seeds).
A :class:`Trace` captures (op, offset, size) tuples — either programmatic
or recorded live from a system via :class:`TraceRecorder` — saves them to
a compact ``.npz`` file, and replays them against any memory system,
returning the usual latency statistics.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.memory_system import MappedRegion, MemorySystem
from repro.sim.stats import LatencyStats

#: op codes in the packed representation.
OP_LOAD = 0
OP_STORE = 1


def pack_ops(entries: Iterable[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """Validate and normalize raw (op, offset, size) triples into trace rows."""
    packed: List[Tuple[int, int, int]] = []
    for op, offset, size in entries:
        op = int(op)
        offset = int(offset)
        size = int(size)
        if op not in (OP_LOAD, OP_STORE):
            raise ValueError(f"unknown op code {op}")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        packed.append((op, offset, size))
    return packed


class Trace:
    """An ordered sequence of memory operations relative to a region base."""

    def __init__(self, ops: Optional[Iterable[Tuple[int, int, int]]] = None) -> None:
        self._ops: List[Tuple[int, int, int]] = list(ops) if ops is not None else []

    def append_load(self, offset: int, size: int) -> None:
        self._append(OP_LOAD, offset, size)

    def append_store(self, offset: int, size: int) -> None:
        self._append(OP_STORE, offset, size)

    def _append(self, op: int, offset: int, size: int) -> None:
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        self._ops.append((op, offset, size))

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)

    @property
    def footprint_bytes(self) -> int:
        """Highest byte touched plus one (0 for an empty trace)."""
        if not self._ops:
            return 0
        return max(offset + size for _op, offset, size in self._ops)

    @property
    def read_ratio(self) -> float:
        if not self._ops:
            return 0.0
        reads = sum(1 for op, _o, _s in self._ops if op == OP_LOAD)
        return reads / len(self._ops)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Write the trace as a compressed npz file."""
        packed = np.array(self._ops, dtype=np.int64).reshape(-1, 3)
        np.savez_compressed(path, ops=packed)

    @classmethod
    def load(cls, path: str) -> "Trace":
        with np.load(path) as archive:
            packed = archive["ops"]
        if packed.ndim != 2 or packed.shape[1] != 3:
            raise ValueError(f"malformed trace file {path!r}")
        return cls(pack_ops(packed))

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def replay(
        self, system: MemorySystem, region: Optional[MappedRegion] = None
    ) -> LatencyStats:
        """Run the trace against a system; returns per-op latencies.

        Maps a region big enough for the trace footprint when none is given.
        """
        if region is None:
            pages = max(1, -(-self.footprint_bytes // system.page_size))
            region = system.mmap(pages, name="trace")
        if region.size < self.footprint_bytes:
            raise ValueError(
                f"region of {region.size} bytes too small for trace footprint "
                f"{self.footprint_bytes}"
            )
        stats = LatencyStats("trace")
        for op, offset, size in self._ops:
            addr = region.addr(offset)
            if op == OP_LOAD:
                result = system.load(addr, size)
            else:
                result = system.store(addr, size)
            stats.record(result.latency_ns)
        return stats


class TraceRecorder:
    """Wraps a memory system, recording every load/store it forwards.

    Offsets are recorded relative to ``region.base_addr`` so the trace can
    be replayed on any other system/region.
    """

    def __init__(self, system: MemorySystem, region: MappedRegion) -> None:
        self.system = system
        self.region = region
        self.trace = Trace()

    def load(self, addr: int, size: int):
        self.trace.append_load(addr - self.region.base_addr, size)
        return self.system.load(addr, size)

    def store(self, addr: int, size: int, data=None):
        self.trace.append_store(addr - self.region.base_addr, size)
        return self.system.store(addr, size, data)


def synthetic_trace(
    num_ops: int,
    footprint_bytes: int,
    read_ratio: float = 0.8,
    locality: float = 0.0,
    access_size: int = 64,
    seed: int = 1,
) -> Trace:
    """Generate a trace: uniform random, or hot-clustered with ``locality``.

    ``locality`` in [0, 1): that fraction of accesses hits the hottest 10%
    of the footprint.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if not 0.0 <= locality < 1.0:
        raise ValueError(f"locality must be in [0, 1), got {locality}")
    if footprint_bytes < access_size:
        raise ValueError("footprint smaller than one access")
    rng = np.random.default_rng(seed)
    slots = footprint_bytes // access_size
    hot_slots = max(1, slots // 10)
    trace = Trace()
    for _ in range(num_ops):
        if rng.random() < locality:
            slot = int(rng.integers(0, hot_slots))
        else:
            slot = int(rng.integers(0, slots))
        offset = slot * access_size
        if rng.random() < read_ratio:
            trace.append_load(offset, access_size)
        else:
            trace.append_store(offset, access_size)
    return trace
