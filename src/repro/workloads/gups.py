"""HPCC-GUPS RandomAccess (§5.2, Fig. 9).

GUPS updates random 8-byte words of a huge in-memory table:
``Table[ran % TableSize] ^= ran``.  The table is sized several times the
available DRAM, so the workload is a worst case for paging — near-zero page
reuse — and the showcase for FlatFlash's direct byte-granular SSD access.

GUPS = giga-updates per second = updates / (elapsed seconds * 1e9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.memory_system import MappedRegion, MemorySystem
from repro.engine import AccessTrace, replay


def compile_trace(
    region: MappedRegion,
    num_updates: int,
    rng: Optional[np.random.Generator] = None,
) -> AccessTrace:
    """Compile the RandomAccess stream to a flat trace (engine phase 1).

    Draws indices then values, as :func:`run_gups`'s verify mode does;
    each update becomes a load/store pair at the same word address.  The
    value draw is unused here but stays: callers that reuse one generator
    across runs (table3) depend on how far each run advances it.
    """
    if num_updates <= 0:
        raise ValueError(f"num_updates must be > 0, got {num_updates}")
    if rng is None:
        rng = np.random.default_rng(1234)
    words = region.size // 8
    indices = rng.integers(0, words, size=num_updates)
    rng.integers(0, 2**63, size=num_updates, dtype=np.uint64)  # values (unused)
    return AccessTrace.interleaved_rw(region.addr(0) + indices * 8, 8)


@dataclass
class GUPSResult:
    """Outcome of one GUPS run."""

    updates: int
    elapsed_ns: int
    page_movements: int

    @property
    def gups(self) -> float:
        """Giga-updates per simulated second."""
        if self.elapsed_ns == 0:
            return 0.0
        return self.updates / self.elapsed_ns

    @property
    def mean_update_ns(self) -> float:
        """Mean per-update latency (reporting only; never fed back into timing)."""
        if self.updates == 0:
            return 0.0
        return self.elapsed_ns / self.updates  # simlint: disable=SL003


def run_gups(
    system: MemorySystem,
    region: MappedRegion,
    num_updates: int,
    rng: Optional[np.random.Generator] = None,
    verify: bool = False,
) -> GUPSResult:
    """Run the RandomAccess kernel against a mapped table.

    Each update is a load-xor-store of one 64-bit word at a random table
    index, replayed from :func:`compile_trace`.  With ``verify`` (and
    payload tracking on) the xor is computed on real data, so the table
    contents can be checked afterwards; payloads do not fit a trace row,
    so that mode issues each load/store directly.
    """
    if num_updates <= 0:
        raise ValueError(f"num_updates must be > 0, got {num_updates}")
    if rng is None:
        rng = np.random.default_rng(1234)
    start_ns = system.clock.now
    start_moves = system.page_movements
    if verify:
        indices = rng.integers(0, region.size // 8, size=num_updates)
        values = rng.integers(0, 2**63, size=num_updates, dtype=np.uint64)
        for index, value in zip(indices, values):
            addr = region.addr(int(index) * 8)
            current, _ = system.load_u64(addr)
            system.store_u64(addr, current ^ int(value))
    else:
        replay(system, compile_trace(region, num_updates, rng))
    return GUPSResult(
        updates=num_updates,
        elapsed_ns=system.clock.now - start_ns,
        page_movements=system.page_movements - start_moves,
    )
