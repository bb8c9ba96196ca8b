"""Phase 2 of the replay engine: the fused trace interpreter.

``replay(system, trace)`` executes a compiled :class:`AccessTrace`
against a live memory system with semantics byte-identical to issuing
``system.load``/``system.store`` per row, but without the per-access
Python call tower for the common case.  The dispatch rule per row:

* **Fused** — the access stays inside one page *and* its PTE peek
  shows a present DRAM mapping.  The interpreter then calls the scalar
  frame bookkeeping inline (touch + dirty, two attribute writes and an
  LRU move), charges ``walk + dram_{load,store}_ns``, and batches the
  stat updates, which are plain commutative sums, so deferred flushing
  is exact.  FlatFlash's per-access maintenance hooks
  (``_settle_promotions``, ``_drain_remaps``) depend on access order
  and are invoked for real — but only when their cheap emptiness guards
  (``_in_flight``, ``ssd._remap``) say they would do work, which is
  exactly when the scalar path does work too.

* **Delegated, thin** — a single-page access whose PTE is not DRAM
  resident (SSD direct access, page fault, in-flight promotion) still
  gets the inlined translation kernels (batched counters, inline clock
  advance) but hands the page access itself to the unmodified scalar
  ``system._access_page`` with the simulated clock synchronised across
  the boundary, so its internal order — settle promotions, drain
  remaps, then dispatch — is preserved exactly.

* **Delegated, full** — page-crossing accesses (rare: trace rows are
  cache lines or words) go through the whole scalar ``system._access``
  wrapper, which owns the per-page chunk loop.

Four scalar functions are inlined rather than called, per op in this
order:

1. ``PageTable.lookup`` (pte peek) — a side-effect-free ``dict.get``
   used only to pick the dispatch case;
2. ``TLB.lookup`` (tlb probe) — ``OrderedDict`` membership plus
   ``move_to_end``; its ``tlb.hits`` hit/total legs are batched;
3. ``PageTable.walk`` (pt walk, on a TLB miss) — ``page_table.walks`` is
   batched and ``walk_cost_ns`` is folded into the row's latency;
4. ``TLB.fill`` (tlb fill, on a TLB miss) — LRU insert with capacity
   eviction, no counters.

Everything else on the scalar access path depends on access order and is
never inlined: ``MemorySystem._access`` and ``FlatFlash._plb_access``,
``_start_pending_promotions``, ``_settle_promotions``,
``_complete_promotion``, ``_drain_remaps`` and ``_guarded_mmio``.  The
dispatch rule above (delegate unless the PTE is a present DRAM mapping
and the access stays inside one page) keeps the fused path clear of all
seven.  ``tests/test_engine_equivalence.py`` replays traces both ways and
compares every observable, including seeded mutants of the inlined
kernels.

The only scalar-visible state the interpreter keeps locally during a
chunk is the clock (an int) and the commutative stat tallies; both are
flushed in a ``finally`` so even a raising replay (unmapped address,
injected fault) leaves the system exactly as the scalar loop would.
Every clock sync — before a delegated access or a maintenance hook, and
in the ``finally`` — hands the batched time to ``SimClock.advance``, so
an attached clock sanitizer checks each batched advance (integral,
non-negative, no tampering since the last sync).

When :func:`repro.engine.guards.fused_blockers` names a reason (the race
detector, an armed power-loss deadline, sequential prefetch, an
overridden access class), the whole trace instead runs row by row
through ``system._access`` (``_replay_scalar``), the per-row reference
the fused path must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.engine.guards import fused_blockers
from repro.engine.trace import OP_STORE, AccessTrace

__all__ = ["ReplayResult", "replay"]

#: Rows per chunk of both replay modes.  Each chunk converts its columns
#: to Python lists, so the chunk size bounds the host memory a replay
#: takes on top of the trace itself; 4,096 rows costs no measurable CPU
#: against larger chunks.  Results are chunk-size-invariant (the
#: equivalence suite patches this to small values and compares).
CHUNK_OPS = 4_096


@dataclass
class ReplayResult:
    """Outcome of one trace replay."""

    #: Per-row access latency in ns, same order as the trace.
    latencies: np.ndarray
    #: Rows executed on the fused fast path.
    fused_ops: int = 0
    #: Rows delegated to the scalar hierarchy.
    delegated_ops: int = 0
    #: Why fused mode was off for the whole replay ([] when it was on).
    blockers: List[str] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return self.fused_ops + self.delegated_ops


def replay(system: Any, trace: AccessTrace) -> ReplayResult:
    """Replay ``trace`` against ``system``; exact w.r.t. the scalar loop."""
    rows = trace.rows
    count = int(rows.shape[0])
    latencies = np.zeros(count, dtype=np.int64)
    if count == 0:
        return ReplayResult(latencies)
    blockers = fused_blockers(system)
    if blockers:
        _replay_scalar(system, rows, latencies)
        return ReplayResult(latencies, fused_ops=0, delegated_ops=count, blockers=blockers)
    fused = _replay_fused(system, rows, latencies)
    return ReplayResult(latencies, fused_ops=fused, delegated_ops=count - fused)


def _replay_scalar(system: Any, rows: np.ndarray, latencies: np.ndarray) -> None:
    """Reference mode: every row through the unmodified scalar ``_access``."""
    access = system._access
    for start in range(0, rows.shape[0], CHUNK_OPS):
        chunk = rows[start : start + CHUNK_OPS]
        addr_list = chunk["addr"].astype(np.int64).tolist()
        size_list = chunk["size"].astype(np.int64).tolist()
        store_list = (chunk["op"] == OP_STORE).tolist()
        for index in range(len(addr_list)):
            result = access(addr_list[index], size_list[index], store_list[index], None)
            latencies[start + index] = result.latency_ns


def _replay_fused(system: Any, rows: np.ndarray, latencies: np.ndarray) -> int:
    """Fused interpreter; returns the number of fast-path rows."""
    from repro.core.hierarchy import FlatFlash
    from repro.host.page_table import Domain

    domain_dram = Domain.DRAM
    config = system.config
    chunk_ops = CHUNK_OPS
    page_size = system.page_size
    load_ns = config.latency.dram_load_ns
    store_ns = config.latency.dram_store_ns

    tlb = system.tlb
    cached = tlb._cached
    cached_move = cached.move_to_end
    cached_evict = cached.popitem
    capacity = tlb.capacity

    page_table = system.page_table
    entries_get = page_table._entries.get
    walk_ns = page_table.walk_cost_ns

    dram = system.dram
    frames = dram.frames
    lru = dram._lru
    lru_move = lru.move_to_end

    clk = system.clock
    now = clk._now
    access = system._access
    page_access = system._access_page
    by_source_cache = system._by_source_latency
    registry_latency = system.stats.latency

    is_flat = isinstance(system, FlatFlash)
    if is_flat:
        in_flight = system._in_flight
        ssd_remap = system.ssd._remap
        settle = system._settle_promotions
        drain = system._drain_remaps

    # Commutative tallies, flushed once (see the ``finally`` below).
    loads_tally = 0
    stores_tally = 0
    tlb_hits = 0
    tlb_misses = 0
    # Per-source {latency: count}; "dram" is hot enough to special-case.
    dram_tally: Dict[int, int] = {}
    other_tallies: Dict[str, Dict[int, int]] = {}
    by_source_dram = by_source_cache.get("dram")
    fused_count = 0

    total = int(rows.shape[0])
    try:
        for start in range(0, total, chunk_ops):
            chunk = rows[start : start + chunk_ops]
            addr_col = chunk["addr"].astype(np.int64)
            size_col = chunk["size"].astype(np.int64)
            offset_col = addr_col % page_size
            size_list = size_col.tolist()
            vpn_list = (addr_col // page_size).tolist()
            offset_list = offset_col.tolist()
            crossing_col = offset_col + size_col > page_size
            # Hoist the rare-case tests out of the per-op loop: scalar
            # _access rejects size <= 0 before any bookkeeping, and
            # page-crossing rows only occur for > cacheline accesses.
            check_sizes = len(size_list) > 0 and int(size_col.min()) <= 0
            check_crossing = bool(crossing_col.any())
            crossing_list = crossing_col.tolist() if check_crossing else None
            store_list = (chunk["op"] == OP_STORE).tolist()
            lat_list = []
            lat_append = lat_list.append

            for i in range(len(size_list)):
                size = size_list[i]
                if check_sizes and size <= 0:
                    raise ValueError(f"access size must be > 0, got {size}")
                is_write = store_list[i]
                if check_crossing and crossing_list[i]:
                    # Full scalar delegation: _access owns the chunk
                    # loop (and its own counters) for multi-page ops.
                    clk.advance(now - clk._now)
                    try:
                        result = access(
                            vpn_list[i] * page_size + offset_list[i],
                            size,
                            is_write,
                            None,
                        )
                    finally:
                        now = clk._now
                    lat_append(result.latency_ns)
                    continue

                vpn = vpn_list[i]
                if is_write:
                    stores_tally += 1
                else:
                    loads_tally += 1
                # --- inlined wrapper kernels: tlb_probe/pt_walk/tlb_fill ---
                if vpn in cached:
                    cached_move(vpn)
                    tlb_hits += 1
                    walk_cost = 0
                    pte = entries_get(vpn)
                else:
                    tlb_misses += 1
                    pte = entries_get(vpn)
                    if pte is None:
                        # the walk raises before the TLB fill happens
                        raise KeyError(f"vpn {vpn} has no mapping (unmapped address)")
                    if len(cached) >= capacity:
                        cached_evict(last=False)
                    cached[vpn] = None
                    walk_cost = walk_ns
                if pte is not None and pte.present and pte.domain is domain_dram:
                    # --- fused DRAM fast path ---
                    if is_flat:
                        # Order-dependent maintenance runs for real; the
                        # emptiness guards mirror the scalar early-returns.
                        # (Settle/drain never demote a DRAM-resident PTE,
                        # so the dispatch above cannot be invalidated.)
                        if in_flight:
                            clk.advance(now - clk._now)
                            settle()
                            now = clk._now
                        if ssd_remap:
                            clk.advance(now - clk._now)
                            drain()
                            now = clk._now
                    frame = frames[pte.frame_index]
                    frame.referenced = True
                    frame_index = frame.index
                    if frame_index in lru:
                        lru_move(frame_index)
                    if is_write:
                        frame.dirty = True
                        frame_data = frame.data
                        if frame_data is not None:
                            offset = offset_list[i]
                            # store with no payload writes zeros (scalar
                            # _dram_access's data=None convention)
                            frame_data[offset : offset + size] = bytes(size)
                        latency = walk_cost + store_ns
                    else:
                        latency = walk_cost + load_ns
                    fused_count += 1
                    now += latency
                    lat_append(latency)
                    dram_tally[latency] = dram_tally.get(latency, 0) + 1
                    if by_source_dram is None:
                        # Materialise mem.by_source.dram at the position
                        # the scalar loop would, keeping registry order
                        # stable.
                        by_source_dram = registry_latency(
                            "mem.by_source.dram", keep_samples=False
                        )
                        by_source_cache["dram"] = by_source_dram
                    continue

                # --- thin delegation: the order-dependent page access
                # runs unmodified, wrapper bookkeeping stays batched ---
                clk.advance(now - clk._now)
                try:
                    result = page_access(vpn, offset_list[i], size, is_write, None)
                finally:
                    now = clk._now
                latency = walk_cost + result.latency_ns
                now += latency
                lat_append(latency)
                source = result.source
                if source == "dram":
                    dram_tally[latency] = dram_tally.get(latency, 0) + 1
                    if by_source_dram is None:
                        by_source_dram = registry_latency(
                            "mem.by_source.dram", keep_samples=False
                        )
                        by_source_cache["dram"] = by_source_dram
                else:
                    tally = other_tallies.get(source)
                    if tally is None:
                        other_tallies[source] = tally = {}
                        if source not in by_source_cache:
                            by_source_cache[source] = registry_latency(
                                f"mem.by_source.{source}", keep_samples=False
                            )
                    tally[latency] = tally.get(latency, 0) + 1

            latencies[start : start + len(lat_list)] = lat_list
    finally:
        if loads_tally:
            system._loads.add(loads_tally)
        if stores_tally:
            system._stores.add(stores_tally)
        if tlb_hits or tlb_misses:
            tlb._hits.record_batch(tlb_hits, tlb_hits + tlb_misses)
        if tlb_misses:
            page_table._walks.add(tlb_misses)
        access_latency = system._access_latency
        if dram_tally:
            for value, value_count in dram_tally.items():
                access_latency.record_batch(value, value_count)
                by_source_dram.record_batch(value, value_count)
        for source, tally in other_tallies.items():
            by_source = by_source_cache[source]
            for value, value_count in tally.items():
                access_latency.record_batch(value, value_count)
                by_source.record_batch(value, value_count)
        # Last, so the stats are flushed even when a clock sanitizer
        # rejects this advance.
        clk.advance(now - clk._now)

    return fused_count
