"""Eligibility guards for the fused replay path.

The replay interpreter (:mod:`repro.engine.replay`) only fuses the
DRAM-resident fast path — TLB probe, page-table walk, frame touch — and
delegates every other access to the unmodified scalar hierarchy (its
module docstring lists the inlined kernels and the delegated
boundaries).  The fused code re-implements the scalar semantics of the
stock classes only, so :func:`fused_blockers` refuses any system whose
access methods, TLB, page table or DRAM model differ from them.

It also checks *dynamic* preconditions: no race detector shadowing
field writes, no armed power-loss deadline (the fused path batches clock
advances, so the deadline would fire late), and no sequential-prefetch
stream detection (a per-access hook on the scalar path).  The clock
sanitizer is not a blocker: the fused path hands every batched advance
to ``SimClock.advance``, where the sanitizer checks it.  When any
blocker is present the engine falls back to replaying the whole trace
through ``system._access`` — slower, never wrong.  These observable
conditions are the only selector between the fused path and that
per-row reference.  Exactness of the fused path itself is enforced by
the differential suite in ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim import race


def fused_blockers(system: Any) -> List[str]:
    """Why ``system`` cannot take the fused fast path (empty = eligible).

    Each blocker names a dynamic feature whose semantics the fused path
    does not replicate; the interpreter degrades to per-op scalar
    delegation whenever any are present, so replaying is always safe —
    just not always fast.
    """
    # Imports are local: repro.core imports repro.config, which engine
    # users construct first; keeping guards import-light avoids cycles.
    from repro.baselines.dram_only import DRAMOnly
    from repro.baselines.paging import PagingMemorySystem
    from repro.core.hierarchy import FlatFlash
    from repro.core.memory_system import MemorySystem
    from repro.host.dram import HostDRAM
    from repro.host.page_table import PageTable
    from repro.host.tlb import TLB

    blockers: List[str] = []
    cls = type(system)

    # The fused path re-implements _access/_access_page DRAM-hit
    # semantics; any override (subclass or monkeypatched mutant) is code
    # the fused path would silently skip.
    known_access_pages = (
        FlatFlash.__dict__.get("_access_page"),
        PagingMemorySystem.__dict__.get("_access_page"),
        DRAMOnly.__dict__.get("_access_page"),
    )
    access_page = getattr(cls, "_access_page", None)
    if not any(access_page is known for known in known_access_pages if known is not None):
        blockers.append("uncertified _access_page override")
    if getattr(cls, "_access", None) is not MemorySystem._access:
        blockers.append("uncertified _access override")
    if not isinstance(getattr(system, "tlb", None), TLB) or type(system.tlb) is not TLB:
        blockers.append("non-standard TLB")
    if (
        not isinstance(getattr(system, "page_table", None), PageTable)
        or type(system.page_table) is not PageTable
    ):
        blockers.append("non-standard page table")
    dram = getattr(system, "dram", None)
    if not isinstance(dram, HostDRAM) or type(dram) is not HostDRAM:
        blockers.append("non-standard DRAM model")

    # Dynamic hooks on the per-access path.
    if race._ACTIVE is not None:
        blockers.append("race detector active (field writes are shadowed)")
    clock = getattr(system, "clock", None)
    if clock is not None and clock._power_deadline is not None:
        blockers.append("power-loss deadline armed (advance may raise)")
    if isinstance(system, FlatFlash) and system.config.promotion.sequential_prefetch:
        blockers.append("sequential prefetch enabled (per-access stream hook)")
    return blockers
