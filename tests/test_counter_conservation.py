"""Counter conservation on final stats, checked on the scalar and fused paths.

Each row of :data:`INVARIANTS` is a class-wide relation between stat
counters that must hold at the end of any run.  A mixed trace (a hot set
that triggers promotions plus a uniform tail that keeps the SSD busy) is
replayed against each system twice: once as one ``load``/``store`` per
row (scalar) and once through :func:`repro.engine.replay` with the fused
fast path actually running, so the batched stat flushes of the engine are
held to the same invariants as the per-access path.

A leg is a counter name, or ``name:hit`` / ``name:miss`` / ``name:total``
of a ratio stat, or ``name:samples`` of a latency stat.  A ratio stat
stores hits and trials, so its miss leg is derived; what
``hit + miss == total`` catches is a leg going negative (a hit recorded
without its trial), which is why every leg must also be ``>= 0``.

Two legs are zero in every full-system run (:data:`DEAD_LEGS`), so the
rows naming them cannot fire yet; the test pins them at zero so that
whoever brings one to life has to revisit its row.

Both runs keep the suite-wide sanitizers on; they do not block the fused
path (:func:`repro.engine.guards.fused_blockers`), so the clock sanitizer
checks every batched clock advance of the fused replay.
"""

import operator

import numpy as np
import pytest

from repro.baselines import TraditionalStack, UnifiedMMap
from repro.config import FaultConfig, small_config
from repro.core.hierarchy import FlatFlash
from repro.engine import AccessTrace, replay

#: The link fault rates of the ``pcie_storm`` campaign scenario.
PCIE_STORM = dict(
    pcie_timeout_rate=0.2,
    pcie_corrupt_rate=0.05,
    mmio_max_retries=2,
    mmio_degraded_threshold=4,
)

#: name -> (system class, fault config or None).
SYSTEMS = {
    "FlatFlash": (FlatFlash, None),
    "UnifiedMMap": (UnifiedMMap, None),
    "TraditionalStack": (TraditionalStack, None),
    "FlatFlash+pcie_storm": (FlatFlash, FaultConfig(seed=3, **PCIE_STORM)),
}
ALL = tuple(SYSTEMS)
FLATFLASH = ("FlatFlash", "FlatFlash+pcie_storm")

#: (lhs, comparison, rhs, systems it is checked on).
INVARIANTS = [
    ("mem.loads + mem.stores", "==", "mem.access:samples", ALL),
    ("tlb.hits:hit + tlb.hits:miss", "==", "tlb.hits:total", ALL),
    # Every TLB miss walks the page table once: the counter contract of
    # the TLB probe and walk kernels the fused path inlines.
    ("tlb.hits:miss", "==", "page_table.walks", ALL),
    ("plb.hits:hit + plb.hits:miss", "==", "plb.hits:total", FLATFLASH),
    ("ssd_cache.hits:hit + ssd_cache.hits:miss", "==", "ssd_cache.hits:total", FLATFLASH),
    ("ssd_cache.dirty_evictions", "<=", "ssd_cache.evictions", FLATFLASH),
    ("mem.pages_out", "<=", "mem.evictions", FLATFLASH),
    ("bridge.degraded_pages", "<=", "bridge.mmio_failures", ("FlatFlash+pcie_storm",)),
    # Every successful page program is booked once, as a host or a GC
    # write; failed programs are retried and never counted.
    ("ftl.host_writes + ftl.gc_writes", "==", "flash.page_programs", ALL),
    # A promotion moves its page in once, when it completes; one still in
    # flight at the end of the run has not moved it yet.
    ("mem.pages_in", "<=", "mem.promotions", FLATFLASH),
]

#: Stats that stay zero in full-system runs, and why.
DEAD_LEGS = {
    "plb.hits": "PLB.lookup has no caller: FlatFlash finds in-flight promotions "
    "in its own _in_flight map",
    "ssd_cache.dirty_evictions": "the eviction hook writes a dirty victim back, "
    "clearing its dirty bit, before SSDCache.insert counts it",
}

COMPARE = {"==": operator.eq, "<=": operator.le}
REGION_PAGES = 96
PAGE = 4096


def leg(stats, name):
    """The current value of one stat leg."""
    if ":" not in name:
        return stats.counters()[name]
    stat, part = name.split(":")
    if part == "samples":
        return stats.latency(stat).count
    ratio = stats.ratio(stat)
    return {"hit": ratio.hits, "miss": ratio.misses, "total": ratio.total}[part]


def leg_names(expression):
    return [name.strip() for name in expression.split("+")]


def mixed_trace(base_addr, num_ops=3000, seed=7):
    """Half the rows on a 12-page hot set, half uniform over the region."""
    rng = np.random.default_rng(seed)
    hot = rng.random(num_ops) < 0.5
    pages = np.where(hot, rng.integers(0, 12, num_ops), rng.integers(0, REGION_PAGES, num_ops))
    addrs = base_addr + pages * PAGE + rng.integers(0, PAGE - 64, num_ops)
    sizes = rng.choice([8, 64], size=num_ops)
    ops = rng.integers(0, 2, size=num_ops)
    return AccessTrace.from_columns(addrs, sizes, ops)


def run(system_name, mode):
    """Final stats of one system after the mixed trace, scalar or fused."""
    kind, faults = SYSTEMS[system_name]
    overrides = {} if faults is None else {"faults": faults}
    system = kind(small_config(**overrides))
    region = system.mmap(REGION_PAGES)
    trace = mixed_trace(region.addr(0))
    if mode == "fused":
        result = replay(system, trace)
        assert result.blockers == []
        assert result.fused_ops > 0
    else:
        for addr, size, op in trace.rows.tolist():
            if op:
                system.store(int(addr), int(size))
            else:
                system.load(int(addr), int(size))
    return system.stats


@pytest.fixture(scope="module")
def final_stats():
    cache = {}

    def get(system_name, mode):
        if (system_name, mode) not in cache:
            cache[system_name, mode] = run(system_name, mode)
        return cache[system_name, mode]

    return get


CASES = [
    pytest.param(
        system_name, mode, lhs, op, rhs,
        id=f"{system_name}-{mode}-{lhs}{op}{rhs}".replace(" ", ""),
    )
    for lhs, op, rhs, systems in INVARIANTS
    for system_name in systems
    for mode in ("scalar", "fused")
]


@pytest.mark.parametrize("system_name,mode,lhs,op,rhs", CASES)
def test_invariant_holds(final_stats, system_name, mode, lhs, op, rhs):
    stats = final_stats(system_name, mode)
    values = {name: leg(stats, name) for name in leg_names(lhs) + leg_names(rhs)}
    assert all(value >= 0 for value in values.values()), values
    live = {name: value for name, value in values.items() if name.split(":")[0] not in DEAD_LEGS}
    assert all(values[name] == 0 for name in values.keys() - live.keys()), (
        f"a dead leg came alive, update DEAD_LEGS: {values}"
    )
    assert not live or any(live.values()), f"vacuous on this run: {values}"
    lhs_total = sum(values[name] for name in leg_names(lhs))
    rhs_total = sum(values[name] for name in leg_names(rhs))
    assert COMPARE[op](lhs_total, rhs_total), values
