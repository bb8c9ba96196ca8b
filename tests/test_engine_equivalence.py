"""Differential gate for the trace-replay engine (ROADMAP item 1).

Random traces — mixed read/write, skewed and sequential,
promotion-triggering densities — are executed twice against identically
configured systems: once through the scalar ``load``/``store`` loop and
once through :func:`repro.engine.replay`.  Every observable must match
exactly: per-op latencies, stats counters (hit/miss classifications,
promotion decisions), final page-table state, TLB content and order,
DRAM frame state, the simulated clock, and the event log (each event's
kind, timestamp and fields).

Seeded mutants then check the gate has teeth: an off-by-one at a chunk
boundary, a dropped promotion settle, a TLB probe that records one
extra lookup, a page-table walk that charges one extra nanosecond, and
a faulted row that skips the DRAM kernel's frame touch must each be
caught at the expected assertion.  The TLB and walk mutants mutate
scalar kernels the fused path inlines, so this suite is what ties the
inlined copies to their originals.

The suite-wide sanitizers stay on: they do not block the fused path, so
the clock sanitizer checks every batched advance of each fused replay
here.  The whole-trace per-row reference is forced on purpose by
patching :func:`repro.engine.guards.fused_blockers` on the replay module
(``test_blocked_replay_crosses_chunk_boundaries``).
"""

import importlib
import inspect
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import DRAMOnly, TraditionalStack, UnifiedMMap
from repro.config import small_config
from repro.core.hierarchy import FlatFlash
from repro.engine import AccessTrace, replay
from repro.host.page_table import PageTable
from repro.host.tlb import TLB
from repro.sim import sanitizers

# The package re-exports the replay *function* under the submodule's
# name, so fetch the module itself for monkeypatching internals.
replay_module = importlib.import_module("repro.engine.replay")

SYSTEMS = {
    "FlatFlash": FlatFlash,
    "UnifiedMMap": UnifiedMMap,
    "TraditionalStack": TraditionalStack,
    "DRAMOnly": DRAMOnly,
}
REGION_PAGES = 24


@pytest.fixture(scope="module", autouse=True)
def _small_chunks():
    """Tiny replay chunks, so chunk boundaries fall inside every trace."""
    with mock.patch.object(replay_module, "CHUNK_OPS", 64):
        yield


def build_system(kind_name, track_data=False):
    """A small system + one mapped region."""
    config = small_config(track_data=track_data)
    if kind_name == "DRAMOnly":
        config.geometry.dram_pages = REGION_PAGES + 8
    kind = SYSTEMS[kind_name]
    system = kind(config)
    system.enable_event_log(capacity=1 << 16)
    region = system.mmap(REGION_PAGES)
    return system, region


def observable_state(system):
    """Everything the scalar path can have mutated, exactly."""
    page_table = {
        vpn: (pte.domain.name, pte.present, pte.frame_index, pte.ssd_page, pte.persist)
        for vpn, pte in system.page_table._entries.items()
    }
    tlb_order = list(system.tlb._cached.keys())
    frames = [
        (
            frame.index,
            frame.vpn,
            frame.dirty,
            frame.referenced,
            None if frame.data is None else bytes(frame.data),
        )
        for frame in system.dram.frames
    ]
    return {
        "page_table": page_table,
        "tlb": tlb_order,
        "frames": frames,
        "clock": system.clock.now,
        "stats": system.stats.snapshot(),
        "events": system.events(),
    }


def run_scalar(system, trace):
    """Reference semantics: one public load/store per trace row."""
    latencies = []
    for addr, size, op in trace.rows.tolist():
        if op:
            result = system.store(int(addr), int(size))
        else:
            result = system.load(int(addr), int(size))
        latencies.append(result.latency_ns)
    return latencies


def assert_equivalent(kind_name, trace, track_data=False):
    scalar_system, _ = build_system(kind_name, track_data)
    engine_system, _ = build_system(kind_name, track_data)
    scalar_latencies = run_scalar(scalar_system, trace)
    result = replay(engine_system, trace)
    assert result.blockers == [], "fused mode unexpectedly off"
    assert result.latencies.tolist() == scalar_latencies, "latencies diverged"
    scalar_state = observable_state(scalar_system)
    engine_state = observable_state(engine_system)
    for key in scalar_state:
        assert engine_state[key] == scalar_state[key], f"{kind_name} diverged on {key}"
    return result


# --------------------------------------------------------------------- #
# Hypothesis-generated traces
# --------------------------------------------------------------------- #

page = 4096


@st.composite
def traces(draw, max_ops=120):
    """Mixed-shape traces over the mapped region, as (addr, size, op) rows."""
    num_ops = draw(st.integers(min_value=1, max_value=max_ops))
    shape = draw(st.sampled_from(["uniform", "hot", "sequential"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        addrs = rng.integers(0, REGION_PAGES * page - 128, size=num_ops)
    elif shape == "hot":
        # High page reuse: SSD-resident pages cross FlatFlash's promotion
        # threshold, so in-flight promotions and settles get exercised.
        hot_pages = rng.integers(0, max(2, REGION_PAGES // 8), size=num_ops)
        addrs = hot_pages * page + rng.integers(0, page - 64, size=num_ops)
    else:
        stride = draw(st.sampled_from([8, 64, 256]))
        addrs = (np.arange(num_ops, dtype=np.int64) * stride) % (REGION_PAGES * page - 128)
    sizes = rng.choice([1, 8, 64, 100, 128], size=num_ops)
    ops = rng.integers(0, 2, size=num_ops)
    return addrs.astype(np.int64), sizes.astype(np.int64), ops


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=traces(),
    kind_name=st.sampled_from(sorted(SYSTEMS)),
    track_data=st.booleans(),
)
def test_random_traces_equivalent(rows, kind_name, track_data):
    addrs, sizes, ops = rows
    base = build_system(kind_name)[1].addr(0)
    trace = AccessTrace.from_columns(base + addrs, sizes, ops)
    assert_equivalent(kind_name, trace, track_data=track_data)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chunk_ops=st.integers(min_value=1, max_value=130), seed=st.integers(0, 2**31))
def test_chunk_boundaries_invisible(chunk_ops, seed):
    """Chunk size is an implementation detail: any value replays the same."""
    rng = np.random.default_rng(seed)
    num_ops = 128
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=num_ops).astype(np.int64)
    trace = AccessTrace.interleaved_rw(addrs, 8)
    with mock.patch.object(replay_module, "CHUNK_OPS", chunk_ops):
        assert_equivalent("FlatFlash", trace)


def test_promotion_decisions_match():
    """Hot SSD pages cross the promotion threshold identically both ways."""
    rng = np.random.default_rng(3)
    hot = rng.integers(0, 3, size=400) * page + rng.integers(0, page - 8, size=400)
    trace = AccessTrace.interleaved_rw(hot.astype(np.int64), 8)
    scalar_system, _ = build_system("FlatFlash")
    engine_system, _ = build_system("FlatFlash")
    run_scalar(scalar_system, trace)
    replay(engine_system, trace)
    promoted_scalar = scalar_system.stats.counters().get("mem.promotions", 0)
    promoted_engine = engine_system.stats.counters().get("mem.promotions", 0)
    assert promoted_scalar == promoted_engine
    assert observable_state(scalar_system) == observable_state(engine_system)


def test_fused_path_runs_under_sanitizers():
    """Sanitizers active -> still the fused path, and still exact.

    TraditionalStack faults each page into DRAM on first touch, so the
    trace's repeat visits are DRAM hits the fused path serves."""
    previous = sanitizers.set_default_enabled(True)
    try:
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, REGION_PAGES * page - 128, size=60).astype(np.int64)
        trace = AccessTrace.interleaved_rw(addrs, 8)
        scalar_system, _ = build_system("TraditionalStack")
        engine_system, _ = build_system("TraditionalStack")
        assert engine_system.clock._sanitizer is not None
        scalar_latencies = run_scalar(scalar_system, trace)
        result = replay(engine_system, trace)
        assert result.blockers == []
        assert result.fused_ops > 0
        assert result.latencies.tolist() == scalar_latencies
        assert observable_state(scalar_system) == observable_state(engine_system)
    finally:
        sanitizers.set_default_enabled(previous)


@pytest.mark.parametrize("kind_name", ["FlatFlash", "TraditionalStack"])
def test_blocked_replay_crosses_chunk_boundaries(kind_name):
    """The per-row reference walks the trace in CHUNK_OPS-row chunks; a
    trace spanning several chunks replays like one _access per row."""
    rng = np.random.default_rng(6)
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=60).astype(np.int64)
    trace = AccessTrace.interleaved_rw(addrs, 8)
    scalar_system, _ = build_system(kind_name)
    engine_system, _ = build_system(kind_name)
    scalar_latencies = [
        scalar_system._access(int(addr), int(size), bool(op), None).latency_ns
        for addr, size, op in trace.rows.tolist()
    ]
    forced = ["per-row reference forced by the equivalence suite"]
    with mock.patch.object(replay_module, "fused_blockers", lambda system: forced):
        with mock.patch.object(replay_module, "CHUNK_OPS", 7):
            result = replay(engine_system, trace)
    assert result.blockers == forced
    assert result.fused_ops == 0
    assert result.latencies.tolist() == scalar_latencies
    assert observable_state(scalar_system) == observable_state(engine_system)


def test_raising_replay_leaves_scalar_state():
    """An unmapped row raises exactly like scalar, with stats flushed."""
    scalar_system, region = build_system("FlatFlash")
    engine_system, _ = build_system("FlatFlash")
    good = region.addr(0) + np.arange(10, dtype=np.int64) * 8
    unmapped = np.int64(REGION_PAGES * page * 64)
    addrs = np.concatenate([good, [unmapped]])
    trace = AccessTrace.loads(addrs, 8)
    with pytest.raises(KeyError) as scalar_err:
        run_scalar(scalar_system, trace)
    with pytest.raises(KeyError) as engine_err:
        replay(engine_system, trace)
    assert str(scalar_err.value) == str(engine_err.value)
    assert observable_state(scalar_system) == observable_state(engine_system)


# --------------------------------------------------------------------- #
# Seeded mutants: the gate must catch them at the expected assertion
# --------------------------------------------------------------------- #


def _uniform_trace(seed, num_ops=64):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=num_ops).astype(np.int64)
    return AccessTrace.interleaved_rw(addrs, 8)


def test_mutant_chunk_boundary_off_by_one_is_caught(monkeypatch):
    """Dropping the row straddling a chunk boundary must trip the gate."""

    real = replay_module._replay_fused

    def mutant_replay_fused(system, rows, latencies):
        return real(system, rows[:-1], latencies[:-1])

    monkeypatch.setattr(replay_module, "_replay_fused", mutant_replay_fused)
    with pytest.raises(AssertionError, match="latencies diverged"):
        assert_equivalent("FlatFlash", _uniform_trace(9))


def test_mutant_dropped_promotion_is_caught(monkeypatch):
    """Skipping promotion settles must show up in page-table/frame state."""
    monkeypatch.setattr(FlatFlash, "_settle_promotions", lambda self: None)
    rng = np.random.default_rng(3)
    hot = rng.integers(0, 3, size=400) * page + rng.integers(0, page - 8, size=400)
    trace = AccessTrace.interleaved_rw(hot.astype(np.int64), 8)
    engine_system, _ = build_system("FlatFlash")
    replay(engine_system, trace)
    mutated = observable_state(engine_system)
    monkeypatch.undo()
    reference_system, _ = build_system("FlatFlash")
    replay(reference_system, trace)
    reference = observable_state(reference_system)
    assert mutated != reference  # the suite's state comparison catches it
    assert mutated["page_table"] != reference["page_table"]


def test_mutant_tlb_probe_extra_lookup_is_caught(monkeypatch):
    """A TLB probe that records one extra lookup must show in the stats."""
    real_lookup = TLB.lookup

    def mutant_lookup(self, vpn):
        self._hits.record(False)
        return real_lookup(self, vpn)

    monkeypatch.setattr(TLB, "lookup", mutant_lookup)
    with pytest.raises(AssertionError, match="FlatFlash diverged on stats"):
        assert_equivalent("FlatFlash", _uniform_trace(11))


def mutated_replay_fused(old, new):
    """``_replay_fused`` compiled with one source fragment replaced: a
    seeded mutant of inline code that no function patch can reach."""
    source = textwrap.dedent(inspect.getsource(replay_module._replay_fused))
    assert source.count(old) == 1, "mutation site moved; update the mutant"
    namespace = dict(vars(replay_module))
    exec(compile(source.replace(old, new), replay_module.__file__, "exec"), namespace)
    return namespace["_replay_fused"]


@pytest.mark.parametrize("kind_name", ["TraditionalStack", "UnifiedMMap"])
def test_faulted_rows_run_the_fault_then_the_fused_kernel(kind_name):
    """A paging row whose page is not in DRAM runs the fault handler and
    then the fused DRAM kernel: it counts as delegated, and
    ``_access_page`` (the scalar path's) is never called."""
    trace = _uniform_trace(15)
    engine_system, _ = build_system(kind_name)
    with mock.patch.object(
        type(engine_system), "_handle_fault", autospec=True,
        side_effect=type(engine_system)._handle_fault,
    ) as handle_fault:
        engine_system._access_page = mock.Mock(side_effect=AssertionError("scalar path"))
        result = replay(engine_system, trace)
    faults = engine_system.stats.counters()["mem.page_faults"]
    assert faults > 0
    assert handle_fault.call_count == faults
    assert result.delegated_ops == faults
    assert result.fused_ops == len(trace.rows) - faults


def test_mutant_faulted_row_skipping_frame_touch_is_caught(monkeypatch):
    """A faulted row that skips the DRAM kernel's frame touch (and the
    store's dirty bit) must trip the gate."""
    mutant = mutated_replay_fused(
        """                    try:
                        stall_ns += handle_fault(vpn, pte)
                    finally:
                        now = clk._now
""",
        """                    try:
                        stall_ns += handle_fault(vpn, pte)
                    finally:
                        now = clk._now
                    latency = stall_ns + (store_ns if is_write else load_ns)
                    now += latency
                    lat_append(latency)
                    dram_tally[latency] = dram_tally.get(latency, 0) + 1
                    continue
""",
    )
    monkeypatch.setattr(replay_module, "_replay_fused", mutant)
    # Random pages, not interleaved load/store pairs: a faulted row's page
    # is rarely touched again at once, which would mask the skipped touch.
    rng = np.random.default_rng(17)
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=64).astype(np.int64)
    trace = AccessTrace.from_columns(addrs, np.full(64, 8), rng.integers(0, 2, size=64))
    # The skipped dirty bit turns later dirty evictions clean, so the
    # write-back costs (latencies) are the first observable to diverge.
    with pytest.raises(AssertionError, match="latencies diverged"):
        assert_equivalent("TraditionalStack", trace)


def test_mutant_walk_cost_off_by_one_is_caught(monkeypatch):
    """A walk charging one extra ns must show in latencies and the clock."""
    real_walk = PageTable.walk

    def mutant_walk(self, vpn):
        pte, cost = real_walk(self, vpn)
        return pte, cost + 1

    monkeypatch.setattr(PageTable, "walk", mutant_walk)
    trace = _uniform_trace(13)
    with pytest.raises(AssertionError, match="latencies diverged"):
        assert_equivalent("FlatFlash", trace)
    scalar_system, _ = build_system("FlatFlash")
    engine_system, _ = build_system("FlatFlash")
    run_scalar(scalar_system, trace)
    replay(engine_system, trace)
    assert scalar_system.clock.now != engine_system.clock.now
