"""Tests for the KV store application."""

import pytest

from repro import DRAMOnly, FlatFlash, TraditionalStack, UnifiedMMap, small_config
from repro.apps import kvstore as kvstore_module
from repro.apps.kvstore import KVStore, run_ycsb
from repro.workloads.ycsb import YCSB_B, YCSB_D, OpType, generate_ops


@pytest.fixture
def store():
    return KVStore(FlatFlash(small_config()), capacity_records=512)


def test_put_get_round_trip(store):
    store.put(7, b"value-7")
    value, _latency = store.get(7)
    assert value.rstrip(b"\x00") == b"value-7"


def test_values_padded_to_record_size(store):
    store.put(0, b"x")
    value, _ = store.get(0)
    assert len(value) == store.record_size


def test_oversized_value_rejected(store):
    with pytest.raises(ValueError):
        store.put(0, b"y" * 100)


def test_key_bounds_checked(store):
    with pytest.raises(KeyError):
        store.get(512)
    with pytest.raises(KeyError):
        store.put(-1)


def test_u64_helpers(store):
    store.put_u64(3, 123_456)
    value, _ = store.get_u64(3)
    assert value == 123_456


def test_counters(store):
    store.put(0)
    store.get(0)
    counters = store.system.stats.counters()
    assert counters["kv.puts"] == 1
    assert counters["kv.gets"] == 1


def test_records_span_pages():
    store = KVStore(FlatFlash(small_config()), capacity_records=256, record_size=64)
    assert store.region.num_pages == 4
    store.put(255, b"last")
    assert store.get(255)[0].rstrip(b"\x00") == b"last"


def test_invalid_shapes_rejected():
    system = FlatFlash(small_config())
    with pytest.raises(ValueError):
        KVStore(system, capacity_records=0)
    with pytest.raises(ValueError):
        KVStore(system, capacity_records=10, record_size=8_192)


def test_run_ycsb_b_returns_latency_per_op(store):
    stats = run_ycsb(store, YCSB_B, num_ops=300, num_records=256)
    assert stats.count == 300
    assert stats.mean > 0


def test_run_ycsb_d_handles_inserts(store):
    stats = run_ycsb(store, YCSB_D, num_ops=300, num_records=128)
    assert stats.count == 300


def test_kvstore_on_dram_only_is_fast():
    system = DRAMOnly(small_config())
    store = KVStore(system, capacity_records=256)
    stats = run_ycsb(store, YCSB_B, num_ops=200, num_records=200)
    assert stats.mean < 1_000  # all-DRAM: sub-microsecond


@pytest.mark.parametrize("workload", [YCSB_B, YCSB_D], ids=lambda w: w.name)
@pytest.mark.parametrize("system_cls", [FlatFlash, UnifiedMMap, TraditionalStack, DRAMOnly])
def test_run_ycsb_equals_per_op_get_put(monkeypatch, system_cls, workload):
    """run_ycsb's compiled replay is exactly a get/put loop over generate_ops.

    Capacity sits just above ``num_records``, so YCSB-D's inserts run past
    it and exercise the key wrap.
    """
    num_ops, num_records, capacity = 600, 256, 264
    reference = KVStore(system_cls(small_config()), capacity_records=capacity)
    latencies = []
    for op, key in generate_ops(workload, num_ops, num_records):
        key %= capacity
        if op is OpType.READ:
            latencies.append(reference.get(key)[1])
        else:
            latencies.append(reference.put(key))

    real_replay = kvstore_module.replay
    replays = []

    def recorded(system, trace):
        replays.append(real_replay(system, trace))
        return replays[-1]

    monkeypatch.setattr(kvstore_module, "replay", recorded)
    store = KVStore(system_cls(small_config()), capacity_records=capacity)
    stats = run_ycsb(store, workload, num_ops=num_ops, num_records=num_records)

    assert [result.blockers for result in replays] == [[]]
    assert replays[0].fused_ops > 0
    assert stats.samples == latencies
    assert store.system.stats.snapshot() == reference.system.stats.snapshot()
    assert store.system.clock.now == reference.system.clock.now


class TestFullYCSBSuite:
    def make_store(self):
        return KVStore(FlatFlash(small_config()), capacity_records=512)

    def test_ycsb_c_is_read_only(self):
        from repro.workloads.ycsb import YCSB_C

        store = self.make_store()
        run_ycsb(store, YCSB_C, num_ops=300, num_records=256)
        assert store.system.stats.counters()["kv.puts"] == 0
        assert store.system.stats.counters()["kv.gets"] == 300

    def test_ycsb_a_writes_more_than_b(self):
        from repro.workloads.ycsb import YCSB_A, YCSB_B

        puts = {}
        for workload in (YCSB_A, YCSB_B):
            store = self.make_store()
            run_ycsb(store, workload, num_ops=400, num_records=256)
            puts[workload.name] = store.system.stats.counters()["kv.puts"]
        assert puts["YCSB-A"] > 5 * puts["YCSB-B"]

    def test_update_heavy_costs_more_flash_traffic(self):
        from repro.workloads.ycsb import YCSB_A, YCSB_C

        writes = {}
        for workload in (YCSB_A, YCSB_C):
            # Promotion off so dirty data stays on the SSD side, where the
            # destage makes the write traffic visible on the flash counters.
            config = small_config()
            config.promotion.enabled = False
            store = KVStore(FlatFlash(config), capacity_records=512)
            run_ycsb(store, workload, num_ops=400, num_records=256)
            store.system.ssd.gc.flush_dirty()
            writes[workload.name] = store.system.ssd.flash.total_programs
        assert writes["YCSB-A"] > writes["YCSB-C"]
