"""Tests for workload generators: synthetic, GUPS, Zipfian, YCSB."""

import numpy as np
import pytest

from repro import DRAMOnly, FlatFlash, small_config
from repro.engine import OP_LOAD, OP_STORE
from repro.workloads.gups import run_gups
from repro.workloads.synthetic import random_access, sequential_access, warm_up
from repro.workloads.ycsb import (
    WORKLOADS,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_D,
    OpType,
    YCSBWorkload,
    compile_trace,
    generate_ops,
)
from repro.workloads.zipfian import LatestGenerator, ZipfianGenerator


@pytest.fixture
def system():
    return FlatFlash(small_config(track_data=False))


class TestSynthetic:
    def test_sequential_returns_one_sample_per_op(self, system):
        region = system.mmap(8)
        stats = sequential_access(system, region, 100)
        assert stats.count == 100

    def test_random_returns_one_sample_per_op(self, system):
        region = system.mmap(8)
        stats = random_access(system, region, 100)
        assert stats.count == 100

    def test_write_ratio_bounds_checked(self, system):
        region = system.mmap(4)
        with pytest.raises(ValueError):
            sequential_access(system, region, 10, write_ratio=1.5)
        with pytest.raises(ValueError):
            random_access(system, region, 10, write_ratio=-0.1)

    def test_warm_up_touches_pages(self, system):
        region = system.mmap(8)
        warm_up(system, region, 50)
        assert system.stats.counters()["mem.loads"] == 50

    def test_deterministic_with_seed(self):
        def run():
            system = FlatFlash(small_config(track_data=False))
            region = system.mmap(8)
            stats = random_access(
                system, region, 200, rng=np.random.default_rng(5)
            )
            return stats.mean

        assert run() == run()


class TestGUPS:
    def test_updates_counted(self, system):
        region = system.mmap(16)
        result = run_gups(system, region, 200)
        assert result.updates == 200
        assert result.elapsed_ns > 0

    def test_gups_metric(self, system):
        region = system.mmap(16)
        result = run_gups(system, region, 100)
        assert result.gups == pytest.approx(100 / result.elapsed_ns)
        assert result.mean_update_ns == pytest.approx(result.elapsed_ns / 100)

    def test_verify_mode_xors_real_data(self):
        system = DRAMOnly(small_config())
        region = system.mmap(16)
        rng = np.random.default_rng(777)
        run_gups(system, region, 100, rng=rng, verify=True)
        # Re-derive the updated indices and check the xors landed.
        replay = np.random.default_rng(777)
        indices = replay.integers(0, region.size // 8, size=100)
        values = [system.load_u64(region.addr(int(i) * 8))[0] for i in indices]
        assert any(values)

    def test_invalid_update_count(self, system):
        region = system.mmap(4)
        with pytest.raises(ValueError):
            run_gups(system, region, 0)


class TestZipfian:
    def test_samples_in_range(self):
        zipf = ZipfianGenerator(1_000)
        samples = zipf.sample(5_000)
        assert samples.min() >= 0
        assert samples.max() < 1_000

    def test_skew_prefers_low_ranks(self):
        zipf = ZipfianGenerator(1_000, theta=0.99)
        samples = zipf.sample(20_000)
        head = np.mean(samples < 10)
        assert head > 0.2  # top-10 of 1000 gets >20% of traffic

    def test_scattered_spreads_hot_keys(self):
        zipf = ZipfianGenerator(1_000)
        scattered = zipf.sample_scattered(5_000)
        assert scattered.min() >= 0
        assert scattered.max() < 1_000
        # Scattering must not concentrate everything at the low end.
        assert np.mean(scattered < 10) < 0.2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10).sample(0)

    def test_scatter_multiplier_matches_the_per_call_formula(self):
        """The multiplier computed once at construction scatters exactly as
        the formula ``sample_scattered`` used to evaluate on every call."""
        n = 1_000
        multiplier = 2654435761 % n
        assert np.gcd(multiplier, n) == 1
        ranks = ZipfianGenerator(n, seed=9).sample(2_000)
        expected = (ranks * multiplier + 17) % n
        scattered = ZipfianGenerator(n, seed=9)
        assert np.array_equal(scattered.sample_scattered(1_500), expected[:1_500])
        assert np.array_equal(scattered.sample_scattered(500), expected[1_500:])

    def test_latest_prefers_recent(self):
        latest = LatestGenerator(1_000)
        samples = latest.sample(10_000)
        assert np.mean(samples > 900) > 0.4

    def test_latest_insert_extends_keyspace(self):
        latest = LatestGenerator(100)
        key = latest.record_insert()
        assert key == 100
        assert latest.count == 101


class TestYCSB:
    def test_op_mix_matches_workload(self):
        ops = list(generate_ops(YCSB_B, 10_000, 1_000, seed=3))
        reads = sum(1 for op, _ in ops if op is OpType.READ)
        updates = sum(1 for op, _ in ops if op is OpType.UPDATE)
        assert reads / len(ops) == pytest.approx(0.95, abs=0.02)
        assert updates / len(ops) == pytest.approx(0.05, abs=0.02)

    def test_workload_d_inserts_fresh_keys(self):
        ops = list(generate_ops(YCSB_D, 5_000, 1_000, seed=4))
        inserts = [key for op, key in ops if op is OpType.INSERT]
        assert inserts
        assert min(inserts) >= 1_000  # beyond the preloaded keyspace
        assert len(set(inserts)) == len(inserts)  # unique

    def test_keys_in_range_for_reads(self):
        ops = list(generate_ops(YCSB_B, 2_000, 500, seed=5))
        for op, key in ops:
            if op is not OpType.INSERT:
                assert 0 <= key < 500

    def test_ratio_validation(self):
        from repro.workloads.ycsb import YCSBWorkload

        bad = YCSBWorkload("bad", 0.5, 0.1, 0.1, "zipfian")
        with pytest.raises(ValueError):
            bad.validate()

    def test_all_named_workloads_valid(self):
        for workload in WORKLOADS.values():
            workload.validate()


def per_op_stream(workload, num_ops, num_records, seed):
    """The op-by-op draw the batched stream replaces: one key draw per op."""
    rng = np.random.default_rng(seed)
    zipf = ZipfianGenerator(num_records, theta=0.99, seed=seed + 1)
    latest = LatestGenerator(num_records, theta=0.99, seed=seed + 2)
    read_cut = workload.read_ratio
    update_cut = workload.read_ratio + workload.update_ratio
    ops = []
    for roll in rng.random(num_ops):
        if roll < read_cut:
            op = OpType.READ
        elif roll < update_cut:
            op = OpType.UPDATE
        else:
            op = OpType.INSERT
        if op is OpType.INSERT:
            key = latest.record_insert()
        elif workload.distribution == "latest":
            key = int(latest.sample(1)[0])
        else:
            key = int(zipf.sample_scattered(1)[0])
        ops.append((op, key))
    return ops


ZIPF_INSERTS = YCSBWorkload("zipf-inserts", 0.6, 0.2, 0.2, "zipfian")
ALL_INSERTS = YCSBWorkload("all-inserts", 0.0, 0.0, 1.0, "latest")  # draws no key
STREAM_CASES = [
    *[(w, seed) for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_D) for seed in (0, 5, 21)],
    (ZIPF_INSERTS, 3),
    (ALL_INSERTS, 4),
]


@pytest.mark.parametrize(
    "workload, seed", STREAM_CASES, ids=[f"{w.name}-seed{seed}" for w, seed in STREAM_CASES]
)
def test_batched_stream_equals_per_op_draws(workload, seed):
    """``generate_ops`` pairs and ``compile_trace`` rows equal an op-by-op draw.

    The capacity sits a few records above ``num_records``, so every mix
    with inserts runs past it and exercises the key wrap.
    """
    num_ops, num_records, capacity, base, record_size = 800, 256, 260, 1 << 20, 64
    reference = per_op_stream(workload, num_ops, num_records, seed)
    assert list(generate_ops(workload, num_ops, num_records, seed=seed)) == reference

    trace = compile_trace(
        workload, num_ops, num_records, base, capacity_records=capacity,
        record_size=record_size, seed=seed,
    )
    keys = [key % capacity for _op, key in reference]
    assert trace.rows["addr"].tolist() == [base + key * record_size for key in keys]
    assert trace.rows["op"].tolist() == [
        OP_LOAD if op is OpType.READ else OP_STORE for op, _key in reference
    ]
    assert set(trace.rows["size"].tolist()) == {record_size}
    if workload.insert_ratio:
        assert max(key for _op, key in reference) >= capacity  # the wrap ran
