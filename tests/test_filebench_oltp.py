"""Tests for the FileBench op streams and OLTP transaction generators."""

import numpy as np
import pytest

from repro.workloads.filebench import (
    CREATE_FILE,
    LOG_APPEND,
    READ_FILE,
    repeated_ops,
    varmail_ops,
    webserver_ops,
    workload_by_name,
)
from repro.workloads.oltp import (
    TATP,
    TPCB,
    TPCC,
    TPCC_MIX,
    WORKLOADS,
    TransactionSpec,
    generate_mixed_transactions,
    generate_transactions,
)


class TestFileBench:
    def test_metadata_sizes_within_paper_range(self):
        # §3.5: metadata updates are 8-256 bytes.
        for op in (CREATE_FILE, LOG_APPEND):
            for size in op.updates:
                assert 8 <= size <= 256

    def test_repeated_ops_stream(self):
        stream = repeated_ops(CREATE_FILE, 10)
        assert len(stream) == 10
        assert stream.total_metadata_bytes == 10 * CREATE_FILE.metadata_bytes

    def test_repeated_requires_positive_count(self):
        with pytest.raises(ValueError):
            repeated_ops(CREATE_FILE, 0)

    def test_varmail_is_balanced_mix(self):
        stream = varmail_ops(2_000, np.random.default_rng(1))
        names = [op.name for op in stream]
        for expected in ("CreateFile", "AppendSync", "ReadFile", "DeleteFile"):
            share = names.count(expected) / len(names)
            assert 0.15 < share < 0.35

    def test_webserver_mostly_reads_and_logs(self):
        stream = webserver_ops(2_000, np.random.default_rng(2))
        names = [op.name for op in stream]
        assert names.count("LogAppend") / len(names) > 0.4
        assert names.count("ReadFile") / len(names) > 0.3

    def test_workload_by_name_all_five(self):
        for name in ("CreateFile", "RenameFile", "CreateDirectory", "VarMail", "WebServer"):
            stream = workload_by_name(name, 20)
            assert len(stream) == 20

    def test_workload_by_name_unknown(self):
        with pytest.raises(ValueError):
            workload_by_name("NopeBench", 10)

    def test_read_file_has_no_updates(self):
        assert READ_FILE.metadata_bytes == 0


class TestOLTP:
    def test_specs_match_paper_log_range(self):
        # §3.5: 64-1,424 bytes of log per transaction across the workloads.
        for spec in (TPCC, TPCB, TATP):
            assert spec.log_bytes_min >= 64
            assert spec.log_bytes_max <= 1_424

    def test_tpcc_is_biggest_logger(self):
        assert TPCC.log_bytes_max > TPCB.log_bytes_max > TATP.log_bytes_max

    def test_tatp_is_read_mostly(self):
        assert TATP.record_reads > TATP.record_writes
        assert TPCB.record_writes >= TPCB.record_reads

    def test_generate_transactions_shape(self):
        txs = generate_transactions(TPCB, 50, table_bytes=64 * 1_024)
        assert len(txs) == 50
        for tx in txs:
            assert len(tx.read_offsets) == TPCB.record_reads
            assert len(tx.write_offsets) == TPCB.record_writes
            assert TPCB.log_bytes_min <= tx.log_bytes <= TPCB.log_bytes_max

    def test_offsets_record_aligned_and_in_table(self):
        txs = generate_transactions(TPCC, 30, table_bytes=32 * 1_024)
        for tx in txs:
            for offset in tx.read_offsets + tx.write_offsets:
                assert offset % TPCC.record_size == 0
                assert 0 <= offset < 32 * 1_024

    def test_skew_produces_hot_records(self):
        txs = generate_transactions(
            TPCB, 2_000, table_bytes=1_024 * 64, skew=0.9,
            rng=np.random.default_rng(7),
        )
        offsets = [o for tx in txs for o in tx.write_offsets]
        unique_share = len(set(offsets)) / len(offsets)
        assert unique_share < 0.5  # heavy reuse of hot rows

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            generate_transactions(TPCB, 0, table_bytes=1_024)
        with pytest.raises(ValueError):
            generate_transactions(TPCB, 5, table_bytes=8)
        bad = TransactionSpec("bad", 1, 1, 0, 10, 100)
        with pytest.raises(ValueError):
            bad.validate()


def per_transaction_draw(spec, count, table_bytes, skew, rng):
    """Reference draw: one skew transform per read and write set."""
    records = table_bytes // spec.record_size

    def skewed(count_needed):
        uniform = rng.random(count_needed)
        ranks = np.power(uniform, 1.0 / max(1e-6, (1.0 - skew)))
        return (ranks * records).astype(np.int64) % records

    drawn = []
    for _ in range(count):
        reads = skewed(spec.record_reads) if spec.record_reads else []
        writes = skewed(spec.record_writes) if spec.record_writes else []
        log_bytes = int(rng.integers(spec.log_bytes_min, spec.log_bytes_max + 1))
        drawn.append(
            (
                spec.name,
                [int(r) * spec.record_size for r in reads],
                [int(w) * spec.record_size for w in writes],
                log_bytes,
            )
        )
    return drawn


def per_transaction_mix(mix, count, table_bytes, skew, rng):
    weights = np.array([weight for _spec, weight in mix], dtype=np.float64)
    drawn = []
    for choice in rng.choice(len(mix), size=count, p=weights):
        drawn.extend(per_transaction_draw(mix[int(choice)][0], 1, table_bytes, skew, rng))
    return drawn


@pytest.mark.parametrize("seed", [17, 18, 19])
@pytest.mark.parametrize("workload", ["TPCC", "TPCB", "TATP", "TPCC_MIX"])
def test_transaction_draw_matches_per_transaction_loop(workload, seed):
    table_bytes = 256 * 4_096
    fast_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    if workload == "TPCC_MIX":
        drawn = generate_mixed_transactions(TPCC_MIX, 300, table_bytes, rng=fast_rng)
        expected = per_transaction_mix(TPCC_MIX, 300, table_bytes, 0.6, reference_rng)
    else:
        spec = WORKLOADS[workload]
        drawn = generate_transactions(spec, 300, table_bytes, rng=fast_rng)
        expected = per_transaction_draw(spec, 300, table_bytes, 0.6, reference_rng)
    assert [
        (tx.spec.name, tx.read_offsets, tx.write_offsets, tx.log_bytes) for tx in drawn
    ] == expected
    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state
