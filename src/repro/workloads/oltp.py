"""OLTP transaction models: TPCC, TPCB, TATP (§5.6, Fig. 14).

Shore-Kits' three workloads differ in read/write balance and in how much
log each transaction produces — the paper measured 64-1,424 bytes of log
per transaction across them (§3.5).  The specs below capture those shapes:

* **TPCC** (order processing): medium read/write sets, large log records.
* **TPCB** (account updates): update-intensive, medium logs.
* **TATP** (subscriber lookups): read-mostly, tiny logs.

:func:`generate_transactions` expands a spec into concrete transactions —
record addresses drawn Zipfian-skewed over the table pages — which the
mini database engine in :mod:`repro.apps.database` executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class TransactionSpec:
    """Shape of one transaction type."""

    name: str
    record_reads: int
    record_writes: int
    log_bytes_min: int
    log_bytes_max: int
    #: CPU time per transaction outside storage (ns).
    compute_ns: int
    record_size: int = 64

    def validate(self) -> None:
        if self.record_reads < 0 or self.record_writes < 0:
            raise ValueError(f"{self.name}: negative read/write counts")
        if not 0 < self.log_bytes_min <= self.log_bytes_max:
            raise ValueError(f"{self.name}: bad log size range")


TPCC = TransactionSpec(
    name="TPCC",
    record_reads=10,
    record_writes=6,
    log_bytes_min=600,
    log_bytes_max=1_424,
    compute_ns=18_000,
)

# The five TPC-C transaction types with the standard mix percentages.
# ``TPCC`` above is the traffic-weighted aggregate used by the headline
# figures; the per-type specs drive the mixed-workload generator.
TPCC_NEW_ORDER = TransactionSpec(
    "TPCC-NewOrder", record_reads=12, record_writes=10,
    log_bytes_min=700, log_bytes_max=1_424, compute_ns=20_000,
)
TPCC_PAYMENT = TransactionSpec(
    "TPCC-Payment", record_reads=4, record_writes=4,
    log_bytes_min=400, log_bytes_max=700, compute_ns=10_000,
)
TPCC_ORDER_STATUS = TransactionSpec(
    "TPCC-OrderStatus", record_reads=12, record_writes=0,
    log_bytes_min=64, log_bytes_max=128, compute_ns=8_000,
)
TPCC_DELIVERY = TransactionSpec(
    "TPCC-Delivery", record_reads=12, record_writes=12,
    log_bytes_min=600, log_bytes_max=1_000, compute_ns=25_000,
)
TPCC_STOCK_LEVEL = TransactionSpec(
    "TPCC-StockLevel", record_reads=20, record_writes=0,
    log_bytes_min=64, log_bytes_max=128, compute_ns=15_000,
)

#: TPC-C standard transaction mix: (spec, probability).
TPCC_MIX = [
    (TPCC_NEW_ORDER, 0.45),
    (TPCC_PAYMENT, 0.43),
    (TPCC_ORDER_STATUS, 0.04),
    (TPCC_DELIVERY, 0.04),
    (TPCC_STOCK_LEVEL, 0.04),
]

TPCB = TransactionSpec(
    name="TPCB",
    record_reads=3,
    record_writes=4,
    log_bytes_min=250,
    log_bytes_max=500,
    compute_ns=6_000,
)

TATP = TransactionSpec(
    name="TATP",
    record_reads=3,
    record_writes=1,
    log_bytes_min=64,
    log_bytes_max=200,
    compute_ns=3_000,
)

WORKLOADS = {"TPCC": TPCC, "TPCB": TPCB, "TATP": TATP}


@dataclass
class Transaction:
    """A concrete transaction: record offsets (bytes) plus its log size."""

    spec: TransactionSpec
    read_offsets: List[int]
    write_offsets: List[int]
    log_bytes: int


def generate_mixed_transactions(
    mix: List,
    count: int,
    table_bytes: int,
    skew: float = 0.6,
    rng: Optional[np.random.Generator] = None,
) -> List["Transaction"]:
    """Transactions drawn from a (spec, probability) mix, e.g. ``TPCC_MIX``.

    Types are interleaved in mix proportion, so a run exercises the full
    read-only/update spectrum the way a real TPC-C driver does.
    """
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    if rng is None:
        rng = np.random.default_rng(29)
    weights = np.array([weight for _spec, weight in mix], dtype=np.float64)
    if not np.isclose(weights.sum(), 1.0):
        raise ValueError(f"mix weights must sum to 1, got {weights.sum()}")
    choices = rng.choice(len(mix), size=count, p=weights)
    transactions: List[Transaction] = []
    for choice in choices:
        spec = mix[int(choice)][0]
        transactions.extend(
            generate_transactions(spec, 1, table_bytes, skew=skew, rng=rng)
        )
    return transactions


def generate_transactions(
    spec: TransactionSpec,
    count: int,
    table_bytes: int,
    skew: float = 0.6,
    rng: Optional[np.random.Generator] = None,
) -> List[Transaction]:
    """Materialize ``count`` transactions over a table of ``table_bytes``.

    Record accesses are Zipf-skewed (hot rows), quantized to record
    boundaries.  ``skew`` in (0, 1): larger = hotter head.
    """
    spec.validate()
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    if table_bytes < spec.record_size:
        raise ValueError("table smaller than one record")
    if rng is None:
        rng = np.random.default_rng(17)
    records = table_bytes // spec.record_size
    reads = spec.record_reads
    # Draw in the per-transaction order (read set, write set, log size):
    # the bounded-integer draw keeps half of a 64-bit output for its next
    # call, so batching the draws per kind would change the stream.
    uniform = np.empty((count, reads + spec.record_writes))
    log_sizes = []
    for row in uniform:
        if reads:
            row[:reads] = rng.random(reads)
        if spec.record_writes:
            row[reads:] = rng.random(spec.record_writes)
        log_sizes.append(int(rng.integers(spec.log_bytes_min, spec.log_bytes_max + 1)))
    # Zipf-ish skew through a power transform of uniforms (cheap, smooth).
    ranks = np.power(uniform, 1.0 / max(1e-6, (1.0 - skew)))
    offsets = ((ranks * records).astype(np.int64) % records * spec.record_size).tolist()
    return [
        Transaction(
            spec=spec,
            read_offsets=row[:reads],
            write_offsets=row[reads:],
            log_bytes=log_bytes,
        )
        for row, log_bytes in zip(offsets, log_sizes)
    ]
