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
