"""Yahoo Cloud Serving Benchmark workload mixes (§5.4, Figs. 11-12).

The paper runs workloads B and D against Redis:

* **B** — 95 % reads / 5 % updates, Zipfian keys (photo tagging);
* **D** — 95 % reads / 5 % inserts, latest-skewed reads (status updates).

A and C are included for completeness (A: 50/50 update-heavy; C: read-only)
— they are useful for ablations.  Key-value pairs are 64 bytes, matching
the paper's setup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.engine import OP_LOAD, OP_STORE, AccessTrace
from repro.workloads.zipfian import LatestGenerator, ZipfianGenerator


class OpType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


@dataclass(frozen=True)
class YCSBWorkload:
    """One YCSB workload personality."""

    name: str
    read_ratio: float
    update_ratio: float
    insert_ratio: float
    distribution: str  # "zipfian", "latest" or "uniform"

    def validate(self) -> None:
        total = self.read_ratio + self.update_ratio + self.insert_ratio
        if not np.isclose(total, 1.0):
            raise ValueError(f"{self.name}: ratios sum to {total}, expected 1.0")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise ValueError(f"{self.name}: unknown distribution {self.distribution!r}")


YCSB_A = YCSBWorkload("YCSB-A", 0.50, 0.50, 0.0, "zipfian")
YCSB_B = YCSBWorkload("YCSB-B", 0.95, 0.05, 0.0, "zipfian")
YCSB_C = YCSBWorkload("YCSB-C", 1.00, 0.00, 0.0, "zipfian")
YCSB_D = YCSBWorkload("YCSB-D", 0.95, 0.00, 0.05, "latest")

WORKLOADS = {w.name: w for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_D)}

#: Key-value pair size used throughout §5.4.
RECORD_SIZE = 64


def generate_ops(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    theta: float = 0.99,
    seed: int = 21,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[OpType, int]]:
    """Yield ``(op, key)`` pairs following the workload's mix and skew.

    ``theta`` tunes the Zipfian skew, which is how the paper adjusts the
    working-set size relative to DRAM ("adjust the working set sizes by
    setting the request distribution parameter in YCSB").
    """
    workload.validate()
    if num_ops <= 0:
        raise ValueError(f"num_ops must be > 0, got {num_ops}")
    if num_records <= 0:
        raise ValueError(f"num_records must be > 0, got {num_records}")
    if rng is None:
        rng = np.random.default_rng(seed)

    zipf = ZipfianGenerator(num_records, theta=theta, seed=seed + 1)
    latest = LatestGenerator(num_records, theta=theta, seed=seed + 2)
    rolls = rng.random(num_ops)
    read_cut = workload.read_ratio
    update_cut = workload.read_ratio + workload.update_ratio

    for roll in rolls:
        if roll < read_cut:
            op = OpType.READ
        elif roll < update_cut:
            op = OpType.UPDATE
        else:
            op = OpType.INSERT
        if op is OpType.INSERT:
            key = latest.record_insert()
            yield op, key
            continue
        if workload.distribution == "latest":
            key = int(latest.sample(1)[0])
        elif workload.distribution == "zipfian":
            key = int(zipf.sample_scattered(1)[0])
        else:
            key = int(rng.integers(0, num_records))
        yield op, key


def compile_trace(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    base_addr: int,
    capacity_records: Optional[int] = None,
    record_size: int = RECORD_SIZE,
    theta: float = 0.99,
    seed: int = 21,
) -> AccessTrace:
    """Compile the workload's op stream to a flat access trace.

    :func:`repro.apps.kvstore.run_ycsb` replays it: each read becomes one
    ``record_size`` load and each update/insert one store, at
    ``base_addr + key * record_size`` with keys wrapped to
    ``capacity_records`` (inserts past it reuse the low keys).
    """
    if capacity_records is None:
        capacity_records = num_records
    addrs = np.empty(num_ops, dtype=np.int64)
    ops = np.empty(num_ops, dtype=np.uint8)
    for index, (op, key) in enumerate(
        generate_ops(workload, num_ops, num_records, theta=theta, seed=seed)
    ):
        if key >= capacity_records:
            key = key % capacity_records
        addrs[index] = base_addr + key * record_size
        ops[index] = OP_LOAD if op is OpType.READ else OP_STORE
    return AccessTrace.from_columns(addrs, record_size, ops)
