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
from repro.workloads.zipfian import ZipfianGenerator


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
    distribution: str  # "zipfian" or "latest"

    def validate(self) -> None:
        total = self.read_ratio + self.update_ratio + self.insert_ratio
        if not np.isclose(total, 1.0):
            raise ValueError(f"{self.name}: ratios sum to {total}, expected 1.0")
        if self.distribution not in ("zipfian", "latest"):
            raise ValueError(f"{self.name}: unknown distribution {self.distribution!r}")


YCSB_A = YCSBWorkload("YCSB-A", 0.50, 0.50, 0.0, "zipfian")
YCSB_B = YCSBWorkload("YCSB-B", 0.95, 0.05, 0.0, "zipfian")
YCSB_C = YCSBWorkload("YCSB-C", 1.00, 0.00, 0.0, "zipfian")
YCSB_D = YCSBWorkload("YCSB-D", 0.95, 0.00, 0.05, "latest")

WORKLOADS = {w.name: w for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_D)}

#: Key-value pair size used throughout §5.4.
RECORD_SIZE = 64


#: Op kinds by the codes :func:`_draw` returns.
_OP_TYPES = (OpType.READ, OpType.UPDATE, OpType.INSERT)


def _draw(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    theta: float,
    seed: int,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the whole op stream in one pass: (op codes into ``_OP_TYPES``, keys).

    One roll per op picks its kind.  Each insert takes the next fresh key
    above the preloaded ones; every other op draws its key from one batched
    call to the workload's distribution.  A ``k``-key draw returns the same
    keys as ``k`` one-key draws, so the stream equals drawing op by op.
    """
    workload.validate()
    if num_ops <= 0:
        raise ValueError(f"num_ops must be > 0, got {num_ops}")
    if num_records <= 0:
        raise ValueError(f"num_records must be > 0, got {num_records}")
    if rng is None:
        rng = np.random.default_rng(seed)

    rolls = rng.random(num_ops)
    update_cut = workload.read_ratio + workload.update_ratio
    codes = np.where(rolls < workload.read_ratio, 0, np.where(rolls < update_cut, 1, 2))
    inserts = codes == 2
    # Inserts so far, this op included: the key space has grown by that many.
    inserted = np.cumsum(inserts)
    keys = np.where(inserts, num_records - 1 + inserted, 0)
    zipfian = workload.distribution == "zipfian"
    zipf = ZipfianGenerator(num_records, theta=theta, seed=seed + (1 if zipfian else 2))
    drawn = ~inserts
    count = int(np.count_nonzero(drawn))
    if count and zipfian:
        keys[drawn] = zipf.sample_scattered(count)
    elif count:
        # LatestGenerator's draw: Zipfian distances back from the newest key.
        newest = num_records - 1 + inserted[drawn]
        keys[drawn] = np.maximum(newest - zipf.sample(count), 0)
    return codes, keys


def generate_ops(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    theta: float = 0.99,
    seed: int = 21,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[OpType, int]]:
    """Yield ``(op, key)`` pairs following the workload's mix and skew.

    The whole stream is drawn in one numpy pass, with zipfian or latest
    keys, and this iterates the same arrays :func:`compile_trace` packs,
    so the two always agree.  ``theta`` tunes the Zipfian skew, which is
    how the paper adjusts the working-set size relative to DRAM ("adjust
    the working set sizes by setting the request distribution parameter
    in YCSB").
    """
    codes, keys = _draw(workload, num_ops, num_records, theta, seed, rng)
    for code, key in zip(codes.tolist(), keys.tolist()):
        yield _OP_TYPES[code], key


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

    The stream is drawn in one numpy pass, with zipfian or latest keys;
    :func:`generate_ops` iterates the same arrays.
    :func:`repro.apps.kvstore.run_ycsb` replays it: each read becomes one
    ``record_size`` load and each update/insert one store, at
    ``base_addr + key * record_size`` with keys wrapped to
    ``capacity_records`` (inserts past it reuse the low keys).
    """
    if capacity_records is None:
        capacity_records = num_records
    codes, keys = _draw(workload, num_ops, num_records, theta, seed)
    addrs = base_addr + (keys % capacity_records) * record_size
    ops = np.where(codes == 0, OP_LOAD, OP_STORE)
    return AccessTrace.from_columns(addrs, record_size, ops)
