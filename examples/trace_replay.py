#!/usr/bin/env python3
"""Compile an access trace once, replay it on every system.

Traces make comparisons exact: the *same* byte-for-byte access stream runs
against each hierarchy.  This example compiles a skewed workload to an
``AccessTrace``, saves it to disk, reloads it, and replays it on all three
systems — then shows how locality changes the verdict.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

import numpy as np

from repro.engine import AccessTrace, replay
from repro.experiments.common import build_system, scaled_config
from repro.workloads.synthetic import synthetic_trace

SYSTEMS = ("TraditionalStack", "UnifiedMMap", "FlatFlash")
TABLE_PAGES = 64


def fresh_system(name: str):
    """A new system with the trace's table mapped first, so the table sits
    at the same virtual addresses on every system and the trace's
    absolute addresses land in it."""
    system = build_system(name, scaled_config(dram_pages=16, ssd_to_dram=256))
    return system, system.mmap(TABLE_PAGES, name="table")


def replay_everywhere(trace: AccessTrace, label: str) -> None:
    print(f"\n{label} ({len(trace)} ops, {trace.num_loads / len(trace):.0%} reads, "
          f"{TABLE_PAGES} pages):")
    print(f"  {'system':>17} | mean access")
    for name in SYSTEMS:
        system, _table = fresh_system(name)
        latencies = replay(system, trace).latencies
        print(f"  {name:>17} | {latencies.mean() / 1000:7.2f} us")


def main() -> None:
    _system, table = fresh_system(SYSTEMS[0])

    # 1. Compile, save and reload a trace (a recorded application stream
    #    would be saved the same way).
    hot = synthetic_trace(
        table, 3_000, read_ratio=0.9, locality=0.9, rng=np.random.default_rng(1)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "workload.npz")
        hot.save(path)
        reloaded = AccessTrace.load(path)
        print(f"saved and reloaded {len(reloaded)} ops from {path.split('/')[-1]}")

    # 2. The same trace on every system: high locality (hot 10% gets 90%).
    replay_everywhere(reloaded, "high-locality trace")

    # 3. A uniform-random trace: the paging systems lose their cache.
    cold = synthetic_trace(
        table, 3_000, read_ratio=0.9, locality=0.0, rng=np.random.default_rng(1)
    )
    replay_everywhere(cold, "uniform-random trace")

    print("\nByte-granular access keeps the random case bounded: 64B over PCIe")
    print("instead of 4KB through the page-fault path.")


if __name__ == "__main__":
    main()
