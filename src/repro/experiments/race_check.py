"""Schedule-perturbation determinism check over the seed OLTP config.

The race check (:mod:`repro.sim.race`) replays the smallest
multi-threaded scenario we have — the Fig. 14 OLTP engine on the default
:func:`~repro.experiments.common.scaled_config` — under N seeded
same-timestamp schedules and diffs the final stats snapshots against the
unperturbed FIFO baseline.

**What must be byte-identical** (and is asserted here): every stat that
counts logical work — commits, loads/stores, fault/promotion counts.
These are conservation laws; a diff under a permuted schedule means a
lost or duplicated update.

**What legitimately varies** (documented, not failed): stats whose value
depends on *when* an access happens relative to the others.

* ``result.elapsed_ns`` — the makespan depends on which process wins a
  same-timestamp tie and therefore on how lock waits overlap.
* ``result.contention`` / ``*.ratio`` — whether an acquire finds its
  lock held is a property of the interleaving.
* ``*.mean_ns`` — per-access latency depends on the cache state the
  access happens to see.
* ``flash.page_programs`` / ``ftl.host_writes`` / ``mem.pages_out`` /
  ``pcie.*`` on the block systems — DRAM eviction order changes which
  dirty pages are written back, and with them the DMA/flash traffic.

A diff *outside* this allowlist fails the check (exit 1).

The harness also runs one recorded pass and prints the Eraser-style
lockset report.  Under cooperative scheduling a same-slice update is
atomic, so an empty-lockset conflict here is a *watch item* (it becomes
a real race the moment a yield lands between read and write), not an
error.

Run it with ``python -m repro race`` or ``make race``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.apps.database import LoggingScheme, run_oltp
from repro.experiments.common import build_system, scaled_config
from repro.sim.race import (
    AccessRecorder,
    PerturbationReport,
    SnapshotDiff,
    run_perturbed,
)
from repro.workloads.oltp import TransactionSpec

#: The tiny workload: enough concurrency to contend, small enough that
#: the whole sweep stays in the seconds range.
TINY_SPEC = TransactionSpec(
    name="race-tiny",
    record_reads=2,
    record_writes=1,
    log_bytes_min=128,
    log_bytes_max=256,
    compute_ns=500,
)
TINY_TRANSACTIONS = 32
TINY_THREADS = 4

#: The systems whose DES schedules are worth perturbing (DRAM-only has no
#: storage-path state to race on).
SYSTEMS = ("FlatFlash", "UnifiedMMap", "TraditionalStack")

#: Exact stat keys that legitimately depend on the schedule.
SCHEDULE_DEPENDENT_KEYS = frozenset(
    {
        "result.elapsed_ns",
        "result.contention",
        "flash.page_programs",
        "ftl.host_writes",
        "mem.pages_out",
    }
)

#: Key fragments that mark a stat as legitimately schedule-dependent.
SCHEDULE_DEPENDENT_MARKERS = (".mean_ns", ".ratio", "pcie.")


def is_schedule_dependent(key: str) -> bool:
    """Is ``key`` on the documented schedule-dependent allowlist?"""
    if key in SCHEDULE_DEPENDENT_KEYS:
        return True
    return any(marker in key for marker in SCHEDULE_DEPENDENT_MARKERS)


def oltp_scenario(
    system_name: str, scheme: LoggingScheme
) -> Callable[[Optional[int]], Dict[str, object]]:
    """A :func:`run_perturbed` scenario: fresh system, tiny OLTP run."""

    def scenario(seed: Optional[int]) -> Dict[str, object]:
        system = build_system(system_name, scaled_config())
        result = run_oltp(
            system,
            TINY_SPEC,
            TINY_TRANSACTIONS,
            TINY_THREADS,
            scheme=scheme,
            sim_seed=seed,
        )
        snapshot: Dict[str, object] = dict(system.stats.snapshot())
        snapshot["result.elapsed_ns"] = result.elapsed_ns
        snapshot["result.contention"] = result.log_lock_contention
        return snapshot

    return scenario


def unexpected_diffs(report: PerturbationReport) -> List[SnapshotDiff]:
    """Diffs on stats that should have been schedule-invariant."""
    return [diff for diff in report.diffs if not is_schedule_dependent(diff.key)]


def run_race_check(seeds: int = 5, verbose: bool = True) -> int:
    """Perturb every system/scheme combination; returns a process exit code."""
    failures: List[SnapshotDiff] = []
    for system_name in SYSTEMS:
        for scheme in (LoggingScheme.CENTRALIZED, LoggingScheme.PER_TRANSACTION):
            report = run_perturbed(oltp_scenario(system_name, scheme), seeds=seeds)
            bad = unexpected_diffs(report)
            failures.extend(bad)
            expected = len(report.diffs) - len(bad)
            invariant = sum(
                1 for key in report.baseline if not is_schedule_dependent(key)
            )
            if verbose:
                print(
                    f"{system_name:>16} / {scheme.value:<15} seeds={seeds}: "
                    f"{invariant} invariant stat(s) byte-identical, "
                    f"{expected} allowlisted schedule-dependent diff(s), "
                    f"{len(bad)} UNEXPECTED"
                )
            for diff in bad:
                print(
                    f"    UNEXPECTED seed={diff.seed} {diff.key}: "
                    f"baseline={diff.baseline!r} perturbed={diff.perturbed!r}"
                )

    # One recorded pass: Eraser-style lockset report (informational).
    recorder = AccessRecorder()
    system = build_system("FlatFlash", scaled_config())
    run_oltp(
        system,
        TINY_SPEC,
        TINY_TRANSACTIONS,
        TINY_THREADS,
        scheme=LoggingScheme.PER_TRANSACTION,
        recorder=recorder,
    )
    conflicts = recorder.conflicts()
    if verbose:
        print(
            f"access recorder: {len(recorder.records)} access(es) logged, "
            f"{len(conflicts)} empty-lockset conflict(s) "
            f"(atomic per-slice today; watch items for lost updates)"
        )
        for conflict in conflicts:
            print(f"    {conflict.describe()}")

    if failures:
        print(f"race check FAILED: {len(failures)} unexpected diff(s)")
        return 1
    print("race check passed: all invariant stats byte-identical across seeds")
    return 0
