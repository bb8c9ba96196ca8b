"""Replayable fault campaigns: the ``python -m repro faults`` matrix.

A *campaign* runs a fixed matrix of scenarios — one per fault plane plus
a zero-fault self-check — and emits a findings-style JSON report.  Every
scenario builds its systems from an explicit :class:`FaultConfig`, so the
report embeds the exact :class:`FaultPlan` it was produced from and two
runs with the same seed are byte-identical (the report carries no wall
clock and is serialized with sorted keys).

Scenarios
---------

``zero_faults``
    Self-check: a workload run under an all-zero fault config must
    produce exactly the same stats snapshot and elapsed time as the same
    workload without the fault subsystem (the injector must be inert).
``nand_soak``
    Write/read soak under NAND bit errors, program failures, erase
    failures and a wear limit; every read-back must still be correct
    (ECC retries and FTL re-programs absorb the faults).
``pcie_storm``
    MMIO traffic under link timeouts/corruption; the bridge's bounded
    retry + backoff and block-path degradation must preserve data.
``power_wal`` / ``power_db_log`` / ``power_flatfs``
    Sweep the power-loss instant across a workload, restart from the
    surviving flash image, and check the application invariant: WAL
    prefix durability, commit-log monotonicity, FlatFS fsck cleanliness.
"""

from __future__ import annotations

import argparse
import json
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.flatfs import FlatFS
from repro.apps.wal import WriteAheadLog
from repro.config import small_config
from repro.core.hierarchy import FlatFlash
from repro.core.persistence import PersistentRegion
from repro.faults.plan import FaultConfig
from repro.faults.power import PowerLossInjector, restart_system
from repro.faults.recovery import (
    check_flatfs,
    check_log_monotonic,
    check_wal_prefix,
)

#: Stat counters worth reporting per scenario (prefix match).
_METRIC_PREFIXES = (
    "flash.read_faults",
    "flash.program_fails",
    "flash.erase_fails",
    "flash.wear_retired_blocks",
    "ftl.ecc_retries",
    "ftl.ecc_hard_errors",
    "ftl.program_retries",
    "bridge.mmio_retries",
    "bridge.mmio_failures",
    "bridge.mmio_giveups",
    "bridge.mmio_backoff_ns",
    "bridge.degraded_pages",
    "bridge.degraded_accesses",
    "pcie.mmio_timeouts",
    "pcie.mmio_corruptions",
    "ssd.peek_misses",
    "ssd.poke_misses",
    "pmem.recover_failures",
    "mem.cacheable_fallbacks",
)


def _fault_metrics(system: FlatFlash) -> Dict[str, int]:
    counters = system.stats.counters()
    return {
        key: int(counters[key])
        for key in sorted(counters)
        if key.startswith(_METRIC_PREFIXES)
    }


def _merge_metrics(into: Dict[str, int], system: FlatFlash) -> None:
    for key, value in _fault_metrics(system).items():
        into[key] = into.get(key, 0) + value


def _scenario_report(
    name: str,
    faults: Optional[FaultConfig],
    metrics: Dict[str, int],
    problems: List[str],
    details: Dict[str, int],
    injector_summary: Optional[dict] = None,
) -> dict:
    return {
        "name": name,
        "plan": faults.plan().to_dict() if faults is not None else None,
        "injector": injector_summary,
        "metrics": metrics,
        "details": details,
        "problems": problems,
        "status": "ok" if not problems else "failed",
    }


# --------------------------------------------------------------------- #
# Probabilistic-plane scenarios
# --------------------------------------------------------------------- #


def _zero_faults(seed: int, smoke: bool) -> dict:
    """All-zero fault config must be bit-identical to no fault subsystem."""
    rounds = 2 if smoke else 6

    def run_one(config) -> Tuple[Dict[str, object], int]:
        system = FlatFlash(config)
        region = system.mmap(32, name="baseline")
        for round_index in range(rounds):
            for page in range(region.num_pages):
                system.store_u64(region.page_addr(page), round_index * 100 + page)
            for page in range(region.num_pages):
                system.load_u64(region.page_addr(page))
        system.quiesce()
        return dict(system.stats.snapshot()), system.clock.now

    baseline, baseline_ns = run_one(small_config(track_data=True))
    zeroed_faults = FaultConfig(seed=seed)
    zeroed, zeroed_ns = run_one(
        small_config(track_data=True, faults=zeroed_faults)
    )
    problems: List[str] = []
    if baseline_ns != zeroed_ns:
        problems.append(
            f"elapsed time diverged: baseline {baseline_ns}ns, "
            f"zero-fault config {zeroed_ns}ns"
        )
    for key in sorted(set(baseline) | set(zeroed)):
        if baseline.get(key) != zeroed.get(key):
            problems.append(
                f"stat {key!r} diverged: baseline {baseline.get(key)!r}, "
                f"zero-fault config {zeroed.get(key)!r}"
            )
    return _scenario_report(
        "zero_faults",
        None,
        {},
        problems,
        {"stats_compared": len(set(baseline) | set(zeroed)), "rounds": rounds},
    )


def _nand_soak(seed: int, smoke: bool) -> dict:
    """Write/read soak through NAND faults; data must survive verbatim."""
    faults = FaultConfig(
        seed=seed,
        nand_read_error_rate=0.02,
        nand_program_fail_rate=0.01,
        nand_erase_fail_rate=0.05,
        nand_wear_limit=24,
    )
    system = FlatFlash(small_config(track_data=True, faults=faults))
    region = system.mmap(128, name="soak")
    rounds = 3 if smoke else 12
    problems: List[str] = []
    for round_index in range(rounds):
        for page in range(region.num_pages):
            system.store_u64(region.page_addr(page), round_index * 1_000 + page)
        for page in range(region.num_pages):
            value, _result = system.load_u64(region.page_addr(page))
            expected = round_index * 1_000 + page
            if value != expected:
                problems.append(
                    f"round {round_index} page {page}: read {value}, "
                    f"wrote {expected}"
                )
    system.quiesce()
    assert system.ssd.faults is not None
    return _scenario_report(
        "nand_soak",
        faults,
        _fault_metrics(system),
        problems,
        {"rounds": rounds, "pages": region.num_pages,
         "retired_blocks": system.ssd.gc.retired_blocks},
        system.ssd.faults.summary(),
    )


def _pcie_storm(seed: int, smoke: bool) -> dict:
    """MMIO under link faults; retry/backoff/degradation keep data intact."""
    faults = FaultConfig(
        seed=seed,
        pcie_timeout_rate=0.2,
        pcie_corrupt_rate=0.05,
        mmio_max_retries=2,
        mmio_degraded_threshold=4,
    )
    system = FlatFlash(small_config(track_data=True, faults=faults))
    region = system.mmap(48, name="storm")
    rounds = 3 if smoke else 10
    problems: List[str] = []
    for round_index in range(rounds):
        for page in range(region.num_pages):
            system.store_u64(region.page_addr(page), round_index * 7_919 + page)
        for page in range(region.num_pages):
            value, _result = system.load_u64(region.page_addr(page))
            expected = round_index * 7_919 + page
            if value != expected:
                problems.append(
                    f"round {round_index} page {page}: read {value}, "
                    f"wrote {expected}"
                )
    system.quiesce()
    assert system.ssd.faults is not None
    retry = system.bridge.mmio_retry
    assert retry is not None
    return _scenario_report(
        "pcie_storm",
        faults,
        _fault_metrics(system),
        problems,
        {"rounds": rounds, "pages": region.num_pages,
         "degraded_pages": retry.degraded_pages},
        system.ssd.faults.summary(),
    )


# --------------------------------------------------------------------- #
# Power-loss scenarios
# --------------------------------------------------------------------- #


def _loss_instants(t0: int, t1: int, trials: int) -> List[int]:
    """``trials`` deterministic instants strictly inside ``(t0, t1]``."""
    span = max(1, t1 - t0)
    return sorted({t0 + max(1, (span * k) // (trials + 1)) for k in range(1, trials + 1)})


def _power_sweep(
    name: str,
    build: Callable[[], Tuple[FlatFlash, object]],
    workload: Callable[[object], None],
    recover_and_check: Callable[[FlatFlash, FlatFlash, object], List[str]],
    trials: int,
) -> dict:
    """Shared driver: dry-run to learn the duration, then sweep instants."""
    system, app = build()
    t0 = system.clock.now
    workload(app)
    t1 = system.clock.now
    instants = _loss_instants(t0, t1, trials)
    problems: List[str] = []
    metrics: Dict[str, int] = {}
    tripped = 0
    for at_ns in instants:
        system, app = build()
        injector = PowerLossInjector(system, at_ns)
        if not injector.run(lambda: workload(app)):
            # The instant fell past the workload's end on this run (clock
            # advances are discrete); nothing to recover.
            continue
        tripped += 1
        restarted = restart_system(system)
        trial_problems = recover_and_check(system, restarted, app)
        problems.extend(
            f"loss at {at_ns}ns: {problem}" for problem in trial_problems
        )
        _merge_metrics(metrics, restarted)
    return _scenario_report(
        name,
        None,
        metrics,
        problems,
        {
            "trials": len(instants),
            "tripped": tripped,
            "workload_span_ns": t1 - t0,
        },
    )


def _wal_payloads(count: int) -> List[bytes]:
    return [struct.pack("<Q", index) + b"\xab" * 24 for index in range(count)]


def _power_wal(seed: int, smoke: bool) -> dict:
    """Power loss mid-append: the recovered WAL is a durable prefix."""
    del seed  # the plane is deterministic; instants come from the dry run
    payloads = _wal_payloads(8 if smoke else 24)

    def build() -> Tuple[FlatFlash, dict]:
        system = FlatFlash(small_config(track_data=True))
        wal = WriteAheadLog.create(system, num_pages=4, name="campaign.wal")
        return system, {"system": system, "wal": wal, "completed": []}

    def workload(app: dict) -> None:
        for payload in payloads:
            app["wal"].append(payload)
            app["completed"].append(payload)

    def recover_and_check(
        old: FlatFlash, restarted: FlatFlash, app: dict
    ) -> List[str]:
        wal = WriteAheadLog(
            PersistentRegion(restarted, app["wal"].pmem.region)
        )
        recovered = wal.recover()
        problems = check_wal_prefix(payloads, recovered)
        if len(recovered) < len(app["completed"]):
            problems.append(
                f"durable record lost: {len(app['completed'])} appends "
                f"acknowledged but only {len(recovered)} recovered"
            )
        return problems

    return _power_sweep(
        "power_wal", build, workload, recover_and_check, 6 if smoke else 16
    )


def _power_db_log(seed: int, smoke: bool) -> dict:
    """A commit log of sequence numbers recovers gap-free and in order."""
    del seed
    count = 10 if smoke else 32
    payloads = [struct.pack("<Q", index) for index in range(count)]

    def build() -> Tuple[FlatFlash, dict]:
        system = FlatFlash(small_config(track_data=True))
        wal = WriteAheadLog.create(system, num_pages=4, name="campaign.dblog")
        return system, {"wal": wal}

    def workload(app: dict) -> None:
        for payload in payloads:
            app["wal"].append(payload)

    def recover_and_check(
        old: FlatFlash, restarted: FlatFlash, app: dict
    ) -> List[str]:
        wal = WriteAheadLog(
            PersistentRegion(restarted, app["wal"].pmem.region)
        )
        recovered = wal.recover()
        return check_wal_prefix(payloads, recovered) + check_log_monotonic(
            recovered
        )

    return _power_sweep(
        "power_db_log", build, workload, recover_and_check, 5 if smoke else 12
    )


def _power_flatfs(seed: int, smoke: bool) -> dict:
    """Power loss mid-namespace-op: post-recovery fsck must be clean."""
    del seed

    def build() -> Tuple[FlatFlash, FlatFS]:
        system = FlatFlash(small_config(track_data=True))
        fs = FlatFS(system, num_inodes=16, data_blocks=16, name="campaign.fs")
        return system, fs

    def workload(fs: FlatFS) -> None:
        fs.mkdir("/dir")
        fs.create("/dir/a")
        fs.write_file("/dir/a", b"alpha" * 120)
        fs.create("/b")
        fs.link("/dir/a", "/a2")
        fs.rename("/b", "/dir/b")
        fs.write_file("/dir/b", b"beta" * 300)
        fs.unlink("/a2")
        fs.mkdir("/dir/sub")
        fs.create("/dir/sub/c")
        fs.write_file("/dir/sub/c", b"gamma" * 64)
        fs.unlink("/dir/b")

    def recover_and_check(
        old: FlatFlash, restarted: FlatFlash, fs: FlatFS
    ) -> List[str]:
        reattached = FlatFS.reattach(restarted, fs)
        reattached.recover()
        return check_flatfs(reattached)

    return _power_sweep(
        "power_flatfs", build, workload, recover_and_check, 5 if smoke else 14
    )


SCENARIOS: Dict[str, Callable[[int, bool], dict]] = {
    "zero_faults": _zero_faults,
    "nand_soak": _nand_soak,
    "pcie_storm": _pcie_storm,
    "power_wal": _power_wal,
    "power_db_log": _power_db_log,
    "power_flatfs": _power_flatfs,
}

SCENARIO_NAMES: Tuple[str, ...] = tuple(SCENARIOS)


def run_campaign(
    seed: int = 0,
    smoke: bool = False,
    scenarios: Optional[List[str]] = None,
) -> dict:
    """Run the scenario matrix; returns the deterministic report dict."""
    selected = list(SCENARIOS) if scenarios is None else list(scenarios)
    for name in selected:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r} (known: {', '.join(SCENARIOS)})"
            )
    results = [SCENARIOS[name](seed, smoke) for name in selected]
    return {
        "campaign": "simfault",
        "seed": seed,
        "smoke": smoke,
        "scenarios": results,
        "problem_count": sum(len(entry["problems"]) for entry in results),
    }


def render_report(report: dict) -> str:
    """Canonical JSON form: sorted keys, no timestamps — byte-replayable."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced iteration counts for CI smoke runs",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the canonical JSON report to PATH",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=SCENARIO_NAMES,
        metavar="SCENARIO",
        default=None,
        help=f"run a subset (repeatable); choices: {', '.join(SCENARIOS)}",
    )


def run(args: argparse.Namespace) -> int:
    report = run_campaign(seed=args.seed, smoke=args.smoke, scenarios=args.only)
    for entry in report["scenarios"]:
        summary = ", ".join(
            f"{key}={value}" for key, value in sorted(entry["details"].items())
        )
        print(f"{entry['name']:>14}: {entry['status']}  ({summary})")
        for problem in entry["problems"]:
            print(f"    PROBLEM {problem}")
    print(
        f"campaign {'FAILED' if report['problem_count'] else 'passed'}: "
        f"{report['problem_count']} problem(s) across "
        f"{len(report['scenarios'])} scenario(s)"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(render_report(report))
        print(f"report written to {args.json}")
    return 1 if report["problem_count"] else 0
