"""The paper's shapes, asserted on the committed cells' own rows.

Each test reads one EXPERIMENTS.md cell from the session's inline sweep
(the ``serial_report`` fixture, also checked byte for byte against the
committed document by tests/test_sweep_equivalence.py) and asserts the
shape its section claims: who wins, roughly by how much, and where the
trends point.  No test here runs an experiment.

The scorecard band is two-sided: each abstract claim's measured factor
must land inside the paper's reported range, so an overshoot fails as
loudly as a miss.
"""

import pytest

from repro.experiments import fig8, fig10, fig11_12, fig13, fig14, scorecard
from repro.experiments.common import ExperimentResult

pytestmark = pytest.mark.slow

BASELINES = ("UnifiedMMap", "TraditionalStack")


def _cell(serial_report, name: str) -> ExperimentResult:
    """A committed cell's rows, wrapped for the drivers' summary helpers."""
    return ExperimentResult(name, "committed sweep cell", serial_report.results[name].rows)


def _by(rows, key):
    return {row[key]: row for row in rows}


# ------------------------------------------------------------ §5 figures


def test_fig8_sequential_and_random_latency(serial_report):
    result = _cell(serial_report, "fig8")
    speedups = fig8.summarize_speedups(result)
    # FlatFlash wins random access against both baselines.
    assert speedups["UnifiedMMap"] > 1.1
    assert speedups["TraditionalStack"] > 1.4
    # The ordering holds at every ratio.
    for ratio in dict.fromkeys(row["ratio"] for row in result.rows):
        by_system = _by(result.filtered(ratio=ratio), "system")
        flat, unified, traditional = (
            by_system[system]["random_ns"]
            for system in ("FlatFlash", "UnifiedMMap", "TraditionalStack")
        )
        assert flat < unified < traditional


def test_fig9a_gups_throughput(serial_report):
    result = _cell(serial_report, "fig9a")
    for ratio in dict.fromkeys(row["ratio"] for row in result.rows):
        by_system = _by(result.filtered(ratio=ratio), "system")
        flat = by_system["FlatFlash"]
        unified = by_system["UnifiedMMap"]
        traditional = by_system["TraditionalStack"]
        # Per-update time: FlatFlash < UnifiedMMap < TraditionalStack.
        assert flat["mean_update_ns"] < unified["mean_update_ns"]
        assert unified["mean_update_ns"] < traditional["mean_update_ns"]
        # FlatFlash avoids migrating low-reuse pages.
        assert flat["page_movements"] < unified["page_movements"]
    at_512 = _by(result.filtered(ratio=512), "system")
    speedup = at_512["UnifiedMMap"]["mean_update_ns"] / at_512["FlatFlash"]["mean_update_ns"]
    assert 1.2 < speedup < 4.0


def test_fig9b_ssd_cache_sensitivity(serial_report):
    speedups = [row["speedup_vs_unified"] for row in _cell(serial_report, "fig9b").rows]
    # The benefit does not shrink as the SSD-Cache grows.
    assert all(b >= a * 0.98 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > speedups[0]


def test_fig10_graph_analytics(serial_report):
    result = _cell(serial_report, "fig10")
    vs_unified = fig10.speedup_over(result, "UnifiedMMap")
    vs_traditional = fig10.speedup_over(result, "TraditionalStack")
    # Ahead of both baselines on connected components, at least
    # competitive on PageRank (the paper's weakest case is 1.1x).
    assert vs_unified["connected-components"] > 1.05
    assert vs_traditional["connected-components"] > 1.2
    assert vs_unified["pagerank"] > 0.95
    assert vs_traditional["pagerank"] > 1.1
    # TraditionalStack never beats UnifiedMMap.
    for row_u in result.filtered(system="UnifiedMMap"):
        row_t = result.filtered(
            system="TraditionalStack",
            graph=row_u["graph"],
            algorithm=row_u["algorithm"],
            dram_ratio=row_u["dram_ratio"],
        )[0]
        assert row_t["elapsed_ms"] >= row_u["elapsed_ms"]


def test_fig11_tail_latency(serial_report):
    result = _cell(serial_report, "fig11_12")
    for baseline in BASELINES:
        assert fig11_12.tail_latency_reduction(result, baseline) > 1.5
    # FlatFlash's p99 and page movements beat both baselines in every cell.
    for row in result.filtered(system="FlatFlash"):
        for baseline in BASELINES:
            base = result.filtered(
                system=baseline, workload=row["workload"], ws_ratio=row["ws_ratio"]
            )[0]
            assert row["p99_ns"] <= base["p99_ns"]
            assert row["page_movements"] <= base["page_movements"]


def test_fig12_average_latency(serial_report):
    result = _cell(serial_report, "fig11_12")
    for row in result.filtered(system="FlatFlash"):
        unified, traditional = (
            result.filtered(
                system=baseline, workload=row["workload"], ws_ratio=row["ws_ratio"]
            )[0]
            for baseline in BASELINES
        )
        assert row["mean_ns"] < unified["mean_ns"] < traditional["mean_ns"]
    # The mean grows as the working set outgrows DRAM.
    for system in ("FlatFlash", "UnifiedMMap"):
        for workload in ("YCSB-B", "YCSB-D"):
            series = [
                row["mean_ns"] for row in result.filtered(system=system, workload=workload)
            ]
            assert series[0] < series[-1]


def test_fig13_metadata_persistence(serial_report):
    result = _cell(serial_report, "fig13")
    # Every cell: byte-granular persistence wins, in time and in lifetime.
    for row in result.rows:
        assert row["speedup"] > 1.0, f"{row['filesystem']}/{row['workload']}"
        assert row["lifetime_gain"] > 1.0
    # Write-amplification disciplines order the gains: BtrFS > EXT4 > XFS.
    ranges = fig13.speedup_range(result)
    assert ranges["btrfs"][1] > ranges["ext4"][1] > ranges["xfs"][1]
    assert max(row["speedup"] for row in result.rows) > 3.0


def test_fig14abc_throughput_scaling(serial_report):
    result = _cell(serial_report, "fig14")
    vs_unified = fig14.max_scaling(result, "UnifiedMMap")
    vs_traditional = fig14.max_scaling(result, "TraditionalStack")
    # FlatFlash wins every workload, most on the update-heavy ones.
    for workload in ("TPCC", "TPCB", "TATP"):
        assert vs_unified[workload] > 1.0
        assert vs_traditional[workload] > 1.2
    assert vs_unified["TPCB"] > vs_unified["TATP"]
    # FlatFlash's throughput grows with threads.
    for workload in ("TPCC", "TPCB", "TATP"):
        series = [
            row["throughput_tps"]
            for row in result.filtered(workload=workload, system="FlatFlash")
        ]
        assert series == sorted(series)


def test_fig14d_device_latency_sweep(serial_report):
    tps = {
        (row["device_latency_us"], row["system"]): row["throughput_tps"]
        for row in serial_report.results["fig14d"].rows
    }
    # FlatFlash's advantage grows as the device gets faster: its commit
    # path is PCIe-bound, not flash-bound.
    ratios = [
        tps[(latency, "FlatFlash")] / tps[(latency, "UnifiedMMap")]
        for latency in (20, 10, 5, 1)
    ]
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 2.0


# ------------------------------------------------------------ tables


def test_table1_summary(serial_report):
    by_benchmark = _by(_cell(serial_report, "table1").rows, "benchmark")
    for benchmark, row in by_benchmark.items():
        assert row["measured_perf"] >= 0.95, f"{benchmark} regressed"
    # Table 1's headline wins reproduce as wins.
    for benchmark in ("GUPS", "YCSB-B", "CreateFile", "VarMail", "TPCB"):
        assert by_benchmark[benchmark]["measured_perf"] > 1.2, benchmark
    # File-system workloads save many flash writes.
    assert by_benchmark["CreateFile"]["measured_lifetime"] > 2.0
    assert by_benchmark["VarMail"]["measured_lifetime"] > 2.0


def test_table3_cost_effectiveness(serial_report):
    for row in _cell(serial_report, "table3").rows:
        # DRAM-only is faster, FlatFlash cheaper, and it wins on perf/$.
        assert row["slowdown"] > 1.0, row["workload"]
        assert row["cost_saving"] > 1.0, row["workload"]
        assert row["cost_effectiveness"] > 1.0, row["workload"]


# ------------------------------------------------------------ ablations


def test_promotion_policy_ablation(serial_report):
    rows = _by(_cell(serial_report, "ablations:promotion-policy").rows, "policy")
    adaptive = rows["adaptive (Alg. 1)"]
    promote_always = rows["fixed(1)"]
    never = rows["no promotion"]
    # Promote-always floods the SSD<->DRAM channel with page movements,
    # while adaptive stays within 25% of its latency and beats never.
    assert promote_always["page_movements"] > 20 * max(1, adaptive["page_movements"])
    assert adaptive["mean_ns"] <= promote_always["mean_ns"] * 1.25
    assert adaptive["mean_ns"] <= never["mean_ns"]


def test_plb_ablation(serial_report):
    rows = _by(_cell(serial_report, "ablations:plb").rows, "mode")
    plb = rows["PLB (off critical path)"]
    stall = rows["stall on promotion"]
    assert plb["promotions"] == stall["promotions"]  # same policy decisions
    assert stall["mean_ns"] > plb["mean_ns"] * 1.2  # the stall is real
    assert stall["p99_ns"] > plb["p99_ns"]


def test_ssd_cache_policy_ablation(serial_report):
    rows = _by(_cell(serial_report, "ablations:cache-policy").rows, "policy")
    assert rows["RRIP"]["cache_hit_ratio"] >= rows["LRU"]["cache_hit_ratio"]
    assert rows["RRIP"]["mean_access_ns"] <= rows["LRU"]["mean_access_ns"]


def test_cacheable_mmio_ablation(serial_report):
    rows = _by(_cell(serial_report, "ablations:cacheable-mmio").rows, "mode")
    # Hot lines collapse to near cache latency with coherence.
    assert rows["uncacheable"]["hot_line_ns"] > 10 * rows["cacheable (CAPI)"]["hot_line_ns"]


def test_prefetch_extension(serial_report):
    rows = _by(_cell(serial_report, "ablations:prefetch").rows, "mode")
    off = rows["off (paper)"]
    near = rows["prefetch after 2"]
    # Prefetching helps sequential streams without hurting random access.
    assert near["sequential_ns"] < off["sequential_ns"]
    assert near["random_ns"] <= off["random_ns"] * 1.05
    assert near["prefetches"] > 0
    assert off["prefetches"] == 0


def test_sequential_fairness(serial_report):
    """Even with kernel readahead on the baselines' side, FlatFlash with
    stream prefetch wins sequential sweeps."""
    rows = {
        (row["system"], row["mode"]): row
        for row in _cell(serial_report, "ablations:sequential-fairness").rows
    }
    readahead = rows[("UnifiedMMap", "readahead 8")]
    no_readahead = rows[("UnifiedMMap", "no readahead")]
    prefetch = rows[("FlatFlash", "prefetch after 2")]
    assert readahead["sequential_ns"] <= no_readahead["sequential_ns"]
    assert prefetch["sequential_ns"] < readahead["sequential_ns"]


def test_logging_scheme_ablation(serial_report):
    rows = _by(_cell(serial_report, "ablations:logging-scheme").rows, "threads")
    # At 16 threads per-tx logging clearly outscales the centralized log;
    # at 2 threads the lock is barely contended and the gap is small.
    high = rows[16]
    assert high["per_tx_tps"] > 1.8 * high["central_tps"]
    assert high["lock_contention"] > 0.5
    low = rows[2]
    assert low["per_tx_tps"] < 1.3 * low["central_tps"]


# ------------------------------------------------------------ extensions


def test_device_technology_sweep(serial_report):
    rows = _cell(serial_report, "device-tech").rows
    for row in rows:
        assert row["speedup"] > 1.0, f"{row['device']}/{row['workload']}"
    # From low-latency flash to XPoint-class, the YCSB advantage grows.
    ycsb = [
        row["speedup"]
        for row in rows
        if row["workload"] == "YCSB-B" and row["device"] != "NAND flash"
    ]
    assert ycsb == sorted(ycsb)
    assert ycsb[-1] > ycsb[0]


def test_interference_isolation(serial_report):
    rows = _by(_cell(serial_report, "interference").rows, "system")
    flat = rows["FlatFlash"]
    unified = rows["UnifiedMMap"]
    traditional = rows["TraditionalStack"]
    # Absolute victim latency under load: FlatFlash clearly ahead.
    assert flat["loaded_mean_ns"] * 1.8 < unified["loaded_mean_ns"]
    assert flat["loaded_mean_ns"] * 2.0 < traditional["loaded_mean_ns"]
    assert flat["loaded_p99_ns"] < unified["loaded_p99_ns"]
    # Relative degradation: FlatFlash suffers no more than the baselines.
    assert flat["p99_blowup"] <= unified["p99_blowup"] + 0.01
    flat_mean_blowup = flat["loaded_mean_ns"] / flat["alone_mean_ns"]
    unified_mean_blowup = unified["loaded_mean_ns"] / unified["alone_mean_ns"]
    assert flat_mean_blowup < unified_mean_blowup


# ------------------------------------------------------------ scorecard


def test_scorecard_no_failures(serial_report):
    rows = _cell(serial_report, "scorecard").rows
    for row in rows:
        assert row["verdict"] != "FAILS", row["claim"]
        assert row["verdict"] != "PARTIAL", row["claim"]
        assert row["measured"] > 1.0
    assert sum(1 for row in rows if row["verdict"] == "STRONG") >= 2


def test_each_claim_prints_one_number(serial_report):
    """A claim's factor is the number its figure, and Table 1, print."""
    by_text = _by(_cell(serial_report, "scorecard").rows, "claim")
    measured = {claim.key: by_text[claim.text]["measured"] for claim in scorecard.CLAIMS}
    table1_perf = {
        row["benchmark"]: row["measured_perf"] for row in _cell(serial_report, "table1").rows
    }
    at_512 = _by(_cell(serial_report, "fig9a").filtered(ratio=512), "system")
    gups = at_512["UnifiedMMap"]["mean_update_ns"] / at_512["FlatFlash"]["mean_update_ns"]
    assert measured["gups"] == table1_perf["GUPS"] == round(gups, 2)
    tpcb = fig14.max_scaling(_cell(serial_report, "fig14"), "UnifiedMMap")["TPCB"]
    assert measured["oltp"] == table1_perf["TPCB"] == tpcb
    fig11_12_metrics = serial_report.results["fig11_12"].metrics
    assert measured["tail"] == fig11_12_metrics["p99_reduction_vs_unifiedmmap"]
    assert measured["metadata"] == max(_cell(serial_report, "fig13").column("speedup"))
    table3_metrics = serial_report.results["table3"].metrics
    assert measured["cost"] == table3_metrics["max_cost_effectiveness"]


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(
            claim,
            id=claim.key,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 3(d): Table 3's max cost-effectiveness "
                "overshoots the paper's range",
            )
            if claim.key == "cost"
            else (),
        )
        for claim in scorecard.CLAIMS
    ],
)
def test_scorecard_claim_inside_paper_range(serial_report, claim):
    measured = _by(_cell(serial_report, "scorecard").rows, "claim")[claim.text]["measured"]
    assert claim.paper_low <= measured <= claim.paper_high
