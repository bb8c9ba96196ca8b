"""Tests for the graph engine: results must be *correct*, not just timed."""

import tracemalloc

import numpy as np
import networkx as nx
import pytest

from repro import DRAMOnly, FlatFlash, small_config
from repro.apps.graph_analytics import GraphEngine
from repro.engine import AccessTrace
from repro.experiments.common import scaled_config
from repro.workloads.graphs import CSRGraph, connected_pairs_graph, power_law_graph


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    for source in range(graph.num_vertices):
        for target in graph.neighbors(source):
            g.add_edge(source, int(target))
    return g


@pytest.fixture
def small_graph():
    return power_law_graph(120, avg_degree=5, seed=11)


def make_engine(graph, system_cls=FlatFlash):
    config = small_config(track_data=False)
    return GraphEngine(system_cls(config), graph)


def test_pagerank_sums_to_one(small_graph):
    engine = make_engine(small_graph)
    ranks = engine.pagerank(iterations=3)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_matches_networkx(small_graph):
    engine = make_engine(small_graph)
    ours = engine.pagerank(iterations=40, charge_accesses=False)
    reference = nx.pagerank(
        to_networkx(small_graph), alpha=0.85, max_iter=200, tol=1e-10
    )
    ref = np.array([reference[v] for v in range(small_graph.num_vertices)])
    # Parallel-edge handling can differ slightly; ordering must agree at top.
    top_ours = set(np.argsort(ours)[-5:])
    top_ref = set(np.argsort(ref)[-5:])
    assert len(top_ours & top_ref) >= 4
    assert np.corrcoef(ours, ref)[0, 1] > 0.98


def test_pagerank_same_result_with_and_without_charging(small_graph):
    engine_a = make_engine(small_graph)
    engine_b = make_engine(small_graph)
    charged = engine_a.pagerank(iterations=3, charge_accesses=True)
    free = engine_b.pagerank(iterations=3, charge_accesses=False)
    assert np.allclose(charged, free)


def per_vertex_pagerank(graph, iterations, damping=0.85):
    """Reference push loop: each vertex scatters its share in vertex order."""
    n = graph.num_vertices
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    out_degree = np.maximum(1, np.diff(graph.indptr)).astype(np.float64)
    for _ in range(iterations):
        next_ranks = np.zeros(n, dtype=np.float64)
        for vertex in range(n):
            first, last = int(graph.indptr[vertex]), int(graph.indptr[vertex + 1])
            if last > first:
                share = ranks[vertex] / out_degree[vertex]
                np.add.at(next_ranks, graph.indices[first:last], share)
        dangling = ranks[np.diff(graph.indptr) == 0].sum()
        ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
    return ranks


def test_pagerank_bit_identical_to_per_vertex_push_loop(small_graph):
    """The edge-ordered scatter-add accumulates in the loop's exact order."""
    ranks = make_engine(small_graph).pagerank(iterations=4)
    assert np.array_equal(ranks, per_vertex_pagerank(small_graph, 4))


def test_pagerank_charges_memory_accesses(small_graph):
    engine = make_engine(small_graph)
    engine.pagerank(iterations=1)
    counters = engine.system.stats.counters()
    assert counters["mem.loads"] > small_graph.num_vertices


def test_connected_components_ground_truth():
    graph = connected_pairs_graph(60, num_components=5, seed=12)
    engine = make_engine(graph)
    labels = engine.connected_components(max_iterations=100)
    assert len(set(labels.tolist())) == 5


def test_connected_components_members_share_labels():
    graph = connected_pairs_graph(40, num_components=2, seed=13)
    engine = make_engine(graph)
    labels = engine.connected_components(max_iterations=100)
    reference = nx.weakly_connected_components(to_networkx(graph))
    for component in reference:
        values = {int(labels[v]) for v in component}
        assert len(values) == 1


def test_invalid_iterations_rejected(small_graph):
    engine = make_engine(small_graph)
    with pytest.raises(ValueError):
        engine.pagerank(iterations=0)


def test_engine_maps_three_regions(small_graph):
    engine = make_engine(small_graph)
    names = [region.name for region in engine.system.regions]
    assert any("indptr" in name for name in names)
    assert any("edges" in name for name in names)
    assert any("state" in name for name in names)


def test_results_identical_across_systems(small_graph):
    flat = make_engine(small_graph, FlatFlash).pagerank(iterations=2)
    dram = GraphEngine(
        DRAMOnly(small_config(track_data=False).scaled(dram_pages=4_096)), small_graph
    ).pagerank(iterations=2)
    assert np.allclose(flat, dram)


class TestShardedPageRank:
    def test_results_match_unsharded(self, small_graph=None):
        graph = power_law_graph(300, avg_degree=6, seed=21)
        plain = make_engine(graph).pagerank(iterations=4, charge_accesses=False)
        sharded = make_engine(graph).pagerank_sharded(
            iterations=4, num_shards=5, charge_accesses=False
        )
        assert np.allclose(plain, sharded)

    def test_single_shard_equals_unsharded(self):
        graph = power_law_graph(200, avg_degree=5, seed=22)
        plain = make_engine(graph).pagerank(iterations=2, charge_accesses=False)
        sharded = make_engine(graph).pagerank_sharded(
            iterations=2, num_shards=1, charge_accesses=False
        )
        assert np.allclose(plain, sharded)

    def test_shard_bounds_validated(self):
        graph = power_law_graph(100, avg_degree=4, seed=23)
        engine = make_engine(graph)
        with pytest.raises(ValueError):
            engine.pagerank_sharded(num_shards=0)
        with pytest.raises(ValueError):
            engine.pagerank_sharded(iterations=0)

    def test_sharded_charges_sequential_streams(self):
        graph = power_law_graph(300, avg_degree=6, seed=24)
        engine = make_engine(graph)
        engine.pagerank_sharded(iterations=1, num_shards=4)
        names = [region.name for region in engine.system.regions]
        assert any("shards" in name for name in names)
        assert engine.system.stats.counters()["mem.loads"] > 0

    def test_sharded_keeps_window_writes_local(self):
        """The write working set per shard pass is the shard interval, so
        with shards sized under DRAM the paging baselines stop thrashing."""
        from repro import UnifiedMMap

        # Vertex state (4 pages) exceeds DRAM (2 frames): the unsharded
        # engine's scattered writes thrash, the sharded windows do not.
        graph = power_law_graph(2_000, avg_degree=3, seed=25)

        def run(shards):
            config = small_config(track_data=False)
            config.geometry.dram_pages = 2
            config.geometry.ssd_pages = 8_192
            engine = GraphEngine(UnifiedMMap(config.validate()), graph)
            if shards is None:
                engine.pagerank(iterations=1)
            else:
                engine.pagerank_sharded(iterations=1, num_shards=shards)
            return engine.system.page_movements

        assert run(4) < run(None) / 5


def per_vertex_iteration_trace(engine, target_writes):
    """Reference compile: the per-vertex loop the numpy build replaced."""
    esize = engine.ELEMENT_SIZE
    line = engine._line
    indptr_base = engine.indptr_region.addr(0)
    edges_base = engine.edges_region.addr(0)
    state_base = engine.state_region.addr(0)
    indptr = engine.graph.indptr.tolist()
    indices = engine.graph.indices.tolist()
    addrs, sizes, ops = [], [], []
    for vertex in range(engine.graph.num_vertices):
        first = indptr[vertex]
        last = indptr[vertex + 1]
        addrs.append(indptr_base + vertex * esize)
        sizes.append(esize)
        ops.append(0)
        addrs.append(state_base + vertex * esize)
        sizes.append(esize)
        ops.append(0)
        if last > first:
            edge_addr = (first * esize // line) * line
            end = last * esize
            while edge_addr < end:
                addrs.append(edges_base + edge_addr)
                sizes.append(line)
                ops.append(0)
                edge_addr += line
            if target_writes:
                for target in indices[first:last]:
                    addrs.append(state_base + target * esize)
                    sizes.append(esize)
                    ops.append(1)
    return AccessTrace.from_columns(addrs, sizes, ops)


def sparse_graph(num_vertices, seed):
    """Out-degrees 0, 1 or 5, so runs of zero-degree vertices sit between
    edge lists that start mid-line."""
    rng = np.random.default_rng(seed)
    degrees = rng.choice([0, 0, 1, 5], size=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, num_vertices, size=int(indptr[-1]))
    return CSRGraph(num_vertices, indptr, indices.astype(np.int64))


@pytest.mark.parametrize("cacheline_size", [64, 128])
@pytest.mark.parametrize("target_writes", [True, False], ids=["pagerank", "vertex-scan"])
@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: power_law_graph(400, avg_degree=6, seed=31),
        lambda: power_law_graph(400, avg_degree=9, seed=32),
        lambda: power_law_graph(400, avg_degree=3, seed=33),
        lambda: sparse_graph(300, seed=34),
    ],
    ids=["power-law-31", "power-law-32", "power-law-33", "sparse-zero-degree"],
)
def test_iteration_trace_matches_per_vertex_loop(graph_factory, target_writes, cacheline_size):
    graph = graph_factory()
    config = small_config(track_data=False)
    config.geometry.cacheline_size = cacheline_size
    engine = GraphEngine(FlatFlash(config.validate()), graph)
    compiled = engine._iteration_trace(target_writes)
    reference = per_vertex_iteration_trace(engine, target_writes)
    assert compiled.rows.tobytes() == reference.rows.tobytes()


def test_pagerank_replay_memory_stays_bounded():
    """Compiling and replaying the perf benchmark's graph never holds
    per-row Python lists for the whole trace: the compile fills numpy
    columns, and replay converts CHUNK_OPS rows at a time."""
    graph = power_law_graph(4_000, avg_degree=16.0, seed=101)
    footprint_pages = -(-(graph.num_edges + 2 * graph.num_vertices) * 8 // 4_096)
    config = scaled_config(dram_pages=max(8, footprint_pages // 3), ssd_to_dram=256)
    engine = GraphEngine(FlatFlash(config), graph)
    tracemalloc.start()
    try:
        engine.pagerank(iterations=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
