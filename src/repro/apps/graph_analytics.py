"""GraphChi-style graph analytics over a memory system (§5.3, Fig. 10).

The engine places the CSR arrays (indptr, edge indices) and the per-vertex
state (ranks / labels) in mapped regions and charges every array touch to
the memory system: edge lists are streamed at cache-line granularity
(sequential), per-vertex state is accessed randomly (skewed toward
high-in-degree vertices on power-law graphs).  That is exactly the access
mix of the paper's modified GraphChi with "the entire graphs in FlatFlash".

Numeric results are computed on shadow numpy arrays while the memory
system accounts the accesses — the values are exact, the timing comes from
the simulator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.memory_system import MemorySystem
from repro.engine import OP_LOAD, OP_STORE, AccessTrace, replay
from repro.workloads.graphs import CSRGraph


class GraphEngine:
    """PageRank and Connected-Component Labeling over mapped graph data."""

    #: Bytes per element for the mapped arrays (64-bit ids and floats).
    ELEMENT_SIZE = 8

    def __init__(self, system: MemorySystem, graph: CSRGraph, name: str = "graph") -> None:
        graph.validate()
        self.system = system
        self.graph = graph
        page = system.page_size
        vertex_bytes = (graph.num_vertices + 1) * self.ELEMENT_SIZE
        edge_bytes = max(1, graph.num_edges) * self.ELEMENT_SIZE
        self.indptr_region = system.mmap(
            -(-vertex_bytes // page), name=f"{name}.indptr"
        )
        self.edges_region = system.mmap(-(-edge_bytes // page), name=f"{name}.edges")
        self.state_region = system.mmap(
            -(-vertex_bytes // page), name=f"{name}.state"
        )
        self._line = system.config.geometry.cacheline_size
        self._per_line = self._line // self.ELEMENT_SIZE

    # ------------------------------------------------------------------ #
    # Trace compilation (engine phase 1)
    # ------------------------------------------------------------------ #

    def _iteration_trace(self, target_writes: bool) -> AccessTrace:
        """One iteration's access stream as a flat trace.

        Per vertex, in order: indptr load, own-state load, sequential
        edge-line stream, and — with ``target_writes`` (PageRank's push
        phase) — one state store per out-edge target.
        The stream depends only on the graph structure and geometry, so
        it is compiled once and cached on the graph object (the cache is
        keyed by the region base addresses, which repeat across sweep
        cells that map the same graph the same way).

        The columns are filled with numpy, never as per-row Python lists,
        which bounds the host memory of compiling a large graph: each
        vertex's row count, a prefix sum for its first row, then
        ``np.repeat`` fills for the edge-line and target-store rows.
        """
        esize = self.ELEMENT_SIZE
        line = self._line
        indptr_base = self.indptr_region.addr(0)
        edges_base = self.edges_region.addr(0)
        state_base = self.state_region.addr(0)
        key = (
            "pagerank-iteration" if target_writes else "vertex-scan",
            line,
            indptr_base,
            edges_base,
            state_base,
        )
        cache = self.graph.__dict__.setdefault("_engine_traces", {})
        trace = cache.get(key)
        if trace is not None:
            return trace
        graph = self.graph
        first, last = graph.indptr[:-1], graph.indptr[1:]
        degrees = last - first
        # A vertex streams the lines from the one holding its first edge
        # through the one holding its last; none without out-edges.
        first_line = first * esize // line
        lines = np.where(degrees > 0, -(-last * esize // line) - first_line, 0)
        counts = 2 + lines + (degrees if target_writes else 0)
        starts = np.cumsum(counts) - counts
        addrs = np.empty(int(counts.sum()), dtype=np.uint64)
        sizes = np.full(addrs.shape[0], esize, dtype=np.uint32)
        ops = np.zeros(addrs.shape[0], dtype=np.uint8)
        vertex_offsets = np.arange(graph.num_vertices, dtype=np.int64) * esize
        addrs[starts] = indptr_base + vertex_offsets
        addrs[starts + 1] = state_base + vertex_offsets
        # Row k of a vertex's line run sits at starts + 2 + k and reads
        # line first_line + k: shift a global ramp by each run's origin.
        ramp = np.arange(int(lines.sum()), dtype=np.int64)
        run_origin = np.cumsum(lines) - lines
        rows_at = np.repeat(starts + 2 - run_origin, lines) + ramp
        addrs[rows_at] = edges_base + (np.repeat(first_line - run_origin, lines) + ramp) * line
        sizes[rows_at] = line
        if target_writes:
            # Edge e of vertex v follows v's line run at offset e - first[v].
            ramp = np.arange(graph.num_edges, dtype=np.int64)
            rows_at = np.repeat(starts + 2 + lines - first, degrees) + ramp
            addrs[rows_at] = state_base + graph.indices * esize
            ops[rows_at] = OP_STORE
        trace = AccessTrace.from_columns(addrs, sizes, ops)
        cache[key] = trace
        return trace

    # ------------------------------------------------------------------ #
    # Algorithms
    # ------------------------------------------------------------------ #

    def pagerank(
        self,
        iterations: int = 5,
        damping: float = 0.85,
        charge_accesses: bool = True,
    ) -> np.ndarray:
        """Push-style PageRank; returns the rank vector.

        Each iteration replays the compiled iteration stream, then does
        the push phase as one edge-ordered scatter-add: ``np.add.at``
        applies updates in edge order, the same float accumulation
        sequence as a per-vertex push loop.  ``charge_accesses=False``
        computes without touching the memory system (for verification
        against a reference implementation).
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be > 0, got {iterations}")
        graph = self.graph
        n = graph.num_vertices
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
        degrees = np.diff(graph.indptr)
        out_degree = np.maximum(1, degrees).astype(np.float64)
        trace = self._iteration_trace(target_writes=True) if charge_accesses else None
        for _ in range(iterations):
            if trace is not None:
                replay(self.system, trace)
            next_ranks = np.zeros(n, dtype=np.float64)
            np.add.at(next_ranks, graph.indices, np.repeat(ranks / out_degree, degrees))
            dangling = ranks[degrees == 0].sum()
            ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
        return ranks

    # ------------------------------------------------------------------ #
    # GraphChi-style sharded execution (parallel sliding windows)
    # ------------------------------------------------------------------ #

    def _ensure_csc(self) -> None:
        """Build the target-sorted (CSC) edge layout GraphChi shards use.

        Each shard's edges are stored together with their source values, so
        a shard pass is one sequential stream plus updates confined to the
        shard's vertex interval — that is what lets GraphChi keep the
        active state DRAM-resident for any graph size.
        """
        if hasattr(self, "_csc_sources"):
            return
        graph = self.graph
        order = np.argsort(graph.indices, kind="stable")
        self._csc_sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
        )[order]
        targets_sorted = graph.indices[order]
        counts = np.bincount(targets_sorted, minlength=graph.num_vertices)
        self._csc_indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=self._csc_indptr[1:])
        # Shard storage: each edge record carries (source id, source value).
        shard_bytes = max(1, graph.num_edges) * 2 * self.ELEMENT_SIZE
        self.shard_region = self.system.mmap(
            -(-shard_bytes // self.system.page_size), name="graph.shards"
        )

    def _shard_trace(self, bounds: np.ndarray) -> AccessTrace:
        """One sharded iteration's access stream as a flat trace.

        Per shard, in order: a sequential cache-line stream over the
        shard's (source, value) edge records, then one state store per
        vertex of the shard's interval that has in-edges (window-local
        updates).  After the last shard comes a sequential stream over
        every shard's records: GraphChi's rewrite of the attached source
        values.
        """
        esize = self.ELEMENT_SIZE
        record = 2 * esize
        line = self._line
        shard_base = self.shard_region.addr(0)
        state_base = self.state_region.addr(0)
        indptr = self._csc_indptr
        columns = []

        def stream(first_edge: int, last_edge: int) -> None:
            if last_edge > first_edge:
                start = first_edge * record // line * line
                lines = np.arange(start, last_edge * record, line)
                columns.append((shard_base + lines, line, OP_LOAD))

        for shard in range(len(bounds) - 1):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            stream(int(indptr[lo]), int(indptr[hi]))
            touched = lo + np.flatnonzero(np.diff(indptr[lo : hi + 1]))
            columns.append((state_base + touched * esize, esize, OP_STORE))
        stream(0, self.graph.num_edges)
        return AccessTrace.from_columns(
            np.concatenate([addrs for addrs, _, _ in columns]),
            np.concatenate([np.full(len(addrs), size) for addrs, size, _ in columns]),
            np.concatenate([np.full(len(addrs), op) for addrs, _, op in columns]),
        )

    def pagerank_sharded(
        self,
        iterations: int = 5,
        damping: float = 0.85,
        num_shards: Optional[int] = None,
        charge_accesses: bool = True,
    ) -> np.ndarray:
        """PageRank with GraphChi's sharded access pattern.

        Results are identical to :meth:`pagerank`; only the *memory access
        pattern* differs — per shard: one sequential edge stream (records
        carry the source values), writes confined to the shard's vertex
        interval, and a sequential rewrite of the shard's source values at
        the end of the iteration.
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be > 0, got {iterations}")
        self._ensure_csc()
        graph = self.graph
        n = graph.num_vertices
        if num_shards is None:
            num_shards = max(1, n * self.ELEMENT_SIZE // (16 * self.system.page_size))
        if num_shards < 1 or num_shards > n:
            raise ValueError(f"num_shards must be in [1, {n}], got {num_shards}")
        bounds = np.linspace(0, n, num_shards + 1, dtype=np.int64)
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
        out_degree = np.maximum(1, np.diff(graph.indptr)).astype(np.float64)
        trace = self._shard_trace(bounds) if charge_accesses else None
        for _ in range(iterations):
            if trace is not None:
                replay(self.system, trace)
            next_ranks = np.zeros(n, dtype=np.float64)
            for shard in range(num_shards):
                lo, hi = int(bounds[shard]), int(bounds[shard + 1])
                first = int(self._csc_indptr[lo])
                last = int(self._csc_indptr[hi])
                sources = self._csc_sources[first:last]
                shares = ranks[sources] / out_degree[sources]
                targets_in_shard = np.repeat(
                    np.arange(lo, hi, dtype=np.int64),
                    np.diff(self._csc_indptr[lo : hi + 1]),
                )
                np.add.at(next_ranks, targets_in_shard, shares)
            dangling = ranks[np.diff(graph.indptr) == 0].sum()
            ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
        return ranks

    def connected_components(
        self, max_iterations: int = 100, charge_accesses: bool = True
    ) -> np.ndarray:
        """Label propagation over the undirected closure; returns labels.

        Two vertices share a label iff they are weakly connected.
        """
        graph = self.graph
        n = graph.num_vertices
        labels = np.arange(n, dtype=np.int64)
        # Propagate over both edge directions (weak connectivity).
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        targets = graph.indices
        scan_trace = self._iteration_trace(target_writes=False) if charge_accesses else None
        state_base = self.state_region.addr(0)
        for _iteration in range(max_iterations):
            changed = False
            if scan_trace is not None:
                replay(self.system, scan_trace)
            # Vectorized min-label exchange along every edge (both ways).
            new_labels = labels.copy()
            np.minimum.at(new_labels, targets, labels[sources])
            np.minimum.at(new_labels, sources, labels[targets])
            if scan_trace is not None:
                # One state store per relabelled vertex, in vertex order.
                updated = np.nonzero(new_labels != labels)[0]
                replay(
                    self.system,
                    AccessTrace.stores(
                        state_base + updated * self.ELEMENT_SIZE, self.ELEMENT_SIZE
                    ),
                )
            if not np.array_equal(new_labels, labels):
                changed = True
            labels = new_labels
            if not changed:
                break
        return labels
