"""Trace-compiled access engine: how every plain load/store stream runs.

Two phases behind the existing hierarchy API:

1. **Compile** — workload generators emit their access stream as a flat
   structured-array :class:`AccessTrace` (the ``compile_*`` entry points
   in :mod:`repro.workloads` and :mod:`repro.apps.graph_analytics`), with
   numpy doing the address arithmetic.
2. **Replay** — :func:`replay` interprets the trace with a fused fast
   path for DRAM-resident single-page accesses (inlining four tiny
   translation kernels and batching their commutative stat updates) and
   delegates everything else to the unmodified scalar path; the
   kernels and the delegated boundaries are listed in
   :mod:`repro.engine.replay`.

:func:`fused_blockers` is the only selector between the fused path and
the per-row scalar reference: it names the observable conditions
(the race detector, an armed power-loss deadline, sequential prefetch,
overridden access classes) under which a replay runs every row through
``system._access``; the sanitizers check either path.  Results
are byte-identical either way (tests/test_engine_equivalence.py and
tests/test_sweep_equivalence.py enforce it).  See docs/engine.md.
"""

from repro.engine.guards import fused_blockers
from repro.engine.trace import OP_LOAD, OP_STORE, TRACE_DTYPE, AccessTrace
from repro.engine.replay import ReplayResult, replay

__all__ = [
    "AccessTrace",
    "TRACE_DTYPE",
    "OP_LOAD",
    "OP_STORE",
    "ReplayResult",
    "replay",
    "fused_blockers",
]
