"""Trace-compiled vectorized access engine (ROADMAP item 1).

Two phases behind the existing hierarchy API:

1. **Compile** — workload generators emit their access stream as a flat
   structured-array :class:`AccessTrace` (``compile_trace()`` entry
   points in :mod:`repro.workloads`), with numpy doing the address
   arithmetic that the scalar generators do per access.
2. **Replay** — :func:`replay` interprets the trace with a fused fast
   path for DRAM-resident single-page accesses (inlining four tiny
   translation kernels and batching their commutative stat updates) and
   delegates everything else to the unmodified scalar path; the
   kernels and the delegated boundaries are listed in
   :mod:`repro.engine.replay`.

Selection is per-cell via ``FlatFlashConfig.engine``; results are
byte-identical either way (tests/test_engine_equivalence.py and the
sweep byte-identity gate enforce it).  See docs/engine.md.
"""

from repro.engine.guards import engine_enabled, fused_blockers, fused_supported
from repro.engine.trace import OP_LOAD, OP_STORE, TRACE_DTYPE, AccessTrace
from repro.engine.replay import ReplayResult, replay, replay_enabled

__all__ = [
    "AccessTrace",
    "TRACE_DTYPE",
    "OP_LOAD",
    "OP_STORE",
    "ReplayResult",
    "replay",
    "replay_enabled",
    "engine_enabled",
    "fused_blockers",
    "fused_supported",
]
