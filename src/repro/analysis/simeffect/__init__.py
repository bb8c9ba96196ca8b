"""simeffect: interprocedural effect & kernel-eligibility analysis.

The fourth member of the repo's analysis family.  simlint checks
token-level simulation hygiene, simrace checks cross-yield atomicity,
simflow tracks address-domain flow; simeffect reasons *interprocedurally*
— it solves a call-graph fixpoint over the whole ``repro.*`` tree,
inferring a per-function effect summary from a small lattice (PURE,
READS_CLOCK, ADVANCES_CLOCK, YIELDS, RNG, MUTATES_STATS, MUTATES_STATE,
PERSISTS, FAULT_HOOK) and checking it against the declared contracts of
:mod:`repro.effects` (rules SE001–SE006).

With ``--report FILE`` it also writes a kernel-eligibility report,
naming every annotated hot-path function that is certified
batch-compilable and, for the rest, the concrete transitive effect that
disqualifies them.

Run it with ``python -m repro.analysis.simeffect src/repro`` (exit 1 on
findings).  It is whole-program, so it runs on its own rather than
through the per-file :mod:`repro.analysis.analyze` umbrella.
"""

from repro.analysis.findings import Violation
from repro.analysis.simeffect.engine import (
    analyze_paths,
    analyze_sources,
    build,
    build_report,
    infer_sim_scope,
    report_for_paths,
)
from repro.analysis.simeffect.rules import RULES

__all__ = [
    "Violation",
    "analyze_sources",
    "analyze_paths",
    "build",
    "build_report",
    "report_for_paths",
    "infer_sim_scope",
    "RULES",
]
