"""simflow: address-space & unit flow analysis for the FlatFlash simulator.

The third member of the repo's analysis family.  simlint checks
token-level simulation hygiene, simrace checks cross-yield atomicity;
simflow tracks *what kind of number* flows where — virtual pages, host
frames, BAR-window device pages, logical pages, physical pages, erase
blocks and time units — and flags cross-domain mixing (rules
SF001–SF005).  Kinds come annotation-first from :mod:`repro.units`,
then the sanctioned-translation registry, then identifier heuristics.

Run it with ``python -m repro.analysis.simflow src/`` (exit 1 on
findings) or through the :mod:`repro.analysis.analyze` umbrella.  It
has no dynamic counterpart: the domain types are plain ``typing.NewType``
aliases at run time.
"""

from repro.analysis.findings import Violation
from repro.analysis.simflow.engine import (
    analyze_file,
    analyze_paths,
    analyze_source,
    infer_sim_scope,
)
from repro.analysis.simflow.rules import RULES

__all__ = [
    "Violation",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "infer_sim_scope",
    "RULES",
]
