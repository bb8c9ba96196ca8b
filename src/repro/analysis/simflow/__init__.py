"""simflow: address-space & unit flow analysis for the FlatFlash simulator.

The second member of the repo's analysis family.  simlint checks
token-level simulation hygiene; simflow tracks *what kind of number*
flows where — virtual pages, host frames, BAR-window device pages,
logical pages, physical pages, erase blocks and time units — and flags
cross-domain mixing (rules SF001–SF005).  Kinds come annotation-first
from :mod:`repro.units`, then the sanctioned-translation registry, then
identifier heuristics.

Run it through the front end, ``python -m repro analyze src/`` (exit 1
on findings).  It has no dynamic counterpart: the domain types are plain
``typing.NewType`` aliases at run time.
"""

from repro.analysis.findings import Violation
from repro.analysis.simflow.engine import analyze_source
from repro.analysis.simflow.rules import RULES

__all__ = ["RULES", "Violation", "analyze_source"]
