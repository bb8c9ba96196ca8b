"""simlint: domain-specific static analysis for the FlatFlash simulator.

Run it through the front end, ``python -m repro analyze src/``.  See
``docs/static_analysis.md`` for the rule catalogue and suppression
syntax (a ``simlint: disable=SL001`` comment).
"""

from repro.analysis.findings import Violation
from repro.analysis.simlint.engine import lint_source
from repro.analysis.simlint.rules import RULES, Rule

__all__ = ["RULES", "Rule", "Violation", "lint_source"]
