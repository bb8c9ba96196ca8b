"""Analysis helpers: cost-effectiveness, SSD lifetime, report tables.

These are *runtime* paper-metric helpers (Table 1/Table 3 math over
measured runs).  The static-analysis families live in sub-packages of
their own: simlint, simrace, simflow.
"""

from repro.analysis.cost import DollarCostModel, cost_effectiveness
from repro.analysis.lifetime import lifetime_improvement, write_amplification
from repro.analysis.report import Table, format_ratio

__all__ = [
    "DollarCostModel",
    "cost_effectiveness",
    "write_amplification",
    "lifetime_improvement",
    "Table",
    "format_ratio",
]
