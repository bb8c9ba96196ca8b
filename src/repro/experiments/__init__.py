"""Experiment drivers: one module per table/figure of the paper's §5,
plus the extension studies.

Paper results: :mod:`table1`, :mod:`table2`, :mod:`table3`, :mod:`fig8`,
:mod:`fig9`, :mod:`fig10`, :mod:`fig11_12`, :mod:`fig13`, :mod:`fig14`.
Extensions: :mod:`ablations`, :mod:`device_tech`, :mod:`interference`,
:mod:`breakdown`, :mod:`scorecard`.  Each exposes ``run(...)`` returning
an :class:`~repro.experiments.common.ExperimentResult`, a ``render``
helper that builds the paper-shaped table, and a ``cell`` that packages
both for the sweep (:mod:`repro.sweep`).  Table 1 and the scorecard
measure nothing themselves: their ``run`` reads the figure cells' rows.
``python -m repro run <cell>`` renders one experiment.
"""

from repro.experiments.common import ExperimentResult, SYSTEMS, build_system, scaled_config

__all__ = ["build_system", "scaled_config", "SYSTEMS", "ExperimentResult"]
