"""Static analysis of the simulator's own source.

Two analyzers, :mod:`~repro.analysis.simlint` and
:mod:`~repro.analysis.simflow`, share the findings plumbing of
:mod:`~repro.analysis.findings` and run behind one front end,
:mod:`~repro.analysis.analyze` (``python -m repro analyze``).
"""
